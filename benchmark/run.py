#!/usr/bin/env python3
"""Benchmark of the searchsim pipeline: index -> simulate -> evaluate.

    python3 benchmark/run.py --workload rnd-large --seed 1 --seconds 45 --trace 0

Each run generates its workload's collection from ``--seed``, runs one
untimed reference pipeline (traced, with the scripted backend) and then timed
pipelines, each in a fresh process, until ``--seconds`` have passed. Every
pipeline is one closed loop: the CLI's three commands run back to back from
one process. The timed pipelines run untraced; with ``--trace 1`` every
second one is traced instead and the per-layer figures come from those.

Output checks: every command exits 0; every timed pipeline's logs and CSVs
are byte-identical to the reference pipeline's (for ``http-feedback``, apart
from the config hash, since the reference used the scripted backend); the
evaluation CSVs match curves recomputed from the logs; on ``rnd-large`` a
sample of logged queries matches a brute-force BM25 ranking; and no session
ends in failure. The last line printed is the JSON result; the lines before
it give every figure with its unit, quartiles and sample count.

Phase and pipeline times are seconds at a fixed reference speed: each
pipeline scales the CPU part of a phase by how long a reference loop took
around it (see ``pipeline.py``), so that the machine's drifting speed cancels
out. The table gives the unscaled median wall time beside them.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_evaluation  # noqa: E402
from figures import REFERENCE_LOOP_S, machine  # noqa: E402
from synth import generate  # noqa: E402

WORK = ROOT / ".bench_run"
ALL_KINDS = ("RND", "RND_STAR", "TTT", "FTTC", "PRF", "NRF", "CRF", "CRF_PRIME")
FAILED_ENDS = ("backend_failure", "query_generation_failure")
CHILD_TIMEOUT_S = 150
PAGE_SIZE = 10
STUB_START_TIMEOUT_S = 30


@dataclass(frozen=True)
class Workload:
    docs: int
    topics: int
    users: tuple[str, ...]
    max_queries: int
    max_pages: int
    workers: int
    backend: str = "scripted"
    stub_delay_s: float = 0.0
    search_checks: int = 0


# Sizes keep one pipeline at 3-6 s on a 2-core machine, so that a run takes
# several timed pipelines and reports their median: the machine's speed
# wanders by 10-30% from one pipeline to the next.
WORKLOADS = {
    # Index build/save/load, search and curve aggregation do nearly all the
    # work; no LLM calls at all. 40 topics x 10 queries x 2 pages = 800
    # searches; at 4000 documents a search costs about twice the snippets of
    # its page, so search is the largest layer of the simulation.
    "rnd-large": Workload(docs=4000, topics=40, users=("RND",), max_queries=10,
                          max_pages=2, workers=1, search_checks=20),
    # All eight user kinds over HTTP to a localhost stub with a fixed 5 ms
    # service delay: prompt assembly, the transport and the overlap of two
    # sessions set the time; search and the index are a small share.
    "http-feedback": Workload(docs=1000, topics=2, users=ALL_KINDS, max_queries=2,
                              max_pages=1, workers=2, backend="http", stub_delay_s=0.005),
}
TIMES = ("setup_s", "simulate_s", "evaluate_s", "pipeline_s")
END_TO_END = (*((metric, "s") for metric in TIMES), ("peak_rss_mb", "MB"), ("index_mb", "MB"))
_CONFIG_HASH_RE = re.compile(rb'"config_hash":"[0-9a-f]*"')


def write_config(path: Path, workload: Workload, seed: int, backend: str,
                 endpoint: str | None) -> None:
    config = {
        "collection": {"name": "synthetic", "corpus": "collection/corpus.trectext",
                       "topics": "collection/topics.txt", "qrels": "collection/qrels.txt"},
        "users": list(workload.users),
        "session": {"max_queries": workload.max_queries, "page_size": PAGE_SIZE,
                    "max_pages_per_query": workload.max_pages,
                    "queries_per_session": workload.max_queries},
        "llm": {"backend": backend, "endpoint": endpoint, "model": "stub",
                "timeout": 30.0, "retries": 2},
        "campaign_seed": seed,
        # anomalies (such as a repeated follow-up query) are reported, not failures
        "anomaly_threshold": 10**9,
    }
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")


@contextlib.contextmanager
def stub_endpoint(delay_s: float):
    """Start the stub endpoint process; yield its port; stop it and wait for it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "stub.py"), "--delay", str(delay_s)],
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], STUB_START_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError("the stub endpoint did not start")
        yield int(line.split()[1])
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def stub_stats(port: int) -> dict[str, int]:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as resp:
        return json.loads(resp.read())


def run_pipeline(config: Path, out: Path, workload: Workload, *, trace: bool,
                 spans: Path | None = None, search_checks: int = 0) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--config", str(config),
           "--out", str(out), "--workers", str(workload.workers), "--trace", str(int(trace)),
           "--check-search", str(search_checks)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline process exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["index_mb"] = (out / "index.json").stat().st_size / 1e6
    manifest = json.loads((out / "logs" / "manifest.json").read_text(encoding="utf-8"))
    result["sessions"] = len(manifest["sessions"])
    result["failed_sessions"] = sum(s["end_reason"] in FAILED_ENDS for s in manifest["sessions"])
    return result


def output_digests(out: Path, drop_config_hash: bool) -> tuple[dict[str, str], int]:
    """Digest of every log and CSV, and the number of failed summarization calls."""
    digests, failed_summaries = {}, 0
    for path in sorted(out.rglob("*")):
        if path.suffix not in (".jsonl", ".csv") or not path.is_file():
            continue
        data = path.read_bytes()
        if path.suffix == ".jsonl":
            failed_summaries += data.count(b'"message":"summarization failed')
            if drop_config_hash:
                data = _CONFIG_HASH_RE.sub(b"", data)
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests, failed_summaries


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    collection = generate(seed, workload.docs, workload.topics, work / "collection")
    reference_config = work / "reference.json"
    write_config(reference_config, workload, seed, "scripted", None)

    with contextlib.ExitStack() as stack:
        timed_config, port = reference_config, None
        if workload.backend == "http":
            port = stack.enter_context(stub_endpoint(workload.stub_delay_s))
            timed_config = work / "timed.json"
            write_config(timed_config, workload, seed, "http",
                         f"http://127.0.0.1:{port}/v1/chat/completions")

        # reference pipeline: warms caches, gives the deterministic counts and
        # the outputs that every timed pipeline must reproduce
        checks, problems = 0, []
        reference = run_pipeline(reference_config, work / "out", workload, trace=True,
                                 search_checks=workload.search_checks)
        drop_hash = workload.backend == "http"
        want, _ = output_digests(work / "out", drop_hash)
        problems += check_evaluation(work / "out" / "logs", work / "out" / "eval")
        problems += reference.get("search_problems", [])
        if reference.get("search_checked", 0) < workload.search_checks:
            problems.append(f"only {reference.get('search_checked', 0)} of "
                            f"{workload.search_checks} logged queries found for the BM25 check")
        checks += 1 + workload.search_checks
        ref_layers = reference["layers"]
        llm_calls = total_llm_calls(ref_layers)

        timed, traced = [], []
        attempted = failed = 0
        started = time.monotonic()
        i = 0
        while i < (4 if trace else 3) or time.monotonic() - started < seconds:
            with_trace = trace and i % 2 == 1
            before = stub_stats(port) if port else {}
            result = run_pipeline(timed_config, work / "out", workload, trace=with_trace,
                                  spans=work / "spans.jsonl" if with_trace else None)
            served = stub_stats(port) if port else {}
            got, failed_summaries = output_digests(work / "out", drop_hash)
            checks += 2
            if any(result["exit_codes"]):
                problems.append(f"pipeline {i}: exit codes {result['exit_codes']}")
            if got != want:
                problems.append(f"pipeline {i}: logs or CSVs differ from the reference run")
            if port:
                result["stub"] = {k: served.get(k, 0) - before.get(k, 0)
                                  for k in ("connections", "requests", "bad_requests")}
                attempted += result["stub"]["requests"]
                failed += result["stub"]["bad_requests"]
            else:
                attempted += llm_calls
            attempted += result["sessions"]
            failed += result["failed_sessions"] + failed_summaries
            (traced if with_trace else timed).append(result)
            i += 1

    failed += len(problems)
    attempted += checks
    correct = failed == 0

    print(f"workload {name}: seed {seed}, {workload.docs} docs, {workload.topics} topics, "
          f"users {','.join(workload.users)}, {workload.max_queries} queries x "
          f"{workload.max_pages} page(s) of {PAGE_SIZE}, {workload.workers} worker(s)"
          + (f", stub delay {workload.stub_delay_s * 1000:g} ms" if port else ""))
    print("machine: {nproc} CPUs ({cpu}), {python}".format(**machine()))
    print(f"collection: {collection['tokens']} tokens; topic-term df {collection['topic_term_df']}")
    loop_s = [t for r in timed for t in r["loop_s"]]
    print(f"reference loop: median {statistics.median(loop_s) * 1000:.2f} ms over {len(loop_s)}"
          f" timings, {REFERENCE_LOOP_S * 1000:g} ms at the reference speed")
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3} {'wall':>12}  unit")

    for metric, unit in END_TO_END:
        values = [r[metric] for r in timed]
        q1, med, q3 = statistics.quantiles(values, n=4)
        wall = statistics.median(r["wall"][metric] for r in timed) if metric in TIMES else med
        print(f"{metric:26} {med:12.4f} {q1:12.4f} {q3:12.4f} {len(values):3} {wall:12.4f}  {unit}")
    for metric, unit in (("llm_calls_per_session", "count"),
                         ("prompt_kchars_per_session", "kchar")):
        print(f"{metric:26} {ref_layers[metric]:12.4f} {'':12} {'':12} {1:3} {'':12}  {unit}")
    print(f"outputs sha256 {hashlib.sha256(json.dumps(want, sort_keys=True).encode()).hexdigest()}"
          " (logs and CSVs; equal for equal seeds)")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted}: "
          "sessions + LLM requests + output checks)")
    for problem in problems:
        print(f"check failed: {problem}")

    if trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers.update(stub_layers(workload, traced, layers))
        layers["failed_share"] = failed / attempted
        layers["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                      - statistics.median(r["pipeline_s"] for r in timed))
        for key, value in sorted(layers.items()):
            print(f"{key:40} {value:14.6f}")
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in sorted(layers.items())}
    else:
        metrics = {metric: {"value": statistics.median(r[metric] for r in timed), "unit": unit}
                   for metric, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def total_llm_calls(layers: dict) -> int:
    return sum(v for k, v in layers.items() if k.startswith("llm.calls."))


def stub_layers(workload: Workload, traced: list[dict], layers: dict) -> dict[str, float]:
    """Transport figures of the HTTP workload; zero where no endpoint is used."""
    if workload.backend != "http":
        return {"llm.transport_retries": 0, "llm.connections_per_request": 0.0,
                "llm.client_overhead_ms": 0.0}
    stub = traced[0]["stub"]
    return {
        "llm.transport_retries": stub["requests"] - total_llm_calls(layers),
        "llm.connections_per_request": stub["connections"] / stub["requests"],
        "llm.client_overhead_ms": layers["llm.complete_p50_ms"] - workload.stub_delay_s * 1000,
    }


def layer_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if "prompt_kchars" in key:
        return "kchar"
    if key.endswith(("_ratio", "_share", "_efficiency", "_per_request")):
        return "ratio"
    if key.endswith("_pct"):
        return "%"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed pipelines")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the stub endpoint and any pipeline process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "searchsim" / "__init__.py").is_file():
        print(f"error: no searchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
