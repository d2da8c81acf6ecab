#!/usr/bin/env python3
"""One index -> simulate -> evaluate pipeline in a process of its own.

Runs the three CLI commands in-process, times each, and prints one JSON
object on its last line of output: the exit codes, the phase times, the
pipeline time and the process's peak resident memory. An untraced pipeline
then repeats ``evaluate`` over the same logs, each time into an emptied output
directory, until it has taken half a second in all, and reports the median as
the evaluate time, because a small campaign evaluates in a few milliseconds.
``--trace 1`` wraps the simulator's module-level calls first and adds the
per-layer figures; ``--check-search N`` ranks N logged queries by brute force
against the built index after the peak memory is read.

The speed of a shared virtual machine drifts by tens of percent over seconds
to minutes, more than a regression worth catching. So each phase is timed
together with a fixed reference loop (``figures.reference_loop``) run just
before and after it, and between the repeats of ``evaluate``; the phase
times reported are the wall times with their CPU part multiplied by
``REFERENCE_LOOP_S`` over the loop's median time, that is, seconds at the
reference speed. Waiting, such as for the stub endpoint, is not scaled. The
unscaled wall times are reported too, under ``wall``.

    python3 benchmark/pipeline.py --config campaign.json --out out --workers 1
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from figures import REFERENCE_LOOP_S, loop_times  # noqa: E402
from searchsim import cli, config, index, session  # noqa: E402

EVALUATE_MIN_S = 0.5
BRACKET_LOOPS = 3  # reference loops timed before and after each phase


def timed(argv: list[str], exit_codes: list[int]) -> tuple[float, float]:
    """Wall and CPU seconds of one CLI command; its exit code goes to ``exit_codes``.

    Files written before (by this pipeline or the one before it) are flushed
    first, so that their writeback does not slow the file operations of the
    command timed; a short ``evaluate`` spends much of its time in them.
    """
    os.sync()
    wall, cpu = time.perf_counter(), time.process_time()
    exit_codes.append(cli.main(argv))
    return time.perf_counter() - wall, time.process_time() - cpu


def at_reference_speed(wall: float, cpu: float, loop_s: float) -> float:
    """``wall`` with its CPU part scaled by the reference loop's time to the reference speed.

    Time spent waiting (on the stub endpoint, say) is kept as it is.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * REFERENCE_LOOP_S / loop_s


def run_pipeline(config: str, out: Path, workers: int, repeat_evaluate: bool) -> dict:
    steps = (
        ("setup_s", ["index", "--config", config, "--out", str(out)]),
        ("simulate_s", ["simulate", "--config", config, "--out", str(out),
                        "--workers", str(workers)]),
        ("evaluate_s", ["evaluate", "--logs", str(out / "logs"), "--out", str(out / "eval")]),
    )
    result: dict = {"exit_codes": [], "wall": {"pipeline_s": 0.0}, "pipeline_s": 0.0,
                    "loop_s": loop_times(BRACKET_LOOPS)}
    loops = result["loop_s"]
    with contextlib.redirect_stdout(io.StringIO()):
        for metric, argv in steps:
            first = len(loops) - BRACKET_LOOPS
            runs = [timed(argv, result["exit_codes"])]
            while (metric == "evaluate_s" and repeat_evaluate
                   and sum(wall for wall, _ in runs) < EVALUATE_MIN_S):
                # the machine's speed changes within a second: sample it
                # between the short runs too
                loops += loop_times(1)
                # write into no existing files, as the first run did: a file
                # rewritten in place is flushed to disk when it is closed
                shutil.rmtree(out / "eval")
                runs.append(timed(argv, result["exit_codes"]))
            loops += loop_times(BRACKET_LOOPS)
            loop_s = statistics.median(loops[first:])
            scaled = [at_reference_speed(wall, cpu, loop_s) for wall, cpu in runs]
            result[metric] = statistics.median(scaled)
            result["wall"][metric] = statistics.median(wall for wall, _ in runs)
            result["pipeline_s"] += scaled[0]
            result["wall"]["pipeline_s"] += runs[0][0]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def logged_queries(logs_dir: Path, count: int) -> list[str]:
    """``count`` distinct queries spread evenly over the campaign's logs."""
    records = (json.loads(line) for path in logs_dir.glob("*.jsonl")
               for line in path.read_text(encoding="utf-8").splitlines())
    queries = sorted({r["payload"]["query"] for r in records
                      if r.get("kind") == session.QUERY_ISSUED})
    step = max(1, len(queries) // count) if count else 1
    return queries[::step][:count]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--check-search", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_pipeline(args.config, args.out, args.workers, repeat_evaluate=not args.trace)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(args.out / "logs", args.workers)
        if args.spans:
            tracer.write_spans(args.spans)
    if args.check_search:
        from checks import check_search
        policy = config.CampaignConfig.from_file(args.config).policy
        queries = logged_queries(args.out / "logs", args.check_search)
        built = index.load_index(args.out / "index.json")
        result["search_checked"] = len(queries)
        result["search_problems"] = check_search(built, index.search, queries,
                                                 policy.max_pages_per_query, policy.page_size)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
