#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each figure spreads.

For every workload and every end-to-end metric in ``BENCHMARK.json`` this
prints the median of the per-run values, their first and third quartiles,
and the spread (third minus first quartile, as a share of the median) next
to the metric's bound. One traced run per workload then checks that the
per-layer metrics are exactly those that ``BENCHMARK.json`` declares.
``--record`` writes the figures, the machine and the commit to
``benchmark/baseline.json``.

    python3 benchmark/prove.py --runs 10 --record
    python3 benchmark/prove.py --runs 5 --workloads http-feedback --seconds 10
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from figures import machine  # noqa: E402
from run import WORKLOADS  # noqa: E402


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(spec: dict, name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, proc.stderr, file=sys.stderr)
        raise SystemExit(f"{name} seed {seed}: run failed")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {key: entry["unit"] for key, entry in result["metrics"].items()}
    if reported != declared:
        raise SystemExit(f"{name}: reported metrics differ from BENCHMARK.json: "
                         f"{sorted(set(reported.items()) ^ set(declared.items()))}")
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", action="store_true", help="write benchmark/baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(),
              "git_sha": git_sha(), "run_seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result = run_once(spec, name, seed, args.seconds, trace=0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        figures = {}
        print(f"{name} ({args.runs} runs)")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < bounds[metric] / 3
            steady &= ok
            figures[metric] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                               "bound": bounds[metric], "values": vals}
            print(f"  {metric:14} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.3f}  bound {bounds[metric]:.2f}  {'ok' if ok else 'WIDE'}")
        layers = run_once(spec, name, 1, args.seconds, trace=1)["metrics"]
        record["workloads"][name] = {"parameters": dataclasses.asdict(WORKLOADS[name]),
                                     "seeds": [1, args.runs],
                                     "metrics": figures,
                                     "layers": {k: v["value"] for k, v in layers.items()}}
    if args.record:
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
