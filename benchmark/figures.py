"""Helpers shared by the benchmark's scripts: a percentile, the machine and its speed."""
from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import time
from pathlib import Path

# Time of ``reference_loop`` at the speed the benchmark's timings are scaled
# to; about its median on a 2-vCPU Intel Xeon VM with CPython 3.11.
REFERENCE_LOOP_S = 0.04


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def machine() -> dict[str, object]:
    """CPU count, CPU model and Python version of the machine running the benchmark."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": f"{platform.python_implementation()} {platform.python_version()}"}


def reference_loop() -> None:
    """Fixed work that touches nothing of searchsim: allocate small objects, sort them.

    It holds at most about 4 MB at once, too little to raise a pipeline's peak memory.
    """
    for _ in range(5):
        items = [(i, str(i), [i]) for i in range(20000)]
        items.sort(key=lambda item: item[1])


def loop_times(repeats: int) -> list[float]:
    """Times of ``repeats`` runs of ``reference_loop``: the machine's speed at this moment.

    The garbage collector is off meanwhile, so that the objects the pipeline
    keeps alive do not make the loop slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            began = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - began)
    finally:
        if enabled:
            gc.enable()
    return times
