"""Pieces every workload shares: the economy, check tallies, medians."""

from __future__ import annotations

import contextlib
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The calibrated economy of the figures: C = 100, alpha = 1, and the
# price gap recalibrated at every load so that x* = 0.68.
CAPACITY = 100.0
DELAY_WEIGHT = 1.0
TARGET_SHARE = 0.68


def economy(arrival: float):
    from netsel import model

    gap = model.calibrate_price_gap(CAPACITY, arrival, DELAY_WEIGHT, TARGET_SHARE)
    return model.NetworkParams(
        capacity=CAPACITY,
        arrival=arrival,
        delay_weight=DELAY_WEIGHT,
        price_primary=gap,
        price_secondary=0.0,
    )


def span(tracer, name: str):
    """``tracer.span(name)``, or nothing when the pass is not traced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def expected() -> dict:
    """Golden values recorded at the commit that defined the benchmark."""
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


class Tally:
    """Checked operations of one run.

    Every operation is checked and a failed one is counted, whatever the
    cause.  A failure that matches a defect recorded in ``expected.json``
    is filed under that defect's key; the run stays correct while no key
    exceeds its recorded count per pass and nothing else fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.passes = 0

    def record(self, ok: bool, why: str = "", known: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if known is not None:
                self.known[known] = self.known.get(known, 0) + 1
            else:
                self.unexpected.append(why)
        return ok

    def summary(self, limits: dict[str, int]) -> dict:
        over = {
            key: count
            for key, count in self.known.items()
            if count > limits.get(key, 0) * max(self.passes, 1)
        }
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": not self.unexpected and not over,
            "known_defects": dict(sorted(self.known.items())),
            "over_recorded": over,
            "unexpected": self.unexpected[:20],
        }


def environment() -> dict:
    """Versions and machine the recorded numbers come from."""
    import ctypes
    import os
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas_threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads,
    }


def median(values) -> float:
    return float(statistics.median(values))
