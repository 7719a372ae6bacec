"""Time the analytic layers of netsel at n = 10^3 ... 10^6 and write BENCH_3.json.

Usage, from the repository root (no options):

    python benchmarks/layers.py

It imports netsel from the ``src/`` next to this directory and times one
anchored Fermi chain per population size: ratio 1, one anchor per side,
on the calibrated economy of the figures (C = 100, lambda = 30,
x* = 0.68).  Each layer is called REPEATS times at each size after one
untimed warm-up call, and the median wall time of the timed calls is
recorded in milliseconds, next to the Python, numpy and scipy versions.
BLAS runs on one thread, as in ``perfbench``: on a small machine a
threaded dot product of 10^4 elements waits milliseconds for its
helper threads, which would hide the layer's own cost.
The layers are the rows of the ROADMAP baseline table, so records of
successive revisions compare row by row.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from netsel import chain, model, protocols  # noqa: E402

OUT = ROOT / "BENCH_3.json"
SIZES = (10**3, 10**4, 10**5, 10**6)
REPEATS = 5


def median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def layers_at(n: int) -> dict[str, float]:
    gap = model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68)
    params = model.NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    population = chain.PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
    rule = protocols.fermi_from_ratio(params, n, 1.0)
    kernel = chain.build_kernel(params, population, rule)
    law = chain.stationary_product(kernel)
    return {
        "fermi_from_ratio": median_ms(lambda: protocols.fermi_from_ratio(params, n, 1.0)),
        "build_kernel": median_ms(lambda: chain.build_kernel(params, population, rule)),
        "stationary_product": median_ms(lambda: chain.stationary_product(kernel)),
        "stationary_eigen": median_ms(lambda: chain.stationary_eigen(kernel)),
        "expected_poa": median_ms(lambda: model.expected_poa(params, law)),
    }


def main() -> None:
    by_size = {n: layers_at(n) for n in SIZES}
    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "chain": "anchored Fermi, ratio 1, one anchor per side; C = 100, lambda = 30, x* = 0.68",
        "statistic": f"median of {REPEATS} timed calls after one warm-up call",
        "unit": "ms",
        "layers": {
            layer: {str(n): round(by_size[n][layer], 4) for n in SIZES}
            for layer in by_size[SIZES[0]]
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for layer, row in record["layers"].items():
        print(f"{layer:20s}" + "".join(f"{v:>12.3f}" for v in row.values()))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
