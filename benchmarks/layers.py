"""Time the layers of netsel and write BENCH_4.json.

Usage, from the repository root (no options):

    python benchmarks/layers.py

It imports netsel from the ``src/`` next to this directory and times one
anchored Fermi chain per population size: ratio 1, one anchor per side,
on the calibrated economy of the figures (C = 100, lambda = 30,
x* = 0.68).  Each layer is called REPEATS times at each size after one
untimed warm-up call, and the median wall time of the timed calls is
recorded in milliseconds, next to the Python, numpy and scipy versions.
The Monte Carlo rows time ``montecarlo.run`` on the same chain at
n = 100 (one replica of 2*10^5 events, untraced and traced at three
decimations, and 2,000 replicas of 2*10^4 events) and
``absorption_frequency`` over 10^4 replicas of the unanchored chain at
n = 20, each with its events (or replicas) per second.
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

from netsel import chain, model, montecarlo, protocols  # noqa: E402

OUT = ROOT / "BENCH_4.json"
SIZES = (10**3, 10**4, 10**5, 10**6)
REPEATS = 5
WALK_EVENTS = 200_000
REPLICAS, REPLICA_EVENTS = 2_000, 20_000
ABSORB_REPLICAS = 10_000


def median_ms(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def economy() -> model.NetworkParams:
    gap = model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68)
    return model.NetworkParams(100.0, 30.0, 1.0, gap, 0.0)


def fermi_kernel(params, n: int, anchors: int = 1) -> chain.TransitionKernel:
    population = chain.PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    return chain.build_kernel(params, population, protocols.fermi_from_ratio(params, n, 1.0))


def layers_at(n: int) -> dict[str, float]:
    params = economy()
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


def montecarlo_rows() -> dict[str, dict[str, float]]:
    """Each row's median wall time and its events (or replicas) per second."""
    params = economy()
    kernel = fermi_kernel(params, 100)
    absorbing = fermi_kernel(params, 20, anchors=0)
    walk = montecarlo.SimulationSpec(seed=1, steps=WALK_EVENTS, burn_in=0, initial_state=50)
    many = montecarlo.SimulationSpec(seed=1, steps=REPLICA_EVENTS, replicas=REPLICAS)
    absorb = montecarlo.SimulationSpec(seed=1, steps=100_000, replicas=ABSORB_REPLICAS)
    timed = {"run_untraced": (WALK_EVENTS, lambda: montecarlo.run(walk, kernel))}
    for d in (1, 2, 1000):
        timed[f"run_traced_d{d}"] = (WALK_EVENTS, lambda d=d: montecarlo.run(walk, kernel, d))
    timed["run_2000_replicas"] = (REPLICAS * REPLICA_EVENTS, lambda: montecarlo.run(many, kernel))
    timed["absorption_frequency"] = (
        ABSORB_REPLICAS,
        lambda: montecarlo.absorption_frequency(absorb, absorbing),
    )
    rows = {}
    for name, (ops, fn) in timed.items():
        ms = median_ms(fn)
        rows[name] = {"ms": round(ms, 2), "per_s": round(ops / (ms / 1e3))}
    return rows


def main() -> None:
    by_size = {n: layers_at(n) for n in SIZES}
    mc = montecarlo_rows()
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
        "montecarlo": {
            "chain": "the same chain at n = 100; absorption on it unanchored at n = 20",
            "rows": mc,
            "per_s": "events per second; replicas per second for absorption_frequency",
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for layer, row in record["layers"].items():
        print(f"{layer:20s}" + "".join(f"{v:>12.3f}" for v in row.values()))
    for name, row in mc.items():
        print(f"{name:22s}{row['ms']:>12.2f} ms{row['per_s']:>14,d} /s")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
