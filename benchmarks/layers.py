"""Time the layers of netsel and write BENCH_<number>.json.

Usage, from the repository root, with the number of the revision being
recorded as the first argument:

    python benchmarks/layers.py 9                       # writes BENCH_9.json
    python benchmarks/layers.py 13 --baseline ../prev   # and compares eigen and memory

It imports netsel from the ``src/`` next to this directory (or from the
source tree the environment variable NETSEL_SRC names) and times one
anchored Fermi chain per population size: ratio 1, one anchor per side,
on the calibrated economy of the figures (C = 100, lambda = 30,
x* = 0.68).  Each layer is timed in REPEATS spans at each size after one
warm-up call, and the median wall time of a call is recorded in
milliseconds, next to the Python, numpy and scipy versions.
A row whose raw median is under 1 ms says ``"comparable": false``: the
speed sampler fires every 10 ms, so such rows swing by tens of percent
between runs of the same code, rescaled or not, and no change between
two records of them means anything.
Every timed row is recorded twice: ``ms`` is the raw median, and
``scaled_ms`` the median of the same calls rescaled by
``perfbench/speed.py``'s ``Speedometer`` to its reference speed.  On a
shared machine raw medians of the same code swing by a third from one
run to the next; the rescaled ones follow the machine's speed out.  The
script pins itself, and so every process it launches, to one core, so
that the speed samples are taken on the core that runs the work.
A call shorter than SPAN_S is timed in batches: each timed span runs
enough calls, by the warm-up's time, to last about SPAN_S (``calls`` in
the row), so that the sampler, which fires every 10 ms, takes samples
inside it; the row is then the median span divided by its calls.
The absorption rows time ``absorption_table`` on the same chain without
anchors at n = 10^3 to 10^5: the solve and the classification, since
the table is handed out as the kernel's own (n+1, 3) array.  A kernel
keeps its table once solved, so each call gets a fresh kernel, built
outside the timed span.
The Monte Carlo rows time ``montecarlo.run`` on the same chain at
n = 100 (one replica of 2*10^5 events, untraced and traced at three
decimations, and 2,000 replicas of 2*10^4 events), one replica of 2*10^6
events at n = 1,000 (untraced and traced at decimation 1,000), and
``absorption_frequency`` over 10^4 replicas of the unanchored chain at
n = 20, each with its events (or replicas) per second.  The window rows
count, in an untimed run of each one-replica walk and of one of 2*10^6
events from n // 2 at n = 10^4, the share of draws that
``montecarlo._window`` resolves one by one, how often a block leaves a
window, how many states a window spans and how many a block's path
spans; they also time each walk with ``montecarlo._SPREAD`` set to each
of SPREADS, which is what that constant is chosen from.  The engine
rows time both engines of ``run`` at 32 to 2,000 replicas of 2*10^4
events, forcing each by setting ``montecarlo._LOCKSTEP``; they are what
the threshold is chosen from.
The replicator row times ``replicator.integrate`` on the same economy
from the README's start share 0.2 with the default settings, as
``netsel replicator`` runs it, with the number of samples it returns.
The launch rows time fresh interpreters as a user starts them: ``import
netsel.cli`` alone, ``netsel reproduce --figure all``, and ``netsel
simulate``, ``netsel replicator`` and ``netsel stationary`` on the
README's example config, the last also without anchors (an absorption
table), and a script that builds the anchored chain at n = 10^5 and
calls ``stationary_eigen`` once, each with the peak resident memory of
the process.
The memory rows are taken in a fresh interpreter per revision (``--memory``):
the peak of each large-n stage (``build_kernel``, ``stationary_product``,
``stationary_eigen``, ``expected_poa`` and ``stationary_noise_free``) at
n = 10^5 and 10^6, read with tracemalloc as the most memory held at once
during the call beyond what was held before it, result included, in units
of one float64 vector over the n + 1 states; the minor page faults
(``ru_minflt``) of perfbench's ``analytic`` ``large`` pass, the median of
FAULT_PASSES passes after a warm-up one, per pass and per analysis; and a
launch row, a fresh interpreter that builds the anchored chain at
n = 10^6 and runs ``long_run``, ``expected_poa`` and ``stationary_eigen``.
With ``--baseline DIR``, DIR being a checkout of another revision, the
``stationary_eigen`` rows at every size, the replicator row, both engines
at every replica count of the engine rows, the 2,000-replica ``run`` row,
perfbench ``simulation``'s part b walk (its ``WALK``), the eigen launch and the
``netsel replicator`` launch are timed again for both revisions, each in
ROUNDS fresh interpreters that alternate which revision goes first, and
recorded side by side under ``baseline`` with the median over the rounds
and this revision's ratio to the baseline, next to the baseline's
``src_lines``; the memory rows and the default-thread rows are taken for
both revisions in alternating rounds as well.
BLAS runs on one thread, as in ``perfbench``: on a small machine a
threaded dot product of 10^4 elements waits milliseconds for its
helper threads, which would hide the layer's own cost.  The one
exception is the ``expected_poa`` row at OpenBLAS's default thread count
(``--default-threads``): fresh interpreters, not pinned to one core,
time it at every size, the way a plain ``import netsel`` runs it.
The layers are the rows of the ROADMAP baseline table, so records of
successive revisions compare row by row.  ``src_lines`` records the line
count of each ``src/netsel/*.py`` (as ``wc -l`` counts) and their total.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(os.environ.get("NETSEL_SRC", ROOT / "src")).resolve()
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
if sys.argv[1:] != ["--default-threads"]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
CPUS = os.sched_getaffinity(0)  # before main() pins this process to one of them

from importlib.metadata import PackageNotFoundError, version  # noqa: E402

import numpy as np  # noqa: E402
from simulation import WALK as PART_B  # noqa: E402
from speed import Speedometer  # noqa: E402

from netsel import chain, model, montecarlo, protocols, replicator  # noqa: E402

SIZES = (10**3, 10**4, 10**5, 10**6)
ABSORB_SIZES = (10**3, 10**4, 10**5)
REPEATS = 5
SPAN_S = 0.02
WALK_EVENTS = 200_000
LONG_WALK_N, LONG_WALK_EVENTS = 1_000, 2_000_000
REPLICAS, REPLICA_EVENTS = 2_000, 20_000
ABSORB_REPLICAS = 10_000
ENGINE_REPLICAS = (32, 64, 80, 96, 112, 128, 256, 2_000)
SPREADS = (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0)
ROUNDS = 3
MEMORY_SIZES = (10**5, 10**6)
FAULT_PASSES = 15
# The README's example config: what ``netsel simulate`` and ``netsel replicator`` run.
README_CONFIG = """\
[network]
capacity = 100
arrival = 30
target_share = 0.68

[population]
n = 10
anchored_primary = 1
anchored_secondary = 1

[rule]
type = fermi
beta_ratio = 1.0

[simulation]
seed = 9
steps = 20000
replicas = 2
initial_state = 5
trajectory_decimation = 500

[replicator]
initial_share = 0.2
"""
# Samples the machine's speed while main() runs.
SPEED = Speedometer()


def rescaled(spans: list[tuple[float, float]], digits: int, calls: int = 1) -> dict[str, float]:
    """Median of the (start, end) spans of ``calls`` calls each, in ms per
    call, raw and at the reference speed."""
    raw = statistics.median(end - start for start, end in spans) / calls
    scaled = statistics.median(SPEED.seconds(start, end) for start, end in spans) / calls
    row = {"ms": round(1e3 * raw, digits), "scaled_ms": round(1e3 * scaled, digits)}
    return row if raw >= 1e-3 else {**row, "comparable": False}


def median_ms(fn, digits: int = 2, fresh=tuple) -> dict[str, float]:
    """Median time of one ``fn(*fresh())`` call, after one warm-up call.

    ``fresh()`` runs outside the timed spans.  A warm-up shorter than
    SPAN_S sets how many calls each timed span runs, and the row says so.
    """
    args = fresh()
    start = time.perf_counter()
    fn(*args)
    calls = max(1, math.ceil(SPAN_S / (time.perf_counter() - start)))
    spans = []
    for _ in range(REPEATS):
        batch = [fresh() for _ in range(calls)]
        start = time.perf_counter()
        for args in batch:
            fn(*args)
        spans.append((start, time.perf_counter()))
    row = rescaled(spans, digits, calls)
    return row if calls == 1 else {**row, "calls": calls}


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
    timed = {
        "fermi_from_ratio": lambda: protocols.fermi_from_ratio(params, n, 1.0),
        "build_kernel": lambda: chain.build_kernel(params, population, rule),
        "stationary_product": lambda: chain.stationary_product(kernel),
        "stationary_eigen": lambda: chain.stationary_eigen(kernel),
        "expected_poa": lambda: model.expected_poa(params, law),
    }
    return {name: median_ms(fn, digits=4) for name, fn in timed.items()}


def default_threads_rows() -> dict[str, dict[str, float]]:
    """``expected_poa`` at each size, in this interpreter, at the BLAS threads it started with."""
    params = economy()
    rows = {}
    with SPEED:
        time.sleep(0.1)
        for n in SIZES:
            law = chain.stationary_product(fermi_kernel(params, n))
            rows[str(n)] = median_ms(lambda: model.expected_poa(params, law), digits=4)
    return rows


def default_threads_runs(baseline: Path | None) -> dict:
    """default_threads_rows of this revision, and of the checkout ``baseline`` if
    given, in fresh interpreters without OPENBLAS_NUM_THREADS: ROUNDS of them
    alternating with the baseline, or one; the median of each row."""
    sources = {"this": SRC}
    if baseline is not None:
        sources["baseline"] = baseline.resolve() / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    runs: dict[str, list[dict]] = {name: [] for name in sources}
    for r in range(ROUNDS if baseline is not None else 1):
        for name in sorted(sources, reverse=r % 2 == 1):
            out = subprocess.run(
                [sys.executable, __file__, "--default-threads"],
                env={**env, "NETSEL_SRC": str(sources[name])},
                capture_output=True, text=True, check=True,
                preexec_fn=lambda: os.sched_setaffinity(0, CPUS),
            ).stdout
            runs[name].append(json.loads(out))
    return {name: median_rows(rows) for name, rows in runs.items()}


def absorption_rows() -> dict[str, dict[str, float]]:
    """``absorption_table`` on the unanchored chain, a fresh kernel per call."""
    params = economy()
    return {
        str(n): median_ms(
            chain.absorption_table, digits=4, fresh=lambda n=n: (fermi_kernel(params, n, anchors=0),)
        )
        for n in ABSORB_SIZES
    }


def montecarlo_rows() -> dict[str, dict[str, float]]:
    """Each row's median wall time and its events (or replicas) per second."""
    params = economy()
    kernel = fermi_kernel(params, 100)
    absorbing = fermi_kernel(params, 20, anchors=0)
    walk = montecarlo.SimulationSpec(seed=1, steps=WALK_EVENTS, burn_in=0, initial_state=50)
    long_kernel = fermi_kernel(params, LONG_WALK_N)
    long_walk = montecarlo.SimulationSpec(
        seed=1, steps=LONG_WALK_EVENTS, burn_in=0, initial_state=LONG_WALK_N // 2
    )
    many = montecarlo.SimulationSpec(seed=1, steps=REPLICA_EVENTS, replicas=REPLICAS)
    absorb = montecarlo.SimulationSpec(seed=1, steps=100_000, replicas=ABSORB_REPLICAS)
    timed = {"run_untraced": (WALK_EVENTS, lambda: montecarlo.run(walk, kernel))}
    for d in (1, 2, 1000):
        timed[f"run_traced_d{d}"] = (WALK_EVENTS, lambda d=d: montecarlo.run(walk, kernel, d))
    for name, d in (("run_n1000_untraced", None), ("run_n1000_traced_d1000", 1000)):
        timed[name] = (LONG_WALK_EVENTS, lambda d=d: montecarlo.run(long_walk, long_kernel, d))
    timed["run_2000_replicas"] = (REPLICAS * REPLICA_EVENTS, lambda: montecarlo.run(many, kernel))
    timed["absorption_frequency"] = (
        ABSORB_REPLICAS,
        lambda: montecarlo.absorption_frequency(absorb, absorbing),
    )
    rows = {}
    for name, (ops, fn) in timed.items():
        row = median_ms(fn)
        rows[name] = {**row, "per_s": round(ops / (row["ms"] / 1e3))}
    return rows


def replicator_row() -> dict[str, float]:
    """``integrate`` from share 0.2, and how many samples it returns."""
    params = economy()
    samples = len(replicator.integrate(params, 0.2).trajectory)
    return {**median_ms(lambda: replicator.integrate(params, 0.2)), "samples": samples}


def window_rows() -> dict[str, dict[str, float]]:
    """How the one-replica walks above, and one at n = 10^4, went through
    ``montecarlo._window``, and each walk's time at every ``SPREADS`` value."""
    params = economy()
    real_window, real_walk, saved = montecarlo._window, montecarlo._walk, montecarlo._SPREAD
    rows = {}
    for n, events in ((100, WALK_EVENTS), (LONG_WALK_N, LONG_WALK_EVENTS), (10**4, LONG_WALK_EVENTS)):
        kernel = fermi_kernel(params, n)
        spec = montecarlo.SimulationSpec(seed=1, steps=events, burn_in=0, initial_state=n // 2)
        tally = {"draws": 0, "odd": 0, "windows": 0, "width": 0, "blocks": 0, "range": 0}

        def window(up, move, k0, lo, hi, u):
            states = real_window(up, move, k0, lo, hi, u)
            # _window's bounds: the draws they leave undecided are odd.
            a, b, u = up[lo : hi + 1], move[lo : hi + 1], u[: states.size]
            settled = (u < a.min()) | ((u >= a.max()) & (u < b.min())) | (u >= b.max())
            tally["draws"] += u.size
            tally["odd"] += int(u.size - settled.sum())
            tally["windows"] += 1
            tally["width"] += hi - lo + 1
            return states

        def walk(*args):
            for t, k, states in real_walk(*args):
                tally["blocks"] += 1
                tally["range"] += int(states.max() - states.min()) + 1
                yield t, k, states

        montecarlo._window, montecarlo._walk = window, walk
        try:
            montecarlo.run(spec, kernel)
        finally:
            montecarlo._window, montecarlo._walk = real_window, real_walk
        row = {
            "events": events,
            "resolved_share": round(tally["odd"] / tally["draws"], 4),
            "exits_per_block": round(tally["windows"] / tally["blocks"] - 1, 3),
            "mean_window": round(tally["width"] / tally["windows"], 1),
            "mean_range": round(tally["range"] / tally["blocks"], 1),
        }
        try:
            for spread in SPREADS:
                montecarlo._SPREAD = spread
                timed = median_ms(lambda: montecarlo.run(spec, kernel))
                row[f"spread_{spread:g}_scaled_ms"] = timed["scaled_ms"]
        finally:
            montecarlo._SPREAD = saved
        rows[str(n)] = row
    return rows


def engine_rows() -> dict[str, dict[str, float]]:
    """Both engines of ``run`` at each replica count, and their ratio."""
    kernel = fermi_kernel(economy(), 100)
    saved = montecarlo._LOCKSTEP
    rows = {}
    try:
        for replicas in ENGINE_REPLICAS:
            spec = montecarlo.SimulationSpec(seed=1, steps=REPLICA_EVENTS, replicas=replicas)
            row = {}
            for engine, threshold in (("walk", replicas + 1), ("lockstep", 1)):
                montecarlo._LOCKSTEP = threshold
                timed = median_ms(lambda: montecarlo.run(spec, kernel))
                row[f"{engine}_ms"], row[f"{engine}_scaled_ms"] = timed["ms"], timed["scaled_ms"]
            row["speedup"] = round(row["walk_ms"] / row["lockstep_ms"], 2)
            rows[str(replicas)] = row
    finally:
        montecarlo._LOCKSTEP = saved
    return rows


# Linux starts a child's peak RSS at its parent's RSS, so each launch goes
# through this small interpreter instead of this script's large one.
LAUNCHER = """
import resource, subprocess, sys, time
start = time.perf_counter()
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
print(time.perf_counter() - start, code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
# One balance solve in a fresh interpreter, on the layer rows' chain at n = 10^5.
EIGEN_LAUNCH = """
from netsel import chain, model, protocols
params = model.NetworkParams(100.0, 30.0, 1.0, model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
population = chain.PopulationConfig(n=100_000, anchored_primary=1, anchored_secondary=1)
rule = protocols.fermi_from_ratio(params, 100_000, 1.0)
chain.stationary_eigen(chain.build_kernel(params, population, rule))
"""


# One large analysis in a fresh interpreter, at the north star's largest size.
LARGE_LAUNCH = """
from netsel import chain, model, protocols
params = model.NetworkParams(100.0, 30.0, 1.0, model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
population = chain.PopulationConfig(n=1_000_000, anchored_primary=1, anchored_secondary=1)
kernel = chain.build_kernel(params, population, protocols.fermi_from_ratio(params, 1_000_000, 1.0))
_, law = chain.long_run(kernel)
model.expected_poa(params, law)
chain.stationary_eigen(kernel)
"""


def launch(argv: list[str], cwd: str) -> tuple[tuple[float, float], float]:
    """The (start, end) span, shortened to the child's own wall time, and
    the peak RSS in MB of one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    wall, code, peak_kb = float(out[0]), int(out[1]), int(out[2])
    if code:
        raise RuntimeError(f"{argv} exited {code}")
    return (start, start + wall), peak_kb / 1024


def launch_row(argv: list[str], cwd: str) -> dict[str, float]:
    """Median wall time and peak RSS of one launch, after one warm-up."""
    launch(argv, cwd)
    runs = [launch(argv, cwd) for _ in range(REPEATS)]
    return {
        **rescaled([span for span, _ in runs], 1),
        "peak_rss_mb": round(statistics.median(rss for _, rss in runs), 1),
    }


def launch_rows() -> dict[str, dict[str, float]]:
    """Each launch's launch_row."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "experiment.ini"
        config.write_text(README_CONFIG, encoding="utf-8")
        unanchored = Path(tmp) / "unanchored.ini"
        unanchored.write_text(
            README_CONFIG.replace("anchored_primary = 1", "anchored_primary = 0").replace(
                "anchored_secondary = 1", "anchored_secondary = 0"
            ),
            encoding="utf-8",
        )
        launches = {
            "import_netsel_cli": ["-c", "import netsel.cli"],
            "reproduce_all": ["-m", "netsel.cli", "reproduce", "--figure", "all", "--out", "figs"],
            "simulate_readme": ["-m", "netsel.cli", "simulate", "--config", str(config), "--out", "sim"],
            "replicator_readme": [
                "-m", "netsel.cli", "replicator", "--config", str(config), "--out", "ode"
            ],
            "stationary_unanchored": [
                "-m", "netsel.cli", "stationary", "--config", str(unanchored), "--out", "abs"
            ],
            "stationary_eigen_1e5": ["-c", EIGEN_LAUNCH],
        }
        return {name: launch_row(argv, tmp) for name, argv in launches.items()}


def paired_rows() -> dict[str, dict[str, float]]:
    """The rows --baseline times for both revisions, from SRC: ``stationary_eigen``
    at each size, the replicator row, each engine at each replica count, the
    2,000-replica ``run``, part b's walk, and the launches of the eigen script
    and of ``netsel replicator`` on the README config."""
    params = economy()
    rows = {}
    with SPEED:
        time.sleep(0.1)
        for n in SIZES:
            kernel = fermi_kernel(params, n)
            rows[f"stationary_eigen/{n}"] = median_ms(lambda: chain.stationary_eigen(kernel), 4)
        rows["replicator_integrate"] = replicator_row()
        for replicas, row in engine_rows().items():
            for engine in ("walk", "lockstep"):
                rows[f"engines/{replicas}/{engine}"] = {
                    "ms": row[f"{engine}_ms"], "scaled_ms": row[f"{engine}_scaled_ms"]
                }
        kernel = fermi_kernel(params, 100)
        many = montecarlo.SimulationSpec(seed=1, steps=REPLICA_EVENTS, replicas=REPLICAS)
        rows["montecarlo/run_2000_replicas"] = median_ms(lambda: montecarlo.run(many, kernel))
        kernel = fermi_kernel(params, PART_B["n"])
        walk = montecarlo.SimulationSpec(seed=1, steps=PART_B["steps"], burn_in=PART_B["burn_in"])
        rows["montecarlo/part_b_walk"] = median_ms(
            lambda: montecarlo.run(walk, kernel, PART_B["decimation"])
        )
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "experiment.ini"
            config.write_text(README_CONFIG, encoding="utf-8")
            rows["launch/stationary_eigen_1e5"] = launch_row(["-c", EIGEN_LAUNCH], tmp)
            rows["launch/replicator_readme"] = launch_row(
                ["-m", "netsel.cli", "replicator", "--config", str(config), "--out", "ode"], tmp
            )
    return rows


def peak_arrays(n: int, fn, *args):
    """fn(*args), and the tracemalloc peak of the call in float64 vectors of n + 1."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, round((peak - before) / (8 * (n + 1)), 3)


def stage_peaks(n: int) -> dict[str, float]:
    """Each large-n stage's peak on the layer rows' chain at size n."""
    params = economy()
    population = chain.PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
    rule = protocols.fermi_from_ratio(params, n, 1.0)
    kernel, build = peak_arrays(n, chain.build_kernel, params, population, rule)
    chain.stationary_product(kernel)  # the kernel keeps its class: classify stays outside
    law, product = peak_arrays(n, chain.stationary_product, kernel)
    return {
        "build_kernel": build,
        "stationary_product": product,
        "stationary_eigen": peak_arrays(n, chain.stationary_eigen, kernel)[1],
        "expected_poa": peak_arrays(n, model.expected_poa, params, law)[1],
        "stationary_noise_free": peak_arrays(n, chain.stationary_noise_free, params, population)[1],
    }


def large_faults() -> dict[str, float]:
    """Minor page faults of perfbench's analytic ``large`` pass, after a warm-up pass."""
    import analytic

    state = analytic.setup(0, None)
    analytic._large(state, [])
    faults = []
    for _ in range(FAULT_PASSES):
        out = []
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        analytic._large(state, out)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    per_pass = statistics.median(faults)
    return {"per_pass": per_pass, "per_analysis": per_pass / len(analytic.LARGE_LOADS)}


def memory_rows() -> dict:
    """The memory rows of SRC, in this interpreter; the faults first, before
    the large stages leave a heap that later passes would not fault in."""
    faults = large_faults()
    with SPEED, tempfile.TemporaryDirectory() as tmp:
        time.sleep(0.1)
        launch_1e6 = launch_row(["-c", LARGE_LAUNCH], tmp)
    return {
        "stage_peaks": {str(n): stage_peaks(n) for n in MEMORY_SIZES},
        "large_faults": faults,
        "launch/large_analysis_1e6": launch_1e6,
    }


def memory_runs(baseline: Path | None) -> dict:
    """memory_rows of this revision, and of the checkout ``baseline`` if given,
    each in fresh interpreters: ROUNDS of them alternating with the baseline, or one."""
    sources = {"this": SRC}
    if baseline is not None:
        sources["baseline"] = baseline.resolve() / "src"
    runs: dict[str, list[dict]] = {name: [] for name in sources}
    for r in range(ROUNDS if baseline is not None else 1):
        for name in sorted(sources, reverse=r % 2 == 1):
            env = {**os.environ, "NETSEL_SRC": str(sources[name])}
            out = subprocess.run(
                [sys.executable, __file__, "--memory"], env=env, capture_output=True, text=True,
                check=True,
            ).stdout
            runs[name].append(json.loads(out))
    return {name: median_rows(rows) for name, rows in runs.items()}


def median_rows(cells: list):
    """The median of each number that every run of the same nested rows has."""
    if isinstance(cells[0], dict):
        keys = [key for key in cells[0] if all(key in cell for cell in cells)]
        return {key: median_rows([cell[key] for cell in cells]) for key in keys}
    return statistics.median(cells)


def revision(checkout: Path) -> str:
    """The short git revision of a checkout, or its directory name."""
    out = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() or checkout.name


def baseline_rows(baseline: Path) -> dict:
    """paired_rows of this revision and of the checkout ``baseline``, ROUNDS
    fresh interpreters each, alternating which goes first, and the
    baseline's src_lines."""
    sources = {"baseline": baseline.resolve() / "src", "this": SRC}
    runs: dict[str, list[dict]] = {"baseline": [], "this": []}
    for r in range(ROUNDS):
        for name in ("baseline", "this") if r % 2 == 0 else ("this", "baseline"):
            env = {**os.environ, "NETSEL_SRC": str(sources[name])}
            out = subprocess.run(
                [sys.executable, __file__, "--paired"], env=env, capture_output=True, text=True,
                check=True,
            ).stdout
            runs[name].append(json.loads(out))

    def median_of(name: str, row: str) -> dict[str, float]:
        cells = [run[row] for run in runs[name]]
        keys = [key for key in ("ms", "scaled_ms", "peak_rss_mb", "samples") if key in cells[0]]
        median = {key: statistics.median(cell[key] for cell in cells) for key in keys}
        return median if median["ms"] >= 1 else {**median, "comparable": False}

    rows = {}
    for row in runs["this"][0]:
        pair = {name: median_of(name, row) for name in runs}
        pair["ratio"] = round(pair["this"]["ms"] / pair["baseline"]["ms"], 3)
        rows[row] = pair
    return {
        "revision": revision(baseline),
        "what": f"median over {ROUNDS} fresh interpreters per revision, alternating which "
        "ran first; ratio = this ms / baseline ms",
        "rows": rows,
        "src_lines": src_lines(baseline.resolve()),
    }


def src_lines(root: Path = ROOT) -> dict[str, int]:
    """Newline count of each module of the package under ``root``, and their total."""
    files = sorted((root / "src" / "netsel").glob("*.py"))
    lines = {path.name: path.read_bytes().count(b"\n") for path in files}
    return {**lines, "total": sum(lines.values())}


def main(argv: list[str]) -> None:
    if argv == ["--default-threads"]:
        print(json.dumps(default_threads_rows()))
        return
    if argv in (["--paired"], ["--memory"]):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
        print(json.dumps(paired_rows() if argv == ["--paired"] else memory_rows()))
        return
    if not (len(argv) in (1, 3) and argv[0].isdigit() and argv[1:2] in ([], ["--baseline"])):
        sys.exit(
            "usage: python benchmarks/layers.py <number> [--baseline DIR]"
            "   (writes BENCH_<number>.json)"
        )
    out = ROOT / f"BENCH_{argv[0]}.json"
    # One core for the work, the speed samples and every launched process.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    with SPEED:
        time.sleep(0.1)  # the first rows take microseconds: sample the speed before them
        by_size = {n: layers_at(n) for n in SIZES}
        absorption = absorption_rows()
        mc = montecarlo_rows()
        ode = replicator_row()
        windows = window_rows()
        engines = engine_rows()
        launches = launch_rows()
    baseline = baseline_rows(Path(argv[2])) if len(argv) == 3 else None
    memory = memory_runs(Path(argv[2]) if len(argv) == 3 else None)
    threads = default_threads_runs(Path(argv[2]) if len(argv) == 3 else None)
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    record = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy_version,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "chain": "anchored Fermi, ratio 1, one anchor per side; C = 100, lambda = 30, x* = 0.68",
        "statistic": f"median of {REPEATS} timed spans after one warm-up call, per call; "
        f"a row with calls ran that many calls per span to fill about {SPAN_S * 1e3:g} ms",
        "unit": "ms",
        "scaled_ms": "the same calls rescaled to perfbench/speed.py's reference speed, one core",
        "layers": {
            layer: {str(n): by_size[n][layer] for n in SIZES} for layer in by_size[SIZES[0]]
        },
        "absorption_table": {
            "chain": "the same chain without anchors; a fresh kernel per call, built untimed",
            "rows": absorption,
        },
        "montecarlo": {
            "chain": "the same chain at n = 100 (run_n1000_*: at n = 1,000); "
            "absorption on it unanchored at n = 20",
            "rows": mc,
            "per_s": "events per second; replicas per second for absorption_frequency",
        },
        "replicator": {
            "what": "replicator.integrate on the same economy from share 0.2, default settings",
            "row": ode,
        },
        "window": {
            "what": "one-replica walks from n // 2, burn-in 0, by population size",
            "rows": windows,
            "resolved_share": "draws resolved one by one / draws",
            "exits_per_block": "_window calls / blocks - 1: the times a block left a window",
            "mean_window": "states per window, hi - lo + 1, over _window calls",
            "mean_range": "states a block's path spans, max - min + 1, over blocks",
            "spread_*_scaled_ms": "scaled_ms of the same walk with montecarlo._SPREAD at that value",
        },
        "engines": {
            "chain": "the same chain at n = 100; 2*10^4 events per replica, default burn-in",
            "rows": engines,
            "speedup": "walk_ms / lockstep_ms",
        },
        "launches": {
            "what": "fresh interpreters; the commands through python -m netsel.cli",
            "rows": launches,
        },
        "memory": {
            "chain": "the layer rows' chain",
            "stage_peaks": "tracemalloc peak of one call, result included, in float64 vectors "
            "over the n + 1 states",
            "large_faults": f"ru_minflt of analytic's large pass, median of {FAULT_PASSES} "
            "passes after a warm-up pass; per_analysis = per_pass / 4",
            "launch/large_analysis_1e6": "fresh interpreter: build the chain at n = 10^6, "
            "long_run, expected_poa, stationary_eigen",
            "rounds": f"median over {ROUNDS} fresh interpreters per revision with --baseline, "
            "else one",
            **memory,
        },
        "expected_poa_default_threads": {
            "what": "expected_poa on the layer rows' law at OpenBLAS's default thread count, "
            "on every core; with --baseline the median over "
            f"{ROUNDS} fresh interpreters per revision, alternating which ran first, else one",
            **threads,
        },
        "src_lines": src_lines(),
    }
    if baseline is not None:
        record["baseline"] = baseline
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for layer, row in record["layers"].items():
        print(f"{layer:20s}" + "".join(f"{v['ms']:>10.3f}/{v['scaled_ms']:<8.3f}" for v in row.values()))
    for n, row in absorption.items():
        print(f"absorption_table {n:>8s}{row['ms']:>10.3f}/{row['scaled_ms']:<8.3f}")
    for name, row in mc.items():
        print(f"{name:22s}{row['ms']:>12.2f}/{row['scaled_ms']:<10.2f} ms{row['per_s']:>14,d} /s")
    print(f"{'replicator_integrate':22s}{ode['ms']:>12.2f}/{ode['scaled_ms']:<10.2f} ms"
          f"{ode['samples']:>8d} samples")
    for n, row in windows.items():
        print(f"window at n = {n:>5s}{row['resolved_share']:>10.4f} resolved"
              f"{row['exits_per_block']:>8.3f} exits/block{row['mean_window']:>8.1f} wide"
              f"{row['mean_range']:>8.1f} range")
        print(" " * 19 + "  ".join(
            f"{key.split('_')[1]}: {ms:.1f}" for key, ms in row.items() if key.startswith("spread_")
        ) + " scaled ms by _SPREAD")
    for replicas, row in engines.items():
        print(f"engines at {replicas:>5s}{row['walk_ms']:>12.2f} ms{row['lockstep_ms']:>12.2f} ms"
              f"{row['speedup']:>8.2f}x")
    for name, row in launches.items():
        print(f"{name:22s}{row['ms']:>12.1f}/{row['scaled_ms']:<10.1f} ms{row['peak_rss_mb']:>10.1f} MB")
    if baseline is not None:
        for name, pair in baseline["rows"].items():
            print(f"{name:38s}{pair['baseline']['ms']:>10.3f} ->{pair['this']['ms']:>10.3f} ms"
                  f"{pair['ratio']:>8.3f}x")
    for name, rows in memory.items():
        for n, peaks in rows["stage_peaks"].items():
            cells = "  ".join(f"{stage} {arrays:.2f}" for stage, arrays in peaks.items())
            print(f"{name:8s} peaks at n = {n:>7s} {cells}")
        launched = rows["launch/large_analysis_1e6"]
        print(f"{name:8s} large pass {rows['large_faults']['per_pass']:>8.0f} minor faults;"
              f" n = 10^6 launch {launched['ms']:.1f} ms, {launched['peak_rss_mb']:.1f} MB")
    for name, rows in threads.items():
        cells = "".join(f"{row['ms']:>10.3f}" for row in rows.values())
        print(f"{name:8s} expected_poa at default threads, ms{cells}")
    print(f"src lines {record['src_lines']['total']:>12d}")
    if baseline is not None:
        print(f"baseline src lines {baseline['src_lines']['total']:>3d}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
