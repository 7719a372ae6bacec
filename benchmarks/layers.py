"""Time the layers of netsel and write BENCH_<number>.json.

Usage, from the repository root, with the number of the revision being
recorded as the first argument:

    python benchmarks/layers.py 9                       # writes BENCH_9.json
    python benchmarks/layers.py 13 --baseline ../prev   # and pairs every row with ../prev's

The record is made of groups of rows, one per section (GROUPS).  Each
group runs in a fresh interpreter, ``layers.py --group NAME``, which
imports netsel from the ``src/`` next to this directory (or from the
source tree the environment variable NETSEL_SRC names), pins itself, and
so every process it launches, to one core, so that the speed samples are
taken on the core that runs the work, and prints the group's rows as
JSON.  Without ``--baseline`` each group runs once.  With ``--baseline
DIR``, DIR being a checkout of another revision, ROUNDS rounds run: in
each, every group runs for both revisions back to back, so that the two
runs of a pair are seconds apart, and successive rounds alternate which
revision goes first.  Each section then holds the low median of this
revision's rounds (a value one round measured, so counts stay integers),
and ``baseline`` pairs every rescaled time of every group, each key that
ends in ``scaled_ms``: the low median of each revision, the median of
the rounds' ratios this / baseline, and their range [min, max].  A pair
whose range is wider than SPREAD_BOUND, perfbench's bound, says
``"comparable": false``: it cannot show a change of that size.  Each
revision runs from a copy of its source tree in a temporary directory,
the two at paths of equal length, which ``sources`` records: perfbench
read the same code up to 5% apart from trees at paths of different
lengths.

Each layer is timed in REPEATS spans after one warm-up call.  ``ms`` is
the median wall time of a call, and ``scaled_ms`` the median of the same
calls rescaled by ``perfbench/speed.py``'s ``Speedometer`` to its
reference speed: on a shared machine raw medians of the same code swing
by a third from one run to the next, and the rescaled ones follow the
machine's speed out.  A call shorter than SPAN_S is timed in batches of
``calls`` calls that last about SPAN_S, so that the sampler, which fires
every 10 ms, takes samples inside them; every row says its ``calls``.
Every row also says whether it is ``comparable``: false where its raw
median is under 1 ms, as such rows swing by tens of percent between runs
of the same code.  Both keys are always there, so two records of the
same code have the same keys.  BLAS runs on one thread, as in
``perfbench``; the one exception is ``expected_poa_default_threads``,
``expected_poa`` at every size on every core at OpenBLAS's default
thread count, the way a plain ``import netsel`` runs it.

The layer rows time one anchored Fermi chain per population size n = 10^3
to 10^6: ratio 1, one anchor per side, on the calibrated economy of the
figures (C = 100, lambda = 30, x* = 0.68); they are the rows of the
ROADMAP baseline table.  ``expected_poa`` times the chain's product-form
law and ``expected_poa_two_point`` the noise-free two-point law of the
same economy and anchors, which ``stationary_noise_free`` times.  The
sweep point rows time ``cli._sweep_point``, one point of ``netsel sweep``
from its rule to its expected price of anarchy, on the README's config
(ratio 1, one anchor per side) and on the same config without anchors,
at n = 10, 100 and 1,000.  The absorption rows time ``absorption_table``
on the same chain without anchors at n = 10^3 to 10^5, a fresh kernel
per call, built outside the timed span.  The Monte Carlo rows time
``montecarlo.run`` on the same chain at n = 100 (one replica of 2*10^5
events, untraced and traced at three decimations, and 2,000 replicas of
2*10^4 events), one replica of 2*10^6 events at n = 1,000 (untraced and
traced at decimation 1,000) and at n = 10^6 (untraced, where each block's
occupancy is counted over the block's own range of states), and
``absorption_frequency`` over 10^4
replicas of the unanchored chain at n = 20; that row also counts, in an
untimed replay of its stream, its events and replica-events and the share
of each that its one-by-one tail steps.  The window rows count, in an
untimed run of each one-replica walk and of one of 2*10^6 events at
n = 10^4, the share of all draws ``montecarlo._window`` resolves one by
one, the share the walk skips because they stay at every state, how
often a block leaves a window, how many states a window spans and how
many a block's path spans, and time each walk with ``montecarlo._SPREAD``
at each of SPREADS.  The engine rows time both engines of ``run`` at 32
to 2,000 replicas of 2*10^4 events, forcing each by setting
``montecarlo._LOCKSTEP``.  The replicator row times
``replicator.integrate`` from share 0.2, as ``netsel replicator`` runs the
README's config.  The launch rows time fresh interpreters as a user
starts them, with the peak resident memory of each: ``import
netsel.cli``, ``netsel reproduce --figure all``, ``equilibrium``,
``sweep``, ``simulate``, ``replicator`` and ``stationary`` on the README's
config (the last also without anchors), and one ``stationary_eigen`` at
n = 10^5.  The memory rows are the tracemalloc peak of each large-n stage at n = 10^5 and
10^6, result included, in float64 vectors over the n + 1 states, and of
``stationary_product`` at n = 10^5 and ratio 10^5, where the Fermi q
underflows at nearly every step and takes the log-domain value; the
tracemalloc peak of a lockstep ``run`` of 2*10^4 events at n = 100 with
96 and with 2,000 replicas, in lockstep blocks of ``montecarlo._CELLS``
float64 draws; the minor page faults of perfbench's ``analytic``
``large`` pass; and a fresh
interpreter that runs ``long_run``, ``expected_poa`` and
``stationary_eigen`` at n = 10^6.  They and the default-thread rows are
kept per revision.  ``src_lines`` is the ``wc -l`` of each
``src/netsel/*.py`` and their total.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
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
THREADED = "expected_poa_default_threads"
if sys.argv[1:] != ["--group", THREADED]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from importlib.metadata import PackageNotFoundError, version  # noqa: E402

import numpy as np  # noqa: E402
from common import economy  # noqa: E402
from speed import Speedometer  # noqa: E402

from netsel import chain, cli, model, montecarlo, protocols, replicator  # noqa: E402

SIZES = (10**3, 10**4, 10**5, 10**6)
SWEEP_POINT_SIZES = (10, 100, 1000)
ABSORB_SIZES = (10**3, 10**4, 10**5)
REPEATS = 5
SPAN_S = 0.02
LOAD = 30.0
WALK_EVENTS = 200_000
LONG_WALK_N, LONG_WALK_EVENTS = 1_000, 2_000_000
WIDE_WALK_N = 10**6
REPLICAS, REPLICA_EVENTS = 2_000, 20_000
LOCKSTEP_PEAK_REPLICAS = (96, REPLICAS)
ABSORB_REPLICAS = 10_000
ENGINE_REPLICAS = (32, 64, 80, 96, 112, 128, 256, 2_000)
SPREADS = (0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0)
# Even, so that each revision goes first in as many rounds as the other.
ROUNDS = 4
# perfbench's bound on an end-to-end metric: a paired row whose ratios
# spread wider than this over the rounds cannot show such a change.
SPREAD_BOUND = 0.25
MEMORY_SIZES = (10**5, 10**6)
FAULT_PASSES = 15
# The README's example config: what ``netsel equilibrium``, ``simulate``,
# ``replicator`` and ``sweep`` run.
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

[sweep]
variable = lambda
values = 30, 35
"""
UNANCHORED_CONFIG = README_CONFIG.replace("anchored_primary = 1", "anchored_primary = 0").replace(
    "anchored_secondary = 1", "anchored_secondary = 0"
)
# Samples the machine's speed while a group runs.
SPEED = Speedometer()


def rescaled(spans: list[tuple[float, float]], digits: int, calls: int = 1) -> dict:
    """Median of the (start, end) spans of ``calls`` calls each, in ms per
    call, raw and at the reference speed."""
    raw = statistics.median(end - start for start, end in spans) / calls
    scaled = statistics.median(SPEED.seconds(start, end) for start, end in spans) / calls
    return {
        "ms": round(1e3 * raw, digits),
        "scaled_ms": round(1e3 * scaled, digits),
        "comparable": raw >= 1e-3,
    }


def median_ms(fn, digits: int = 2, fresh=tuple) -> dict:
    """Median time of one ``fn(*fresh())`` call, after one warm-up call.

    ``fresh()`` runs outside the timed spans.  A warm-up shorter than
    SPAN_S sets how many calls each timed span runs, and ``calls`` says
    how many.
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
    return {**rescaled(spans, digits, calls), "calls": calls}


def fermi_kernel(params, n: int, anchors: int = 1) -> chain.TransitionKernel:
    population = chain.PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    return chain.build_kernel(params, population, protocols.fermi_from_ratio(params, n, 1.0))


def layers_at(n: int) -> dict[str, float]:
    params = economy(LOAD)
    population = chain.PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
    rule = protocols.fermi_from_ratio(params, n, 1.0)
    kernel = chain.build_kernel(params, population, rule)
    law = chain.stationary_product(kernel)
    two_point = chain.stationary_noise_free(params, population)
    timed = {
        "fermi_from_ratio": lambda: protocols.fermi_from_ratio(params, n, 1.0),
        "build_kernel": lambda: chain.build_kernel(params, population, rule),
        "stationary_product": lambda: chain.stationary_product(kernel),
        "stationary_eigen": lambda: chain.stationary_eigen(kernel),
        "expected_poa": lambda: model.expected_poa(params, law),
        "expected_poa_two_point": lambda: model.expected_poa(params, two_point),
        "stationary_noise_free": lambda: chain.stationary_noise_free(params, population),
    }
    return {name: median_ms(fn, digits=4) for name, fn in timed.items()}


def layer_rows() -> dict[str, dict[str, dict[str, float]]]:
    """layers_at every size, by layer and then by size."""
    by_size = {str(n): layers_at(n) for n in SIZES}
    return {layer: {n: rows[layer] for n, rows in by_size.items()} for layer in by_size[str(SIZES[0])]}


def sweep_point_rows() -> dict[str, dict[str, dict[str, float]]]:
    """``cli._sweep_point`` at each SWEEP_POINT_SIZES size, with and without anchors."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (("anchored", README_CONFIG), ("unanchored", UNANCHORED_CONFIG)):
            path = Path(tmp) / f"{name}.ini"
            path.write_text(text, encoding="utf-8")
            points = {n: cli.parse_config(path).swept("n", n) for n in SWEEP_POINT_SIZES}
            rows[name] = {
                str(n): median_ms(lambda point=point: cli._sweep_point(point), digits=4)
                for n, point in points.items()
            }
    return rows


def default_threads_rows() -> dict[str, dict[str, float]]:
    """``expected_poa`` at each size, in this interpreter, at the BLAS threads it started with."""
    params = economy(LOAD)
    rows = {}
    for n in SIZES:
        law = chain.stationary_product(fermi_kernel(params, n))
        rows[str(n)] = median_ms(lambda: model.expected_poa(params, law), digits=4)
    return rows


def absorption_rows() -> dict[str, dict[str, float]]:
    """``absorption_table`` on the unanchored chain, a fresh kernel per call."""
    params = economy(LOAD)
    return {
        str(n): median_ms(
            chain.absorption_table, digits=4, fresh=lambda n=n: (fermi_kernel(params, n, anchors=0),)
        )
        for n in ABSORB_SIZES
    }


def montecarlo_rows() -> dict[str, dict[str, float]]:
    """Each row's median wall time and its events (or replicas) per second."""
    params = economy(LOAD)
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
    wide_kernel = fermi_kernel(params, WIDE_WALK_N)
    wide_walk = montecarlo.SimulationSpec(
        seed=1, steps=LONG_WALK_EVENTS, burn_in=0, initial_state=WIDE_WALK_N // 2
    )
    timed["run_n1e6_untraced"] = (LONG_WALK_EVENTS, lambda: montecarlo.run(wide_walk, wide_kernel))
    timed["run_2000_replicas"] = (REPLICAS * REPLICA_EVENTS, lambda: montecarlo.run(many, kernel))
    timed["absorption_frequency"] = (
        ABSORB_REPLICAS,
        lambda: montecarlo.absorption_frequency(absorb, absorbing),
    )
    rows = {}
    for name, (ops, fn) in timed.items():
        row = median_ms(fn)
        rows[name] = {**row, "per_s": round(ops / (row["ms"] / 1e3))}
    rows["absorption_frequency"].update(absorption_counts(absorb, absorbing))
    return rows


def absorption_counts(spec, kernel) -> dict[str, float]:
    """Events and replica-events of ``absorption_frequency``, and the share
    of each with fewer than ``montecarlo._LOCKSTEP`` replicas active, where
    its replicas step one by one.  An untimed replay of its shared stream
    from uniform starts tallies them: each event draws one uniform per
    active replica."""
    n, up, move = kernel.n, kernel.up, kernel.move
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    k = gen.integers(1, n, size=spec.replicas)
    tally = {"events": 0, "replica_events": 0, "tail_events": 0, "tail_replica_events": 0}
    while k.size and tally["events"] < spec.steps:
        tail = k.size < montecarlo._LOCKSTEP
        for key, count in (("events", 1), ("replica_events", k.size)):
            tally[key] += count
            tally[f"tail_{key}"] += count * tail
        u = gen.random(k.size)
        k = k + 2 * (u < up[k]) - (u < move[k])
        k = k[(k != 0) & (k != n)]
    events, replica_events = tally["events"], tally["replica_events"]
    return {
        "events": events,
        "replica_events": replica_events,
        "tail_event_share": round(tally["tail_events"] / events, 4),
        "tail_replica_event_share": round(tally["tail_replica_events"] / replica_events, 4),
    }


def replicator_row() -> dict[str, float]:
    """``integrate`` from share 0.2, and how many samples it returns."""
    params = economy(LOAD)
    samples = len(replicator.integrate(params, 0.2).trajectory)
    return {**median_ms(lambda: replicator.integrate(params, 0.2)), "samples": samples}


def window_rows() -> dict[str, dict[str, float]]:
    """How the one-replica walks above, and one at n = 10^4, went through
    ``montecarlo._window``, and each walk's time at every ``SPREADS`` value."""
    params = economy(LOAD)
    real_window, real_walk, saved = montecarlo._window, montecarlo._walk, montecarlo._SPREAD
    rows = {}
    for n, events in ((100, WALK_EVENTS), (LONG_WALK_N, LONG_WALK_EVENTS), (10**4, LONG_WALK_EVENTS)):
        kernel = fermi_kernel(params, n)
        spec = montecarlo.SimulationSpec(seed=1, steps=events, burn_in=0, initial_state=n // 2)
        tally = {"walked": 0, "odd": 0, "windows": 0, "width": 0, "blocks": 0, "range": 0}

        def window(up, move, k0, lo, hi, u):
            states = real_window(up, move, k0, lo, hi, u)
            # _window's bounds: the draws they leave undecided are odd.
            a, b, u = up[lo : hi + 1], move[lo : hi + 1], u[: states.size]
            settled = (u < a.min()) | ((u >= a.max()) & (u < b.min())) | (u >= b.max())
            tally["odd"] += int(u.size - settled.sum())
            tally["windows"] += 1
            tally["width"] += hi - lo + 1
            return states

        def walk(*args):
            for block in real_walk(*args):
                # Blocks of (t, k, states), without offsets, walk every draw.
                states, walked = block[2], block[3].size - 2 if len(block) == 4 else block[2].size
                tally["blocks"] += 1
                tally["range"] += int(states.max() - states.min()) + 1
                tally["walked"] += walked
                yield block

        montecarlo._window, montecarlo._walk = window, walk
        try:
            montecarlo.run(spec, kernel)
        finally:
            montecarlo._window, montecarlo._walk = real_window, real_walk
        row = {
            "events": events,
            "resolved_share": round(tally["odd"] / events, 4),
            "skipped_share": round(1 - tally["walked"] / events, 4),
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
    kernel = fermi_kernel(economy(LOAD), 100)
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
        unanchored.write_text(UNANCHORED_CONFIG, encoding="utf-8")
        launches = {
            "import_netsel_cli": ["-c", "import netsel.cli"],
            "equilibrium_readme": [
                "-m", "netsel.cli", "equilibrium", "--config", str(config), "--out", "eq"
            ],
            "sweep_readme": ["-m", "netsel.cli", "sweep", "--config", str(config), "--out", "sweep"],
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


def peak_bytes(fn, *args):
    """fn(*args), and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def peak_arrays(n: int, fn, *args):
    """fn(*args), and the tracemalloc peak of the call in float64 vectors of n + 1."""
    result, peak = peak_bytes(fn, *args)
    return result, round(peak / (8 * (n + 1)), 3)


def stage_peaks(n: int) -> dict[str, float]:
    """Each large-n stage's peak on the layer rows' chain at size n."""
    params = economy(LOAD)
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


def log_domain_peak() -> float:
    """``stationary_product``'s peak at n = 10^5 and ratio 10^5, where the
    Fermi q underflows at nearly every step."""
    params, n = economy(LOAD), 10**5
    population = chain.PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
    rule = protocols.fermi_from_ratio(params, n, 1e5)
    kernel = chain.build_kernel(params, population, rule)
    chain.stationary_product(kernel)  # the kernel keeps its class: classify stays outside
    return peak_arrays(n, chain.stationary_product, kernel)[1]


def lockstep_peaks() -> dict[str, float]:
    """The peak of a lockstep ``run`` at n = 100 with each of
    LOCKSTEP_PEAK_REPLICAS replicas, in blocks of _CELLS float64 draws."""
    kernel = fermi_kernel(economy(LOAD), 100)
    montecarlo.run(montecarlo.SimulationSpec(seed=1, steps=1), kernel)  # imports numpy.random
    block = 8 * montecarlo._CELLS
    peaks = {}
    for replicas in LOCKSTEP_PEAK_REPLICAS:
        spec = montecarlo.SimulationSpec(seed=1, steps=REPLICA_EVENTS, replicas=replicas)
        peaks[str(replicas)] = round(peak_bytes(montecarlo.run, spec, kernel)[1] / block, 3)
    return peaks


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
    """The memory rows; the faults first, before the large stages leave a
    heap that later passes would not fault in."""
    faults = large_faults()
    with SPEED, tempfile.TemporaryDirectory() as tmp:
        time.sleep(0.1)
        launch_1e6 = launch_row(["-c", LARGE_LAUNCH], tmp)
    return {
        "stage_peaks": {str(n): stage_peaks(n) for n in MEMORY_SIZES},
        "log_domain_product_peak": log_domain_peak(),
        "lockstep_peaks": lockstep_peaks(),
        "large_faults": faults,
        "launch/large_analysis_1e6": launch_1e6,
    }


# Each section of the record and the function that times its rows.
GROUPS = {
    "layers": layer_rows,
    "sweep_point": sweep_point_rows,
    "absorption_table": absorption_rows,
    "montecarlo": montecarlo_rows,
    "replicator": replicator_row,
    "window": window_rows,
    "engines": engine_rows,
    "launches": launch_rows,
    "memory": memory_rows,
    THREADED: default_threads_rows,
}


def group_rows(group: str) -> dict:
    """One group's rows, timed in this interpreter on one core (every core
    for THREADED) while the speed sampler runs (for memory, its launch only)."""
    if group != THREADED:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    if group == "memory":  # tracemalloc would count the sampler's allocations
        return memory_rows()
    with SPEED:
        time.sleep(0.1)  # the first rows take microseconds: sample the speed before them
        return GROUPS[group]()


def run_group(group: str, src: Path) -> dict:
    """group_rows of the netsel source tree ``src``, from a fresh interpreter."""
    env = {**os.environ, "NETSEL_SRC": str(src)}
    if group == THREADED:
        env.pop("OPENBLAS_NUM_THREADS", None)
    argv = [sys.executable, __file__, "--group", group]
    out = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out)


@contextlib.contextmanager
def equal_paths(baseline: Path | None):
    """This revision's source tree, and the ``baseline`` checkout's, by name,
    each copied into a temporary directory of its own; the directories are
    siblings whose names have the same length, and are removed after."""
    trees = {"this": SRC} if baseline is None else {"this": SRC, "baseline": baseline / "src"}
    copies = {}
    try:
        for name, tree in trees.items():
            copies[name] = Path(tempfile.mkdtemp(prefix="netsel-layers-")) / "src"
            shutil.copytree(tree, copies[name], ignore=shutil.ignore_patterns("__pycache__"))
        yield copies
    finally:
        for copy in copies.values():
            shutil.rmtree(copy.parent, ignore_errors=True)


def rounds(sources: dict[str, Path]) -> dict[str, list[dict]]:
    """Each revision's rounds, each a dict of every group's rows.

    With a baseline among the ``sources``, ROUNDS rounds run every group
    for both revisions back to back, alternating from round to round which
    goes first; without one, a single round runs this revision alone.
    """
    count = 1 if len(sources) == 1 else ROUNDS
    runs: dict[str, list[dict]] = {name: [{} for _ in range(count)] for name in sources}
    for r in range(count):
        for group in GROUPS:
            for name in sorted(sources, reverse=r % 2 == 1):
                print(f"round {r + 1}/{count}: {group}, {name}", file=sys.stderr)
                runs[name][r][group] = run_group(group, sources[name])
    return runs


def median_rows(cells: list):
    """The low median of each number that every run of the same nested rows has."""
    if isinstance(cells[0], dict):
        keys = [key for key in cells[0] if all(key in cell for cell in cells)]
        return {key: median_rows([cell[key] for cell in cells]) for key in keys}
    return statistics.median_low(cells)


def scaled_times(rows: dict, prefix: str = "") -> dict[str, float]:
    """Every rescaled time in nested rows, by its path of keys joined with '/'."""
    times = {}
    for key, value in rows.items():
        if isinstance(value, dict):
            times.update(scaled_times(value, f"{prefix}{key}/"))
        elif key.endswith("scaled_ms"):
            times[prefix + key] = value
    return times


def paired(this: list[dict], baseline: list[dict]) -> dict[str, dict]:
    """Each rescaled time that both revisions' rounds have: the low median of
    each, the median of the rounds' ratios this / baseline and their
    [min, max]; a row is comparable unless that range is wider than SPREAD_BOUND."""
    this_times = [scaled_times(run) for run in this]
    base_times = [scaled_times(run) for run in baseline]
    rows = {}
    for path in this_times[0]:
        if not all(path in times for times in this_times + base_times):
            continue
        ratios = [ours[path] / theirs[path] for ours, theirs in zip(this_times, base_times)]
        rows[path] = {
            "baseline": statistics.median_low(times[path] for times in base_times),
            "this": statistics.median_low(times[path] for times in this_times),
            "ratio": round(statistics.median(ratios), 3),
            "range": [round(min(ratios), 3), round(max(ratios), 3)],
            "comparable": max(ratios) - min(ratios) <= SPREAD_BOUND,
        }
    return rows


def revision(checkout: Path) -> str:
    """The short git revision of a checkout, or its directory name."""
    out = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return out.stdout.strip() or checkout.name


def src_lines(root: Path = ROOT) -> dict[str, int]:
    """Newline count of each module of the package under ``root``, and their total."""
    files = sorted((root / "src" / "netsel").glob("*.py"))
    lines = {path.name: path.read_bytes().count(b"\n") for path in files}
    return {**lines, "total": sum(lines.values())}


def main(argv: list[str]) -> None:
    if len(argv) == 2 and argv[0] == "--group" and argv[1] in GROUPS:
        print(json.dumps(group_rows(argv[1])))
        return
    if not (len(argv) in (1, 3) and argv[0].isdigit() and argv[1:2] in ([], ["--baseline"])):
        sys.exit(
            "usage: python benchmarks/layers.py <number> [--baseline DIR]"
            "   (writes BENCH_<number>.json)"
        )
    out = ROOT / f"BENCH_{argv[0]}.json"
    baseline = Path(argv[2]).resolve() if len(argv) == 3 else None
    with equal_paths(baseline) as sources:
        runs = rounds(sources)
    medians = {name: median_rows(rounds_of) for name, rounds_of in runs.items()}
    rows = medians["this"]
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    over = f"the low median over {ROUNDS} rounds with --baseline, else one run"
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
        f"calls: the calls each span ran to fill about {SPAN_S * 1e3:g} ms; "
        f"each group's rows {over}",
        "unit": "ms",
        "scaled_ms": "the same calls rescaled to perfbench/speed.py's reference speed, one core",
        "layers": rows["layers"],
        "sweep_point": {
            "what": "cli._sweep_point on the README's config (ratio 1, one anchor per side) "
            "and on it without anchors, by n: rule, kernel, long-run law, expected PoA",
            "rows": rows["sweep_point"],
        },
        "absorption_table": {
            "chain": "the same chain without anchors; a fresh kernel per call, built untimed",
            "rows": rows["absorption_table"],
        },
        "montecarlo": {
            "chain": "the same chain at n = 100 (run_n1000_*: at n = 1,000; run_n1e6_*: at "
            "n = 10^6); "
            "absorption on it unanchored at n = 20",
            "rows": rows["montecarlo"],
            "per_s": "events per second; replicas per second for absorption_frequency",
            "tail_*_share": "absorption_frequency's events (replica-events) with fewer than "
            "montecarlo._LOCKSTEP replicas active / all its events (replica-events)",
        },
        "replicator": {
            "what": "replicator.integrate on the same economy from share 0.2, default settings",
            "row": rows["replicator"],
        },
        "window": {
            "what": "one-replica walks from n // 2, burn-in 0, by population size",
            "rows": rows["window"],
            "resolved_share": "draws resolved one by one / all draws",
            "skipped_share": "draws at or past max(move), which stay at every state and "
            "so are not walked / all draws",
            "exits_per_block": "_window calls / blocks - 1: the times a block left a window",
            "mean_window": "states per window, hi - lo + 1, over _window calls",
            "mean_range": "states a block's path spans from the state before it, "
            "max - min + 1, over blocks",
            "spread_*_scaled_ms": "scaled_ms of the same walk with montecarlo._SPREAD at that value",
        },
        "engines": {
            "chain": "the same chain at n = 100; 2*10^4 events per replica, default burn-in",
            "rows": rows["engines"],
            "speedup": "walk_ms / lockstep_ms",
        },
        "launches": {
            "what": "fresh interpreters; the commands through python -m netsel.cli",
            "rows": rows["launches"],
        },
        "memory": {
            "chain": "the layer rows' chain",
            "stage_peaks": "tracemalloc peak of one call, result included, in float64 vectors "
            "over the n + 1 states",
            "log_domain_product_peak": "the same for stationary_product at n = 10^5, ratio 10^5, "
            "where nearly every step takes the log-domain value",
            "lockstep_peaks": f"tracemalloc peak of montecarlo.run, {REPLICA_EVENTS} events at "
            "n = 100, by replica count, in blocks of montecarlo._CELLS float64 draws",
            "large_faults": f"ru_minflt of analytic's large pass, median of {FAULT_PASSES} "
            "passes after a warm-up pass; per_analysis = per_pass / 4",
            "launch/large_analysis_1e6": "fresh interpreter: build the chain at n = 10^6, "
            "long_run, expected_poa, stationary_eigen",
            "rounds": over,
            **{name: rows_of["memory"] for name, rows_of in medians.items()},
        },
        THREADED: {
            "what": "expected_poa on the layer rows' law at OpenBLAS's default thread count, "
            f"on every core; {over}",
            **{name: rows_of[THREADED] for name, rows_of in medians.items()},
        },
        "src_lines": src_lines(),
        "sources": {name: str(path) for name, path in sources.items()},
    }
    if baseline is not None:
        record["baseline"] = {
            "revision": revision(baseline),
            "what": f"every rescaled time of every group, {ROUNDS} rounds, each running every "
            "group for both revisions back to back, alternating which ran first; this and "
            "baseline are the low medians, ratio the median of the rounds' this / baseline "
            f"and range their [min, max]; comparable: whether that range is at most "
            f"{SPREAD_BOUND}",
            "rows": paired(runs["this"], runs["baseline"]),
            "src_lines": src_lines(baseline),
        }
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for layer, row in rows["layers"].items():
        print(f"{layer:20s}" + "".join(f"{v['ms']:>10.3f}/{v['scaled_ms']:<8.3f}" for v in row.values()))
    for name, by_n in rows["sweep_point"].items():
        print(f"sweep_point {name:10s}" + "".join(
            f"{v['ms']:>10.4f}/{v['scaled_ms']:<8.4f}" for v in by_n.values()
        ))
    for n, row in rows["absorption_table"].items():
        print(f"absorption_table {n:>8s}{row['ms']:>10.3f}/{row['scaled_ms']:<8.3f}")
    for name, row in rows["montecarlo"].items():
        print(f"{name:22s}{row['ms']:>12.2f}/{row['scaled_ms']:<10.2f} ms{row['per_s']:>14,d} /s")
    absorb = rows["montecarlo"]["absorption_frequency"]
    print(f"{'':22s}{absorb['events']:>12,d} events, {absorb['tail_event_share']:.4f} in the tail;"
          f" {absorb['replica_events']:,d} replica-events,"
          f" {absorb['tail_replica_event_share']:.4f}")
    ode = rows["replicator"]
    print(f"{'replicator_integrate':22s}{ode['ms']:>12.2f}/{ode['scaled_ms']:<10.2f} ms"
          f"{ode['samples']:>8d} samples")
    for n, row in rows["window"].items():
        print(f"window at n = {n:>5s}{row['resolved_share']:>10.4f} resolved"
              f"{row['skipped_share']:>8.4f} skipped"
              f"{row['exits_per_block']:>8.3f} exits/block{row['mean_window']:>8.1f} wide"
              f"{row['mean_range']:>8.1f} range")
        print(" " * 19 + "  ".join(
            f"{key.split('_')[1]}: {ms:.1f}" for key, ms in row.items() if key.startswith("spread_")
        ) + " scaled ms by _SPREAD")
    for replicas, row in rows["engines"].items():
        print(f"engines at {replicas:>5s}{row['walk_ms']:>12.2f} ms{row['lockstep_ms']:>12.2f} ms"
              f"{row['speedup']:>8.2f}x")
    for name, row in rows["launches"].items():
        print(f"{name:22s}{row['ms']:>12.1f}/{row['scaled_ms']:<10.1f} ms{row['peak_rss_mb']:>10.1f} MB")
    for name, rows_of in medians.items():
        memory = rows_of["memory"]
        for n, peaks in memory["stage_peaks"].items():
            cells = "  ".join(f"{stage} {arrays:.2f}" for stage, arrays in peaks.items())
            print(f"{name:8s} peaks at n = {n:>7s} {cells}")
        print(f"{name:8s} log-domain stationary_product peak {memory['log_domain_product_peak']:.2f}")
        cells = "  ".join(f"{r} replicas {blocks:.3f}" for r, blocks in memory["lockstep_peaks"].items())
        print(f"{name:8s} lockstep peaks in _CELLS blocks: {cells}")
        launched = memory["launch/large_analysis_1e6"]
        print(f"{name:8s} large pass {memory['large_faults']['per_pass']:>8.0f} minor faults;"
              f" n = 10^6 launch {launched['ms']:.1f} ms, {launched['peak_rss_mb']:.1f} MB")
    for name, rows_of in medians.items():
        cells = "".join(f"{row['ms']:>10.3f}" for row in rows_of[THREADED].values())
        print(f"{name:8s} expected_poa at default threads, ms{cells}")
    if baseline is not None:
        for path, pair in record["baseline"]["rows"].items():
            low, high = pair["range"]
            print(f"{path:48s}{pair['baseline']:>10.3f} ->{pair['this']:>10.3f} scaled ms"
                  f"{pair['ratio']:>7.3f}x [{low:.3f}, {high:.3f}]")
    print(f"src lines {record['src_lines']['total']:>12d}")
    if baseline is not None:
        print(f"baseline src lines {record['baseline']['src_lines']['total']:>3d}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
