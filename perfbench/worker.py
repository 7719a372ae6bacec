"""One workload in a fresh interpreter; started by ``run.py``.

Prints ``READY`` once its inputs are built (the parent times set-up from
launch to that line), then runs timed passes until ``--seconds`` have
gone by and prints one JSON line with part times, checks and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import analytic
import cli_session
import simulation
import tracing
from common import HERE, Tally, expected, median

# Every workload module has the same interface: setup(seed, workdir) ->
# state; prepare(state); run_pass(state, tracer, launch) -> (windows per
# part, outputs); check_pass(state, outputs, tally, stats); and PARTS and
# NAMED.  check_pass files per-layer values in ``stats`` by their names.
WORKLOADS = {"cli_session": cli_session, "analytic": analytic, "simulation": simulation}

# Per-layer metric -> unit.  Every workload reports every metric, with
# zero where it never reaches that layer.
PER_LAYER = {
    name: unit
    for group in json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["groups"]
    for name, unit, _ in group["metrics"]
}

# "import time: <self us> | <cumulative us> | <indented module name>"
IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times() -> dict[str, float]:
    """Cumulative import milliseconds from ``python -X importtime``, median of three."""
    wanted = {
        "netsel.cli": "cli.import_ms",
        "numpy": "cli.import.numpy_ms",
        "scipy.linalg": "cli.import.scipy_linalg_ms",
        "scipy.integrate": "cli.import.scipy_integrate_ms",
    }
    samples: dict[str, list[float]] = {key: [] for key in wanted.values()}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import netsel.cli"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seen = dict.fromkeys(wanted.values(), 0.0)
        for match in IMPORT_LINE.finditer(proc.stderr):
            key = wanted.get(match.group(2))
            if key is not None:
                seen[key] = int(match.group(1)) / 1000.0
        for key, value in seen.items():
            samples[key].append(value)
    return {key: median(values) for key, values in samples.items()}


def layer_pass(tracer, stats) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and its checks."""
    spans = tracer.spans
    agg = tracing.aggregate(spans)
    counts = tracer.counts

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    out = {}
    for layer, names in tracing.TRACED.items():
        for fn in names:
            out[f"{layer}.{fn}_s"] = total(f"{layer}.{fn}")
            out[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
    out["cli.self_s"] = agg.get("cli.main", {}).get("self_s", 0.0)
    out["chain.stationary_noise_free.self_s"] = agg.get("chain.stationary_noise_free", {}).get("self_s", 0.0)
    analyses = stats.get("analyses", 0)
    for fn in ("build_kernel", "classify"):
        under = tracing.count_under(spans, f"chain.{fn}", "analytic.large")
        out[f"chain.{fn}.per_analysis"] = under / analyses if analyses else 0.0
    solves = tracing.count_under(spans, "linalg.solve_banded", "analytic.absorption")
    rows = stats.get("interior_rows", 0)
    out["chain.absorption.rows_per_solve"] = rows / solves if solves else 0.0
    events = counts.get("montecarlo.run.events", 0)
    out["montecarlo.run.events"] = events
    out["montecarlo.run.replicas"] = counts.get("montecarlo.run.replicas", 0)
    # Computed, not measured: one 8-byte uniform per event.
    out["montecarlo.uniform_bytes"] = 8 * events
    replicas = counts.get("montecarlo.absorption_frequency.replicas", 0)
    unabsorbed = counts.get("montecarlo.absorption_frequency.unabsorbed", 0)
    absorbed = replicas - unabsorbed
    out["montecarlo.absorption_frequency.replicas"] = replicas
    out["montecarlo.absorption_frequency.unabsorbed"] = unabsorbed
    out["montecarlo.absorption_frequency.absorbed_frac"] = absorbed / replicas if replicas else 0.0
    out["montecarlo.absorption_frequency.mean_steps"] = (
        counts.get("montecarlo.absorption_frequency.absorbed_steps", 0) / absorbed if absorbed else 0.0
    )
    out["replicator.integrate.samples"] = counts.get("replicator.integrate.samples", 0)
    out.update(stats)
    return {key: value for key, value in out.items() if key in PER_LAYER}


def checked_pass(mod, state, tally, tracer=None, launch=False) -> tuple[dict, dict]:
    """One pass and its checks; returns its windows and the checks' stats."""
    windows, outputs = mod.run_pass(state, tracer, launch)
    stats: dict = {}
    mod.check_pass(state, outputs, tally, stats)
    tally.passes += 1
    return windows, stats


def timed_passes(seconds: float, one_pass) -> None:
    """Call ``one_pass`` while another pass still fits in ``seconds``; at least once."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        one_pass()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def measure(mod, state, seconds: float) -> dict:
    """Untraced passes, as users run them, for the end-to-end metrics.

    Returns each pass's (start, end) windows per part; ``run.py`` rescales
    them with the speed it sampled meanwhile and takes the medians.
    """
    tally, digests = Tally(), set()
    passes: list[dict] = []

    def one_pass():
        windows, stats = checked_pass(mod, state, tally, launch=True)
        passes.append(windows)
        if "digest" in stats:
            digests.add(stats["digest"])

    timed_passes(seconds, one_pass)
    # The workload's own process or the processes it launched, whichever
    # grew larger.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "pass_windows": passes,
        "peak_rss_mb": peak_kb / 1024.0,
        "passes": len(passes),
        "tally": tally.summary(state["golden"]["known_defects"]),
        "digests": sorted(digests),
    }


def trace(mod, state, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    One pass as users run it comes first, for the per-layer values that
    need launches (the ``cli.cmd.*`` times).  The traced passes run in
    process, and so do the untraced passes they are compared with.  Span
    times are raw wall seconds.  Layers a workload never reaches read 0.
    """
    tally = Tally()
    layers: dict[str, float] = {key: 0.0 for key in PER_LAYER}
    layers.update(import_times())
    _, stats = checked_pass(mod, state, tally, launch=True)
    layers.update({key: value for key, value in stats.items() if key in PER_LAYER})
    tracer = tracing.Tracer()
    plain, traced, samples = [], [], []

    def one_pass():
        windows, _ = checked_pass(mod, state, tally)
        plain.append(windows)
        tracer.reset()
        tracer.install()
        try:
            windows, stats = checked_pass(mod, state, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(windows)
        samples.append(layer_pass(tracer, stats))

    timed_passes(seconds, one_pass)
    for key in samples[0]:
        layers[key] = median([sample[key] for sample in samples])
    summary = tally.summary(state["golden"]["known_defects"])
    layers["fail_frac"] = summary["failed"] / summary["attempted"]
    per_layer = {key: [layers[key], unit] for key, unit in PER_LAYER.items()}
    # run.py fills in trace.overhead_frac from these, rescaled.
    return {
        "per_layer": per_layer,
        "plain_windows": plain,
        "traced_windows": traced,
        "passes": len(traced),
        "tally": summary,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    mod = WORKLOADS[args.workload]
    state = mod.setup(args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    state["golden"] = expected()
    mod.prepare(state)
    result = trace(mod, state, args.seconds) if args.trace else measure(mod, state, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
