"""``simulation``: seeded Monte Carlo, the only workload the seed reaches.

(a) replicas  ``montecarlo.run``, 2,000 replicas x 20,000 events at n = 100;
              where lockstep replicas would win.
(b) walk      one replica x 2*10^7 events at n = 1,000 with a decimated
              trajectory; bypasses any cross-replica engine.
(c) absorb    ``absorption_frequency``, 10^4 replicas at n = 20 on the
              existing lockstep engine with one shared stream.
"""

from __future__ import annotations

import hashlib
import math
import time

from common import economy, span

LOAD = 30.0
REPLICAS = dict(n=100, replicas=2_000, steps=20_000)
WALK = dict(n=1_000, steps=20_000_000, burn_in=1_000_000, decimation=1_000)
ABSORB = dict(n=20, replicas=10_000, cap=100_000)

PARTS = ("replicas", "walk", "absorb")
# Named metric -> (part, operations in it): the part's rate.
NAMED = {
    "replica_events_per_s": ("replicas", REPLICAS["replicas"] * REPLICAS["steps"]),
    "walk_events_per_s": ("walk", WALK["steps"]),
    "absorb_replicas_per_s": ("absorb", ABSORB["replicas"]),
}

# Largest TV distance from the product-form law that still counts as
# agreement.  Seeds 0..31 give at most 0.0076 and 0.023.
TV_LIMIT = {"replicas": 0.02, "walk": 0.06}


def setup(seed: int, workdir) -> dict:
    """Import the library, then build the three kernels and specs."""
    from netsel import chain, protocols
    from netsel.montecarlo import SimulationSpec

    params = economy(LOAD)

    def kernel(n, anchors):
        population = chain.PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
        return chain.build_kernel(params, population, protocols.fermi_from_ratio(params, n, 1.0))

    return {
        "seed": seed,
        "kernels": {
            "replicas": kernel(REPLICAS["n"], 1),
            "walk": kernel(WALK["n"], 1),
            "absorb": kernel(ABSORB["n"], 0),
        },
        "specs": {
            "replicas": SimulationSpec(seed=seed, steps=REPLICAS["steps"], replicas=REPLICAS["replicas"]),
            "walk": SimulationSpec(seed=seed, steps=WALK["steps"], burn_in=WALK["burn_in"]),
            "absorb": SimulationSpec(seed=seed, steps=ABSORB["cap"], replicas=ABSORB["replicas"]),
        },
    }


def prepare(state) -> None:
    """The exact laws the checks compare against."""
    state["refs"] = references(state)


def run_pass(state, tracer=None, launch=False) -> tuple[dict, dict]:
    """Run the three parts; return each part's [(start, end)] and outputs.

    Nothing is launched, so ``launch`` changes nothing.  A part that
    raises leaves its message as its output, which the check counts as
    failed.
    """
    from netsel import montecarlo

    kernels, specs = state["kernels"], state["specs"]
    calls = {
        "replicas": lambda: montecarlo.run(specs["replicas"], kernels["replicas"]),
        "walk": lambda: montecarlo.run(
            specs["walk"], kernels["walk"], trajectory_decimation=WALK["decimation"]
        ),
        "absorb": lambda: montecarlo.absorption_frequency(specs["absorb"], kernels["absorb"]),
    }
    windows, outputs = {}, {}
    for part in PARTS:
        t0 = time.perf_counter()
        with span(tracer, f"simulation.{part}"):
            try:
                outputs[part] = calls[part]()
            except Exception as exc:
                outputs[part] = str(exc)
        windows[part] = [(t0, time.perf_counter())]
    return windows, outputs


def digest(outputs) -> str:
    """SHA-256 over every Monte Carlo output of a pass."""
    h = hashlib.sha256()
    for part in ("replicas", "walk"):
        result = outputs[part]
        if isinstance(result, str):
            h.update(result.encode())
            continue
        h.update(result.histogram.counts.tobytes())
        h.update(result.final_states.tobytes())
        if result.trajectory is not None:
            h.update(result.trajectory.tobytes())
    freq = outputs["absorb"]
    if isinstance(freq, str):
        h.update(freq.encode())
    else:
        h.update(repr((freq.fraction_at_0, freq.fraction_at_n, freq.mean_steps, freq.unabsorbed)).encode())
    return h.hexdigest()


def references(state) -> dict:
    """Exact laws the checks compare against, computed once per run."""
    from netsel import chain

    kernels = state["kernels"]
    absorb = kernels["absorb"]
    n = absorb.n
    at_n = [chain.absorption_analysis(absorb, k0).prob_absorb_at_n for k0 in range(1, n)]
    return {
        "replicas": chain.stationary_product(kernels["replicas"]),
        "walk": chain.stationary_product(kernels["walk"]),
        # Starts are uniform on 1..n-1, so the exact share absorbed at n
        # is the mean of the per-start probabilities.
        "absorb_at_n": sum(at_n) / len(at_n),
        "solo_final": solo_final_state(state),
    }


def solo_final_state(state) -> int:
    """Final state of a one-replica run with the replica spec's seed."""
    from dataclasses import replace

    from netsel import montecarlo

    spec = replace(state["specs"]["replicas"], replicas=1)
    return int(montecarlo.run(spec, state["kernels"]["replicas"]).final_states[0])


def check_pass(state, outputs, tally, stats) -> None:
    """Check the three parts against ``state["refs"]``, and the pass's
    digest against the recorded one for the seed and the run's first."""
    from netsel import chain

    refs = state["refs"]
    stats["montecarlo.tv_to_exact"] = 0.0
    for part in ("replicas", "walk"):
        result = outputs[part]
        if isinstance(result, str):
            tally.record(False, f"{part}: {result}")
            continue
        tv = chain.total_variation(result.histogram.to_distribution(), refs[part])
        stats[f"tv.{part}"] = tv
        stats["montecarlo.tv_to_exact"] = max(stats["montecarlo.tv_to_exact"], tv)
        ok = tv <= TV_LIMIT[part]
        if part == "replicas":
            ok = ok and int(result.final_states[0]) == refs["solo_final"]
        else:
            ok = ok and result.trajectory is not None and result.trajectory[-1, 0] == WALK["steps"]
        tally.record(ok, f"{part}: tv={tv:.4g}")
    freq = outputs["absorb"]
    if isinstance(freq, str):
        tally.record(False, f"absorb: {freq}")
    else:
        p = refs["absorb_at_n"]
        sigma = math.sqrt(p * (1.0 - p) / freq.replicas)
        z = abs(freq.fraction_at_n - p) / sigma
        stats["absorb_z"] = z
        tally.record(
            freq.unabsorbed == 0 and z <= 4.0 and abs(freq.fraction_at_0 + freq.fraction_at_n - 1) <= 1e-12,
            f"absorb: z={z:.3g} unabsorbed={freq.unabsorbed}",
        )
    # The stream is seeded: every pass of a run, and every run of a seed,
    # gives the same outputs.
    sha = stats["digest"] = digest(outputs)
    first = state.setdefault("first_digest", sha)
    recorded = state["golden"]["montecarlo_sha256"].get(str(state["seed"]))
    tally.record(sha == first and recorded in (None, sha),
                 f"Monte Carlo digest {sha}, first of the run {first}, recorded {recorded}")
