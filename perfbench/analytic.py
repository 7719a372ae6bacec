"""``analytic``: the closed-form and linear-algebra routes, in one process.

Three parts, through the public API only:

(a) large       anchored Fermi chains at ratio 1, n = 10^5, four loads;
                dominated by the O(n) Python loops of protocols, chain
                and model.
(b) sweep       627 small-n points dispatched on ``classify`` the way
                ``netsel sweep`` does; dominated by fixed per-call cost.
(c) absorption  full absorption tables of unanchored chains, one
                ``absorption_analysis`` per start state; the only part
                where the banded solver does most of the work.
"""

from __future__ import annotations

import math
import time

from common import Tally, economy, span

LARGE_N = 100_000
LARGE_LOADS = (10.0, 30.0, 50.0, 70.0)
SWEEP_LOADS = tuple(float(x) for x in range(5, 100, 5))
SWEEP_SIZES = (10, 100, 1000)
SWEEP_RATIOS = (0.0, 1.0, 10.0, 100.0, 2000.0)
SWEEP_ANCHORS = (0, 1)
ABSORB_RATIOS = (0.5, 1.0, 10.0)
ABSORB_SIZES = (10, 50, 100, 200)
ABSORB_LOAD = 30.0

PARTS = ("large", "sweep", "absorption")
# Named metric -> (part, operations in it): the part's rate.
NAMED = {
    "large_analyses_per_s": ("large", len(LARGE_LOADS)),
    "sweep_points_per_s": (
        "sweep",
        len(SWEEP_LOADS) * len(SWEEP_SIZES) * (len(SWEEP_RATIOS) * len(SWEEP_ANCHORS) + 1),
    ),
    "absorption_rows_per_s": ("absorption", len(ABSORB_RATIOS) * sum(n + 1 for n in ABSORB_SIZES)),
}


def setup(seed: int, workdir) -> dict:
    """Import the library and build every economy the parts use.

    The seed is unused: nothing here is random.
    """
    from netsel import chain, model, protocols  # noqa: F401

    loads = sorted(set(LARGE_LOADS) | set(SWEEP_LOADS) | {ABSORB_LOAD})
    return {"params": {lam: economy(lam) for lam in loads}}


def prepare(state) -> None:
    """One warm-up pass, checked and then forgotten."""
    _, outputs = run_pass(state)
    check_pass(state, outputs, Tally(), {})


# Every operation below keeps the message of an exception as its output,
# not the exception: the check counts it as failed, and a traceback would
# hold every frame's kernel until the next full garbage collection.


def _large_analysis(params):
    from netsel import chain, model, protocols

    population = chain.PopulationConfig(n=LARGE_N, anchored_primary=1, anchored_secondary=1)
    rule = protocols.fermi_from_ratio(params, LARGE_N, 1.0)
    kernel = chain.build_kernel(params, population, rule)
    structure = chain.classify(kernel)
    product = chain.stationary_product(kernel)
    eigen = chain.stationary_eigen(kernel)
    poa = model.expected_poa(params, product)
    mode = chain.distribution_mode(product)
    noise_free = chain.stationary_noise_free(params, population)
    poa_free = model.expected_poa(params, noise_free)
    return kernel, structure, product, eigen, poa, mode, poa_free


def _large(state, out) -> None:
    for lam in LARGE_LOADS:
        try:
            out.append((lam, _large_analysis(state["params"][lam])))
        except Exception as exc:
            out.append((lam, str(exc)))


def _sweep_point(params, n, ratio, anchors):
    """One point, dispatched on ``classify`` as ``cli._sweep_point`` does."""
    from netsel import chain, model, protocols

    population = chain.PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    rule = protocols.fermi_from_ratio(params, n, ratio)
    kernel = chain.build_kernel(params, population, rule)
    structure = chain.classify(kernel)
    if structure.kind == "irreducible":
        return model.expected_poa(params, chain.stationary_product(kernel))
    if structure.kind == "absorbing":
        return model.poa_absorbing(params)
    return model.expected_poa(params, chain.stationary_noise_free(params, population, rule))


def _sweep(state, out) -> None:
    from netsel import chain, model

    for lam in SWEEP_LOADS:
        params = state["params"][lam]
        for n in SWEEP_SIZES:
            for ratio in SWEEP_RATIOS:
                for anchors in SWEEP_ANCHORS:
                    try:
                        value = _sweep_point(params, n, ratio, anchors)
                    except Exception as exc:
                        value = str(exc)
                    out.append((f"ratio={ratio:g}", value))
            try:
                free = chain.stationary_noise_free(params, chain.PopulationConfig(n=n))
                value = model.expected_poa(params, free)
            except Exception as exc:
                value = str(exc)
            out.append(("noise_free", value))


def _absorption(state, out) -> None:
    """Full tables from every start state, as ``netsel stationary`` builds them."""
    from netsel import chain, protocols

    params = state["params"][ABSORB_LOAD]
    for ratio in ABSORB_RATIOS:
        for n in ABSORB_SIZES:
            rule = protocols.fermi_from_ratio(params, n, ratio)
            kernel = chain.build_kernel(params, chain.PopulationConfig(n=n), rule)
            rows = []
            for k0 in range(n + 1):
                try:
                    rows.append(chain.absorption_analysis(kernel, k0))
                except Exception as exc:
                    rows.append(str(exc))
            out.append((ratio, n, rows))


STEPS = {"large": _large, "sweep": _sweep, "absorption": _absorption}


def run_pass(state, tracer=None, launch=False) -> tuple[dict, dict]:
    """Run the three parts; return each part's [(start, end)] and outputs.

    Nothing is launched, so ``launch`` changes nothing.
    """
    windows, outputs = {}, {}
    for part in PARTS:
        out: list = []
        t0 = time.perf_counter()
        with span(tracer, f"analytic.{part}"):
            STEPS[part](state, out)
        windows[part] = [(t0, time.perf_counter())]
        outputs[part] = out
    return windows, outputs


def check_pass(state, outputs, tally, stats) -> None:
    """Check every analysis, sweep point and absorption row of one pass."""
    from netsel import chain, model

    route_tv_max = 0.0
    for lam, result in outputs["large"]:
        if isinstance(result, str):
            tally.record(False, f"large lambda={lam}: {result}")
            continue
        kernel, structure, product, eigen, poa, mode, poa_free = result
        tv = chain.total_variation(product, eigen)
        residual = chain.detailed_balance_residual(kernel, product)
        k_star = model.critical_state(state["params"][lam], LARGE_N)
        route_tv_max = max(route_tv_max, tv)
        ok = (
            structure.kind == "irreducible"
            and tv <= 1e-10
            and residual <= 1e-12
            and all(abs(k - k_star) <= 1 for k in mode)
            and math.isfinite(poa)
            and poa >= 1.0
            and math.isfinite(poa_free)
            and poa_free >= 1.0
        )
        tally.record(ok, f"large lambda={lam}: tv={tv:.3g} residual={residual:.3g} mode={mode}")
    stats["chain.route_tv_max"] = route_tv_max
    stats["analyses"] = len(outputs["large"])
    bad_points = 0
    for label, value in outputs["sweep"]:
        if isinstance(value, str):
            # q(-z) underflows at ratio 2000, classify answers "other" and
            # the noise-free dispatch refuses (ROADMAP, open item 2).
            known = f"sweep {label}" if "not noise-free" in value else None
            ok = tally.record(False, f"sweep {label}: {value}", known)
        else:
            ok = tally.record(math.isfinite(value) and value >= 1.0, f"sweep {label}: {value}")
        bad_points += not ok
    stats["chain.bad_points"] = bad_points
    bad_rows = interior_rows = 0
    for ratio, n, rows in outputs["absorption"]:
        interior_rows += n - 1
        for k0, row in enumerate(rows):
            if isinstance(row, str):
                bad_rows += not tally.record(False, f"absorption ratio={ratio:g} n={n} k0={k0}: {row}")
                continue
            p0, pn = row.prob_absorb_at_0, row.prob_absorb_at_n
            ok = (
                -1e-9 <= p0 <= 1 + 1e-9
                and -1e-9 <= pn <= 1 + 1e-9
                and abs(p0 + pn - 1.0) <= 1e-9
                and (k0 in (0, n) or row.expected_steps > 0)
            )
            # Unanchored tables that come back wrong without raising.
            tally.record(ok, f"absorption ratio={ratio:g} n={n} k0={k0}",
                         f"absorption ratio={ratio:g} n={n}")
            bad_rows += not ok
    stats["chain.bad_rows"] = bad_rows
    stats["interior_rows"] = interior_rows
