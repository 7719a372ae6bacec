"""The sweep path against the code it replaced, bit for bit.

``netsel sweep`` runs many small analyses: ``fermi_from_ratio``,
``build_kernel``, ``classify``, a long-run law and ``expected_poa``.  Their
per-call cost was trimmed without changing a result.  Each ``previous_*``
function below is the code before that trim, kept verbatim except for the
names of the previous functions it calls.  Each property draws populations
across the 4,096-state chunk seam, intensities where q underflows, anchors
and loads up to near capacity, and asserts that both versions return the
same bytes, or raise the same exception type with the same message.
"""

import math
import struct

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netsel import chain, model
from netsel.chain import (
    ChainClass,
    ChainStructureError,
    PopulationConfig,
    StationaryDistribution,
    TransitionKernel,
    _check_rates,
    _readonly,
)
from netsel.model import _CHUNK, NetworkParams, calibrate_price_gap
from netsel.protocols import CustomRule, Fermi, PairwiseProportional, fermi_from_ratio

# -- the previous code ---------------------------------------------------------


def previous_fermi_pair(self, payoff_diffs):
    diffs = np.asarray(payoff_diffs, dtype=float)
    q_up, q_down = np.empty(diffs.size), np.empty(diffs.size)
    for lo in range(0, diffs.size, _CHUNK):
        z = self.beta * diffs[lo : lo + _CHUNK]
        e = np.exp((-np.abs(z)).astype(complex)).real
        high, low = 1.0 / (1.0 + e), e / (1.0 + e)
        q_up[lo : lo + _CHUNK] = np.where(z >= 0.0, high, low)
        q_down[lo : lo + _CHUNK] = np.where(z <= 0.0, high, low)
    return q_up, q_down


def previous_pair(rule, payoff_diffs):
    """``rule.pair`` as it was: the previous body for Fermi, the rule's own otherwise."""
    if isinstance(rule, Fermi):
        return previous_fermi_pair(rule, payoff_diffs)
    return rule.pair(payoff_diffs)


def previous_gain(params, pi_s, shares):
    pi_p = model.utility_primary_at_share(params, shares)
    gain = pi_p - pi_s
    tie = np.maximum(np.abs(pi_p, out=pi_p), abs(pi_s), out=pi_p)
    tie *= 32.0 * np.finfo(float).eps
    gain[np.abs(gain) <= tie] = 0.0
    return gain


def previous_rates(params, population, rule):
    n = population.n
    a_p = int(population.anchored_primary)
    a_s = int(population.anchored_secondary)
    denom = n * (n - 1 + a_p + a_s)
    if denom > 2**53:
        raise ValueError(f"n*(n-1+a_p+a_s) = {denom} exceeds 2**53, the limit of exact weights")
    pi_s = model.utility_secondary(params)
    # The gain is monotone in k: finite at k = 0 and k = n, it is finite at every k.
    if not all(math.isfinite(model.utility_primary_at_share(params, x) - pi_s) for x in (0.0, 1.0)):
        raise ValueError("the payoff difference is not finite: the delay or a price overflows")

    def rates(lo, hi):
        k = np.arange(lo, hi, dtype=float)
        q_up, q_down = previous_pair(rule, previous_gain(params, pi_s, k / n))
        return (n - k) * (k + a_p) / denom * q_up, k * (n + a_s - k) / denom * q_down

    return rates


def previous_build_kernel(params, population, rule):
    rates, n = previous_rates(params, population, rule), population.n
    up, down = np.empty(n + 1), np.empty(n + 1)
    for lo in range(0, n + 1, _CHUNK):
        up[lo : lo + _CHUNK], down[lo : lo + _CHUNK] = rates(lo, min(lo + _CHUNK, n + 1))
    return TransitionKernel(_readonly(up), _readonly(down), params, population, rule)


def previous_classify(kernel):
    up, down = kernel.up, kernel.down
    n = kernel.n
    # Rates are never NaN, so a positive minimum means every move is possible.
    if up[:n].min() > 0.0 and down[1:].min() > 0.0:
        return ChainClass(kind="irreducible", detail="all interior moves possible")
    up_pos, down_pos = up > 0.0, down > 0.0
    if kernel._min_rate < math.inf:  # a boundary weight is positive only with an anchor
        up_pos[1:n] = down_pos[1:n] = True
        up_pos[0] = kernel.population.anchored_primary > 0
        down_pos[n] = kernel.population.anchored_secondary > 0
        if up_pos[0] and down_pos[n]:
            return ChainClass(
                kind="irreducible",
                detail="all interior moves possible; some rates underflow to 0 in float",
            )
    if not up_pos[0] and not down_pos[n]:
        # State k reaches n iff every up move from k onwards is possible,
        # and reaches 0 iff every down move below it is.
        suffix_up = np.logical_and.accumulate(up_pos[n - 1 : 0 : -1])[::-1]
        prefix_down = np.logical_and.accumulate(down_pos[1:n])
        if (suffix_up | prefix_down).all():
            return ChainClass(
                kind="absorbing",
                absorbing_states=(0, n),
                detail="boundary states trap and every interior state drains to a boundary",
            )
    zero_up = np.flatnonzero(~up_pos[:n]).tolist()
    zero_down = (np.flatnonzero(~down_pos[1:]) + 1).tolist()
    return ChainClass(
        kind="other",
        detail=f"blocked up moves at k={zero_up}, blocked down moves at k={zero_down}",
    )


def previous_stationary_noise_free(params, population, rule=None):
    rates = previous_rates(params, population, PairwiseProportional() if rule is None else rule)
    return previous_two_point(params, population.n, rates)


def previous_two_point(params, n, rates):
    k_star = model.critical_state(params, n)
    away = False  # a move down from below k* or up from k* onwards
    for lo in range(0, n + 1, _CHUNK):
        up, down = rates(lo, min(lo + _CHUNK, n + 1))
        _check_rates(up, down)  # so no rate is negative, and down[0] is 0
        cut = max(k_star - lo, 0)
        away = away or down[:cut].any() or up[cut:].any()
    if not 1 <= k_star <= n - 1:
        raise ChainStructureError(
            f"critical state k*={k_star} sits on the boundary of 0..{n}; "
            "the two-point law needs an interior critical state"
        )
    if away:
        raise ChainStructureError(
            "rule is not noise-free: the kernel allows moves away from the critical pair"
        )
    up, down = rates(k_star - 1, k_star + 1)
    t_up, t_down = float(up[0]), float(down[1])
    if t_up + t_down == 0.0:
        raise ChainStructureError(
            "chain is frozen around the critical state; two-point law undefined"
        )
    psi = np.zeros(n + 1)
    psi[k_star - 1] = t_down / (t_up + t_down)
    psi[k_star] = 1.0 - psi[k_star - 1]
    return StationaryDistribution(psi=_readonly(psi), kind="two_point_noise_free")


def previous_expected_poa(params, distribution):
    psi = np.asarray(getattr(distribution, "psi", distribution), dtype=float)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("distribution must be a vector over at least two states")
    if psi.min() < -1e-12:
        raise ValueError(f"distribution has negative mass: min entry {psi.min()!r}")
    total = float(psi.sum())
    if not math.isfinite(total):  # a NaN entry passes the sign test and the tolerance below
        raise ValueError(f"distribution has non-finite mass: entries sum to {total!r}")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution is not normalised: entries sum to {total!r}")
    n = psi.size - 1
    mean_welfare = model._chunked_dot(
        psi, lambda lo, hi: model.social_welfare(params, np.arange(lo, hi) / n)
    )
    return mean_welfare / model._minimal_welfare(params)


# -- what a call gave ----------------------------------------------------------------


def bits(value):
    """A value's bytes: arrays, kernels and laws by their vectors, floats by their bits."""
    if isinstance(value, TransitionKernel):
        return bits(value.up), bits(value.down)
    if isinstance(value, StationaryDistribution):
        return value.kind, bits(value.psi)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value  # a ChainClass compares field by field


def outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


# -- what the properties draw --------------------------------------------------------

# Loads up to near capacity, each with its equilibrium share at the target
# (a target of 1 puts k* on the boundary); or prices up to the float limit,
# where the payoff difference overflows.
calibrated = st.builds(
    lambda load, target: NetworkParams(
        100.0, load, 1.0, calibrate_price_gap(100.0, load, 1.0, target), 0.0
    ),
    st.one_of(st.sampled_from([5.0, 30.0, 95.0, 99.9]), st.floats(0.5, 99.99)),
    st.one_of(st.sampled_from([0.68, 0.8, 1.0]), st.floats(0.01, 1.0)),
)
wild = st.builds(
    lambda load, p_primary, p_secondary: NetworkParams(
        100.0, load, 1.0, p_primary, p_secondary
    ),
    st.floats(0.5, 99.99),
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308])),
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e308, -1e308])),
)
economies = st.one_of(calibrated, calibrated, wild)
# Across the seam of the 4,096-state chunks.
sizes = st.one_of(st.integers(2, 60), st.integers(2, 5000), st.integers(4090, 4200))
anchors = st.integers(0, 3)
# q underflows at ratio 2,000 from n = 10 on.
ratios = st.one_of(st.sampled_from([0.0, 1.0, 10.0, 100.0, 2000.0]), st.floats(0.0, 1e5))
rule_specs = st.one_of(
    st.tuples(st.just("ratio"), ratios),
    st.tuples(st.just("fermi"), st.floats(0.0, 1e4)),
    st.tuples(st.just("proportional"), st.floats(1e-3, 1e3)),
    st.tuples(st.just("step"), st.none()),
    st.tuples(st.just("none"), st.none()),
)


def step(z):
    return 1.0 if z > 0.0 else 0.0


def make_rule(spec, params, n):
    """The rule a spec names; None for the default of stationary_noise_free."""
    kind, value = spec
    if kind == "ratio":
        try:
            return fermi_from_ratio(params, n, value)
        except ValueError:
            assume(False)  # no payoff scale to quote the ratio against
    if kind == "fermi":
        return Fermi(beta=value)
    if kind == "proportional":
        return PairwiseProportional(scale=value)
    if kind == "step":
        return CustomRule(fn=step)
    return None


# -- the properties ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None, database=None)
@given(
    beta=st.one_of(st.sampled_from([0.0, 1.0, 1e3]), st.floats(0.0, 1e6)),
    specials=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats()),
        max_size=16,
    ),
    size=st.one_of(st.integers(0, 40), st.integers(4090, 9000)),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 30.0, 1e3, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fermi_pair_keeps_its_bits(beta, specials, size, scale, seed):
    rng = np.random.default_rng(seed)
    zs = np.concatenate([specials, rng.normal(scale=scale, size=size)])
    rng.shuffle(zs)
    rule = Fermi(beta=beta)
    assert outcome(rule.pair, zs) == outcome(previous_fermi_pair, rule, zs)


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, seed=st.integers(0, 2**32 - 1))
def test_gain_keeps_its_bits(params, n, seed):
    pi_s = model.utility_secondary(params)
    # The lattice k/n, whose ties the snap is for; random shares in [0, 1]; and
    # 400 ulps each side of the equilibrium share, where the gain crosses the
    # snap's width of 32 ulps of the payoff.
    x_star = model.equilibrium(params).share_primary
    near = np.clip(x_star * (1.0 + np.arange(-400, 401) * 2.0**-52), 0.0, 1.0)
    for shares in (np.arange(n + 1) / n, np.random.default_rng(seed).random(n + 1), near):
        assert outcome(chain._gain, params, pi_s, shares) == outcome(
            previous_gain, params, pi_s, shares
        )


@settings(max_examples=200, deadline=None, database=None)
@given(
    params=economies,
    n=st.one_of(st.integers(1, 60), st.integers(1, 5000), st.integers(4090, 9000)),
    held=st.floats(0.0, 1.0),
    flaw=st.sampled_from([None, None, "negative", "slightly negative", "nan", "unnormalised"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_expected_poa_keeps_its_bits(params, n, held, flaw, seed):
    rng = np.random.default_rng(seed)
    # Mass on a random share of the states, so that large-n laws leave whole chunks empty.
    psi = rng.random(n + 1) * (rng.random(n + 1) < held)
    psi[rng.integers(n + 1)] += 1.0
    psi /= psi.sum()
    if flaw == "negative":
        psi[rng.integers(n + 1)] = -1e-6
    elif flaw == "slightly negative":
        psi[rng.integers(n + 1)] = -1e-13
    elif flaw == "nan":
        psi[rng.integers(n + 1)] = math.nan
    elif flaw == "unnormalised":
        psi *= 1.5
    assert outcome(model.expected_poa, params, psi) == outcome(previous_expected_poa, params, psi)


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, a_p=anchors, a_s=anchors, spec=rule_specs)
@example(NetworkParams(100.0, 30.0), 5000, 0, 0, ("ratio", 2000.0))
def test_build_kernel_keeps_its_bits_and_class(params, n, a_p, a_s, spec):
    population = PopulationConfig(n, a_p, a_s)
    rule = make_rule(spec, params, n) or PairwiseProportional()
    new = outcome(chain.build_kernel, params, population, rule)
    assert new == outcome(previous_build_kernel, params, population, rule)
    if isinstance(new[0], tuple):  # built: its class, by both routes
        with np.errstate(all="ignore"):
            kernel = chain.build_kernel(params, population, rule)
        assert chain.classify(kernel) == previous_classify(kernel)


@settings(max_examples=200, deadline=None, database=None)
@given(
    n=st.one_of(st.integers(2, 40), st.integers(4090, 4200)),
    zeros=st.floats(0.0, 1.0),
    a_p=anchors,
    a_s=anchors,
    built=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_classify_keeps_the_class_of_hand_made_kernels(n, zeros, a_p, a_s, built, seed):
    # Any zero pattern; with a Fermi rule and its record, the underflow reading applies.
    rng = np.random.default_rng(seed)
    up, down = (0.5 * rng.random(n + 1) * (rng.random(n + 1) >= zeros) for _ in range(2))
    up[n] = down[0] = 0.0
    up[0] *= a_p > 0
    down[n] *= a_s > 0
    record = (NetworkParams(100.0, 30.0), PopulationConfig(n, a_p, a_s), Fermi(beta=1.0))
    kernel = TransitionKernel(up, down, *record) if built else TransitionKernel(up, down)
    assert chain.classify(kernel) == previous_classify(kernel)


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, a_p=anchors, a_s=anchors, spec=rule_specs)
# k* = 4,096: up[k*-1] ends the first chunk and down[k*] starts the second.
@example(NetworkParams(100.0, 30.0, 1.0, calibrate_price_gap(100.0, 30.0, 1.0, 0.8)), 5119, 0, 0,
         ("none", None))  # fmt: skip
@example(NetworkParams(100.0, 30.0, 1.0, calibrate_price_gap(100.0, 30.0, 1.0, 0.8)), 5120, 1, 2,
         ("proportional", 2.0))  # fmt: skip
def test_stationary_noise_free_keeps_its_bits(params, n, a_p, a_s, spec):
    population = PopulationConfig(n, a_p, a_s)
    rule = make_rule(spec, params, n)
    assert outcome(chain.stationary_noise_free, params, population, rule) == outcome(
        previous_stationary_noise_free, params, population, rule
    )
    # The same law from a built kernel, as long_run takes it.
    try:
        with np.errstate(all="ignore"):
            kernel = chain.build_kernel(params, population, rule or PairwiseProportional())
    except ValueError:
        return
    if kernel._min_rate < math.inf or chain.classify(kernel).kind != "other":
        return
    up, down = kernel.up, kernel.down
    kept = outcome(
        previous_two_point, params, n, lambda lo, hi: (up[lo:hi], down[lo:hi])
    )
    assert outcome(lambda: chain.long_run(kernel)[1]) == kept
