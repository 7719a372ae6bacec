"""Imitation rules and the noise-intensity scale."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsel import protocols
from netsel.chain import PopulationConfig, _gain, build_kernel
from netsel.model import NetworkParams, calibrate_price_gap, utility_primary, utility_secondary
from netsel.protocols import (
    CustomRule,
    Fermi,
    ImitationRule,
    PairwiseProportional,
    beta_reference,
    fermi_from_ratio,
)
from oracle import calibrated_params, outcome, q_at, reference_fermi_pair, same, scalar_q, step


# -- pairwise proportional ------------------------------------------------------


def test_proportional_never_copies_losers():
    rule = PairwiseProportional()
    assert q_at(rule, -0.3) == 0.0
    assert q_at(rule, 0.0) == 0.0


def test_proportional_linear_in_gain():
    rule = PairwiseProportional(scale=2.0)
    assert q_at(rule, 0.1) == pytest.approx(0.2)
    assert q_at(rule, 0.25) == pytest.approx(0.5)


def test_proportional_caps_at_one():
    assert q_at(PairwiseProportional(), 5.0) == 1.0
    assert q_at(PairwiseProportional(scale=10.0), 0.5) == 1.0


def test_proportional_rejects_bad_scale():
    with pytest.raises(ValueError):
        PairwiseProportional(scale=0.0)
    with pytest.raises(ValueError):
        PairwiseProportional(scale=-1.0)


# -- fermi ---------------------------------------------------------------------


def test_fermi_fair_coin_at_zero_difference():
    for beta in (0.0, 0.5, 3.0, 1e4):
        assert q_at(Fermi(beta=beta), 0.0) == 0.5


def test_fermi_zero_beta_ignores_payoffs():
    rule = Fermi(beta=0.0)
    for z in (-100.0, -0.01, 0.3, 42.0):
        assert q_at(rule, z) == 0.5


def test_fermi_complement_identity():
    rng = np.random.default_rng(5)
    rule = Fermi(beta=rng.uniform(0.1, 50.0))
    for z in rng.normal(scale=3.0, size=200):
        assert q_at(rule, z) + q_at(rule, -z) == pytest.approx(1.0, abs=1e-12)


def test_fermi_strictly_increasing():
    rng = np.random.default_rng(6)
    rule = Fermi(beta=2.5)
    zs = np.sort(rng.normal(scale=2.0, size=100))
    values = [q_at(rule, z) for z in zs]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fermi_saturates_without_overflow():
    rule = Fermi(beta=1e3)
    assert q_at(rule, 1e6) == 1.0
    assert q_at(rule, -1e6) == 0.0


def test_fermi_explicit_value():
    assert q_at(Fermi(beta=2.0), 0.5) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)))


def test_fermi_rejects_negative_beta():
    with pytest.raises(ValueError):
        Fermi(beta=-0.1)


# -- custom rules ----------------------------------------------------------------


def test_custom_rule_wraps_callable():
    rule = CustomRule(fn=lambda z: 0.5 + 0.4 * math.tanh(z))
    assert q_at(rule, 0.0) == pytest.approx(0.5)
    assert q_at(rule, 1.0) == pytest.approx(0.5 + 0.4 * math.tanh(1.0))


def test_custom_rule_rejects_decreasing_map():
    with pytest.raises(ValueError, match="nondecreasing"):
        CustomRule(fn=lambda z: 0.5 - 0.3 * math.tanh(z))


def test_custom_rule_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        CustomRule(fn=lambda z: 0.5 + z)  # exceeds 1 at z = 1


def test_custom_rule_rejects_bad_check_range():
    with pytest.raises(ValueError):
        CustomRule(fn=lambda z: 0.5, check_range=(1.0, -1.0))


# -- array evaluation --------------------------------------------------------------

# Explicit ids: a rule's repr names a lambda by its memory address, which
# changes from run to run.
RULES = [
    pytest.param(PairwiseProportional(), id="PairwiseProportional(scale=1.0)"),
    pytest.param(PairwiseProportional(scale=1e-3), id="PairwiseProportional(scale=0.001)"),
    pytest.param(PairwiseProportional(scale=7.5), id="PairwiseProportional(scale=7.5)"),
    pytest.param(Fermi(beta=0.0), id="Fermi(beta=0.0)"),
    pytest.param(Fermi(beta=2.5), id="Fermi(beta=2.5)"),
    pytest.param(Fermi(beta=1e3), id="Fermi(beta=1000.0)"),
    pytest.param(CustomRule(fn=lambda z: 0.5 + 0.4 * math.tanh(z)), id="CustomRule(tanh)"),
]

EDGE_DIFFS = [
    0.0, -0.0, 1e6, -1e6, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-300, -1e-300, 1.0, -1.0, 0.2, -0.2, 1e300, -1e300,
]  # fmt: skip


def assert_pair_is_scalar_q_bitwise(rule, zs):
    q_up, q_down = rule.pair(zs)
    for got, diffs in ((q_up, zs.tolist()), (q_down, (-zs).tolist())):
        assert got.dtype == np.float64 and got.shape == zs.shape
        assert got.tobytes() == np.array([scalar_q(rule, z) for z in diffs]).tobytes()


@pytest.mark.parametrize("rule", RULES)
def test_rule_arrays_match_the_scalar_rule_bitwise(rule):
    rng = np.random.default_rng(21)
    zs = np.concatenate(
        [EDGE_DIFFS, rng.normal(scale=1e-3, size=500), rng.normal(scale=3.0, size=500)]
    )
    assert_pair_is_scalar_q_bitwise(rule, zs)


class Step(ImitationRule):
    """A third-party rule that defines a scalar map but not ``pair``, so it stays abstract."""

    def probability(self, payoff_diff):
        return step(payoff_diff)


def test_scalar_only_rule_builds_a_kernel():
    with pytest.raises(TypeError, match="pair"):
        Step()
    # The same scalar map comes in through CustomRule instead.
    rule = CustomRule(fn=step)
    assert [a.tolist() for a in rule.pair(np.array([-1.0, 0.0, 2.0]))] == [
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), rule)
    # Noise-free one-way flow: climbs only below k* = 7, descends only from it.
    assert np.flatnonzero(kernel.up).tolist() == list(range(1, 7))
    assert np.flatnonzero(kernel.down).tolist() == list(range(7, 10))


def test_fermi_kernel_takes_each_exponential_once(monkeypatch):
    sizes = []

    class CountingNumpy:
        """The module's numpy, with the elements that reach complex ``exp`` counted."""

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            if np.iscomplexobj(x):
                sizes.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(protocols, "np", CountingNumpy())
    n = 1000
    build_kernel(calibrated_params(), PopulationConfig(n, 1, 1), Fermi(beta=0.3))
    # One exponential per state serves both directions.
    assert sum(sizes) == n + 1


def ulps_around(x, count):
    """x and the ``count`` floats on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


# exp(x) is subnormal on [-745.13, -708.4] and the smallest subnormal or 0
# across -745.1332191019412; e / (1 + e) = e there, so q carries every bit of e.
@pytest.mark.parametrize(
    "lo, hi, size",
    [(-746.0, -700.0, 200_001), (-40.0, 0.0, 200_001), (-1e-8, 0.0, 20_001)],
)
def test_fermi_exponentials_keep_libm_bits_on_dense_grids(lo, hi, size):
    assert_pair_is_scalar_q_bitwise(Fermi(beta=1.0), np.linspace(lo, hi, size))


def test_fermi_exponentials_keep_libm_bits_at_the_edges():
    zs = np.array(ulps_around(-745.1332191019412, 100) + ulps_around(0.0, 20) + [-0.0])
    assert_pair_is_scalar_q_bitwise(Fermi(beta=1.0), np.concatenate([zs, -zs]))
    # beta * z overflows to +-inf, where q is exactly 1 or 0.
    with np.errstate(over="ignore"):
        assert_pair_is_scalar_q_bitwise(Fermi(beta=1e3), np.array([1e306, -1e306]))


@pytest.mark.parametrize("size", [4095, 4096, 4097, 3 * 4096 + 1])
def test_fermi_exponentials_keep_libm_bits_across_chunk_seams(size):
    zs = np.random.default_rng(size).normal(scale=30.0, size=size)
    assert_pair_is_scalar_q_bitwise(Fermi(beta=1.0), zs)


@settings(max_examples=60, deadline=None, database=None)
@given(st.floats(0.0, 1e5), st.integers(2, 3000))
def test_fermi_from_ratio_rates_keep_libm_bits(ratio, n):
    params = calibrated_params()
    gains = _gain(params, utility_secondary(params), np.arange(n + 1) / n)
    assert_pair_is_scalar_q_bitwise(fermi_from_ratio(params, n, ratio), gains)


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
    same(outcome(rule.pair, zs), outcome(reference_fermi_pair, rule, zs))


# -- payoff scale ------------------------------------------------------------------

economies = st.builds(
    lambda capacity, load, weight, p_primary, p_secondary: NetworkParams(
        capacity, capacity * load, weight, p_primary, p_secondary
    ),
    st.floats(1.0, 1e4),
    st.floats(1e-3, 0.999),
    st.floats(1e-3, 1e3),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=150, deadline=None, database=None)
@given(economies, st.one_of(st.integers(2, 40), st.integers(2, 10_000)))
def test_beta_reference_is_the_scan_maximum(params, n):
    pi_s = utility_secondary(params)
    brute = max(abs(utility_primary(params, k, n) - pi_s) for k in range(n + 1))
    assert beta_reference(params, n) == brute


def test_beta_reference_is_constant_time():
    # A scan over 10^9 states would run for many minutes and an array of
    # them would take 8 GB; the endpoint evaluation does neither.
    p = calibrated_params()
    tracemalloc.start()
    start = time.perf_counter()
    ref = beta_reference(p, 10**9)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 10_000
    assert ref == abs(utility_primary(p, 0, 10**9) - utility_secondary(p))


def test_beta_reference_dominates_every_state():
    rng = np.random.default_rng(12)
    for _ in range(50):
        capacity = rng.uniform(50.0, 200.0)
        arrival = capacity * rng.uniform(0.1, 0.9)
        gap = calibrate_price_gap(capacity, arrival, 1.0, rng.uniform(0.1, 0.9))
        p = NetworkParams(capacity, arrival, 1.0, gap, 0.0)
        n = int(rng.integers(2, 80))
        ref = beta_reference(p, n)
        pi_s = utility_secondary(p)
        assert all(abs(utility_primary(p, k, n) - pi_s) <= ref for k in range(n + 1))


def test_beta_reference_figure_setup():
    # For the calibrated figure environment the scan peaks at the empty
    # network: the large delay saving of the first primary user.
    p = calibrated_params()
    pi_s = utility_secondary(p)
    assert beta_reference(p, 10) == abs(utility_primary(p, 0, 10) - pi_s)


def test_fermi_from_ratio_zero_is_fair_coin():
    rule = fermi_from_ratio(calibrated_params(), 10, 0.0)
    assert rule.beta == 0.0


def test_fermi_from_ratio_scales_by_reference():
    p = calibrated_params()
    for ratio in (0.5, 1.0, 10.0):
        rule = fermi_from_ratio(p, 10, ratio)
        assert rule.beta == ratio / beta_reference(p, 10)
        # The largest payoff difference then maps to an exponent of the ratio.
        assert rule.beta * beta_reference(p, 10) == pytest.approx(ratio, rel=1e-15)


def test_fermi_from_ratio_rejects_negative():
    with pytest.raises(ValueError):
        fermi_from_ratio(calibrated_params(), 10, -1.0)


def test_fermi_from_ratio_names_a_zero_payoff_scale():
    # The arrival is below an ulp of the capacity, so no state moves a payoff.
    p = NetworkParams(1.0, 1e-17)
    assert beta_reference(p, 10) == 0.0
    assert fermi_from_ratio(p, 10, 0.0).beta == 0.0
    with pytest.raises(ValueError, match="beta_reference is 0"):
        fermi_from_ratio(p, 10, 1.0)
