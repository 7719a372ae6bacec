"""Utilities, equilibrium, and welfare measures of the selection game."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsel import model
from netsel.chain import PopulationConfig, stationary_noise_free
from netsel.model import (
    NetworkParams,
    calibrate_price_gap,
    critical_state,
    equilibrium,
    expected_poa,
    poa_absorbing,
    poa_at,
    social_optimum,
    social_welfare,
    utility_primary,
    utility_primary_at_share,
    utility_secondary,
)
from oracle import calibrated_params, economies, outcome, reference_expected_poa, same


def random_params(rng):
    """Random environment with an interior equilibrium share."""
    capacity = rng.uniform(10.0, 500.0)
    arrival = capacity * rng.uniform(0.05, 0.95)
    delay_weight = rng.uniform(0.1, 10.0)
    target = rng.uniform(0.05, 0.95)
    gap = calibrate_price_gap(capacity, arrival, delay_weight, target)
    return NetworkParams(capacity, arrival, delay_weight, gap, 0.0), target


# -- parameter validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(capacity=0.0, arrival=1.0),
        dict(capacity=-5.0, arrival=1.0),
        dict(capacity=100.0, arrival=0.0),
        dict(capacity=100.0, arrival=100.0),
        dict(capacity=100.0, arrival=130.0),
        dict(capacity=100.0, arrival=30.0, delay_weight=0.0),
        dict(capacity=100.0, arrival=30.0, delay_weight=-1.0),
        dict(capacity=100.0, arrival=30.0, price_primary=float("nan")),
        dict(capacity=float("inf"), arrival=30.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        NetworkParams(**kwargs)


def test_price_gap_property():
    p = NetworkParams(100.0, 30.0, 1.0, 0.5, 0.2)
    assert p.price_gap == pytest.approx(0.3)


# -- utilities ---------------------------------------------------------------


def test_primary_utility_empty_network():
    p = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.0)
    assert utility_primary(p, 0, 10) == pytest.approx(-0.01, abs=1e-15)


def test_secondary_utility_value():
    p = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.0)
    assert utility_secondary(p) == pytest.approx(-1.0 / 70.0, rel=1e-15)


def test_full_primary_matches_secondary_at_equal_prices():
    # With every user primary, both networks carry the full load; equal
    # prices then mean equal utilities.
    p = NetworkParams(100.0, 30.0, 1.0, 0.4, 0.4)
    assert utility_primary(p, 10, 10) == pytest.approx(utility_secondary(p), rel=1e-15)


def test_primary_utility_strictly_decreasing():
    rng = np.random.default_rng(20250819)
    for _ in range(100):
        p, _ = random_params(rng)
        n = int(rng.integers(2, 200))
        values = [utility_primary(p, k, n) for k in range(n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_secondary_utility_price_shift():
    base = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.0)
    shifted = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.25)
    assert utility_secondary(shifted) == pytest.approx(utility_secondary(base) - 0.25)


@pytest.mark.parametrize("k,n", [(-1, 10), (11, 10), (1, 0)])
def test_utility_domain_errors(k, n):
    p = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        utility_primary(p, k, n)


def test_share_utility_matches_count_utility():
    p = calibrated_params()
    for k in range(11):
        assert utility_primary(p, k, 10) == utility_primary_at_share(p, k / 10)


# -- equilibrium --------------------------------------------------------------


def test_equal_prices_full_primary():
    p = NetworkParams(100.0, 30.0, 1.0, 0.5, 0.5)
    info = equilibrium(p)
    assert info.share_primary == 1.0
    assert info.rate_primary == pytest.approx(30.0)
    assert info.boundary


def test_calibrated_interior_equilibrium():
    p = calibrated_params()
    info = equilibrium(p)
    assert abs(10 * info.share_primary - 6.8) <= 1e-9
    assert not info.boundary


def test_large_premium_clamps_to_all_secondary():
    # A premium of 1 exceeds the largest possible delay saving
    # (1/70 - 1/100), so staying secondary dominates for everyone.
    p = NetworkParams(100.0, 30.0, 1.0, 1.0, 0.0)
    info = equilibrium(p)
    assert info.share_primary == 0.0
    assert info.rate_primary == 0.0
    assert info.boundary


def test_negative_premium_clamps_to_all_primary():
    p = NetworkParams(100.0, 30.0, 1.0, 0.0, 0.5)
    info = equilibrium(p)
    assert info.share_primary == 1.0
    assert info.boundary


def test_degenerate_prices_raise():
    # delay_weight == (capacity - arrival) * gap makes the equal-cost
    # equation unsolvable.
    p = NetworkParams(100.0, 30.0, 1.0, 1.0 / 70.0, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        equilibrium(p)


def test_equilibrium_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, target = random_params(rng)
        info = equilibrium(p)
        assert abs(info.share_primary - target) < 1e-10
        assert not info.boundary


def test_sign_structure_around_critical_state():
    # Below the critical state primary users are strictly better off; at
    # or above it they are no better than secondary users.
    rng = np.random.default_rng(99)
    for _ in range(100):
        p, _ = random_params(rng)
        n = int(rng.integers(3, 150))
        k_star = critical_state(p, n)
        pi_s = utility_secondary(p)
        for k in range(n + 1):
            diff = utility_primary(p, k, n) - pi_s
            if k < k_star:
                assert diff > 0.0
            else:
                assert diff <= 1e-12 * abs(pi_s)


# -- critical state -----------------------------------------------------------


def test_critical_state_figure_setup():
    p = calibrated_params()
    assert critical_state(p, 10) == 7
    assert critical_state(p, 100) == 68
    assert critical_state(p, 1000) == 680


def test_critical_state_boundary_share():
    p = NetworkParams(100.0, 30.0, 1.0, 0.5, 0.5)  # share 1
    assert critical_state(p, 10) == 10


def test_critical_state_snaps_near_integers():
    # Targets of the form k/n should give k* = k even when n * share
    # lands a few ulps above the integer; find such cases and check the
    # ceiling does not jump to k + 1.
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(20000):
        capacity = float(rng.uniform(20.0, 400.0))
        arrival = capacity * float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(4, 300))
        k = int(rng.integers(1, n))
        gap = calibrate_price_gap(capacity, arrival, 1.0, k / n)
        p = NetworkParams(capacity, arrival, 1.0, gap, 0.0)
        product = n * equilibrium(p).share_primary
        if k < product < k + 1e-10:
            assert critical_state(p, n) == k, (capacity, arrival, n, k)
            hits += 1
            if hits >= 3:
                break
    assert hits >= 3


def test_critical_state_rejects_empty_population():
    with pytest.raises(ValueError):
        critical_state(calibrated_params(), 0)


# -- calibration --------------------------------------------------------------


def test_calibrate_gap_reference_value():
    gap = calibrate_price_gap(100.0, 30.0, 1.0, 0.68)
    # Hand evaluation: 1 * 30 * 0.32 / (70 * (100 - 20.4)) = 9.6 / 5572.
    assert gap == pytest.approx(9.6 / 5572.0, rel=1e-14)


def test_calibrate_gap_target_one_is_free():
    assert calibrate_price_gap(100.0, 30.0, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("target", [0.0, -0.1, 1.1])
def test_calibrate_gap_rejects_bad_targets(target):
    with pytest.raises(ValueError):
        calibrate_price_gap(100.0, 30.0, 1.0, target)


def test_calibrate_gap_rejects_bad_network():
    with pytest.raises(ValueError):
        calibrate_price_gap(100.0, 120.0, 1.0, 0.5)


@pytest.mark.parametrize("capacity, arrival", [(1e-300, 5e-301), (1e200, 3e199)])
def test_calibrate_gap_names_a_denominator_outside_the_float_range(capacity, arrival):
    # It underflows to 0, or overflows to inf and would give a zero gap.
    with pytest.raises(ValueError, match="calibration denominator .* leaves the float range"):
        calibrate_price_gap(capacity, arrival, 1.0, 0.68)


# -- welfare ------------------------------------------------------------------


def test_welfare_boundary_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p, _ = random_params(rng)
        boundary = p.arrival / (p.capacity - p.arrival)
        assert social_welfare(p, 0.0) == pytest.approx(boundary, rel=1e-12)
        assert social_welfare(p, 1.0) == pytest.approx(boundary, rel=1e-12)


def test_welfare_reference_value():
    p = calibrated_params()
    expected = 30.0 * (0.68 / (100.0 - 30.0 * 0.68) + 0.32 / 70.0)
    assert social_welfare(p, 0.68) == pytest.approx(expected, rel=1e-15)


def test_welfare_domain():
    with pytest.raises(ValueError):
        social_welfare(calibrated_params(), 1.2)


@pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan])
def test_welfare_refuses_a_share_outside_the_unit_interval_in_every_form(bad):
    # A float (numpy's float64 included) is checked with plain comparisons,
    # anything else with numpy's min and max: the same verdict and the same
    # message, NaN included.
    p = calibrated_params()
    for share in (bad, np.float64(bad), np.float32(bad), np.array([0.5, bad])):
        with pytest.raises(ValueError, match=f"^{re.escape(f'share must lie in [0, 1], got {share}')}$"):
            social_welfare(p, share)
    for share in (-0.0, 0.0, 0.68, 1.0):
        assert social_welfare(p, np.array([share]))[0] == social_welfare(p, share)


def test_social_optimum_matches_grid_minimum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, _ = random_params(rng)
        x_opt, s_min = social_optimum(p)
        grid = np.linspace(0.0, 1.0, 100001)
        values = p.arrival * (
            grid / (p.capacity - p.arrival * grid) + (1.0 - grid) / (p.capacity - p.arrival)
        )
        assert 0.0 < x_opt < 1.0
        assert abs(values.min() - s_min) < 1e-6 * max(1.0, s_min)
        assert abs(grid[values.argmin()] - x_opt) < 1e-4
        assert social_welfare(p, x_opt) == pytest.approx(s_min, rel=1e-12)


def test_social_optimum_reference_values():
    p = calibrated_params()
    x_opt, s_min = social_optimum(p)
    assert x_opt == pytest.approx((100.0 - math.sqrt(100.0 * 70.0)) / 30.0, rel=1e-14)
    assert s_min == pytest.approx(2.0 * (math.sqrt(100.0 / 70.0) - 1.0), rel=1e-14)


def test_social_optimum_vanishing_load():
    p = NetworkParams(100.0, 1e-6, 1.0, 0.0, 0.0)
    _, s_min = social_optimum(p)
    assert s_min == pytest.approx(0.0, abs=1e-7)


# -- price of anarchy ---------------------------------------------------------


def test_poa_at_optimum_is_one():
    p = calibrated_params()
    x_opt, _ = social_optimum(p)
    assert poa_at(p, x_opt) == pytest.approx(1.0, rel=1e-12)


def test_poa_at_equilibrium_share():
    p = calibrated_params()
    assert poa_at(p, 0.68) == pytest.approx(1.0076, abs=1e-4)


def test_poa_absorbing_reference_values():
    assert poa_absorbing(calibrated_params(arrival=30.0)) == pytest.approx(1.0976, abs=1e-3)
    assert poa_absorbing(calibrated_params(arrival=35.0)) == pytest.approx(1.1202, abs=1e-3)


def test_poa_absorbing_matches_boundary_welfare():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p, _ = random_params(rng)
        assert poa_absorbing(p) == pytest.approx(poa_at(p, 0.0), rel=1e-12)
        assert poa_absorbing(p) == pytest.approx(poa_at(p, 1.0), rel=1e-12)


def test_poa_absorbing_light_traffic_limit():
    p = NetworkParams(100.0, 1e-6, 1.0, 0.0, 0.0)
    assert abs(poa_absorbing(p) - 1.0) < 1e-6


def test_poa_names_a_denominator_that_rounds_to_zero():
    p = NetworkParams(100.0, 1e-14, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="minimal welfare S_min rounds to 0"):
        poa_at(p, 0.5)
    with pytest.raises(ValueError, match="minimal welfare S_min rounds to 0"):
        expected_poa(p, [0.5, 0.5])
    with pytest.raises(ValueError, match="absorbing price of anarchy's denominator"):
        poa_absorbing(p)


# -- expected price of anarchy ------------------------------------------------


def test_expected_poa_point_mass_at_optimum():
    # capacity 100, arrival 36: the optimal share is exactly 5/9, which a
    # population of 9 can realise exactly at state 5.
    p = NetworkParams(100.0, 36.0, 1.0, 0.0, 0.0)
    x_opt, _ = social_optimum(p)
    assert x_opt == pytest.approx(5.0 / 9.0, rel=1e-14)
    psi = np.zeros(10)
    psi[5] = 1.0
    assert expected_poa(p, psi) == pytest.approx(1.0, rel=1e-12)


def test_expected_poa_point_mass_at_boundary():
    p = calibrated_params()
    psi = np.zeros(11)
    psi[0] = 1.0
    assert expected_poa(p, psi) == pytest.approx(poa_absorbing(p), rel=1e-12)


def test_expected_poa_uniform_matches_direct_sum():
    p = calibrated_params()
    psi = np.full(11, 1.0 / 11.0)
    _, s_min = social_optimum(p)
    direct = sum(social_welfare(p, k / 10) for k in range(11)) / 11.0 / s_min
    assert expected_poa(p, psi) == pytest.approx(direct, rel=1e-14)
    assert expected_poa(p, psi) > 1.0


# The anchored Fermi law at ratio 0.001 and n = 10^5 is spread wide enough
# that one np.dot over it read 0x1.0284bab39cd5fp+0 at one OpenBLAS thread
# and 0x1.0284bab39cd60p+0 at two.
POA_BITS = """
from netsel import chain, model, protocols
params = model.NetworkParams(100.0, 30.0, 1.0, model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
population = chain.PopulationConfig(n=100_000, anchored_primary=1, anchored_secondary=1)
rule = protocols.fermi_from_ratio(params, 100_000, 0.001)
_, law = chain.long_run(chain.build_kernel(params, population, rule))
print(model.expected_poa(params, law).hex())
"""


def test_expected_poa_has_the_same_bits_at_any_blas_thread_count():
    src = Path(__file__).resolve().parents[1] / "src"
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", POA_BITS], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout.strip())
    assert bits[0] == bits[1] == "0x1.0284bab39cd5fp+0"


def test_expected_poa_never_below_one():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, _ = random_params(rng)
        n = int(rng.integers(2, 60))
        psi = rng.random(n + 1)
        psi /= psi.sum()
        assert expected_poa(p, psi) >= 1.0 - 1e-12


def test_expected_poa_rejects_unnormalised():
    p = calibrated_params()
    with pytest.raises(ValueError, match="normalised"):
        expected_poa(p, np.full(11, 0.05))


def test_expected_poa_rejects_negative_mass():
    p = calibrated_params()
    psi = np.full(11, 1.0 / 11.0)
    psi[0] += 2.0 / 11.0
    psi[1] -= 2.0 / 11.0
    with pytest.raises(ValueError, match="negative"):
        expected_poa(p, psi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_expected_poa_rejects_non_finite_mass(bad):
    with pytest.raises(ValueError, match="non-finite"):
        expected_poa(calibrated_params(), np.array([bad, 0.5, 0.5]))


# -- chunks without mass -------------------------------------------------------

CHUNK = model._CHUNK


@st.composite
def sparse_laws(draw):
    """A law over 2 to 6 chunks of states: a few blocks of mass, with runs of
    -0.0, subnormal entries and entries down to -1e-12 where it has none, or
    a pair of states on either side of the first chunk boundary."""
    n = draw(st.integers(CHUNK, 6 * CHUNK - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = np.zeros(n + 1)
    if draw(st.booleans()):
        psi[CHUNK - 1] = draw(st.floats(0.0, 1.0))
        psi[CHUNK] = 1.0 - psi[CHUNK - 1]
        return psi
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, n))
        block = psi[lo : lo + draw(st.integers(1, 3 * CHUNK))]
        block[:] = rng.random(block.size)
    psi /= psi.sum()
    for kind in draw(st.lists(st.sampled_from(["-0.0", "subnormal", "negative"]), max_size=6)):
        lo = draw(st.integers(0, n))
        run = psi[lo : lo + draw(st.integers(1, 2 * CHUNK))]
        # -0.0 fills the run's zeros; the others sit at up to 64 of them.
        at = np.flatnonzero(run == 0.0)
        if kind != "-0.0":
            at = rng.choice(at, size=min(at.size, draw(st.integers(1, 64))), replace=False)
        run[at] = {
            "-0.0": -0.0,
            "subnormal": rng.integers(1, 2**52, at.size) * 5e-324,
            "negative": -1e-12 * rng.random(at.size),
        }[kind]
    return psi


@st.composite
def flawed_laws(draw):
    """A law over 2 to 9,001 states with mass on a random share of them, so
    that large-n laws leave whole chunks empty, and at most one flaw."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(1, 5000), st.integers(4090, 9000)))
    held = draw(st.floats(0.0, 1.0))
    flaws = [None, None, "negative", "slightly negative", "nan", "unnormalised"]
    flaw = draw(st.sampled_from(flaws))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
    return psi


# At n = 6,023 the critical pair {4095, 4096} of the noise-free law straddles
# the first two chunks.
STRADDLING_PAIR = stationary_noise_free(calibrated_params(), PopulationConfig(6023)).psi


@example(params=calibrated_params(), psi=STRADDLING_PAIR)
@settings(max_examples=800, deadline=None, database=None)
@given(
    params=st.one_of(
        economies, st.builds(calibrated_params, st.floats(1.0, 99.0), st.floats(0.05, 0.95))
    ),
    psi=st.one_of(flawed_laws(), sparse_laws()),
)
def test_expected_poa_keeps_its_bits_when_it_skips_chunks_without_mass(params, psi):
    same(outcome(expected_poa, params, psi), outcome(reference_expected_poa, params, psi))


def test_the_two_point_law_at_large_n_sums_one_chunk(monkeypatch):
    params, n = calibrated_params(), 100_000
    law = stationary_noise_free(params, PopulationConfig(n, 1, 1))
    welfare, shares = model._welfare, []

    def spy(params, share):
        shares.append(share)
        return welfare(params, share)

    monkeypatch.setattr(model, "_welfare", spy)
    poa = expected_poa(params, law)
    assert [(round(s[0] * n), s.size) for s in shares] == [(16 * CHUNK, CHUNK)]  # k* = 68,000
    monkeypatch.undo()
    assert poa == reference_expected_poa(params, law.psi)


def test_expected_poa_is_finite_where_only_chunks_without_mass_have_infinite_welfare():
    # At this capacity 1 / (capacity - arrival) overflows, so S(k/n) is inf
    # below a share of about 0.82 and at k = n.  build_kernel and
    # stationary_noise_free refuse such an economy: only a hand-made law
    # reaches it.  The sum used to take 0 * inf = NaN from the chunks without
    # mass; it now skips them.
    params, n = NetworkParams(1e-300, 1e-300 - 1e-309), 8 * CHUNK
    psi = np.zeros(n + 1)
    psi[30_000:30_010] = 0.1
    held = slice(7 * CHUNK, 8 * CHUNK)
    with np.errstate(over="ignore", invalid="ignore"):
        welfare = social_welfare(params, np.arange(n + 1) / n)
        assert math.isnan(reference_expected_poa(params, psi))
    assert np.isinf(welfare[0]) and np.isinf(welfare[n]) and np.isfinite(welfare[held]).all()
    poa = expected_poa(params, psi)
    assert math.isfinite(poa)
    assert poa == float(np.dot(welfare[held], psi[held])) / social_optimum(params)[1]
