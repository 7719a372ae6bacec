"""Mean dynamics: vector fields and trajectory integration."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from netsel.model import NetworkParams, calibrate_price_gap, equilibrium
from netsel.protocols import Fermi, PairwiseProportional
from netsel.replicator import integrate, replicator_rhs
from oracle import calibrated_params, exact_flow, exact_time, imitation_flow

# The closed form takes no step that could overflow or divide by zero.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# -- vector fields -------------------------------------------------------------


def test_rhs_vanishes_at_fixed_points():
    p = calibrated_params()
    assert replicator_rhs(p, 0.0) == 0.0
    assert replicator_rhs(p, 1.0) == 0.0
    assert abs(replicator_rhs(p, 0.68)) < 1e-12


def test_rhs_sign_structure():
    p = calibrated_params()
    for x in np.linspace(0.01, 0.67, 30):
        assert replicator_rhs(p, float(x)) > 0.0
    for x in np.linspace(0.69, 0.99, 30):
        assert replicator_rhs(p, float(x)) < 0.0


def test_rhs_scales_with_gain():
    p = calibrated_params()
    assert replicator_rhs(p, 0.3, gain=2.5) == pytest.approx(
        2.5 * replicator_rhs(p, 0.3), rel=1e-15
    )


def test_rhs_domain_errors():
    p = calibrated_params()
    with pytest.raises(ValueError):
        replicator_rhs(p, -0.01)
    with pytest.raises(ValueError):
        replicator_rhs(p, 1.01)
    with pytest.raises(ValueError):
        replicator_rhs(p, 0.5, gain=0.0)
    for share in (-0.01, 1.01):
        with pytest.raises(ValueError, match=r"share must lie in \[0, 1\]"):
            replicator_rhs(p, share)


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_proportional_mean_dynamics_is_the_replicator_field(scale):
    # q(z) - q(-z) = scale * z for the proportional rule, so the expected
    # imitation drift reproduces the replicator field with that gain.
    p = calibrated_params()
    rule = PairwiseProportional(scale=scale)
    grid = np.linspace(0.0, 1.0, 1001)
    worst = max(
        abs(imitation_flow(rule, p, float(x)) - replicator_rhs(p, float(x), gain=scale))
        for x in grid
    )
    assert worst < 1e-12


def test_fermi_mean_dynamics_shares_rest_points():
    p = calibrated_params()
    rule = Fermi(beta=500.0)
    assert imitation_flow(rule, p, 0.0) == 0.0
    assert imitation_flow(rule, p, 1.0) == 0.0
    assert abs(imitation_flow(rule, p, 0.68)) < 1e-9
    assert imitation_flow(rule, p, 0.3) > 0.0
    assert imitation_flow(rule, p, 0.9) < 0.0


# -- integration ----------------------------------------------------------------


@pytest.mark.parametrize("start", [0.1, 0.5, 0.9])
def test_integration_settles_on_the_equilibrium(start):
    p = calibrated_params()
    result = integrate(p, start, rtol=1e-10)
    assert result.converged
    assert abs(result.fixed_point - 0.68) < 1e-6


def test_integration_from_the_rest_point_stays_put():
    p = calibrated_params()
    x_star = equilibrium(p).share_primary
    result = integrate(p, x_star, rtol=1e-8)
    assert result.converged
    assert result.fixed_point == x_star
    assert len(result.trajectory) == 1


def test_trajectory_is_monotone_toward_equilibrium():
    p = calibrated_params()
    up = integrate(p, 0.2, rtol=1e-9).trajectory[:, 1]
    assert (np.diff(up) >= -1e-12).all()
    down = integrate(p, 0.95, rtol=1e-9).trajectory[:, 1]
    assert (np.diff(down) <= 1e-12).all()


def test_distance_to_equilibrium_never_grows():
    p = calibrated_params()
    result = integrate(p, 0.05, rtol=1e-9)
    gaps = np.abs(result.trajectory[:, 1] - 0.68)
    assert (np.diff(gaps) <= 1e-12).all()


def test_trajectory_stays_in_the_simplex():
    p = calibrated_params()
    for start in (0.02, 0.98):
        shares = integrate(p, start, rtol=1e-9).trajectory[:, 1]
        assert shares.min() >= 0.0 and shares.max() <= 1.0


def test_short_horizon_reports_non_convergence():
    p = calibrated_params()
    result = integrate(p, 0.1, horizon=1e-3, rtol=1e-10)
    assert not result.converged
    assert result.trajectory[-1, 0] == pytest.approx(1e-3)


def test_short_horizon_matches_the_field():
    # Over a tiny horizon the endpoint displacement is the field times the
    # horizon, to first order.
    p = calibrated_params()
    h = 1e-3
    result = integrate(p, 0.3, horizon=h, rtol=1e-12)
    fd = (result.fixed_point - 0.3) / h
    assert fd == pytest.approx(replicator_rhs(p, 0.3), abs=1e-8)


def test_gain_speeds_time_but_not_the_destination():
    p = calibrated_params()
    slow = integrate(p, 0.2, rtol=1e-10, gain=1.0)
    fast = integrate(p, 0.2, rtol=1e-10, gain=10.0)
    assert abs(slow.fixed_point - fast.fixed_point) < 1e-6
    assert fast.trajectory[-1, 0] < slow.trajectory[-1, 0]


def test_integration_rejects_boundary_starts():
    p = calibrated_params()
    with pytest.raises(ValueError, match="strictly inside"):
        integrate(p, 0.0)
    with pytest.raises(ValueError, match="strictly inside"):
        integrate(p, 1.0)


@pytest.mark.parametrize("key", ["horizon", "gain"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_integration_rejects_a_horizon_or_gain_that_is_not_positive(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive"):
        integrate(calibrated_params(), 0.2, **{key: value})


@pytest.mark.parametrize("rtol", [float("inf"), 0.0, -1.0, float("nan")])
def test_integration_rejects_a_tolerance_that_cannot_stop_it_honestly(rtol):
    # inf would report the start as settled; 0, negatives and nan never stop.
    with pytest.raises(ValueError, match="rtol"):
        integrate(calibrated_params(), 0.2, rtol=rtol)


# Two runs the Runge-Kutta integrator this module used to carry could never
# settle: near capacity it placed x only to about 1e-12 * x*, so |dx/dt|
# stayed above rtol * gain and the run sampled until the horizon.  Both were
# refused; the closed form settles them at once.
NEVER_SETTLE = [(1.0, 0.9, 0.98, 1e-12, 10.0), (1.0, 0.99, 0.5, 1e-13, 1.0)]


def near_capacity(capacity, arrival, target):
    gap = calibrate_price_gap(capacity, arrival, 10.0, target)
    return NetworkParams(capacity, arrival, 10.0, gap, 0.0)


def resolvable_drift(params, x):
    """|f'(x*)| (1e-12 x* + 1e-14) at gain 1, the floor the old integrator refused below."""
    slope = params.delay_weight * params.arrival / (params.capacity - params.arrival * x) ** 2
    return x * (1.0 - x) * slope * (1e-12 * x + 1e-14)


@pytest.mark.parametrize("capacity, arrival, target, rtol, gain", NEVER_SETTLE)
def test_runs_the_old_integrator_refused_settle_at_once(capacity, arrival, target, rtol, gain):
    params = near_capacity(capacity, arrival, target)
    start = time.perf_counter()
    result = integrate(params, 0.2, rtol=rtol, gain=gain)
    assert time.perf_counter() - start < 1.0
    assert result.converged
    assert result.fixed_point == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("capacity, arrival, target, rtol, gain", NEVER_SETTLE)
def test_an_rtol_just_above_the_floor_settles(capacity, arrival, target, rtol, gain):
    # Runs settle from about 0.3 of the floor, so at 1.01 of it they settle
    # in a few hundred samples from every start.
    params = near_capacity(capacity, arrival, target)
    floor = resolvable_drift(params, equilibrium(params).share_primary)
    for start in (0.05, 0.2, 0.5, 0.9, 0.999):
        result = integrate(params, start, rtol=1.01 * floor, gain=gain)
        assert result.converged and len(result.trajectory) < 1000


def test_a_load_next_to_capacity_settles_on_its_own_rest_point():
    # At load 1 - 1.6e-11, pi_P - pi_S in floats is rounding noise far above
    # rtol; the old integrator took 26 s here, and then refused the rtol.
    capacity = 1.59e-11
    arrival = capacity * (1 - 1.6e-11)
    params = NetworkParams(capacity, arrival, 1.0, calibrate_price_gap(capacity, arrival, 1.0, 1e-6))
    start = time.perf_counter()
    result = integrate(params, 0.2)
    assert time.perf_counter() - start < 1.0
    assert result.converged and len(result.trajectory) < 1000
    with mp.workdps(50):
        field, star = exact_flow(params, 1.0)
        assert abs(field(result.fixed_point)) <= 1e-8
        assert 0 < star < result.fixed_point < 2 * star


@pytest.mark.parametrize(
    "capacity, price, settled",
    # At capacity 1e200 the field is below rtol everywhere, so the start is settled.
    [(1e-200, 1e-200, 1.0), (1e-200, 1e200, 0.0), (1e200, 1e-200, 0.2)],
)
def test_the_rtol_floor_holds_where_the_squared_slack_leaves_the_float_range(
    capacity, price, settled
):
    # The squared slack underflows to 0 at capacity 1e-200 and overflows at
    # 1e200; the floor then divides by the slack twice.
    result = integrate(NetworkParams(capacity, capacity / 2, 1.0, price, 0.0), 0.2)
    assert result.converged
    assert result.fixed_point == pytest.approx(settled, abs=1e-12)


@pytest.mark.parametrize("horizon", [1e-300, 1e-15])
def test_a_horizon_inside_the_first_float_step_keeps_the_trajectory_ordered(horizon):
    # The share does not move off 0.2 by the horizon; a sample placed at
    # its distance to the rest point 1 would round to a float below 0.2.
    result = integrate(NetworkParams(100.0, 30.0, 1.0, -0.01, 0.0), 0.2, horizon=horizon)
    assert not result.converged
    assert result.trajectory.tolist() == [[0.0, 0.2], [horizon, 0.2]]


def test_times_and_shares_views_align():
    p = calibrated_params()
    result = integrate(p, 0.4, rtol=1e-9)
    times, shares = result.trajectory[:, 0], result.trajectory[:, 1]
    assert result.trajectory.shape == (len(times), 2) and len(times) == len(shares) > 1
    assert times[0] == 0.0
    assert shares[0] == pytest.approx(0.4)


# -- oracles: scipy's solve_ivp and mpmath ---------------------------------------


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def solve_ivp_shares(params, start, times, rtol, gain, horizon):
    """solve_ivp's RK45 at rtol 1e-12, atol 1e-14 on replicator_rhs, stopped by
    the settle event on that field: its shares at ``times`` (up to its own end),
    whether it settled, and the time it ended."""
    threshold = rtol * gain

    def field(_t, y):
        return [replicator_rhs(params, min(max(float(y[0]), 0.0), 1.0), gain)]

    def settled(t, y):
        return abs(field(t, y)[0]) - threshold

    settled.terminal = True
    solution = solve_ivp(
        field, (0.0, horizon), [start], method="RK45", rtol=1e-12, atol=1e-14,
        events=settled, dense_output=True,
    )  # fmt: skip
    end = solution.t[-1]
    return solution.sol(np.minimum(times, end))[0], bool(solution.status == 1), end


# A start of None is the economy's own rest point: the one-sample exit.
# The bound: solve_ivp places these shares to 3.5e-11 at worst over 200
# random runs, so 1e-9 leaves it a margin of 30, while a wrong coefficient
# in the closed form moves shares by far more.  Its settle event reads the
# field as a difference of two utilities, so the time at which it fires is
# known only to the rounding of that difference near the rest point: up to
# 3e-6 relative on these economies, bounded here by 1e-4.
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    capacity=log_uniform(1.0, 1e3),
    load=st.floats(0.01, 0.9),
    target=st.floats(0.02, 0.98),
    delay_weight=log_uniform(0.1, 10.0),
    start=st.one_of(st.floats(1e-3, 1.0 - 1e-3), st.none()),
    rtol=log_uniform(1e-10, 1e-4),
    gain=st.one_of(st.just(1.0), log_uniform(0.1, 10.0)),
    horizon=st.one_of(st.just(1e6), log_uniform(1e-3, 1e6)),
)
@example(100.0, 0.3, 0.68, 1.0, None, 1e-8, 1.0, 1e6)  # at rest: one sample
@example(100.0, 0.3, 0.68, 1.0, 0.1, 1e-10, 1.0, 1e-3)  # ends at the horizon
@example(100.0, 0.3, 0.68, 1.0, 0.2, 1e-8, 7.5, 1e6)  # settles, gain 7.5
@example(100.0, 0.3, 0.68, 1.0, 0.9, 1e-12, 0.5, 1e6)  # the tightest rtol
@example(100.0, 0.3, 1.0, 1.0, 0.2, 1e-10, 1.0, 1e6)  # crawls toward the boundary
@example(100.0, 0.3, 0.68, 1.0, 0.05, 0.5, 1.0, 1e6)  # a loose rtol
def test_integrate_follows_solve_ivp(
    capacity, load, target, delay_weight, start, rtol, gain, horizon
):
    gap = calibrate_price_gap(capacity, load * capacity, delay_weight, target)
    params = NetworkParams(capacity, load * capacity, delay_weight, gap, 0.0)
    if start is None:
        start = equilibrium(params).share_primary
        assume(0.0 < start < 1.0)
    got = integrate(params, start, horizon=horizon, rtol=rtol, gain=gain)
    if len(got.trajectory) == 1:
        assert got.converged and abs(replicator_rhs(params, start, gain)) <= rtol * gain * 1.001
        return
    times, got_shares = got.trajectory[:, 0], got.trajectory[:, 1]
    shares, settled, end = solve_ivp_shares(params, start, times, rtol, gain, horizon)
    assert settled == got.converged
    assert end == pytest.approx(times[-1], rel=1e-4)
    assert np.abs(shares - got_shares).max() <= 1e-9


@st.composite
def economies(draw):
    """Capacities over 40 decades, loads from 1e-6 to within 1e-12 of
    capacity, rest points inside, on and beyond both boundaries."""
    capacity = draw(log_uniform(1e-20, 1e20))
    load = draw(st.one_of(log_uniform(1e-6, 0.5), log_uniform(1e-12, 0.5).map(lambda e: 1 - e)))
    weight = draw(log_uniform(1e-3, 1e3))
    arrival = capacity * load
    if draw(st.booleans()):
        gap = calibrate_price_gap(capacity, arrival, weight, draw(st.one_of(
            st.just(1.0), log_uniform(1e-6, 1.0)
        )))  # fmt: skip
    else:  # the premium against the largest delay saving: x* from far below 0 to far above 1
        gap = draw(st.sampled_from([-1.0, 1.0])) * weight / (capacity - arrival)
        gap *= draw(log_uniform(1e-3, 1e3))
    return NetworkParams(capacity, arrival, weight, gap, 0.0)


def check_against_mpmath(params, start, rtol, gain, horizon):
    """Each sample's time against a 50-digit quadrature of dt = dx / f(x),
    to 1e-12 (the closed form matches it to 4e-16 over 300 random samples).
    A converged run ends on the first float, coming from the start, at which
    |dx/dt| <= rtol * gain (or on the float next to the rest point); one that
    is not ends on the last float reached by the horizon.  Both ends are
    checked on the exact field and times, to rounding."""
    result = integrate(params, start, horizon=horizon, rtol=rtol, gain=gain)
    times, shares = result.trajectory[:, 0], result.trajectory[:, 1]
    last = len(shares) - 1
    with mp.workdps(50):
        field, star = exact_flow(params, gain)
        if last == 0:
            assert result.converged and abs(field(start)) <= rtol * gain * (1 + 1e-12)
            return
        rest = star if 0 < star < 1 else mp.mpf(field(start) > 0)
        for i in sorted({1, last // 2, last - 1, last}):
            if i < last or result.converged:
                want = exact_time(field, star, start, shares[i])
                assert abs(times[i] - want) <= 1e-12 * want, i
        before = math.nextafter(shares[-1], start)
        beyond = math.nextafter(shares[-1], float(rest))
        if result.converged:
            threshold = rtol * gain
            assert abs(field(before)) > threshold * (1 - 1e-12)
            next_to_rest = (mp.mpf(beyond) - rest) * (mp.mpf(shares[-1]) - rest) <= 0
            assert abs(field(shares[-1])) <= threshold * (1 + 1e-12) or next_to_rest
        else:
            assert times[-1] == horizon
            assert exact_time(field, star, start, shares[-1]) <= horizon * (1 + 1e-12)
            assert exact_time(field, star, start, beyond) > horizon * (1 - 1e-12)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    params=economies(),
    start=st.floats(1e-3, 1.0 - 1e-3),
    rtol=log_uniform(1e-12, 1e-2),
    gain=st.one_of(st.just(1.0), log_uniform(0.1, 10.0)),
    horizon=st.one_of(st.just(1e6), log_uniform(1e-30, 1e6)),
)
def test_sample_times_match_mpmath(params, start, rtol, gain, horizon):
    check_against_mpmath(params, start, rtol, gain, horizon)


# Where the rest point is a boundary, or there is none, the partial
# fractions lose a term: a double root at x* = 0 or 1, and no third
# logarithm when A = 0.  Each economy is chosen so that A and B are exact.
@pytest.mark.parametrize(
    "params, start, rtol, horizon",
    [
        (NetworkParams(3.0, 1.0, 2.0, 1.0, 0.0), 0.6, 1e-8, 1e6),  # gap = a / (C - lam): A = 0
        (NetworkParams(100.0, 30.0, 1.0, 0.0, 0.0), 0.2, 1e-10, 1e6),  # target share 1: x* = 1
        (NetworkParams(2.0, 1.0, 1.0, 0.5, 0.0), 0.2, 1e-8, 1e6),  # B = 0: x* = 0
        (NetworkParams(100.0, 30.0, 1.0, 0.01, 0.0), 0.2, 1e-8, 1e6),  # x* < 0
        (NetworkParams(100.0, 30.0, 1.0, -0.01, 0.0), 0.2, 1e-8, 1e6),  # x* > 1
        (calibrated_params(), 0.2, 1e-8, 1e6),  # the README run
        (calibrated_params(), 0.9, 1e-12, 10.0),  # from above, ends at the horizon
        (calibrated_params(), 0.9, 1e-14, 1e6),  # settles 4e-14 from x*, which no float holds
    ],
    ids=["no-rest-point", "rest-at-1", "rest-at-0", "rest-below-0", "rest-above-1", "readme",
         "horizon", "next-to-x*"],
)
def test_boundary_and_readme_runs_match_mpmath(params, start, rtol, horizon):
    check_against_mpmath(params, start, rtol, 1.0, horizon)
