"""Mean dynamics: vector fields and trajectory integration."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from netsel.model import NetworkParams, calibrate_price_gap, equilibrium
from netsel.protocols import Fermi, PairwiseProportional
from netsel.replicator import (
    IntegrationResult,
    _brentq,
    integrate,
    mean_dynamics_rhs,
    replicator_rhs,
)


def calibrated_params(target=0.68):
    gap = calibrate_price_gap(100.0, 30.0, 1.0, target)
    return NetworkParams(100.0, 30.0, 1.0, gap, 0.0)


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


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_proportional_mean_dynamics_is_the_replicator_field(scale):
    # q(z) - q(-z) = scale * z for the proportional rule, so the expected
    # imitation drift reproduces the replicator field with that gain.
    p = calibrated_params()
    rule = PairwiseProportional(scale=scale)
    grid = np.linspace(0.0, 1.0, 1001)
    worst = max(
        abs(mean_dynamics_rhs(rule, p, float(x)) - replicator_rhs(p, float(x), gain=scale))
        for x in grid
    )
    assert worst < 1e-12


def test_fermi_mean_dynamics_shares_rest_points():
    p = calibrated_params()
    rule = Fermi(beta=500.0)
    assert mean_dynamics_rhs(rule, p, 0.0) == 0.0
    assert mean_dynamics_rhs(rule, p, 1.0) == 0.0
    assert abs(mean_dynamics_rhs(rule, p, 0.68)) < 1e-9
    assert mean_dynamics_rhs(rule, p, 0.3) > 0.0
    assert mean_dynamics_rhs(rule, p, 0.9) < 0.0


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
    up = integrate(p, 0.2, rtol=1e-9).shares
    assert (np.diff(up) >= -1e-12).all()
    down = integrate(p, 0.95, rtol=1e-9).shares
    assert (np.diff(down) <= 1e-12).all()


def test_distance_to_equilibrium_never_grows():
    p = calibrated_params()
    result = integrate(p, 0.05, rtol=1e-9)
    gaps = np.abs(result.shares - 0.68)
    assert (np.diff(gaps) <= 1e-12).all()


def test_trajectory_stays_in_the_simplex():
    p = calibrated_params()
    for start in (0.02, 0.98):
        shares = integrate(p, start, rtol=1e-9).shares
        assert shares.min() >= 0.0 and shares.max() <= 1.0


def test_short_horizon_reports_non_convergence():
    p = calibrated_params()
    result = integrate(p, 0.1, horizon=1e-3, rtol=1e-10)
    assert not result.converged
    assert result.times[-1] == pytest.approx(1e-3)


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
    assert fast.times[-1] < slow.times[-1]


def test_integration_rejects_boundary_starts():
    p = calibrated_params()
    with pytest.raises(ValueError, match="strictly inside"):
        integrate(p, 0.0)
    with pytest.raises(ValueError, match="strictly inside"):
        integrate(p, 1.0)


@pytest.mark.parametrize("rtol", [float("inf"), 0.0, -1.0, float("nan")])
def test_integration_rejects_a_tolerance_that_cannot_stop_it_honestly(rtol):
    # inf would report the start as settled; 0, negatives and nan never stop.
    with pytest.raises(ValueError, match="rtol"):
        integrate(calibrated_params(), 0.2, rtol=rtol)


# Two runs that could never settle: near capacity the RK45 (rtol 1e-12,
# atol 1e-14) places x only to about 1e-12 * x*, so |dx/dt| stays above
# rtol * gain and the run samples until the horizon.  The first had 4,145
# samples by t = 100; the second grew past 2 GB.  Both are refused at once.
NEVER_SETTLE = [(1.0, 0.9, 0.98, 1e-12, 10.0), (1.0, 0.99, 0.5, 1e-13, 1.0)]


def near_capacity(capacity, arrival, target):
    gap = calibrate_price_gap(capacity, arrival, 10.0, target)
    return NetworkParams(capacity, arrival, 10.0, gap, 0.0)


def resolvable_drift(params, x):
    """|f'(x*)| (1e-12 x* + 1e-14) at gain 1, the refusal's floor."""
    slope = params.delay_weight * params.arrival / (params.capacity - params.arrival * x) ** 2
    return x * (1.0 - x) * slope * (1e-12 * x + 1e-14)


@pytest.mark.parametrize("capacity, arrival, target, rtol, gain", NEVER_SETTLE)
def test_an_rtol_the_integrator_cannot_resolve_is_refused_at_once(
    capacity, arrival, target, rtol, gain
):
    params = near_capacity(capacity, arrival, target)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^rtol = .* is below .* never settle$"):
        integrate(params, 0.2, rtol=rtol, gain=gain)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("capacity, arrival, target, rtol, gain", NEVER_SETTLE)
def test_an_rtol_just_above_the_floor_settles(capacity, arrival, target, rtol, gain):
    # Runs settle from about 0.3 of the floor, so at 1.01 of it they settle
    # in a few hundred samples from every start.
    params = near_capacity(capacity, arrival, target)
    floor = resolvable_drift(params, equilibrium(params).share_primary)
    for start in (0.05, 0.2, 0.5, 0.9, 0.999):
        result = integrate(params, start, rtol=1.01 * floor, gain=gain)
        assert result.converged and len(result.trajectory) < 1000
    with pytest.raises(ValueError, match="rtol"):
        integrate(params, 0.2, rtol=0.99 * floor, gain=gain)


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


def test_times_and_shares_views_align():
    p = calibrated_params()
    result = integrate(p, 0.4, rtol=1e-9)
    assert len(result.times) == len(result.shares) == len(result.trajectory)
    assert result.times[0] == 0.0
    assert result.shares[0] == pytest.approx(0.4)


# -- the ported integrator against scipy ---------------------------------------


def solve_ivp_integrate(params, initial_share, horizon, rtol, gain):
    """integrate as it ran on scipy.integrate.solve_ivp: the port's reference."""
    threshold = rtol * gain

    def field(_t, y):
        return [replicator_rhs(params, min(max(float(y[0]), 0.0), 1.0), gain)]

    def settled(t, y):
        return abs(field(t, y)[0]) - threshold

    settled.terminal = True
    if abs(field(0.0, np.array([initial_share]))[0]) <= threshold:
        return IntegrationResult(np.array([[0.0, initial_share]]), converged=True)
    solution = solve_ivp(
        field, (0.0, horizon), [initial_share], method="RK45", rtol=1e-12, atol=1e-14,
        events=settled,
    )  # fmt: skip
    shares = np.clip(solution.y[0], 0.0, 1.0)
    return IntegrationResult(
        np.column_stack((solution.t, shares)), converged=bool(solution.status == 1)
    )


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# A start of None is the economy's own rest point: the one-sample exit.
# rtol stays above 1e-10 on random economies: settling needs |x - x*| <
# rtol / |f'(x*)|, and near capacity with rtol ~ 1e-12 that is finer than
# the integrator resolves, so both codes would walk to the horizon in tiny
# steps.  The examples take rtol to 1e-12 on the calibrated economy.
@settings(max_examples=200, deadline=None, database=None)
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
# Found by search: the last step starts below horizon / 2, so t + (horizon
# - t) is not the horizon; a step rejected by the 0.2 floor on its factor;
# and a first step set by d2 > d1, where 0.01 * d0 / d1's rounding counts.
@example(68.0844390577417, 0.2102255513556266, 0.798538117290815, 0.2705473416433432,
         0.45408623093588474, 1.83255304014085e-05, 1.0, 6.711733050463759)
@example(82.08695617064049, 0.8455190500015711, 0.099441998506699, 0.16280086646496003,
         0.8057437380520379, 1.682063190105569e-06, 1.0, 4382.345337510398)
@example(11.789962249062372, 0.8397251347972863, 0.35578537333196875, 5.183142676414256,
         0.9839648121404437, 6.928917932009013e-10, 1.5896242565211598, 1e6)
def test_integrate_matches_solve_ivp_bitwise(
    capacity, load, target, delay_weight, start, rtol, gain, horizon
):
    gap = calibrate_price_gap(capacity, load * capacity, delay_weight, target)
    params = NetworkParams(capacity, load * capacity, delay_weight, gap, 0.0)
    if start is None:
        start = equilibrium(params).share_primary
        assume(0.0 < start < 1.0)
    got = integrate(params, start, horizon=horizon, rtol=rtol, gain=gain)
    want = solve_ivp_integrate(params, start, horizon, rtol, gain)
    assert got.converged == want.converged
    assert got.trajectory.tobytes() == want.trajectory.tobytes()


def test_each_step_attempt_takes_six_field_values(monkeypatch):
    # Dormand-Prince takes six new field values per step attempt (its
    # seventh stage is the next step's first) and two to choose the first
    # step; the settle event is read from the value at the step's end, so
    # only brentq, on the dense output, evaluates the field again.  Each
    # attempt takes one error norm, after the three of the first step.
    from netsel import replicator

    calls = {"rhs": 0, "brentq": 0, "rms": 0}
    real_rhs, real_brentq, real_rms = replicator_rhs, _brentq, replicator._rms

    def rhs(*args, **kwargs):
        calls["rhs"] += 1
        return real_rhs(*args, **kwargs)

    def brentq_spy(f, xa, xb):
        def counted(x):
            calls["brentq"] += 1
            return f(x)

        return real_brentq(counted, xa, xb)

    def rms(x):
        calls["rms"] += 1
        return real_rms(x)

    monkeypatch.setattr(replicator, "replicator_rhs", rhs)
    monkeypatch.setattr(replicator, "_brentq", brentq_spy)
    monkeypatch.setattr(replicator, "_rms", rms)
    result = integrate(calibrated_params(), 0.2)
    attempts = calls["rms"] - 3
    assert result.converged and attempts >= len(result.trajectory) - 1
    assert calls["rhs"] == 2 + 6 * attempts + calls["brentq"]
    # The README run: 287 accepted and 5 rejected attempts, 21 brentq values.
    assert (calls["rhs"], attempts, calls["brentq"]) == (1775, 292, 21)
    calls.update(rhs=0, brentq=0, rms=0)
    at_rest = integrate(calibrated_params(), 0.68, rtol=1e-4)
    assert len(at_rest.trajectory) == 1 and calls == {"rhs": 1, "brentq": 0, "rms": 0}


EPS4 = 4 * np.finfo(float).eps


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),  # takes inverse quadratic steps
        (lambda x: math.cos(x) - x, 0.0, 1.0),  # so does this one
        (lambda x: math.atan(x - 0.7) * 1e-250, 0.0, 1.0),  # secant steps only
        (lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, 0.0, 1.0),  # bisection only
        (lambda x: -0.0 if x == 0.0 else -1.0, 0.0, 1.0),  # a zero at the left end
    ],
    ids=["cubic", "cosine", "tiny-atan", "step", "zero-at-a"],
)
def test_ported_brentq_matches_scipy_bitwise(f, a, b):
    want = brentq(f, a, b, xtol=EPS4, rtol=EPS4)
    assert _brentq(f, a, b).hex() == want.hex()


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: 1e-200, 0.0, 1.0),  # same sign, though the product underflows
        (lambda x: math.nan, 0.0, 1.0),
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0),  # does not converge in 100 iterations
    ],
    ids=["same-sign", "nan", "no-convergence"],
)
def test_ported_brentq_raises_as_scipy_does(f, a, b):
    with pytest.raises((ValueError, RuntimeError)) as want:
        brentq(f, a, b, xtol=EPS4, rtol=EPS4)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        _brentq(f, a, b)
