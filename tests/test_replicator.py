"""Mean dynamics: vector fields and trajectory integration."""

import numpy as np
import pytest

from netsel.model import NetworkParams, calibrate_price_gap, equilibrium
from netsel.protocols import Fermi, PairwiseProportional
from netsel.replicator import integrate, mean_dynamics_rhs, replicator_rhs


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


def test_times_and_shares_views_align():
    p = calibrated_params()
    result = integrate(p, 0.4, rtol=1e-9)
    assert len(result.times) == len(result.shares) == len(result.trajectory)
    assert result.times[0] == 0.0
    assert result.shares[0] == pytest.approx(0.4)
