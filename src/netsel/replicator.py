"""Deterministic mean dynamics of the selection game.

In the infinite-population limit the primary share x follows the
one-dimensional replicator field

    dx/dt = gain * x * (1 - x) * (pi_P(x) - pi_S)

so the share grows exactly while primary users are better off.  The same
field arises as the expected flow of pairwise imitation:
x * (1 - x) * (q(diff) - q(-diff)) for a rule q, which collapses to the
replicator form with gain equal to the rule's scale when q is the
proportional rule.  Both vector fields share the interior rest point at
the equal-cost share and the two boundary fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import NetworkParams
from .protocols import ImitationRule

__all__ = [
    "IntegrationResult",
    "replicator_rhs",
    "mean_dynamics_rhs",
    "integrate",
]


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """Outcome of following the flow: samples, endpoint, and whether it settled.

    ``trajectory`` holds float64 rows (time, share), the shape of
    ``montecarlo.RunResult.trajectory``.  ``converged`` reports whether
    the derivative-based stop condition fired before the horizon; a False
    value is information, not an error, and the partial trajectory stays
    fully inspectable.
    """

    trajectory: np.ndarray
    converged: bool

    @property
    def times(self) -> np.ndarray:
        return self.trajectory[:, 0]

    @property
    def shares(self) -> np.ndarray:
        return self.trajectory[:, 1]

    @property
    def fixed_point(self) -> float:
        return float(self.trajectory[-1, 1])


def replicator_rhs(params: NetworkParams, share: float, gain: float = 1.0) -> float:
    """Replicator vector field at one share value.

    gain * share * (1 - share) * (pi_P(share) - pi_S); zero at the
    boundaries and at the equal-cost share, positive below it, negative
    above it.  Raises ValueError outside [0, 1].
    """
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must lie in [0, 1], got {share}")
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"gain must be positive and finite, got {gain}")
    advantage = model.utility_primary_at_share(params, share) - model.utility_secondary(params)
    return gain * share * (1.0 - share) * advantage


def mean_dynamics_rhs(rule: ImitationRule, params: NetworkParams, share: float) -> float:
    """Expected drift of the imitation process at one share value.

    share * (1 - share) * (q(diff) - q(-diff)) with diff the primary
    payoff advantage: the rate of secondary users copying primaries minus
    the reverse.  For the proportional rule with scale s this equals
    replicator_rhs with gain = s identically; other rules bend the speed
    but keep the same sign structure and rest points.
    """
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"share must lie in [0, 1], got {share}")
    diff = model.utility_primary_at_share(params, share) - model.utility_secondary(params)
    q_up, q_down = rule.pair(np.array([diff]))
    return share * (1.0 - share) * float(q_up[0] - q_down[0])


def integrate(
    params: NetworkParams,
    initial_share: float,
    horizon: float = 1e6,
    rtol: float = 1e-8,
    gain: float = 1.0,
) -> IntegrationResult:
    """Follow the replicator flow until it settles or the horizon ends.

    Runs an adaptive Runge-Kutta pair and stops once |dx/dt| falls below
    rtol * gain — a derivative criterion, so a trajectory crawling slowly
    toward a boundary is not mistaken for a settled one.  An rtol below the
    drift the pair resolves at the rest point is refused (ValueError), as
    such a run would never settle.  The pair and the location of the stop
    are scipy 1.17.1's RK45 and brentq, ported below, so the samples do not
    depend on the installed scipy version.  The start must be strictly
    interior (the boundaries are fixed points; integrating from one would
    be a constant).  Samples are clipped to [0, 1] against integrator
    round-off.
    """
    if not 0.0 < initial_share < 1.0:
        raise ValueError(
            f"start share must be strictly inside (0, 1), got {initial_share}; "
            "the boundary points are fixed"
        )
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"gain must be positive and finite, got {gain}")
    try:
        rest = model.equilibrium(params).share_primary
    except ValueError:  # degenerate prices: pi_P < pi_S at every share, so the flow ends at 0
        rest = 0.0
    # |dx/dt| near the rest point x* is |f'(x*)| |x - x*|, and the RK45 below
    # places x only to about _RTOL * x* + _ATOL: below that drift it never
    # settles and samples until the horizon (gigabytes at rtol 1e-13 near
    # capacity).  Runs settled from 0.3 of it, not at 0.1: a safety factor of 1.
    advantage = model.utility_primary_at_share(params, rest) - model.utility_secondary(params)
    slack = params.capacity - params.arrival * rest
    try:
        slope = params.delay_weight * params.arrival / slack**2
    except (OverflowError, ZeroDivisionError):  # slack**2 over- or underflows, the slope need not
        slope = params.delay_weight * (params.arrival / slack) / slack
    floor = abs((1 - 2 * rest) * advantage - rest * (1 - rest) * slope) * (_RTOL * rest + _ATOL)
    if rtol < floor:
        raise ValueError(
            f"rtol = {rtol!r} is below {floor:.3g}, the settling drift the integrator resolves "
            f"at the rest point x* = {rest:.6g}; such a run would never settle"
        )
    threshold = rtol * gain

    def drift(y: np.ndarray) -> float:
        return replicator_rhs(params, min(max(float(y[0]), 0.0), 1.0), gain)

    def settled(f: np.ndarray) -> float:
        return abs(float(f[0])) - threshold

    start = np.array([initial_share], dtype=float)
    times, states, converged = _rk45(lambda y: np.array([drift(y)]), settled, start, float(horizon))
    shares = np.clip(np.concatenate(states), 0.0, 1.0)
    return IntegrationResult(np.column_stack((times, shares)), converged=converged)


# The rest of this module is scipy 1.17.1's solve_ivp(method="RK45",
# rtol=1e-12, atol=1e-14) with one terminal event of direction 0, cut down
# to one dimension, forward time and an autonomous field (so the tableau's
# stage times C drop out) and ported operation for operation: the
# Dormand-Prince 5(4) pair and its quartic dense output (J. Comput. Appl.
# Math. 6, 1980), and scipy's C brentq for the event (Brent, Algorithms for
# Minimization Without Derivatives, 1973, ch. 4).  The numpy calls keep
# scipy's shapes, so both take the same BLAS path and give the same bits.
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.  All rights
# reserved.  Used under the BSD 3-Clause licence; its conditions and
# disclaimer are in LICENSES/scipy.txt at the root of the repository.

_RTOL, _ATOL = 1e-12, 1e-14
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])  # fmt: skip
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])  # fmt: skip
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])  # fmt: skip
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])  # fmt: skip


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(rate, event, y: np.ndarray, t_bound: float) -> tuple[list, list, bool]:
    """solve_ivp's times, states and whether ``event(rate(y))`` crossed 0 (the start
    alone if it is <= 0 there); each step reuses the rate at its end for the event.
    A step below ten ulps of t ends the run unsettled (status -1)."""
    rtol, atol = _RTOL, _ATOL
    f = rate(y)
    t, g, times, states = 0.0, event(f), [0.0], [y]
    if g <= 0:
        return times, states, True
    scale = atol + np.abs(y) * rtol  # select_initial_step
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    d2 = _rms((rate(y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_bound)
    K = np.empty((7, 1))
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)  # RungeKutta._step_impl
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return times, states, False
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = rate(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = rate(y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        g_new = event(f)
        if g <= 0 <= g_new or g_new <= 0 <= g:  # find_active_events, direction 0
            Q = K.T.dot(_P)

            def dense(at: float) -> np.ndarray:  # RkDenseOutput
                return h * np.dot(Q, np.cumprod(np.tile((at - t_old) / h, 4))) + y_old

            root = _brentq(lambda at: event(rate(dense(at))), t_old, t)
            return times + [root], states + [dense(root)], True
        times.append(t)
        states.append(y)
        if t >= t_bound:
            return times, states, False
        g = g_new


def _brentq(f, xa: float, xb: float) -> float:
    """scipy's brentq(f, xa, xb, xtol=4 eps, rtol=4 eps, maxiter=100), errors included."""

    def value(x: float) -> float:
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol = rtol = 4 * float(np.finfo(float).eps)
    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")
