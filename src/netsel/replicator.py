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

__all__ = [
    "IntegrationResult",
    "replicator_rhs",
    "integrate",
]


@dataclass(frozen=True, eq=False)
class IntegrationResult:
    """Outcome of following the flow: samples, endpoint, and whether it settled.

    ``trajectory`` holds float64 rows (time, share), the shape of
    ``montecarlo.RunResult.trajectory``.  ``converged`` reports whether
    the derivative-based stop condition fired, or the share reached the
    float next to the rest point, before the horizon; a False value is
    information, not an error, and the partial trajectory stays fully
    inspectable.
    """

    trajectory: np.ndarray
    converged: bool

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


def integrate(
    params: NetworkParams,
    initial_share: float,
    horizon: float = 1e6,
    rtol: float = 1e-8,
    gain: float = 1.0,
) -> IntegrationResult:
    """Follow the replicator flow until it settles or the horizon ends.

    The flow separates: pi_P(x) - pi_S = (B - A x) / (C - lam x), with A
    and B taken exactly from the float parameters, so each share's time
    is a sum of logarithms (Hofbauer & Sigmund, 1998).  The run stops at
    the first share where |dx/dt| <= rtol * gain, a derivative criterion,
    so a trajectory crawling toward a boundary is not mistaken for a
    settled one, or at the float next to the rest point if that comes
    first; past the horizon it ends on the share at the horizon.  Shares
    are sampled geometrically in their distance to the rest point.  The
    start must be strictly interior (the boundaries are fixed points).
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
    from fractions import Fraction  # here, as it loads decimal, which no other command needs
    x0 = initial_share
    cap, lam, weight = (Fraction(v) for v in (params.capacity, params.arrival, params.delay_weight))
    margin = weight / (cap - lam) - Fraction(params.price_primary) + Fraction(params.price_secondary)
    big_a, big_b = lam * margin, cap * margin - weight  # pi_P - pi_S = margin - a / (C - lam x)
    # dx/dt = gain x (1 - x) pull(x) / (scale ((1 - x) + slack x)), pull(x) = (B - A x) / norm,
    # in a form that keeps its digits next to the rest point.
    if 0 < big_b < big_a:  # an interior rest point x* = B / A, carried to twice the digits
        norm, rest = big_a, float(big_b / big_a)
        low = float(big_b / big_a - Fraction(rest))

        def pull(y: float) -> float:
            return (rest - y) + low

    else:  # B and B - A share a sign: the flow runs to a boundary, and pull never cancels
        norm = max(abs(big_b), abs(big_b - big_a))
        at_0, at_1 = float(big_b / norm), float((big_b - big_a) / norm)
        rest = 1.0 if at_0 + at_1 > 0 else 0.0

        def pull(y: float) -> float:
            return at_0 * (1.0 - y) + at_1 * y

    slack = float((cap - lam) / cap)
    try:
        scale = float(cap / norm)
    except OverflowError:
        scale = math.inf
    settle, unit = rtol * scale, scale / gain

    def slow(y: float) -> bool:  # |dx/dt| <= rtol * gain
        return y * (1.0 - y) * abs(pull(y)) / ((1.0 - y) + slack * y) <= settle

    def elapsed(y: float) -> float:  # the time from x0 to y, by partial fractions
        w, ratio = (y - x0) / pull(y), pull(x0) / pull(y)
        near = _log1p_over(pull(0.0) * w / x0, y / x0, ratio) / x0
        far = _log1p_over(-pull(1.0) * w / (1 - x0), (1 - y) / (1 - x0), ratio) / (1 - x0)
        return w * (near + slack * far) * unit  # unit last: it may be subnormal

    if slow(x0):
        return IntegrationResult(np.array([[0.0, x0]]), converged=True)
    last, stop = _bisect(lambda y: not slow(y), x0, rest)
    end = last if stop == rest else stop
    converged = elapsed(end) <= horizon
    if not converged:
        end = _bisect(lambda y: elapsed(y) <= horizon, x0, end)[0]
    shares = rest + math.copysign(1.0, x0 - rest) * np.geomspace(
        abs(x0 - rest), abs(end - rest), _SAMPLES
    )
    shares[0], shares[-1] = x0, end
    shares = np.clip(shares, min(x0, end), max(x0, end))  # rounding may step past either end
    shares = shares[np.r_[True, np.diff(shares) != 0]].tolist()
    rows = [(0.0, x0)] + [(elapsed(y), y) for y in shares[1:]]
    if not converged:  # the last share is the share at the horizon, to one float
        rows[1:] = [*rows[1:-1], (horizon, end)]
    return IntegrationResult(np.array(rows), converged=converged)


_SAMPLES = 288  # the rows of the README run under the Runge-Kutta integrator replaced


def _log1p_over(u: float, *factors: float) -> float:
    """ln(1 + u) / u, 1 at u = 0; below u = -1/2 from the factors of 1 + u,
    which keep the digits that 1 + u formed from u would lose."""
    if u == 0.0:
        return 1.0
    return (math.log1p(u) if u > -0.5 else sum(map(math.log, factors))) / u


def _bisect(inside, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats from lo toward hi, the first inside and the second
    not, given inside(lo) and not inside(hi)."""
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi
