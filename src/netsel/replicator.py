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
    toward a boundary is not mistaken for a settled one.  The start must
    be strictly interior (the boundaries are fixed points; integrating
    from one would be a constant).  Samples are clipped to [0, 1] against
    integrator round-off.
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
    from scipy.integrate import solve_ivp  # scipy loads only when a solve needs it

    threshold = rtol * gain

    def field(_t: float, y: np.ndarray) -> list[float]:
        return [replicator_rhs(params, min(max(float(y[0]), 0.0), 1.0), gain)]

    def settled(t: float, y: np.ndarray) -> float:
        return abs(field(t, y)[0]) - threshold

    settled.terminal = True  # type: ignore[attr-defined]

    if abs(field(0.0, np.array([initial_share]))[0]) <= threshold:
        return IntegrationResult(np.array([[0.0, initial_share]]), converged=True)

    solution = solve_ivp(
        field,
        (0.0, horizon),
        [initial_share],
        method="RK45",
        rtol=1e-12,
        atol=1e-14,
        events=settled,
    )
    shares = np.clip(solution.y[0], 0.0, 1.0)
    return IntegrationResult(
        np.column_stack((solution.t, shares)), converged=bool(solution.status == 1)
    )
