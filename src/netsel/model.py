"""Economics of the two-network selection game.

A population of cognitive-radio users shares one wireless channel,
modelled as an M/M/1 queue with service rate ``capacity``.  Each user
either subscribes to the licensed primary network or free-rides on the
unlicensed secondary network.  Primary users see a queueing delay that
grows with the primary share of the traffic; secondary users always see
the full-load delay, as if the whole population were ahead of them.  A
user's utility is minus its total cost (delay cost plus subscription
price), so utilities are negative and higher is better.

Everything here is closed form: parameters are immutable and each
operation is a deterministic function of its arguments.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NetworkParams",
    "PopulationConfig",
    "EquilibriumInfo",
    "utility_primary",
    "utility_primary_at_share",
    "utility_secondary",
    "equilibrium",
    "critical_state",
    "calibrate_price_gap",
    "social_welfare",
    "social_optimum",
    "poa_at",
    "poa_absorbing",
    "expected_poa",
]

# Snap width for ceil(n * share): keeps the critical state from jumping by
# one when n * share lands a few ulps above an exact integer.
_CEIL_SNAP = 1e-9
# States per chunk of the large-n stages: their temporaries stay at a few
# chunks, not a few n-sized vectors.
_CHUNK = 4096


@dataclass(frozen=True)
class NetworkParams:
    """Environment of the selection game.

    capacity        service rate of the shared channel
    arrival         total offered traffic; must satisfy 0 < arrival < capacity
    delay_weight    cost per unit of queueing delay
    price_primary   subscription price of the primary network
    price_secondary subscription price of the secondary network
    """

    capacity: float
    arrival: float
    delay_weight: float = 1.0
    price_primary: float = 0.0
    price_secondary: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ValueError(f"capacity must be positive and finite, got {self.capacity}")
        if not (math.isfinite(self.arrival) and 0 < self.arrival < self.capacity):
            raise ValueError(
                "arrival must lie in (0, capacity); "
                f"got arrival={self.arrival}, capacity={self.capacity}"
            )
        if not (math.isfinite(self.delay_weight) and self.delay_weight > 0):
            raise ValueError(f"delay_weight must be positive and finite, got {self.delay_weight}")
        for name in ("price_primary", "price_secondary"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def price_gap(self) -> float:
        """Premium paid for primary access: price_primary - price_secondary."""
        return self.price_primary - self.price_secondary


def _is_int(value) -> bool:
    """True for a Python or numpy integer, a numbers.Integral; bools are refused as counts.
    An int is let through first, as the ABC check costs about 0.3 us more per call."""
    return type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool


@dataclass(frozen=True)
class PopulationConfig:
    """Genuine population size plus per-operator anchored users.

    n                   genuine (revising) users; at least 2
    anchored_primary    operator-planted users pinned to the primary network
    anchored_secondary  operator-planted users pinned to the secondary network
    """

    n: int
    anchored_primary: int = 0
    anchored_secondary: int = 0

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 2:
            raise ValueError(f"population needs at least 2 genuine users, got n={self.n!r}")
        for name in ("anchored_primary", "anchored_secondary"):
            v = getattr(self, name)
            if not _is_int(v) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True)
class EquilibriumInfo:
    """Equal-cost traffic split between the two networks.

    rate_primary    equilibrium traffic carried by the primary network
    share_primary   rate_primary / arrival, always in [0, 1]
    boundary        True when the equilibrium sits at share 0 or 1, either
                    because the interior solution fell outside the feasible
                    range and was clamped or because the prices make one
                    network weakly dominant.
    """

    rate_primary: float
    share_primary: float
    boundary: bool


def utility_primary_at_share(params: NetworkParams, share: float | np.ndarray) -> float | np.ndarray:
    """Primary-user utility when a fraction ``share`` of the traffic is primary.

    Equals -(delay_weight / (capacity - arrival * share) + price_primary);
    continuous counterpart of :func:`utility_primary`.  Accepts arrays.
    """
    load = params.arrival * share
    return -(params.delay_weight / (params.capacity - load) + params.price_primary)


def utility_primary(params: NetworkParams, k: int, n: int) -> float:
    """Primary-user utility with k primary users out of a population of n.

    Strictly decreasing in k: every additional primary user adds traffic
    to the primary queue and lengthens the delay for all of them.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"primary-user count must lie in 0..{n}, got {k}")
    return utility_primary_at_share(params, k / n)


def utility_secondary(params: NetworkParams) -> float:
    """Secondary-user utility; independent of the split by construction."""
    return -(
        params.delay_weight / (params.capacity - params.arrival) + params.price_secondary
    )


def equilibrium(params: NetworkParams) -> EquilibriumInfo:
    """Traffic split at which both user types bear the same cost.

    Solving  delay_weight/(capacity - rate) + price_primary
           = delay_weight/(capacity - arrival) + price_secondary
    for the primary rate gives

        rate = (a*lam - C*(C - lam)*gap) / (a - (C - lam)*gap)

    with C = capacity, lam = arrival, a = delay_weight and gap the price
    premium.  When that solution falls outside [0, arrival] there is no
    interior equal-cost point and one strategy dominates: everyone joins
    the primary network when the premium is <= 0, everyone stays
    secondary once the premium exceeds the largest possible delay saving.

    Raises ValueError when delay_weight == (capacity - arrival) * gap,
    where the equal-cost equation degenerates.
    """
    cap, lam = params.capacity, params.arrival
    slack = cap - lam
    gap = params.price_gap
    denom = params.delay_weight - slack * gap
    if denom == 0.0:
        raise ValueError(
            "degenerate prices: delay_weight equals (capacity - arrival) * price gap, "
            "the equal-cost equation has no solution"
        )
    rate = (params.delay_weight * lam - cap * slack * gap) / denom
    if 0.0 <= rate <= lam:
        share = rate / lam
    else:
        # No interior equal-cost point; clamp to the dominant boundary.
        rate = lam if gap <= 0 else 0.0
        share = rate / lam
    boundary = share <= 0.0 or share >= 1.0
    return EquilibriumInfo(rate_primary=rate, share_primary=share, boundary=boundary)


def critical_state(params: NetworkParams, n: int) -> int:
    """Smallest primary-user count whose share is at or above equilibrium.

    Computed as ceil(n * share) with a small snap window so that a
    product lying a few ulps off an exact integer does not shift the
    result; clipped to 0..n.  States below the critical one favour the
    primary network, states at or above it favour the secondary one.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    target = n * equilibrium(params).share_primary
    nearest = round(target)
    if abs(target - nearest) <= _CEIL_SNAP * max(1.0, abs(target)):
        k = int(nearest)
    else:
        k = math.ceil(target)
    return min(max(k, 0), n)


def calibrate_price_gap(
    capacity: float, arrival: float, delay_weight: float, target_share: float
) -> float:
    """Price premium that places the equilibrium share at ``target_share``.

    Inverts the equal-cost condition:

        gap = delay_weight * arrival * (1 - x)
              / ((capacity - arrival) * (capacity - x * arrival))

    so ``equilibrium`` run with this gap round-trips to the target share
    (to roughly 1e-12 relative).  The target must lie in (0, 1]; a target
    of exactly 1 yields a zero premium.
    """
    if not 0.0 < target_share <= 1.0:
        raise ValueError(f"target_share must lie in (0, 1], got {target_share}")
    # Route the remaining validation through the parameter type.
    NetworkParams(capacity=capacity, arrival=arrival, delay_weight=delay_weight)
    denom = (capacity - arrival) * (capacity - target_share * arrival)
    if not 0.0 < denom < math.inf:
        raise ValueError(
            "the calibration denominator (capacity - arrival) * (capacity - target_share * "
            f"arrival) = {denom!r} leaves the float range"
        )
    return delay_weight * arrival * (1.0 - target_share) / denom


def social_welfare(params: NetworkParams, share_primary: float | np.ndarray) -> float | np.ndarray:
    """Population-total delay at a given split (lower is better).

    S(x) = arrival * (x / (capacity - arrival*x) + (1-x) / (capacity - arrival)).
    The two boundary splits cost the same: S(0) = S(1) = arrival / (capacity - arrival).
    Accepts an array of splits; every one must lie in [0, 1].
    """
    x = share_primary
    if isinstance(x, float):  # numpy's verdict in plain comparisons, NaN included
        inside = 0.0 <= x <= 1.0
    else:
        import numpy as np  # here, as a float split needs no numpy
        inside = np.min(x) >= 0.0 and np.max(x) <= 1.0
    if not inside:
        raise ValueError(f"share must lie in [0, 1], got {x}")
    return _welfare(params, x)


def _welfare(params: NetworkParams, x: float | np.ndarray) -> float | np.ndarray:
    """S(x) of :func:`social_welfare`, for splits already known to lie in [0, 1]."""
    cap, lam = params.capacity, params.arrival
    return lam * (x / (cap - lam * x) + (1.0 - x) / (cap - lam))


def social_optimum(params: NetworkParams) -> tuple[float, float]:
    """Split minimising the total delay, and the minimum itself.

    Setting dS/dx = 0 gives x_opt = (C - sqrt(C*(C - lam))) / lam and
    S_min = 2*(sqrt(C/(C - lam)) - 1); the optimum is always interior
    and unique since S is strictly convex in x.  Where C*(C - lam) leaves
    the normal float range, its root is taken as sqrt(C) * sqrt(C - lam).
    Below a load lam/C of 2^-6 the numerator cancels, so x_opt is taken
    in the equal form C / (C + sqrt(C*(C - lam))) there.
    """
    cap, lam = params.capacity, params.arrival
    product = cap * (cap - lam)
    if sys.float_info.min <= product < math.inf:
        root = math.sqrt(product)
    else:
        root = math.sqrt(cap) * math.sqrt(cap - lam)
    x_opt = cap / (cap + root) if lam < cap * 2.0**-6 else (cap - root) / lam
    s_min = 2.0 * (math.sqrt(cap / (cap - lam)) - 1.0)
    return x_opt, s_min


def _minimal_welfare(params: NetworkParams) -> float:
    """S_min, the denominator of every price of anarchy; refused where it rounds to 0."""
    _, s_min = social_optimum(params)
    if s_min == 0.0:
        raise ValueError(
            "the minimal welfare S_min rounds to 0 (arrival negligible against capacity): "
            "the price of anarchy is undefined"
        )
    return s_min


def poa_at(params: NetworkParams, share_primary: float) -> float:
    """Price of anarchy of a fixed split: S(share) / S_min, always >= 1."""
    return social_welfare(params, share_primary) / _minimal_welfare(params)


def poa_absorbing(params: NetworkParams) -> float:
    """Price of anarchy when the long-run outcome is a single-network split.

    Both all-primary and all-secondary cost arrival / (capacity - arrival),
    so the ratio simplifies to

        arrival / (2 * sqrt(capacity - arrival) * (sqrt(capacity) - sqrt(capacity - arrival)))

    which grows without bound as arrival approaches capacity and tends
    to 1 as arrival vanishes.
    """
    cap, lam = params.capacity, params.arrival
    root_slack = math.sqrt(cap - lam)
    denom = 2.0 * root_slack * (math.sqrt(cap) - root_slack)
    if denom == 0.0:
        raise ValueError(
            "the absorbing price of anarchy's denominator "
            "2 sqrt(capacity - arrival) (sqrt(capacity) - sqrt(capacity - arrival)) rounds to 0"
        )
    return lam / denom


def expected_poa(params: NetworkParams, distribution) -> float:
    """Expected price of anarchy under a distribution over the split states.

    ``distribution`` is a probability vector over the primary-user counts
    k = 0..n (anything exposing a ``psi`` attribute, or an array-like of
    length n + 1).  Returns sum_k S(k/n) * psi_k / S_min, which is >= 1
    for every distribution because S >= S_min pointwise.  Rejects vectors
    that carry negative or non-finite mass or fail to sum to 1 within
    1e-9.  S comes from array calls of :func:`social_welfare`'s formula over
    a few thousand states each, bitwise the scalar values, without its range
    check: the grid k/n lies in [0, 1] by construction.  The sum is
    :func:`_chunked_dot`'s.
    """
    import numpy as np  # here, as the scalar commands need no numpy
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
    mean_welfare = _chunked_dot(psi, lambda lo, hi: _welfare(params, np.arange(lo, hi) / n))
    return mean_welfare / _minimal_welfare(params)


def _chunked_dot(weights: np.ndarray, values) -> float:
    """Sum of np.dot(values(lo, hi), weights[lo:hi]) over _CHUNK-state chunks, in order:
    the same bits at any BLAS thread count, which may split one long dot, and
    np.dot's own value up to _CHUNK states.

    A chunk whose weights are all zero is skipped, values included: with
    finite values its dot is +-0.0, and the sum, which starts at +0.0 and so
    is never -0.0, keeps its bits when +-0.0 is added.
    """
    total = 0.0
    starts = range(0, weights.size, _CHUNK)
    if len(starts) > 1:  # the chunks that hold a nonzero weight, in two reductions
        full = weights.size - weights.size % _CHUNK
        held = weights[:full].reshape(-1, _CHUNK).any(axis=1).tolist() + [weights[full:].any()]
        starts = itertools.compress(starts, held)
    for lo in starts:
        hi = min(lo + _CHUNK, weights.size)
        total += float(values(lo, hi).dot(weights[lo:hi]))
    return total
