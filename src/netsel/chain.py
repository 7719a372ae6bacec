"""Birth-death Markov chain of the imitation process.

The state k counts the genuine primary users in a population of n; one
imitation event moves k by at most one.  Each network operator may plant
*anchored* users — shills that never revise their own choice but are
sampled as opponents like anyone else.  Anchors tilt the transition
weights and, crucially, remove the absorbing all-primary/all-secondary
traps of the plain chain: with at least one anchor on each side and a
strictly positive rule the chain is irreducible and its stationary law
exists in closed form.

Three independent routes to the stationary distribution are provided:
the birth-death product form, a linear-algebra eigenvector route, and
(in :mod:`netsel.montecarlo`) empirical occupancy.  They are kept
separate on purpose so each can cross-check the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model
from .model import _CHUNK, NetworkParams, PopulationConfig, _is_int
from .protocols import ImitationRule, PairwiseProportional

__all__ = [
    "ChainStructureError",
    "TransitionKernel",
    "ChainClass",
    "StationaryDistribution",
    "AbsorptionResult",
    "build_kernel",
    "classify",
    "stationary_noise_free",
    "stationary_product",
    "stationary_eigen",
    "absorption_analysis",
    "absorption_table",
    "long_run",
    "distribution_mode",
    "total_variation",
    "detailed_balance_residual",
]

_DISTRIBUTION_KINDS = ("two_point_noise_free", "product_form", "eigenvector", "empirical")
# Half-width of a payoff tie relative to the payoffs' scale (see build_kernel),
# and the smallest normal float, below which a rate has lost digits.
_TIE = 32.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


class ChainStructureError(ValueError):
    """An analysis was asked of a kernel whose structure does not support it."""


def _frozen(values) -> np.ndarray:
    """``values`` if a read-only float64 array owning its data, else a float copy."""
    owned = isinstance(values, np.ndarray) and values.flags.owndata and not values.flags.writeable
    return values if owned and values.dtype == float else np.array(values, dtype=float)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Per-state move probabilities of the birth-death chain.

    ``up`` and ``down`` are read-only vectors indexed by the state
    k = 0..n, with the structural zeros up[n] = down[0] = 0.  The kernel
    holds them and their interior minima, which its validation measures and
    its classification reads, and derives the read-only ``move = up + down``
    on first use.  ``params``, ``population`` and ``rule`` record what it was
    built from and stay None for hand-made kernels.  A recorded population
    must allow the boundary moves: up[0] > 0 needs a primary anchor to
    imitate, and down[n] > 0 a secondary one.  Kernels compare by identity.
    """

    up: np.ndarray
    down: np.ndarray
    params: NetworkParams | None = None
    population: PopulationConfig | None = None
    rule: ImitationRule | None = None

    def __post_init__(self) -> None:
        up, down = _frozen(self.up), _frozen(self.down)
        if up.shape != down.shape or up.ndim != 1 or up.size < 3:
            raise ValueError("up/down must be equal-length vectors over k = 0..n with n >= 2")
        low = up[:-1].min(), down[1:].min()  # the interior minima, which _classify reads
        if not (min(low) >= 0.0 and up[-1] == 0.0 == down[0] and _rows_fit(up, down)):
            _check_rates(up, down)  # raises unless the rates are valid (a NaN fails _rows_fit)
            raise ValueError("structural zeros violated: need up[n] == 0 and down[0] == 0")
        population = self.population
        if population is not None and (
            (up[0] > 0.0 and not population.anchored_primary)
            or (down[-1] > 0.0 and not population.anchored_secondary)
        ):
            raise ValueError(
                "rates contradict the population: up[0] > 0 needs a primary anchor "
                "and down[n] > 0 a secondary one"
            )
        for name, value in (("up", _readonly(up)), ("down", _readonly(down)), ("_low", low)):
            object.__setattr__(self, name, value)

    @cached_property
    def move(self) -> np.ndarray:
        return _readonly(self.up + self.down)

    @property
    def n(self) -> int:
        """Largest state index (genuine population size)."""
        return self.up.size - 1

    # A kernel is frozen and its arrays read-only, so its class, its
    # smallest rate and its absorption table are computed at most once;
    # dataclasses.replace builds a new kernel, which starts with none.
    @cached_property
    def _structure(self) -> ChainClass:
        return _classify(self)

    @cached_property
    def _min_rate(self) -> float:
        """The smallest rate with a positive counting weight, in a kernel built
        with a rule that promises q > 0 by defining ``log_pair``; inf in any other."""
        population, rule = self.population, self.rule
        if self.params is None or population is None or rule is None or rule.log_pair is None:
            return math.inf
        if population.anchored_primary and population.anchored_secondary:
            return float(min(self._low))  # its slices are the interior ones
        up = self.up[0 if population.anchored_primary else 1 : self.n]
        down = self.down[1 : self.n + 1 if population.anchored_secondary else self.n]
        return float(min(up.min(), down.min()))

    @cached_property
    def _absorption(self) -> np.ndarray:
        _refuse_underflow(self, "absorption analysis")
        return _readonly(_absorption_solve(self))


def _check_rates(up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """up and down, after a ValueError unless they are probabilities whose sum stays within 1."""
    if up.min() >= 0.0 and down.min() >= 0.0 and _rows_fit(up, down):  # three reductions
        return up, down
    for name, arr in (("up", up), ("down", down)):  # only invalid rates get this diagnosis
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false on a NaN too
            raise ValueError(f"{name} entries must be probabilities in [0, 1]")
    raise ValueError("rows must sum to 1: up + down exceeds 1 at some state")


def _rows_fit(up: np.ndarray, down: np.ndarray) -> bool:
    """Whether 1 - up - down >= 0 at every state, tested as 1 - up >= down: a float
    difference has the sign of the exact one, and a comparison cannot overflow."""
    for lo in range(0, up.size, _CHUNK):
        if not (1.0 - up[lo : lo + _CHUNK] >= down[lo : lo + _CHUNK]).all():
            return False
    return True


@dataclass(frozen=True)
class ChainClass:
    """Structural class of a kernel, decided from which moves are possible.

    kind is "irreducible" (every state reaches every other),
    "absorbing" (both boundary states trap and every interior state
    eventually drains into one of them), or "other".
    """

    kind: str
    absorbing_states: tuple[int, ...] = ()
    detail: str = ""


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Probability vector over the states k = 0..n plus how it was obtained.

    kind is one of "two_point_noise_free", "product_form", "eigenvector"
    or "empirical".  The vector is validated (nonnegative, sums to 1
    within 1e-9) and stored read-only.  Laws compare by identity.
    """

    psi: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _DISTRIBUTION_KINDS:
            raise ValueError(f"kind must be one of {_DISTRIBUTION_KINDS}, got {self.kind!r}")
        psi = _frozen(self.psi)
        if psi.ndim != 1 or psi.size < 2:
            raise ValueError("psi must be a vector over at least two states")
        # A law with no NaN or negative entry and a finite sum within 1e-9 of 1 is
        # accepted; the checks below sum only finite entries, so no sum here warns.
        with np.errstate(over="ignore"):
            if psi.min() >= 0.0 and abs(float(psi.sum()) - 1.0) <= 1e-9:
                return object.__setattr__(self, "psi", _readonly(psi))
        if not np.isfinite(psi).all():
            raise ValueError("psi entries must be finite")
        if psi.min() < 0.0:
            if psi.min() < -1e-12:
                raise ValueError(f"negative probability in psi: min entry {psi.min()!r}")
            psi = np.clip(psi, 0.0, None)
        if abs(float(psi.sum()) - 1.0) > 1e-9:
            raise ValueError(f"psi must sum to 1, got {float(psi.sum())!r}")
        object.__setattr__(self, "psi", _readonly(psi))

    @property
    def n(self) -> int:
        return self.psi.size - 1


@dataclass(frozen=True)
class AbsorptionResult:
    """Exact absorption behaviour from one start state.

    prob_absorb_at_0 / prob_absorb_at_n   chance of ending all-secondary
                                          respectively all-primary
    expected_steps                        mean number of imitation events
                                          until either boundary is hit
    """

    prob_absorb_at_0: float
    prob_absorb_at_n: float
    expected_steps: float


def build_kernel(
    params: NetworkParams, population: PopulationConfig, rule: ImitationRule
) -> TransitionKernel:
    """Assemble the per-state move probabilities for one imitation event.

    An event samples a focal genuine user uniformly, then an opponent
    uniformly among the other genuine users plus every anchored user.
    The state climbs when a secondary focal meets a primary opponent
    (genuine or anchored) and imitates; it descends in the mirror case:

        up[k]   = (n-k)/n * (k + a_p) / (n - 1 + a_p + a_s) * q(pi_p(k) - pi_s)
        down[k] = k/n * (n-k + a_s) / (n - 1 + a_p + a_s) * q(pi_s - pi_p(k))

    The states are built _CHUNK at a time, with one ``rule.pair`` call per
    chunk for both directions.  Each counting numerator is a product of
    integers no larger than n * (n - 1 + a_p + a_s), so it is exact in
    float64 before the single division, and symmetric weights cancel
    exactly (a fair-coin rule on an anchored chain gives a *bitwise*
    uniform law).  ValueError when that bound exceeds 2**53.
    Payoff differences within a few ulps of zero are snapped to an exact
    tie: when the equilibrium share falls exactly on a lattice point k/n,
    the difference there is zero in exact arithmetic, and propagating its
    float residue through a noise-free rule would fabricate transitions
    of magnitude ~1e-19.
    """
    rates, n = _rates(params, population, rule), population.n
    if n < _CHUNK:  # one chunk: its vectors are the kernel's
        up, down = rates(0, n + 1)
    else:
        up, down = np.empty(n + 1), np.empty(n + 1)
        for lo in range(0, n + 1, _CHUNK):
            up[lo : lo + _CHUNK], down[lo : lo + _CHUNK] = rates(lo, min(lo + _CHUNK, n + 1))
    return TransitionKernel(_readonly(up), _readonly(down), params, population, rule)


def _rates(params: NetworkParams, population: PopulationConfig, rule: ImitationRule):
    """The function (lo, hi) -> (up, down) of :func:`build_kernel` at the states lo..hi-1.

    Every step is elementwise, so any span gives the bits of the same
    states in one pass over 0..n.  The weight bound is checked at once.
    """
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

    def rates(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(lo, hi, dtype=float)
        q_up, q_down = rule.pair(_gain(params, pi_s, k / n))
        return (n - k) * (k + a_p) / denom * q_up, k * (n + a_s - k) / denom * q_down

    return rates


def _gain(params: NetworkParams, pi_s: float, shares: np.ndarray) -> np.ndarray:
    """pi_p - pi_s at each share, snapped to 0 within a few ulps (see build_kernel)."""
    pi_p = model.utility_primary_at_share(params, shares)
    gain = pi_p - pi_s
    tie = np.maximum(np.abs(pi_p, out=pi_p), abs(pi_s), out=pi_p)
    tie *= _TIE
    gain[np.abs(gain) <= tie] = 0.0
    return gain


_IRREDUCIBLE = ChainClass(kind="irreducible", detail="all interior moves possible")


def classify(kernel: TransitionKernel) -> ChainClass:
    """The structural class of a kernel, computed once per kernel by :func:`_classify`."""
    return kernel._structure


def _classify(kernel: TransitionKernel) -> ChainClass:
    """Decide the structural class of a kernel from its zero pattern.

    Irreducible: every interior move is possible (up positive below n,
    down positive above 0).  Absorbing: both boundaries trap (up[0] =
    down[n] = 0) and every interior state has an all-positive path to at
    least one boundary.  Anything else — e.g. the one-way flow of a
    noise-free rule — is classed "other" with the zero pattern spelled
    out in ``detail``.  A move is possible where its rate is positive,
    or, in a kernel with a finite ``_min_rate``, where its
    counting weight is: a zero rate there is q underflowing.
    """
    # Rates are never NaN, so positive interior minima mean every move is possible.
    if kernel._low[0] > 0.0 and kernel._low[1] > 0.0:
        return _IRREDUCIBLE
    n = kernel.n
    positive = kernel._min_rate < math.inf
    if positive:  # every interior weight is positive, and a boundary one only with an anchor
        up_0 = kernel.population.anchored_primary > 0
        down_n = kernel.population.anchored_secondary > 0
        if up_0 and down_n:
            return ChainClass(
                kind="irreducible",
                detail="all interior moves possible; some rates underflow to 0 in float",
            )
    else:
        up_pos, down_pos = kernel.up > 0.0, kernel.down > 0.0
        up_0, down_n = up_pos[0], down_pos[n]
    if not up_0 and not down_n:
        # State k reaches n iff every up move from k onwards is possible,
        # and reaches 0 iff every down move below it is: with every interior
        # move possible, each state reaches both.
        if positive or (
            np.logical_and.accumulate(up_pos[n - 1 : 0 : -1])[::-1]
            | np.logical_and.accumulate(down_pos[1:n])
        ).all():
            return ChainClass(
                kind="absorbing",
                absorbing_states=(0, n),
                detail="boundary states trap and every interior state drains to a boundary",
            )
    if positive:  # one anchor: only the other side's boundary move is blocked
        zero_up, zero_down = [] if up_0 else [0], [] if down_n else [n]
    else:
        zero_up = np.flatnonzero(~up_pos[:n]).tolist()
        zero_down = (np.flatnonzero(~down_pos[1:]) + 1).tolist()
    return ChainClass(
        kind="other",
        detail=f"blocked up moves at k={zero_up}, blocked down moves at k={zero_down}",
    )


def _refuse_underflow(kernel: TransitionKernel, purpose: str) -> None:
    """ChainStructureError naming ``purpose`` where a q > 0 underflowed to 0 in
    float: the float chain cannot cross that coupling, and the real one can."""
    if kernel._min_rate == 0.0:
        raise ChainStructureError(
            f"{purpose}: a rate underflows to 0 in float, and the solve cannot cross a "
            "zero coupling"
        )


def _require(kernel: TransitionKernel, kind: str, purpose: str) -> None:
    """Raise ChainStructureError naming ``purpose`` unless ``kernel`` is of class ``kind``."""
    structure = kernel._structure
    if structure.kind != kind:
        raise ChainStructureError(
            f"{purpose} needs an {kind} kernel, got {structure.kind} ({structure.detail})"
        )


def stationary_noise_free(
    params: NetworkParams,
    population: PopulationConfig,
    rule: ImitationRule | None = None,
) -> StationaryDistribution:
    """Long-run law under a noise-free rule started inside the interior.

    With q(z) = 0 for z <= 0 the chain can only climb while k is below
    the critical state k* and only descend from k* or above, so from any
    interior start it ends up oscillating on the pair {k*-1, k*}.  The
    long-run weights follow from balance across that single edge:

        psi[k*-1] = down[k*] / (up[k*-1] + down[k*]),  psi[k*] = 1 - psi[k*-1]

    computed so the two weights sum to exactly 1.0.  When the
    equilibrium share falls exactly on the lattice point k*/n the chain
    freezes at k* and the formula degenerates gracefully to a point
    mass there.  Requires an interior critical state (1 <= k* <= n-1)
    and a rule whose kernel shows the one-way zero pattern;
    ChainStructureError (a ValueError) otherwise.  No kernel is built: the
    rates are checked _CHUNK states at a time and only two are kept.
    """
    rates = _rates(params, population, PairwiseProportional() if rule is None else rule)
    # Checked as a kernel's rates are: so no rate is negative, and down[0] is 0.
    return _two_point(params, population.n, lambda lo, hi: _check_rates(*rates(lo, hi)))


def _two_point(params: NetworkParams, n: int, rates) -> StationaryDistribution:
    """The two-point law of :func:`stationary_noise_free` from valid rates
    (lo, hi) -> (up, down) at the states lo..hi-1."""
    k_star = model.critical_state(params, n)
    away = False  # a move down from below k* or up from k* onwards
    t_up = t_down = 0.0  # up[k*-1] and down[k*], kept from the chunks that hold them
    for lo in range(0, n + 1, _CHUNK):
        up, down = rates(lo, min(lo + _CHUNK, n + 1))
        cut = max(k_star - lo, 0)
        away = away or down[:cut].any() or up[cut:].any()
        if lo < k_star <= lo + up.size:
            t_up = float(up[k_star - 1 - lo])
        if lo <= k_star < lo + down.size:
            t_down = float(down[k_star - lo])
    del up, down  # so that the last chunk is not held beside psi
    if not 1 <= k_star <= n - 1:
        raise ChainStructureError(
            f"critical state k*={k_star} sits on the boundary of 0..{n}; "
            "the two-point law needs an interior critical state"
        )
    if away:
        raise ChainStructureError(
            "rule is not noise-free: the kernel allows moves away from the critical pair"
        )
    if t_up + t_down == 0.0:
        raise ChainStructureError(
            "chain is frozen around the critical state; two-point law undefined"
        )
    psi = np.zeros(n + 1)
    psi[k_star - 1] = t_down / (t_up + t_down)
    psi[k_star] = 1.0 - psi[k_star - 1]
    return StationaryDistribution(psi=_readonly(psi), kind="two_point_noise_free")


def _log_profile(kernel: TransitionKernel) -> np.ndarray:
    """log psi up to a constant: cumulative sum of log(up[k-1]/down[k]).

    In a kernel whose ``_min_rate`` is below the smallest normal
    float, a step where up[k-1] or down[k] is below it (q underflowed, or
    lost digits) takes the rule's ``log_pair`` instead, one _CHUNK of
    states at a time.  Every other step keeps the bits of the float rates'
    logs.
    """
    up, down = kernel.up[:-1], kernel.down[1:]
    if kernel._min_rate >= _TINY:
        return np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.log(up) - np.log(down)
    n, population = kernel.n, kernel.population
    a_p, a_s = population.anchored_primary, population.anchored_secondary
    pi_s = model.utility_secondary(kernel.params)
    for lo in range(0, n, _CHUNK):
        # Steps from state j to j + 1.
        j = lo + np.flatnonzero((up[lo : lo + _CHUNK] < _TINY) | (down[lo : lo + _CHUNK] < _TINY))
        if j.size == 0:
            continue
        lower = j.astype(float)
        upper = lower + 1.0
        gain = _gain(kernel.params, pi_s, np.append(lower, upper) / n)
        log_q, log_q_minus = kernel.rule.log_pair(gain)
        # The counting weights' common denominator cancels from the ratio.
        weights = (n - lower) * (lower + a_p) / (upper * (n + a_s - upper))
        steps[j] = np.log(weights) + log_q[: j.size] - log_q_minus[j.size :]
    return np.concatenate(([0.0], np.cumsum(steps, out=steps)))


def stationary_product(kernel: TransitionKernel) -> StationaryDistribution:
    """Stationary law of an irreducible kernel via the birth-death product form.

    psi[k] is proportional to the product of up[j-1]/down[j] for j = 1..k.
    The product is accumulated as a log sum and re-centred on its maximum
    before exponentiation, so populations in the thousands neither
    overflow nor underflow even at high selection intensity.
    """
    _require(kernel, "irreducible", "product form")
    return _product_form(kernel)


def _product_form(kernel: TransitionKernel) -> StationaryDistribution:
    psi = _log_profile(kernel)
    psi -= psi.max()
    np.exp(psi, out=psi)
    psi /= psi.sum()
    return StationaryDistribution(psi=_readonly(psi), kind="product_form")


def _solve_balance_block(
    kernel: TransitionKernel, lo: int, hi: int, anchor_above: bool
) -> np.ndarray:
    """Solve the global-balance equations for psi[lo..hi] with one
    neighbouring state pinned to weight 1 (above hi or below lo).

    Row s reads move[s] psi[s] - up[s-1] psi[s-1] - down[s+1] psi[s+1] = 0,
    with the pinned neighbour's inflow on the right of the row next to
    it and couplings past the other end dropped.  The rows are solved
    by odd-even cyclic reduction (Hockney, J. ACM 12, 1965) in whole-array
    steps: each level eliminates the rows of the last row's parity from the
    others, halving the system, and back substitution fills them in again.
    The block is reversed for a pin below lo, so the one nonzero right-hand
    side is the last row, and each level carries it as one scalar.  A
    level keeps its eliminated rows' diagonal and views of their couplings,
    not the whole level.
    The block is column diagonally dominant, its column sums being zero
    except at the pinned end, which keeps every multiplier in [0, 1] and
    the reduction stable (Heller, SIAM J. Numer. Anal. 13, 1976).
    """
    b = np.add(kernel.up[lo : hi + 1], kernel.down[lo : hi + 1])  # move, the one copy
    # sub[i] couples row i + 1 to row i, and sup[i] row i to row i + 1.
    sub, sup = kernel.up[lo:hi], kernel.down[lo + 1 : hi + 1]
    if anchor_above:
        d = float(kernel.down[hi + 1])
    else:
        b, sub, sup, d = b[::-1], sup[::-1], sub[::-1], float(kernel.up[lo - 1])
    levels = []
    while b.size > 1:
        lead = 1 - b.size % 2  # 1 when the first row is kept, with no row before it
        keep = 1 - lead
        alpha = np.divide(sub[lead::2], b[lead:-1:2])  # a kept row's couplings, scaled
        gamma = np.divide(sup[keep::2], b[keep + 1 :: 2])
        kept = b[keep::2].copy()
        kept[lead:] -= alpha * sup[lead::2]
        kept -= gamma * sub[keep::2]
        levels.append((b[lead::2].copy(), sup[lead::2], sub[keep::2], d, lead))
        d = float(gamma[-1]) * d
        alpha[keep:] *= sub[keep::2][:-1]
        gamma[:-1] *= sup[keep + 1 :: 2]
        b, sub, sup = kept, alpha[keep:], gamma[:-1]
    x = np.array([d / b[0]])
    while levels:  # each level is dropped once it is filled in
        b, to_next, to_prev, d, lead = levels.pop()
        full = np.empty(b.size + x.size)
        full[1 - lead :: 2] = x
        elim = full[lead::2]
        np.multiply(to_next, x[lead:], out=elim[:-1])
        elim[-1] = d
        elim[1 - lead :] += np.multiply(to_prev, x, out=x)  # x is copied into full already
        elim /= b
        x = full
    return x if anchor_above else x[::-1]


def stationary_eigen(kernel: TransitionKernel) -> StationaryDistribution:
    """Stationary law as the fixed point of the transition operator.

    Pins the state where the one-step drift ratios peak, then solves the
    two tridiagonal blocks of the global balance equations on either side
    by cyclic reduction (see :func:`_solve_balance_block`).  Anchoring at
    the likeliest state keeps every unknown at or below the anchor's
    scale, so the solve is overflow-free at any population size.

    The route is deliberately independent of the product form in
    :func:`stationary_product`: the solve reads only the kernel's ``up``
    and ``down`` and never forms a ratio up[k-1]/down[k] or its
    running product.  The log profile is the only thing shared: it selects
    the anchor and refuses a second mode past a deep valley (see
    :func:`_pin`), but never sets a value.  A solve that leaves the float
    range, which the pin rules out wherever the kernel's rates are its
    record's, raises ChainStructureError.
    """
    _require(kernel, "irreducible", "eigenvector route")
    _refuse_underflow(kernel, "eigenvector route")
    anchor, n = _pin(kernel), kernel.n
    with np.errstate(all="ignore"):  # a law that is not finite is refused below
        below = _solve_balance_block(kernel, 0, anchor - 1, anchor_above=True) if anchor else []
        above = _solve_balance_block(kernel, anchor + 1, n, anchor_above=False) if anchor < n else []
        psi = np.concatenate((below, [1.0], above))
        np.clip(psi, 0.0, None, out=psi)
        total = psi.sum()
    if not math.isfinite(total):
        raise ChainStructureError(
            f"eigenvector route: the balance solve pinned at k={anchor} left the float range; "
            "the rates disagree with the log profile that the kernel's record gives"
        )
    psi /= total
    return StationaryDistribution(psi=_readonly(psi), kind="eigenvector")


# The balance solve carries its rounding, about eps near the pin, through
# each valley of the law: beyond a valley the law rises again by a factor
# e^r, and so does that error.  On a law with two equal modes the error
# in total variation read about 50 * eps * e^r, 1.4e-9 at r = 12.
_MAX_RISE = 12.0


def _pin(kernel: TransitionKernel) -> int:
    """The state where log psi peaks, which :func:`stationary_eigen` pins.

    ChainStructureError when, on either side of it, log psi rises again by
    more than _MAX_RISE after a valley: the solve pinned at the peak would
    lose the second mode (its weight could come out as zero).
    """
    log_psi = _log_profile(kernel)
    anchor = int(np.argmax(log_psi))
    for side in (log_psi[anchor:], log_psi[anchor::-1]):
        if not (side[1:] > side[:-1]).any():  # falls all the way: no valley
            continue
        rise = np.minimum.accumulate(side)  # the valley so far, then the rise above it
        j = int(np.subtract(side, rise, out=rise).argmax())
        if rise[j] > _MAX_RISE:
            raise ChainStructureError(
                f"log psi falls {side[0] - side[j] + rise[j]:.1f} from its peak at k={anchor} "
                f"into a valley and rises {rise[j]:.1f} past it, more than the {_MAX_RISE:g} "
                "that a balance solve pinned at the peak resolves; use the product form"
            )
    return anchor


def _eliminate(
    sub: list[float], diag: list[float], sup: list[float], columns: list[list[float]]
) -> list[list[float]]:
    """Solve A x = b in place for each right-hand side b in ``columns``.

    A is tridiagonal: ``diag`` on its diagonal, ``sub`` below it and
    ``sup`` above it.  These are the float operations of LAPACK's dgtsv,
    in its order: elimination with partial pivoting (rows i and i+1 swap
    when |d_i| < |dl_i|, which fills a second super-diagonal dl), then
    back substitution x_i = (b_i - du_i x_{i+1} - dl_i x_{i+2}) / d_i.
    So on Python floats it gives the bits of
    ``scipy.linalg.solve_banded((1, 1), ...)`` without loading scipy.
    A zero pivot raises np.linalg.LinAlgError("singular matrix"), as
    solve_banded does.
    """
    dl, d, du = list(sub), list(diag), list(sup)
    m = len(d)
    for i in range(m - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in columns:
                b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < m - 2:  # the last row has no second super-diagonal entry
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in columns:
                b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    for b in columns:
        b[-1] = b[-1] / d[-1]
        if m > 1:
            b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(m - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return columns


def _absorption_solve(kernel: TransitionKernel) -> np.ndarray:
    """Rows (P_0, P_n, expected steps) for every start state k0 = 0..n.

    The first-step equations on the interior states form one tridiagonal
    system with three right-hand sides (hit 0, hit n, accumulate time),
    solved by :func:`_eliminate`, bit for bit as a banded LU in
    ``scipy.linalg.solve_banded`` would solve it; the boundary rows are
    exact.  It raises np.linalg.LinAlgError on a singular system.
    """
    n = kernel.n
    up, down = kernel.up, kernel.down
    hit_0 = [0.0] * (n - 1)
    hit_n = [0.0] * (n - 1)
    hit_0[0] = float(down[1])
    hit_n[-1] = float(up[n - 1])
    solved = _eliminate(
        (-down[2:n]).tolist(),
        (up[1:n] + down[1:n]).tolist(),
        (-up[1 : n - 1]).tolist(),
        [hit_0, hit_n, [1.0] * (n - 1)],
    )
    table = np.zeros((n + 1, 3))
    table[0, 0] = table[n, 1] = 1.0
    table[1:n] = np.transpose(solved)
    return table


def absorption_analysis(kernel: TransitionKernel, initial: int) -> AbsorptionResult:
    """Exact absorption split and mean hitting time from one start state.

    The two hitting probabilities are solved for independently, so their
    sum is a genuine consistency diagnostic for the caller — it should
    be 1 up to solver round-off.  The kernel solves for every start state
    at once and keeps the table, so calling this for each k0 = 0..n costs
    one solve, as :func:`absorption_table` does.  ``initial`` must be an
    integer state in 0..n (not a bool); ValueError otherwise.
    """
    _require(kernel, "absorbing", "absorption analysis")
    n = kernel.n
    if not _is_int(initial) or not 0 <= initial <= n:
        raise ValueError(f"initial state must be an integer in 0..{n}, got {initial!r}")
    if initial in (0, n):  # absorbed at once, even when the interior solve would fail
        return AbsorptionResult(float(initial == 0), float(initial == n), 0.0)
    return AbsorptionResult(*kernel._absorption[initial].tolist())


def absorption_table(kernel: TransitionKernel) -> np.ndarray:
    """:func:`absorption_analysis` for every start state k0 = 0..n.

    Row k0 of the read-only (n+1, 3) array holds the AbsorptionResult
    fields prob_absorb_at_0, prob_absorb_at_n and expected_steps.  It is
    the kernel's own table, solved once: a second call, or
    absorption_analysis on the same kernel, solves nothing again.
    """
    _require(kernel, "absorbing", "absorption analysis")
    return kernel._absorption


def long_run(kernel: TransitionKernel) -> tuple[ChainClass, StationaryDistribution | None]:
    """Classify a kernel once and return its long-run law by the route its class dictates.

    An irreducible chain gets the product form; an absorbing chain has no
    stationary law and gets None (see :func:`absorption_table`); any other
    chain whose rule can return 0 gets the two-point law of :func:`stationary_noise_free`,
    built from this kernel and its ``params``.  Any other chain raises ChainStructureError.
    """
    structure = kernel._structure
    if structure.kind == "irreducible":
        return structure, _product_form(kernel)
    if structure.kind == "absorbing":
        return structure, None
    if kernel.params is None or kernel._min_rate < math.inf:
        raise ChainStructureError(
            f"chain is neither irreducible nor absorbing ({structure.detail}); the two-point "
            "law needs network parameters and a rule that can return 0"
        )
    up, down = kernel.up, kernel.down
    return structure, _two_point(kernel.params, kernel.n, lambda lo, hi: (up[lo:hi], down[lo:hi]))


def distribution_mode(distribution) -> tuple[int, ...]:
    """States attaining the distribution's maximum, with ties within a relative 1e-12.

    The tolerance makes genuinely tied weights (equal adjacent masses)
    robust to last-ulp accumulation noise; a uniform vector returns every
    state.  Accepts a StationaryDistribution or a bare array.
    """
    psi = np.asarray(getattr(distribution, "psi", distribution), dtype=float)
    peak = float(psi.max())
    return tuple(int(k) for k in np.flatnonzero(psi >= peak * (1.0 - 1e-12)))


def total_variation(p, q) -> float:
    """Total variation distance: half the L1 distance between two laws."""
    a = np.asarray(getattr(p, "psi", p), dtype=float)
    b = np.asarray(getattr(q, "psi", q), dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"distributions live on different state spaces: {a.shape} vs {b.shape}")
    diff = a - b
    return 0.5 * float(np.abs(diff, out=diff).sum())


def detailed_balance_residual(kernel: TransitionKernel, distribution) -> float:
    """Largest violation of psi[k] * up[k] == psi[k+1] * down[k+1] over all edges."""
    psi = np.asarray(getattr(distribution, "psi", distribution), dtype=float)
    if psi.size != kernel.n + 1:
        raise ValueError("distribution and kernel sizes disagree")
    edges = psi[:-1], kernel.up[:-1], psi[1:], kernel.down[1:]
    chunks = ([arr[lo : lo + _CHUNK] for arr in edges] for lo in range(0, kernel.n, _CHUNK))
    return float(np.max([np.abs(p * up - q * down).max() for p, up, q, down in chunks]))
