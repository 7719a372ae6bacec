"""Seeded stochastic simulation of the imitation chain.

Every run is reproducible from its spec alone.  Randomness comes from
the counter-based Philox generator: replica r of a run draws from the
stream ``Philox(key=seed).jumped(r)``, built straight from its counter
r * 2**128, so replicas never share random numbers, adding replicas
never disturbs existing ones, and any (spec, kernel) pair replays bit
for bit.  Each imitation event consumes exactly one uniform draw.

``run`` has two engines that keep this contract to the bit.  Fewer than
_LOCKSTEP replicas walk one after another, each in blocks of draws: the
draws at or past max(move) stay at every state, one vector pass settles
those of the others that every state in a window around the walk's state
would take alike, the rest are resolved one by one, and where the walk
leaves its window it goes on in a window around its new state.  More
replicas advance in lockstep: every event is one vector step over all of
them, and column r of the block of draws comes from replica r's own
stream.  Which engine ran cannot be seen in the output.

``absorption_frequency`` keeps its own contract: one stream
``Philox(key=seed)`` shared by all replicas, one draw per still-active
replica per event in replica order.  It steps them as one vector while
at least _LOCKSTEP are active and the last few one by one in Python.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chain import StationaryDistribution, TransitionKernel, _require
from .model import _is_int

__all__ = [
    "SimulationSpec",
    "OccupancyHistogram",
    "RunResult",
    "AbsorptionFrequency",
    "run",
    "absorption_frequency",
]

# A replica walks in blocks of _BLOCK events, one generator call each, in
# windows reaching _SPREAD times the last block's range (scaled to a full
# block by the square root of their lengths), or _MIN_REACH, to each side.
# Wider ones leave more draws odd, narrower ones are left more often.  At
# n = 1,000, blocks of 2,048 and 65,536 took 1.3x and 1.4x the time of
# 8,192; a _SPREAD of 1 took the least time at n = 100 and within 10% and
# 5% of the least at 1,000 and 10^4 (benchmarks/layers.py, the window rows).
_BLOCK = 8192
_SPREAD, _MIN_REACH = 1.0, 8

# Runs of at least this many replicas take the lockstep engine.  At n = 100
# it took 1.88x the time of the walk with 32 replicas, 0.89x with 64, 0.87x
# with 80, 0.74x with 96 and 0.20x with 2,000 (layers.py, the engine rows).
_LOCKSTEP = 96

# Lockstep replicas advance in near-equal groups of at most this many,
# so that however many replicas a run has, at most this many generators
# (about 1.3 kB each) are alive at once.  Wider groups also shorten the
# blocks below, and the per-call cost of filling a short row grows.
_GROUP = 2048

# A lockstep block holds at most this many draws, 4 MB, whatever the
# group size, in one buffer an event per row: the steps read it and write
# states over it.  A generator fills a contiguous row, so the replicas
# draw into a scratch of _SCRATCH cells, 256 kB (one row where a row is
# longer), a slab of replicas at a time, and each slab is copied into its
# replicas' columns of the block.
_CELLS = 2**19
_SCRATCH = 2**15

INITIAL_UNIFORM = "uniform-interior"


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate and how to seed it.

    seed            64-bit key of the Philox stream family
    steps           imitation events per replica (absorption runs treat
                    this as a cap instead)
    burn_in         events discarded before occupancy counting starts;
                    None resolves to min(10 * n^2, steps // 2) at run
                    time — a diffusive-mixing heuristic for a chain of
                    n states, floored at steps // 2 so counting always
                    happens
    replicas        independent repetitions
    initial_state   a concrete state, or "uniform-interior" to draw one
                    uniformly from 1..n-1 per replica (that draw is the
                    replica's first)
    """

    seed: int
    steps: int
    burn_in: int | None = None
    replicas: int = 1
    initial_state: int | str = INITIAL_UNIFORM

    def __post_init__(self) -> None:
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not _is_int(self.steps) or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if self.burn_in is not None:
            if not _is_int(self.burn_in) or self.burn_in < 0:
                raise ValueError(f"burn_in must be a nonnegative integer, got {self.burn_in!r}")
            if self.burn_in >= self.steps:
                raise ValueError(
                    f"burn_in ({self.burn_in}) must be smaller than steps ({self.steps}), "
                    "otherwise no events remain to count"
                )
        if not _is_int(self.replicas) or self.replicas < 1:
            raise ValueError(f"replicas must be a positive integer, got {self.replicas!r}")
        if isinstance(self.initial_state, str):
            if self.initial_state != INITIAL_UNIFORM:
                raise ValueError(
                    f"initial_state must be an integer or {INITIAL_UNIFORM!r}, "
                    f"got {self.initial_state!r}"
                )
        elif not _is_int(self.initial_state) or self.initial_state < 0:
            raise ValueError(f"initial_state must be a nonnegative state, got {self.initial_state!r}")

    def resolve_burn_in(self, n: int) -> int:
        if self.burn_in is not None:
            return int(self.burn_in)
        return min(10 * n * n, self.steps // 2)


@dataclass(frozen=True, eq=False)
class OccupancyHistogram:
    """Post-burn-in visit counts over the states k = 0..n."""

    counts: np.ndarray
    events_counted: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 2 or counts.min() < 0:
            raise ValueError("counts must be a nonnegative vector over at least two states")
        if int(counts.sum()) != self.events_counted:
            raise ValueError(
                f"counts sum to {int(counts.sum())} but events_counted is {self.events_counted}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        """Visit frequencies; the empirical occupancy law."""
        return self.counts / self.events_counted

    def to_distribution(self) -> StationaryDistribution:
        return StationaryDistribution(psi=self.frequencies(), kind="empirical")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything a run produced.

    histogram     pooled post-burn-in occupancy over all replicas
    final_states  last state of each replica, in replica order
    trajectory    int64 rows (event, state) of replica 0 when a decimation
                  d was requested, else None: event 0 (the initial
                  state), every multiple of d, and the final event
    """

    histogram: OccupancyHistogram
    final_states: np.ndarray
    trajectory: np.ndarray | None


@dataclass(frozen=True)
class AbsorptionFrequency:
    """Empirical absorption statistics over many replicas.

    Fractions and the mean cover absorbed replicas only; ``unabsorbed``
    counts replicas still interior when the event cap ran out.
    """

    fraction_at_0: float
    fraction_at_n: float
    mean_steps: float
    replicas: int
    unabsorbed: int


def _stream(seed: int, r: int) -> np.random.Generator:
    """Replica r's generator, ``Philox(key=seed).jumped(r)``, at its counter r * 2**128."""
    return np.random.Generator(np.random.Philox(key=seed, counter=r << 128))


def _resolve_initial(spec: SimulationSpec, n: int, gen: np.random.Generator) -> int:
    if isinstance(spec.initial_state, str):
        return int(gen.integers(1, n))
    k0 = int(spec.initial_state)
    if k0 > n:
        raise ValueError(f"initial_state {k0} exceeds the largest state {n}")
    return k0


def _walk(
    up: np.ndarray,
    move: np.ndarray,
    k: int,
    steps: int,
    burn: int,
    gen: np.random.Generator,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Walk one replica in blocks of at most _BLOCK events, one draw each.

    Yields (t, k, states, at) per block in run-length form: t is its first
    event, k the state after its last, and states[j] the int64 state after
    its events at offsets at[j] to at[j + 1] - 1, where states[0] is the
    state before it, at[0] = 0 and at[-1] its length; the others are the
    walked events' states and offsets.  Only draws below max(move) are
    walked, as the others stay at every state.  No block straddles
    ``burn``.  The walked draws go through :func:`_window` steps, each in
    a window around the state the one before ended on, of the same width
    at the ends of the chain; sqrt(_BLOCK) is the range before the first block.
    """
    n, span, top = up.size - 1, int(_BLOCK**0.5), move.max()
    t = 0
    while t < steps:
        end = min(t + _BLOCK, burn if t < burn else steps)
        u = gen.random(end - t)
        at = np.flatnonzero(u < top)
        u = u[at]
        reach, pieces, i = max(_MIN_REACH, int(_SPREAD * span)), [np.array([k], np.int64)], 0
        while i < u.size:
            lo = max(0, min(k - reach, n - 2 * reach))
            pieces.append(_window(up, move, k, lo, min(lo + 2 * reach, n), u[i:]))
            i, k = i + pieces[-1].size, int(pieces[-1][-1])
        states = np.concatenate(pieces)
        span = int(states.max() - states.min()) * (_BLOCK / (end - t)) ** 0.5
        yield t, k, states, np.concatenate(([0], at, [end - t]))
        t = end


def _window(
    up: np.ndarray, move: np.ndarray, k0: int, lo: int, hi: int, u: np.ndarray
) -> np.ndarray:
    """The states after each draw of ``u`` from k0 in [lo, hi], as the
    loop ``k += 1 if u < up[k] else -1 if u < move[k] else 0`` walks
    them, up to and including the first state outside [lo, hi].

    At any k in [lo, hi], a draw below every up[k] steps up, one at or
    past every move[k] stays, and one from the largest up[k] to below
    the smallest move[k] steps down, as the float sum move of up and
    down >= 0 rounds to at least up.  Only the rest, the odd draws, need
    their state.  By induction, these are the loop's states until one
    leaves the window, which it does before any odd draw starts outside.
    """
    a, b = up[lo : hi + 1], move[lo : hi + 1]
    plus = u < a.min()
    minus = (u >= a.max()) & (u < b.min())
    odd = np.flatnonzero(~(plus | minus | (u >= b.max())))
    step = plus.astype(np.int64)
    step -= minus
    if odd.size:
        # Odd draw j starts from k0 plus the odd steps resolved before it
        # plus cumsum(step)[j], the others; less lo, that is a row of a.
        up_at, move_at, last = a.tolist(), b.tolist(), hi - lo
        others = np.cumsum(step)[odd].tolist()
        base = k0 - lo
        for i, (v, before) in enumerate(zip(u[odd].tolist(), others)):
            j = base + before
            # Outside the window j may be wrong, and row -1 would not raise.
            if not 0 <= j <= last:
                break
            others[i] = s = 1 if v < up_at[j] else -1 if v < move_at[j] else 0
            base += s
        step[odd] = others
    states = np.cumsum(step, out=step)
    states += k0
    if lo <= states.min() and states.max() <= hi:
        return states
    outside = (states < lo) | (states > hi)
    return states[: outside.argmax() + 1]


def _lockstep(
    up: np.ndarray,
    move: np.ndarray,
    k: np.ndarray,
    steps: int,
    burn: int,
    gens: list[np.random.Generator],
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Walk every replica at once, one vector step per event.

    Column r of the block of draws comes from ``gens[r]``, one call per
    block into a row of the scratch, so replica r consumes its stream
    exactly as :func:`_walk` would.  Yields (t, k, states) per block, split
    as in :func:`_walk`: k the int64 states after it and states (events,
    replicas), a view of the block's buffer; the next block reuses both.
    """
    width = len(gens)
    m = min(steps, max(1, _CELLS // width))
    slab = min(width, max(1, _SCRATCH // m))
    scratch, events = np.empty((slab, m)), np.empty((m, width))
    path = events.view(np.int64)
    t = 0
    while t < steps:
        end = min(t + m, burn if t < burn else steps)
        for r in range(0, width, slab):
            rows = scratch[: width - r, : end - t]
            for gen, row in zip(gens[r : r + slab], rows):
                gen.random(out=row)
            events[: end - t, r : r + len(rows)] = rows.T
        state = k
        for j in range(end - t):
            u = events[j]
            # move, the float sum of up and down >= 0, is at least up, so
            # u < up implies u < move: this adds 2 - 1 where _walk moves
            # up, 0 - 1 where it moves down, and 0 where it stays.  The
            # new states go over the row of draws just read.
            step = (u < up[state]).view(np.int8)
            step += step - (u < move[state]).view(np.int8)
            state = np.add(state, step, out=path[j])
        k[:] = state
        yield t, k, path[: end - t]
        t = end


def run(
    spec: SimulationSpec,
    kernel: TransitionKernel,
    trajectory_decimation: int | None = None,
) -> RunResult:
    """Run all replicas of a spec and pool the post-burn-in occupancy.

    A decimation of d records replica 0's state every d events (plus the
    initial and final states); d = 1 keeps the full path.  Occupancy
    counts the state *after* each post-burn-in event, over all replicas.
    Specs with at least _LOCKSTEP replicas advance them in lockstep, in
    groups of at most _GROUP; fewer walk them one by one.  Both engines
    give the same bits.
    """
    d = trajectory_decimation
    if d is not None and (not _is_int(d) or d < 1):
        raise ValueError(f"trajectory_decimation must be an integer >= 1, got {d!r}")
    n = kernel.n
    burn = spec.resolve_burn_in(n)
    up, move = kernel.up, kernel.move
    replicas = int(spec.replicas)
    lockstep = replicas >= _LOCKSTEP
    groups = -(-replicas // _GROUP) if lockstep else replicas
    bounds = [replicas * i // groups for i in range(groups + 1)]
    traced = d is not None
    # Replica 0's state at event 0, every multiple of d below steps, and steps.
    path = np.empty(-(-spec.steps // d) + 1 if traced else 0, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    finals = []
    for lo, hi in zip(bounds, bounds[1:]):
        gens = [_stream(spec.seed, r) for r in range(lo, hi)]
        starts = [_resolve_initial(spec, n, gen) for gen in gens]
        keep = traced and lo == 0
        if lockstep:
            k0 = np.array(starts, dtype=np.int64)
            walk = ((*block, None) for block in _lockstep(up, move, k0, spec.steps, burn, gens))
        else:
            walk = _walk(up, move, starts[0], spec.steps, burn, gens[0])
        if keep:
            path[0] = starts[0]
        for t, k, states, at in walk:
            if t >= burn and at is not None:
                # Over its own range, each state weighed by the events it holds for.
                low = int(states.min())
                held = np.bincount(states - low, weights=np.diff(at))
                counts[low : low + held.size] += held.astype(np.int64)
            elif t >= burn and 2 * states.size <= n:
                # At most half as many states as the chain has: count over
                # their own range.  Closer to n, the full bincount is cheaper.
                low = int(states.min())
                counts[low : int(states.max()) + 1] += np.bincount(states.ravel() - low)
            elif t >= burn:
                counts += np.bincount(states.ravel(), minlength=n + 1)
            if keep:
                # Event t + i + 1 is a multiple of d from i = (-t - 1) % d on; column 0
                # is replica 0, and in a walk block the last run to begin by i holds it.
                i = (-t - 1) % d
                j = (t + 1 + i) // d
                if at is None:
                    picks = states[i::d, 0]
                elif d < 32:  # a search per pick costs about what spelling out 32 events does
                    picks = np.repeat(states, np.diff(at))[i::d]
                else:
                    picks = states[np.searchsorted(at, np.arange(i, at[-1], d), "right") - 1]
                path[j : j + picks.size] = picks
        finals.append(k)
    final_states = np.hstack(finals).astype(np.int64, copy=False)
    trajectory: np.ndarray | None = None
    if traced:
        path[-1] = final_states[0]
        events = np.append(np.arange(0, spec.steps, d, dtype=np.int64), spec.steps)
        trajectory = np.column_stack((events, path))
    histogram = OccupancyHistogram(counts=counts, events_counted=(spec.steps - burn) * replicas)
    return RunResult(histogram=histogram, final_states=final_states, trajectory=trajectory)


def absorption_frequency(spec: SimulationSpec, kernel: TransitionKernel) -> AbsorptionFrequency:
    """Empirical absorption split over many replicas of an absorbing kernel.

    All replicas advance in lockstep from the single stream
    ``Philox(key=seed)``: each event consumes one uniform per still-active
    replica, in replica-index order, so results are bit-reproducible for a
    given (spec, kernel).  While at least _LOCKSTEP replicas are active an
    event is one vector step, and the active set is compacted only after
    an event that absorbs one.  The last few step one by one in a Python
    loop, over draws taken _BLOCK at a time from the same stream: two
    calls on one stream give the bits of one call for both, so every
    replica reads the draw it would read one event at a time.
    ``spec.steps`` caps each replica; replicas still interior at the cap
    are excluded from the fractions and the mean, and a warning is raised
    when they exceed 1% of the total.  ``spec.burn_in`` is ignored —
    absorption has no stationary phase to wait for.
    """
    _require(kernel, "absorbing", "absorption sampling")
    n = kernel.n
    total = int(spec.replicas)
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    if isinstance(spec.initial_state, str):
        states = gen.integers(1, n, size=total).astype(np.int64)
    else:  # a given start draws nothing
        states = np.full(total, _resolve_initial(spec, n, gen), dtype=np.int64)
    absorbed_at = np.full(total, -1, dtype=np.int64)
    steps_taken = np.zeros(total, dtype=np.int64)
    at_boundary = (states == 0) | (states == n)
    absorbed_at[at_boundary] = states[at_boundary]
    active_idx = np.flatnonzero(~at_boundary)
    k = states[active_idx]
    up, move = kernel.up, kernel.move
    t = 0
    while active_idx.size >= _LOCKSTEP and t < spec.steps:
        t += 1
        u = gen.random(k.size)
        step = (u < up[k]).view(np.int8)  # the in-place step of _lockstep
        step += step - (u < move[k]).view(np.int8)
        k += step
        if k.min() == 0 or k.max() == n:
            hit = (k == 0) | (k == n)
            lost = active_idx[hit]
            absorbed_at[lost], steps_taken[lost] = k[hit], t
            keep = ~hit
            active_idx, k = active_idx[keep], k[keep]
    # The last few step one by one, as _window resolves an odd draw.
    ks, rows, up_at, move_at = k.tolist(), active_idx.tolist(), memoryview(up), memoryview(move)
    draws, left = iter(()), 0
    while ks and t < spec.steps:
        t += 1
        while left < len(ks):
            draws, left = iter([*draws, *gen.random(_BLOCK).tolist()]), left + _BLOCK
        # zip stops at the end of ks, so it takes one draw per replica.
        ks = [s + 1 if v < up_at[s] else s - 1 if v < move_at[s] else s for s, v in zip(ks, draws)]
        left -= len(ks)
        if 0 in ks or n in ks:
            for s, r in zip(ks, rows):
                if s in (0, n):
                    absorbed_at[r], steps_taken[r] = s, t
            rows = [r for s, r in zip(ks, rows) if s not in (0, n)]
            ks = [s for s in ks if s not in (0, n)]
    unabsorbed = len(rows)
    if unabsorbed > 0.01 * total:
        warnings.warn(
            f"{unabsorbed} of {total} replicas were still interior after {spec.steps} "
            "events; fractions cover absorbed replicas only",
            stacklevel=2,
        )
    done = absorbed_at >= 0
    n_done = int(done.sum())
    if n_done == 0:
        return AbsorptionFrequency(
            fraction_at_0=float("nan"),
            fraction_at_n=float("nan"),
            mean_steps=float("nan"),
            replicas=total,
            unabsorbed=unabsorbed,
        )
    return AbsorptionFrequency(
        fraction_at_0=float((absorbed_at == 0).sum() / n_done),
        fraction_at_n=float((absorbed_at == n).sum() / n_done),
        mean_steps=float(steps_taken[done].mean()),
        replicas=total,
        unabsorbed=unabsorbed,
    )
