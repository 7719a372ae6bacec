"""Seeded simulation: reproducibility, stream contracts, and agreement
with the analytic chain routes."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsel import montecarlo
from netsel.chain import (
    ChainStructureError,
    PopulationConfig,
    TransitionKernel,
    absorption_analysis,
    build_kernel,
    stationary_product,
    total_variation,
)
from netsel.montecarlo import (
    INITIAL_UNIFORM,
    OccupancyHistogram,
    SimulationSpec,
    absorption_frequency,
    run,
)
from netsel.protocols import PairwiseProportional, fermi_from_ratio
from oracle import calibrated_params, dense_matrix


def fermi_kernel(n=10, anchors=1, ratio=1.0):
    p = calibrated_params()
    pop = PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    return build_kernel(p, pop, fermi_from_ratio(p, n, ratio))


def proportional_kernel(n=12):
    """Noise-free: down = 0 below k* and up = 0 from k* on, with the gains
    scaled up so that a short walk moves."""
    p = calibrated_params()
    pop = PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
    return build_kernel(p, pop, PairwiseProportional(scale=1000.0))


def gambler_kernel():
    """Hand-made symmetric absorbing walk on 0..4: each event moves with
    probability 1/2, so absorption from the middle takes 8 events on
    average and splits evenly."""
    up = np.array([0.0, 0.25, 0.25, 0.25, 0.0])
    down = np.array([0.0, 0.25, 0.25, 0.25, 0.0])
    return TransitionKernel(up=up, down=down)


def step(kernel, state, rng):
    """Reference for one imitation event, consuming one uniform draw u:
    up when u < up[k], down when it falls in the next down[k]-wide slice,
    and in place otherwise."""
    n = kernel.n
    if not 0 <= state <= n:
        raise ValueError(f"state must lie in 0..{n}, got {state}")
    u = rng.random()
    if u < kernel.up[state]:
        return state + 1
    if u < kernel.up[state] + kernel.down[state]:
        return state - 1
    return state


# -- spec and histogram validation ------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1, steps=10),
        dict(seed=2**64, steps=10),
        dict(seed="seven", steps=10),
        dict(seed=0, steps=0),
        dict(seed=0, steps=10, burn_in=10),
        dict(seed=0, steps=10, burn_in=-1),
        dict(seed=0, steps=10, replicas=0),
        dict(seed=0, steps=10, initial_state="everywhere"),
        dict(seed=0, steps=10, initial_state=-3),
        dict(seed=True, steps=10),
        dict(seed=0, steps=True),
        dict(seed=0, steps=10.0),
        dict(seed=0, steps=10, burn_in=True),
        dict(seed=0, steps=10, replicas=True),
        dict(seed=0, steps=10, initial_state=True),
        dict(seed=0, steps=10, initial_state=4.0),
    ],
)
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        SimulationSpec(**kwargs)


def test_spec_takes_numpy_integers():
    spec = SimulationSpec(
        seed=np.uint64(3), steps=np.int64(50), burn_in=np.int32(5), replicas=np.int64(2),
        initial_state=np.int64(4),
    )  # fmt: skip
    plain = SimulationSpec(seed=3, steps=50, burn_in=5, replicas=2, initial_state=4)
    kernel = fermi_kernel()
    assert run(spec, kernel).final_states.tolist() == run(plain, kernel).final_states.tolist()


def test_burn_in_resolution():
    spec = SimulationSpec(seed=0, steps=10**6)
    assert spec.resolve_burn_in(10) == 1000
    assert spec.resolve_burn_in(100) == 100_000
    assert SimulationSpec(seed=0, steps=100).resolve_burn_in(10) == 50
    assert SimulationSpec(seed=0, steps=100, burn_in=7).resolve_burn_in(10) == 7


def test_histogram_checks_its_total():
    with pytest.raises(ValueError, match="sum"):
        OccupancyHistogram(counts=np.array([1, 2, 3]), events_counted=7)
    with pytest.raises(ValueError):
        OccupancyHistogram(counts=np.array([1, -1, 6]), events_counted=6)
    h = OccupancyHistogram(counts=np.array([1, 2, 3]), events_counted=6)
    assert h.frequencies().sum() == pytest.approx(1.0)
    assert h.to_distribution().kind == "empirical"


# -- single events -----------------------------------------------------------------


def test_step_holds_at_absorbing_boundaries():
    kernel = gambler_kernel()
    rng = np.random.default_rng(3)
    assert all(step(kernel, 0, rng) == 0 for _ in range(50))
    assert all(step(kernel, 4, rng) == 4 for _ in range(50))


def test_step_moves_by_at_most_one():
    kernel = fermi_kernel()
    rng = np.random.default_rng(11)
    k = 5
    for _ in range(2000):
        k2 = step(kernel, k, rng)
        assert abs(k2 - k) <= 1
        k = k2


def test_step_is_reproducible():
    kernel = fermi_kernel()
    walks = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        k = 5
        walks.append([k := step(kernel, k, rng) for _ in range(1000)])
    assert walks[0] == walks[1]


def test_step_frequencies_match_the_kernel_row():
    kernel = fermi_kernel()
    rng = np.random.default_rng(7)
    draws = 200_000
    ups = downs = 0
    for _ in range(draws):
        k2 = step(kernel, 5, rng)
        ups += k2 == 6
        downs += k2 == 4
    for observed, prob in ((ups, kernel.up[5]), (downs, kernel.down[5])):
        sigma = np.sqrt(draws * prob * (1.0 - prob))
        assert abs(observed - draws * prob) <= 4.0 * sigma


def test_step_rejects_foreign_states():
    kernel = fermi_kernel()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step(kernel, -1, rng)
    with pytest.raises(ValueError):
        step(kernel, 11, rng)


# -- full runs ---------------------------------------------------------------------


def test_run_is_bit_reproducible():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=42, steps=20_000, burn_in=1000, replicas=3, initial_state=5)
    a = run(spec, kernel, trajectory_decimation=500)
    b = run(spec, kernel, trajectory_decimation=500)
    assert (a.histogram.counts == b.histogram.counts).all()
    assert (a.final_states == b.final_states).all()
    assert (a.trajectory == b.trajectory).all()


def test_adding_replicas_leaves_existing_ones_alone():
    kernel = fermi_kernel()
    one = SimulationSpec(seed=5, steps=5000, burn_in=100, replicas=1, initial_state=5)
    three = SimulationSpec(seed=5, steps=5000, burn_in=100, replicas=3, initial_state=5)
    ra = run(one, kernel, trajectory_decimation=250)
    rb = run(three, kernel, trajectory_decimation=250)
    assert ra.final_states[0] == rb.final_states[0]
    assert (ra.trajectory == rb.trajectory).all()


def test_run_counts_every_post_burn_in_event():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=1, steps=4000, burn_in=500, replicas=4, initial_state=5)
    result = run(spec, kernel)
    assert result.histogram.events_counted == (4000 - 500) * 4
    assert int(result.histogram.counts.sum()) == result.histogram.events_counted
    assert result.trajectory is None


def test_run_replays_one_draw_per_event():
    # The stream contract: replica r draws from Philox(seed).jumped(r), one
    # uniform per event, counting every post-event state past burn-in.
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=314, steps=300, burn_in=100, replicas=2, initial_state=5)
    result = run(spec, kernel)
    counts = [0] * (kernel.n + 1)
    finals = []
    for r in range(2):
        gen = np.random.Generator(np.random.Philox(key=314).jumped(r))
        k = 5
        for t in range(300):
            k = step(kernel, k, gen)
            if t >= 100:
                counts[k] += 1
        finals.append(k)
    assert (result.histogram.counts == np.array(counts)).all()
    assert list(result.final_states) == finals


def test_uniform_initial_state_is_the_first_draw():
    kernel = fermi_kernel()
    spec = SimulationSpec(
        seed=2718, steps=200, burn_in=50, replicas=3, initial_state=INITIAL_UNIFORM
    )
    result = run(spec, kernel)
    finals = []
    for r in range(3):
        gen = np.random.Generator(np.random.Philox(key=2718).jumped(r))
        k = int(gen.integers(1, kernel.n))
        for _ in range(200):
            k = step(kernel, k, gen)
        finals.append(k)
    assert list(result.final_states) == finals


def test_tracing_does_not_disturb_the_walk():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=6, steps=10_000, burn_in=2000, replicas=2, initial_state=4)
    plain = run(spec, kernel)
    traced = run(spec, kernel, trajectory_decimation=128)
    assert (plain.histogram.counts == traced.histogram.counts).all()
    assert (plain.final_states == traced.final_states).all()


def test_trajectory_sampling_grid():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=8, steps=1030, burn_in=0, replicas=1, initial_state=5)
    traj = run(spec, kernel, trajectory_decimation=500).trajectory
    assert traj[:, 0].tolist() == [0, 500, 1000, 1030]
    assert traj[0, 1] == 5
    assert ((0 <= traj[:, 1]) & (traj[:, 1] <= kernel.n)).all()


def test_full_path_trajectory():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=9, steps=500, burn_in=0, replicas=1, initial_state=5)
    result = run(spec, kernel, trajectory_decimation=1)
    traj = result.trajectory
    assert traj.shape == (501, 2)
    assert traj[0].tolist() == [0, 5]
    assert np.abs(np.diff(traj[:, 1])).max() <= 1
    assert traj[-1, 1] == result.final_states[0]


@pytest.mark.parametrize("decimation", [31, 32, 33, 1000])
def test_every_decimation_samples_the_full_path(decimation):
    # A walk block takes its picks from its runs spelt out below a
    # decimation of 32 and by a search of its walked offsets from 32 on;
    # either way they are the full path's states at the sampled events.
    kernel = fermi_kernel(n=100)
    spec = SimulationSpec(seed=21, steps=50_000, burn_in=7_000, initial_state=50)
    full = run(spec, kernel, trajectory_decimation=1).trajectory
    events = np.append(np.arange(0, spec.steps, decimation), spec.steps)
    assert np.array_equal(run(spec, kernel, trajectory_decimation=decimation).trajectory, full[events])


def test_run_rejects_bad_decimation_and_start():
    kernel = fermi_kernel()
    spec = SimulationSpec(seed=0, steps=10, initial_state=5)
    for decimation in (0, 2.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="trajectory_decimation"):
            run(spec, kernel, trajectory_decimation=decimation)
    traced = run(spec, kernel, trajectory_decimation=np.int64(2)).trajectory
    assert traced.tolist() == run(spec, kernel, trajectory_decimation=2).trajectory.tolist()
    with pytest.raises(ValueError, match="exceeds"):
        run(SimulationSpec(seed=0, steps=10, initial_state=11), kernel)


def test_run_from_an_absorbing_state_never_leaves():
    kernel = fermi_kernel(anchors=0)
    spec = SimulationSpec(seed=4, steps=100, burn_in=50, replicas=1, initial_state=0)
    result = run(spec, kernel)
    assert result.final_states[0] == 0
    assert result.histogram.counts[0] == 50
    assert result.histogram.counts[1:].sum() == 0


def test_longer_runs_approach_the_stationary_law():
    kernel = fermi_kernel()
    analytic = stationary_product(kernel).psi
    small = run(SimulationSpec(seed=123, steps=20_000, initial_state=5), kernel)
    big = run(SimulationSpec(seed=123, steps=2_000_000, initial_state=5), kernel)
    tv_small = total_variation(small.histogram.frequencies(), analytic)
    tv_big = total_variation(big.histogram.frequencies(), analytic)
    assert tv_big < tv_small
    assert tv_big < 0.02


def test_two_step_transitions_match_the_squared_kernel():
    # Chapman-Kolmogorov on the recorded path: over consecutive two-event
    # windows, the landing state drawn from a given start follows the row
    # of the squared transition matrix.
    kernel = fermi_kernel(n=4)
    spec = SimulationSpec(seed=77, steps=400_000, burn_in=0, replicas=1, initial_state=2)
    states = run(spec, kernel, trajectory_decimation=1).trajectory[:, 1]
    p2 = dense_matrix(kernel) @ dense_matrix(kernel)
    a = states[::2]
    starts, ends = a[:-1], a[1:]
    tested = 0
    for s in range(5):
        landed = ends[starts == s]
        m = landed.size
        if m < 1000:
            continue
        tested += 1
        for j in range(5):
            prob = p2[s, j]
            observed = int((landed == j).sum())
            sigma = np.sqrt(m * prob * (1.0 - prob))
            assert abs(observed - m * prob) <= 4.0 * sigma + 1.0
    assert tested >= 3


def reference_run(spec, kernel, decimation):
    """run() rebuilt from step(): counts, final states and replica 0's
    (event, state) samples, one event at a time."""
    n = kernel.n
    burn = spec.resolve_burn_in(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    finals, samples = [], []
    for r in range(spec.replicas):
        gen = np.random.Generator(np.random.Philox(key=spec.seed).jumped(r))
        k = int(gen.integers(1, n)) if spec.initial_state == INITIAL_UNIFORM else spec.initial_state
        if r == 0:
            samples.append((0, k))
        for t in range(1, spec.steps + 1):
            k = step(kernel, k, gen)
            if t > burn:
                counts[k] += 1
            if r == 0 and decimation is not None and (t % decimation == 0 or t == spec.steps):
                samples.append((t, k))
        finals.append(k)
    return counts, np.array(finals), np.array(samples, dtype=np.int64)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_block_walk_matches_the_step_loop(data):
    # A small prime block makes block edges, the burn-in edge and the
    # sampling points cross in every arrangement; so does a small prime
    # cell count for the lockstep engine, which _LOCKSTEP = 1 forces on
    # every run and a threshold above the replica count keeps off.  A
    # group of 1 or 2 splits the replicas into several lockstep walks, and
    # a scratch of 1 to 3 block rows fills the widest group's columns in
    # slabs of that many replicas, so that 3 replicas split 2 + 1.
    block = data.draw(st.sampled_from([2, 3, 5, 7, 13]), label="block")
    cells = data.draw(st.sampled_from([2, 3, 5, 7, 13]), label="cells")
    lockstep = data.draw(st.sampled_from([1, 4]), label="lockstep")
    group = data.draw(st.sampled_from([1, 2, 2048]), label="group")
    kernel = data.draw(
        st.sampled_from([fermi_kernel(n=6), fermi_kernel(n=9, anchors=0), gambler_kernel()]),
        label="kernel",
    )
    steps = data.draw(st.integers(1, 400), label="steps")
    spec = SimulationSpec(
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        steps=steps,
        burn_in=data.draw(st.none() | st.integers(0, steps - 1), label="burn_in"),
        replicas=data.draw(st.integers(1, 3), label="replicas"),
        initial_state=data.draw(
            st.just(INITIAL_UNIFORM) | st.integers(0, kernel.n), label="initial_state"
        ),
    )
    decimation = data.draw(
        st.sampled_from([None, 1, 2, 3, 40]) | st.integers(steps + 1, 10**9), label="decimation"
    )
    # _lockstep's block length for its widest group.
    m = min(steps, max(1, cells // min(spec.replicas, group)))
    scratch = m * data.draw(st.integers(1, 3), label="scratch rows")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_BLOCK", block)
        mp.setattr(montecarlo, "_CELLS", cells)
        mp.setattr(montecarlo, "_SCRATCH", scratch)
        mp.setattr(montecarlo, "_LOCKSTEP", lockstep)
        mp.setattr(montecarlo, "_GROUP", group)
        result = run(spec, kernel, trajectory_decimation=decimation)
    counts, finals, samples = reference_run(spec, kernel, decimation)
    assert np.array_equal(result.histogram.counts, counts)
    assert np.array_equal(result.final_states, finals)
    if decimation is None:
        assert result.trajectory is None
    else:
        assert result.trajectory.dtype == np.int64
        assert np.array_equal(result.trajectory, samples)


def test_traced_walk_keeps_no_block_alive():
    # Each block's states take 8 B per walked event; a trajectory that held
    # views into them would keep about 1 MB alive here instead of 501 rows.
    kernel = fermi_kernel(n=1000)
    spec = SimulationSpec(seed=3, steps=500_000, initial_state=500)
    tracemalloc.start()
    try:
        result = run(spec, kernel, trajectory_decimation=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trajectory.shape == (501, 2)
    assert peak < 2 * 2**20


def reference_walk(up, move, k, steps, burn, gen):
    """Reference for montecarlo._walk, with its signature and its blocks:
    a plain loop over each block's draws, one event at a time, that
    reports every event as walked, stays included."""
    up, move = up.tolist(), move.tolist()
    t = 0
    while t < steps:
        end = min(t + montecarlo._BLOCK, burn if t < burn else steps)
        path = [k]
        for u in gen.random(end - t).tolist():
            if u < up[k]:
                k += 1
            elif u < move[k]:
                k -= 1
            path.append(k)
        yield t, k, np.array(path, dtype=np.int64), np.array([0, *range(end - t + 1)])
        t = end


def no_stay_kernel(n=9):
    """Hand-made anchored chain with up + down = 1 at every state, in
    dyadic rates whose sums are exact: no event ever stays."""
    up = np.resize([0.25, 0.5, 0.75], n + 1)
    up[0], up[n] = 1.0, 0.0
    return TransitionKernel(up=up, down=1.0 - up)


def walked_draws(spec, kernel):
    """Replica 0's draws below max(move), replayed from its stream: the
    draws the walk passes to _window (a given start draws nothing)."""
    gen = np.random.Generator(np.random.Philox(key=spec.seed).jumped(0))
    return int((gen.random(spec.steps) < kernel.move.max()).sum())


def walk_both_ways(spec, kernel, decimation, block=None):
    """run() on the window walk, then on reference_walk."""
    assert spec.replicas < montecarlo._LOCKSTEP
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(montecarlo, "_BLOCK", block)
        result = run(spec, kernel, trajectory_decimation=decimation)
        mp.setattr(montecarlo, "_walk", reference_walk)
        return result, run(spec, kernel, trajectory_decimation=decimation)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_window_walk_matches_the_plain_loop(data):
    # Noise-free, up == move below k*, so no draw steps down there.
    # Unanchored, the walk stops at an absorbing state and its window
    # closes to that one state.  Steep, up jumps across k* at ratio 2000,
    # so full-size blocks cross rows that differ most.  With no stay,
    # every draw is walked.
    cases = ["noise-free", "unanchored", "steep", "no-stay"]
    case = data.draw(st.sampled_from(cases), label="case")
    if case == "steep":
        kernel = fermi_kernel(n=data.draw(st.integers(200, 400), label="n"), ratio=2000.0)
        block, steps = 8192, data.draw(st.integers(1, 30_000), label="steps")
    else:
        kernels = {
            "noise-free": proportional_kernel(),
            "unanchored": fermi_kernel(n=9, anchors=0),
            "no-stay": no_stay_kernel(),
        }
        kernel = kernels[case]
        block = data.draw(st.sampled_from([2, 3, 5, 7, 13, 64]), label="block")
        steps = data.draw(st.integers(1, 400), label="steps")
    spec = SimulationSpec(
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        steps=steps,
        burn_in=data.draw(st.none() | st.integers(0, steps - 1), label="burn_in"),
        replicas=data.draw(st.integers(1, 3), label="replicas"),
        initial_state=data.draw(
            st.just(INITIAL_UNIFORM) | st.integers(0, kernel.n), label="initial_state"
        ),
    )
    decimation = data.draw(st.sampled_from([None, 1, 7, 33, 1000]), label="decimation")
    result, expected = walk_both_ways(spec, kernel, decimation, block)
    assert np.array_equal(result.histogram.counts, expected.histogram.counts)
    assert np.array_equal(result.final_states, expected.final_states)
    if decimation is None:
        assert result.trajectory is None
    else:
        assert np.array_equal(result.trajectory, expected.trajectory)


def spy_on_windows(monkeypatch):
    """Record each _window call as (draws, states), and check that its
    states stay in the window but for the last, which must be outside
    where the call returns fewer states than it was given draws."""
    calls = []
    real = montecarlo._window

    def spy(up, move, k0, lo, hi, u):
        states = real(up, move, k0, lo, hi, u)
        inside = (states >= lo) & (states <= hi)
        assert 1 <= states.size <= u.size and inside[:-1].all()
        assert states.size == u.size or not inside[-1]
        calls.append((u.size, states.copy()))
        return states

    monkeypatch.setattr(montecarlo, "_window", spy)
    return calls


def test_window_walk_goes_on_from_where_a_block_leaves_its_window(monkeypatch):
    # From state 20 a steep chain runs to k* near 400 within the first
    # block, further than its windows reach: the block leaves window
    # after window, and each time the walk goes on from the first state
    # outside with the draws left.
    calls = spy_on_windows(monkeypatch)
    kernel = fermi_kernel(n=600, ratio=2000.0)
    spec = SimulationSpec(seed=12, steps=100_000, burn_in=0, initial_state=20)
    result, expected = walk_both_ways(spec, kernel, decimation=1)
    blocks = -(-spec.steps // montecarlo._BLOCK)
    assert len(calls) > blocks and sum(states.size < draws for draws, states in calls) >= 3
    assert sum(states.size for _, states in calls) == walked_draws(spec, kernel)
    # A call that stops short leaves the rest of its block to the next.
    for (draws, states), (rest, _) in zip(calls, calls[1:]):
        assert rest == draws - states.size or states.size == draws
    assert np.array_equal(result.trajectory, expected.trajectory)
    assert np.array_equal(result.histogram.counts, expected.histogram.counts)
    assert np.array_equal(result.final_states, expected.final_states)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_narrow_windows_keep_the_walk_bits(data):
    # Windows of one or three states, whatever the block's range: most
    # blocks leave their windows many times, and from one state wide,
    # every move leaves it on the first draw.
    reach = data.draw(st.sampled_from([0, 1]), label="reach")
    case = data.draw(st.sampled_from(["steep", "anchored", "unanchored"]), label="case")
    if case == "steep":
        kernel = fermi_kernel(n=data.draw(st.integers(20, 60), label="n"), ratio=2000.0)
    else:
        kernel = fermi_kernel(n=data.draw(st.integers(2, 12), label="n"), anchors=int(case == "anchored"))
    steps = data.draw(st.integers(1, 2000), label="steps")
    spec = SimulationSpec(
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        steps=steps,
        burn_in=data.draw(st.none() | st.integers(0, steps - 1), label="burn_in"),
        initial_state=data.draw(st.integers(0, kernel.n), label="initial_state"),
    )
    block = data.draw(st.sampled_from([3, 64, 8192]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_SPREAD", 0.0)
        mp.setattr(montecarlo, "_MIN_REACH", reach)
        calls = spy_on_windows(mp)
        result, expected = walk_both_ways(spec, kernel, decimation=1, block=block)
    assert sum(states.size for _, states in calls) == walked_draws(spec, kernel)
    assert np.array_equal(result.trajectory, expected.trajectory)
    assert np.array_equal(result.histogram.counts, expected.histogram.counts)
    assert np.array_equal(result.final_states, expected.final_states)


class FixedDraws:
    """A stand-in stream that hands out the given draws in order, as
    consecutive calls on one stream would."""

    def __init__(self, draws):
        self.draws = np.array(draws)

    def random(self, size):
        out, self.draws = self.draws[:size], self.draws[size:]
        return out


def test_a_draw_at_max_move_stays_and_a_block_may_walk_none(monkeypatch):
    # The gambler's walk moves with probability 1/2 inside: move is 0.5
    # there, its maximum.  A draw of exactly 0.5 stays, as it does in the
    # plain loop, where 0.5 < move[k] is false.  In blocks of 4, the
    # second block draws nothing below 0.5 and walks no draw at all.
    draws = [0.5, 0.1, 0.5, 0.3, 0.5, 0.75, 0.999, 0.5, 0.2, 0.5]
    monkeypatch.setattr(montecarlo, "_stream", lambda seed, r: FixedDraws(draws))
    calls = spy_on_windows(monkeypatch)
    spec = SimulationSpec(seed=0, steps=len(draws), burn_in=4, initial_state=2)
    result, expected = walk_both_ways(spec, gambler_kernel(), decimation=1, block=4)
    path = [2, 2, 3, 3, 2, 2, 2, 2, 2, 3, 3]
    assert result.trajectory[:, 1].tolist() == expected.trajectory[:, 1].tolist() == path
    assert np.array_equal(result.histogram.counts, expected.histogram.counts)
    assert result.histogram.counts.tolist() == [0, 0, 4, 2, 0]
    assert result.final_states.tolist() == expected.final_states.tolist() == [3]
    assert [draws for draws, _ in calls] == [2, 1]


def test_window_stops_at_the_first_state_outside_it():
    # Rows 0 and 1 put up in [0.2, 0.5] and move at 0.5, so 0.3 is odd.
    # From 0 in [0, 1], two draws below 0.2 reach state 2, whose row the
    # window lacks; from 1 in [1, 2], 0.45 steps down to 0, and row -1
    # would read row 2 without an error.  Each walk ends on the state
    # that left the window, which the walk then goes on from.
    up = np.array([0.5, 0.2, 0.4, 0.1, 0.0])
    down = np.array([0.0, 0.3, 0.1, 0.3, 0.5])
    kernel = TransitionKernel(up=up, down=down)
    move = kernel.move
    left = montecarlo._window(kernel.up, move, 0, 0, 1, np.array([0.1, 0.1, 0.3]))
    assert left.dtype == np.int64 and left.tolist() == [1, 2]
    assert montecarlo._window(kernel.up, move, 1, 1, 2, np.array([0.45, 0.3])).tolist() == [0]
    whole = montecarlo._window(kernel.up, move, 0, 0, 4, np.array([0.1, 0.1, 0.3]))
    assert whole.tolist() == [1, 2, 3]


def test_group_streams_are_the_jumped_streams(monkeypatch):
    # Groups of at most 3 split 8 replicas as [0, 2), [2, 5) and [5, 8);
    # each stream is built from its counter.  Replica r must still draw
    # from Philox(seed).jumped(r).
    firsts, widths = [], []
    real = montecarlo._lockstep

    def spy(*args):
        widths.append(len(args[5]))
        for gen in args[5]:
            twin = np.random.Philox()
            twin.state = gen.bit_generator.state
            firsts.append(np.random.Generator(twin).random(4))
        return real(*args)

    monkeypatch.setattr(montecarlo, "_lockstep", spy)
    monkeypatch.setattr(montecarlo, "_LOCKSTEP", 1)
    monkeypatch.setattr(montecarlo, "_GROUP", 3)
    run(SimulationSpec(seed=77, steps=5, replicas=8, initial_state=5), fermi_kernel())
    assert widths == [2, 3, 3]
    for r, draws in enumerate(firsts):
        expected = np.random.Generator(np.random.Philox(key=77).jumped(r)).random(4)
        assert np.array_equal(draws, expected), r


@pytest.mark.parametrize("r", [0, 1, 2**64 - 1, 2**64, 2**64 + 3])
def test_counter_streams_are_the_jumped_streams(r):
    # A jump adds one to the upper 128 bits of Philox's 256-bit counter.
    for seed in (0, 2**64 - 1):
        built = montecarlo._stream(seed, r).random(9)
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(r)).random(9)
        assert built.tobytes() == jumped.tobytes()


def test_lockstep_buffers_stay_bounded():
    # Both runs take the lockstep engine.  It keeps one 4 MB buffer of
    # _CELLS cells, the draws an event per row, which each event's states
    # overwrite, and a 256 kB scratch that the generators fill.  Next to
    # them sit the generators, under 2 MB for 2,000 replicas; a second
    # block buffer would pass either bound, and blocks as long as the
    # walk's would take 262 MB.
    kernel = fermi_kernel(n=100)
    for replicas, steps, blocks in ((2000, 2000, 1.6), (96, 20_000, 1.15)):
        spec = SimulationSpec(seed=5, steps=steps, replicas=replicas)
        assert spec.replicas >= montecarlo._LOCKSTEP
        tracemalloc.start()
        try:
            result = run(spec, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.histogram.events_counted == steps // 2 * replicas
        assert peak < blocks * 8 * montecarlo._CELLS, replicas


def test_lockstep_groups_bound_the_live_generators(monkeypatch):
    # Each lockstep walk keeps its replicas' generators alive to the end,
    # so a run holds at most _GROUP of them at once, in near-equal groups
    # that stay wide enough for lockstep to pay.
    widths = []
    real = montecarlo._lockstep
    monkeypatch.setattr(
        montecarlo, "_lockstep", lambda *a: widths.append(len(a[5])) or real(*a)
    )
    kernel = fermi_kernel(n=20)
    spec = SimulationSpec(seed=8, steps=50, replicas=2 * montecarlo._GROUP + 1)
    run(spec, kernel)
    assert len(widths) == 3 and sum(widths) == spec.replicas
    assert max(widths) <= montecarlo._GROUP and max(widths) - min(widths) <= 1


def test_absorbing_runs_end_at_a_boundary():
    kernel = fermi_kernel(anchors=0)
    spec = SimulationSpec(seed=13, steps=20_000, burn_in=0, replicas=40, initial_state=5)
    finals = run(spec, kernel).final_states
    assert np.isin(finals, [0, 10]).all()


# -- absorption sampling -----------------------------------------------------------


def test_absorption_from_a_boundary_is_immediate():
    kernel = gambler_kernel()
    spec = SimulationSpec(seed=0, steps=10, replicas=100, initial_state=0)
    result = absorption_frequency(spec, kernel)
    assert result.fraction_at_0 == 1.0
    assert result.fraction_at_n == 0.0
    assert result.mean_steps == 0.0
    assert result.unabsorbed == 0


def test_absorption_sampling_is_reproducible():
    kernel = gambler_kernel()
    spec = SimulationSpec(seed=21, steps=10_000, replicas=500, initial_state=2)
    a = absorption_frequency(spec, kernel)
    b = absorption_frequency(spec, kernel)
    assert a == b


def test_symmetric_walk_splits_evenly():
    kernel = gambler_kernel()
    replicas = 100_000
    spec = SimulationSpec(seed=5150, steps=10_000, replicas=replicas, initial_state=2)
    result = absorption_frequency(spec, kernel)
    analytic = absorption_analysis(kernel, 2)
    assert analytic.prob_absorb_at_0 == pytest.approx(0.5, abs=1e-12)
    assert analytic.expected_steps == pytest.approx(8.0, abs=1e-9)
    assert result.unabsorbed == 0
    sigma = np.sqrt(0.25 / replicas)
    assert abs(result.fraction_at_0 - 0.5) <= 4.0 * sigma
    assert result.fraction_at_0 + result.fraction_at_n == pytest.approx(1.0)
    assert result.mean_steps == pytest.approx(8.0, rel=0.05)


def test_uniform_starts_split_evenly_by_symmetry():
    kernel = gambler_kernel()
    replicas = 40_000
    spec = SimulationSpec(
        seed=31, steps=10_000, replicas=replicas, initial_state=INITIAL_UNIFORM
    )
    result = absorption_frequency(spec, kernel)
    assert result.unabsorbed == 0
    sigma = np.sqrt(0.25 / replicas)
    assert abs(result.fraction_at_0 - 0.5) <= 4.0 * sigma


def test_imitation_chain_absorption_matches_the_linear_algebra_route():
    kernel = fermi_kernel(anchors=0)
    analytic = absorption_analysis(kernel, 5)
    replicas = 20_000
    spec = SimulationSpec(seed=7, steps=100_000, replicas=replicas, initial_state=5)
    result = absorption_frequency(spec, kernel)
    assert result.unabsorbed == 0
    p = analytic.prob_absorb_at_0
    sigma = np.sqrt(p * (1.0 - p) / replicas)
    assert abs(result.fraction_at_0 - p) <= 4.0 * sigma
    assert result.mean_steps == pytest.approx(analytic.expected_steps, rel=0.05)


def test_event_cap_warns_and_excludes_stragglers():
    kernel = gambler_kernel()
    spec = SimulationSpec(seed=2, steps=3, replicas=400, initial_state=2)
    with pytest.warns(UserWarning, match="interior"):
        result = absorption_frequency(spec, kernel)
    assert result.unabsorbed > 0
    assert result.replicas == 400
    absorbed = result.replicas - result.unabsorbed
    total = (result.fraction_at_0 + result.fraction_at_n) * absorbed
    assert total == pytest.approx(absorbed)


def test_absorption_sampling_with_no_replica_absorbed_is_nan():
    spec = SimulationSpec(seed=1, steps=1, replicas=5, initial_state=25)
    with pytest.warns(UserWarning, match="5 of 5 replicas were still interior"):
        result = absorption_frequency(spec, fermi_kernel(n=50, anchors=0))
    assert result.unabsorbed == result.replicas == 5
    assert np.isnan([result.fraction_at_0, result.fraction_at_n, result.mean_steps]).all()


def test_absorption_sampling_rejects_recurrent_kernels():
    with pytest.raises(ChainStructureError, match="absorbing"):
        absorption_frequency(SimulationSpec(seed=0, steps=10, initial_state=5), fermi_kernel())


def test_absorption_sampling_rejects_foreign_starts():
    with pytest.raises(ValueError, match="exceeds"):
        absorption_frequency(
            SimulationSpec(seed=0, steps=10, initial_state=9), gambler_kernel()
        )


def reference_absorption_frequency(spec, kernel):
    """The first shared-stream loop of :func:`absorption_frequency`, kept
    verbatim as the reference (its structure check is left to the engine):
    every event draws one uniform per still-active replica in replica order
    and compacts the active set after each hit."""
    n = kernel.n
    total = spec.replicas
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    if isinstance(spec.initial_state, str):
        states = gen.integers(1, n, size=total).astype(np.int64)
    else:
        k0 = int(spec.initial_state)
        if k0 > n:
            raise ValueError(f"initial_state {k0} exceeds the largest state {n}")
        states = np.full(total, k0, dtype=np.int64)
    absorbed_at = np.full(total, -1, dtype=np.int64)
    steps_taken = np.zeros(total, dtype=np.int64)
    at_boundary = (states == 0) | (states == n)
    absorbed_at[at_boundary] = states[at_boundary]
    active_idx = np.flatnonzero(~at_boundary)
    k = states[active_idx]
    up = kernel.up
    move = kernel.up + kernel.down
    t = 0
    while active_idx.size and t < spec.steps:
        t += 1
        u = gen.random(k.size)
        p_up = up[k]
        p_move = move[k]
        k = k + (u < p_up).astype(np.int64) - ((u >= p_up) & (u < p_move)).astype(np.int64)
        hit = (k == 0) | (k == n)
        if hit.any():
            absorbed_at[active_idx[hit]] = k[hit]
            steps_taken[active_idx[hit]] = t
            keep = ~hit
            active_idx = active_idx[keep]
            k = k[keep]
    unabsorbed = int(active_idx.size)
    if unabsorbed > 0.01 * total:
        warnings.warn(
            f"{unabsorbed} of {total} replicas were still interior after {spec.steps} "
            "events; fractions cover absorbed replicas only",
            stacklevel=2,
        )
    done = absorbed_at >= 0
    n_done = int(done.sum())
    if n_done == 0:
        return montecarlo.AbsorptionFrequency(
            fraction_at_0=float("nan"),
            fraction_at_n=float("nan"),
            mean_steps=float("nan"),
            replicas=total,
            unabsorbed=unabsorbed,
        )
    return montecarlo.AbsorptionFrequency(
        fraction_at_0=float((absorbed_at == 0).sum() / n_done),
        fraction_at_n=float((absorbed_at == n).sum() / n_done),
        mean_steps=float(steps_taken[done].mean()),
        replicas=total,
        unabsorbed=unabsorbed,
    )


def warned(call, *args):
    """(repr of call(*args), the messages of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return repr(result), [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_absorption_sampling_matches_the_shared_stream_loop(data):
    # Runs of 1 to 3,000 replicas cross _LOCKSTEP, below which the last
    # replicas step one by one; a short cap leaves stragglers (the warning),
    # a long one absorbs them all, and a block of 7 draws makes the tail
    # refill its draws mid-event.
    # The fair coin and an economy whose primary network always pays more
    # (x* = 1) absorb every replica well within the long cap at n <= 60.
    n = data.draw(st.integers(3, 60), label="n")
    target, ratio = data.draw(st.sampled_from([(0.68, 0.0), (1.0, 1.0), (1.0, 10.0)]))
    params = calibrated_params(target=target)
    kernel = build_kernel(params, PopulationConfig(n=n), fermi_from_ratio(params, n, ratio))
    spec = SimulationSpec(
        seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        steps=data.draw(st.integers(1, 300) | st.just(100_000), label="cap"),
        replicas=data.draw(st.integers(1, 3_000), label="replicas"),
        initial_state=data.draw(st.just(INITIAL_UNIFORM) | st.integers(0, n), label="start"),
    )
    block = data.draw(st.sampled_from([7, montecarlo._BLOCK]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_BLOCK", block)
        got = warned(absorption_frequency, spec, kernel)
    assert got == warned(reference_absorption_frequency, spec, kernel)


@pytest.mark.parametrize(
    "n, ratio, seed, replicas",
    [
        # The simulation benchmark's absorption part: 10^4 uniform starts on
        # the unanchored ratio-1 chain at n = 20, capped at 10^5 events.
        (20, 1.0, 1, 10_000),
        (20, 1.0, 5, 10_000),
        # The fair coin at n = 3: the first vector event absorbs 42 replicas
        # at 0 and 42 at n at once.
        (3, 0.0, 1, 500),
    ],
)
def test_absorption_sampling_matches_the_shared_stream_loop_at_full_width(n, ratio, seed, replicas):
    kernel = fermi_kernel(n, anchors=0, ratio=ratio)
    spec = SimulationSpec(seed=seed, steps=100_000, replicas=replicas)
    assert warned(absorption_frequency, spec, kernel) == warned(
        reference_absorption_frequency, spec, kernel
    )


@given(
    seed=st.integers(0, 2**64 - 1), a=st.integers(0, 10_000), b=st.integers(0, 10_000)
)
@settings(max_examples=100, deadline=None, database=None)
def test_consecutive_draws_concatenate(seed, a, b):
    # The tail of absorption_frequency takes its draws in blocks that do not
    # line up with its events; that is exact only because of this.
    split = np.random.Generator(np.random.Philox(key=seed))
    whole = np.random.Generator(np.random.Philox(key=seed))
    drawn = np.concatenate((split.random(a), split.random(b)))
    assert drawn.tobytes() == whole.random(a + b).tobytes()


def test_absorption_sampling_reports_replicas_as_a_python_int():
    kernel = gambler_kernel()
    plain = absorption_frequency(SimulationSpec(seed=3, steps=100, replicas=300), kernel)
    numpy = absorption_frequency(SimulationSpec(seed=3, steps=100, replicas=np.int64(300)), kernel)
    assert type(numpy.replicas) is int
    assert repr(numpy) == repr(plain)
