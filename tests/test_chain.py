"""Kernel construction, chain classification, stationary laws, absorption."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from netsel import chain
from netsel.chain import (
    ChainClass,
    ChainStructureError,
    PopulationConfig,
    StationaryDistribution,
    TransitionKernel,
    absorption_analysis,
    absorption_table,
    build_kernel,
    classify,
    detailed_balance_residual,
    distribution_mode,
    stationary_eigen,
    stationary_noise_free,
    stationary_product,
    total_variation,
)
from netsel.model import (
    NetworkParams,
    calibrate_price_gap,
    critical_state,
    equilibrium,
    expected_poa,
    utility_primary,
    utility_secondary,
)
from netsel.protocols import (
    CustomRule,
    Fermi,
    PairwiseProportional,
    beta_reference,
    fermi_from_ratio,
)
from oracle import (
    anchors,
    bits,
    calibrated_params,
    dense_matrix,
    economies,
    loop_balance_block,
    loop_expected_poa,
    loop_kernel,
    make_rule,
    mp_log_profile,
    oracle_eigen,
    outcome,
    power_reference,
    q_at,
    random_irreducible_kernel,
    reference_build_kernel,
    reference_check_rates,
    reference_classify,
    reference_gain,
    reference_kernel_post_init,
    reference_law_post_init,
    reference_log_profile,
    reference_min_rate,
    reference_refuses_underflow,
    reference_stationary_noise_free,
    reference_two_point,
    rule_specs,
    same,
    sizes,
)


def random_calibrated(rng, n_range=(4, 200)):
    capacity = rng.uniform(20.0, 400.0)
    arrival = capacity * rng.uniform(0.1, 0.9)
    target = rng.uniform(0.05, 0.95)
    gap = calibrate_price_gap(capacity, arrival, 1.0, target)
    params = NetworkParams(capacity, arrival, 1.0, gap, 0.0)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    return params, n


def reconstruct_detailed_balance(kernel):
    """Independent stationary oracle: iterate the edge balance directly."""
    psi = np.zeros(kernel.n + 1)
    psi[0] = 1.0
    for k in range(kernel.n):
        psi[k + 1] = psi[k] * kernel.up[k] / kernel.down[k + 1]
    return psi / psi.sum()


def payoff_step(params, k, n):
    """h(k): primary advantage at state k when the price gap is zero."""
    return utility_primary(params, k, n) - utility_secondary(params) + params.price_gap


# -- population config -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1),
        dict(n=0),
        dict(n=10, anchored_primary=-1),
        dict(n=10, anchored_secondary=-2),
        dict(n=2.5),
    ],
)
def test_population_validation(kwargs):
    with pytest.raises(ValueError):
        PopulationConfig(**kwargs)


# -- kernel construction -----------------------------------------------------------


def test_boundary_states_trap_without_anchors():
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(n=10), Fermi(beta=400.0))
    stay = 1.0 - kernel.up - kernel.down
    assert kernel.up[0] == 0.0 and kernel.down[0] == 0.0 and stay[0] == 1.0
    assert kernel.up[10] == 0.0 and kernel.down[10] == 0.0 and stay[10] == 1.0


def test_hand_computed_entries_no_anchors():
    params = calibrated_params()
    rule = PairwiseProportional()
    kernel = build_kernel(params, PopulationConfig(n=2), rule)
    gain = utility_primary(params, 1, 2) - utility_secondary(params)
    assert kernel.up[1] == pytest.approx(0.5 * q_at(rule, gain), rel=1e-15)
    assert kernel.down[1] == 0.0


def test_hand_computed_entries_with_anchors():
    params = calibrated_params()
    rule = Fermi(beta=100.0)
    kernel = build_kernel(
        params, PopulationConfig(n=2, anchored_primary=1, anchored_secondary=2), rule
    )
    gain = utility_primary(params, 1, 2) - utility_secondary(params)
    # focal pool 2, opponent pool 1 + 3 anchored: weights 2/8 up, 3/8 down.
    assert kernel.up[1] == pytest.approx((2.0 / 8.0) * q_at(rule, gain), rel=1e-15)
    assert kernel.down[1] == pytest.approx((3.0 / 8.0) * q_at(rule, -gain), rel=1e-15)


def test_anchors_open_the_boundaries():
    params = calibrated_params()
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, Fermi(beta=400.0))
    assert (kernel.up[:-1] > 0).all()
    assert (kernel.down[1:] > 0).all()


def test_rows_are_stochastic():
    rng = np.random.default_rng(31)
    for _ in range(50):
        params, n = random_calibrated(rng, n_range=(2, 60))
        population = PopulationConfig(
            n=n,
            anchored_primary=int(rng.integers(0, 3)),
            anchored_secondary=int(rng.integers(0, 3)),
        )
        rule = (
            Fermi(beta=float(rng.uniform(0.0, 1e4)))
            if rng.random() < 0.5
            else PairwiseProportional(scale=float(rng.uniform(0.5, 100.0)))
        )
        kernel = build_kernel(params, population, rule)
        stay = 1.0 - kernel.up - kernel.down
        total = kernel.up + kernel.down + stay
        assert np.abs(total - 1.0).max() < 1e-12
        assert kernel.up.min() >= 0.0 and kernel.down.min() >= 0.0
        assert stay.min() >= 0.0


def test_kernel_records_provenance():
    params = calibrated_params()
    population = PopulationConfig(n=5)
    rule = Fermi(beta=1.0)
    kernel = build_kernel(params, population, rule)
    assert kernel.params == params
    assert kernel.population == population
    assert kernel.rule is rule
    assert kernel.n == 5


def test_kernel_arrays_read_only():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=4), Fermi(beta=1.0))
    with pytest.raises(ValueError):
        kernel.up[0] = 0.5


def test_kernel_copies_a_writable_array_and_takes_a_read_only_one():
    up, down = np.array([0.0, 0.3, 0.0]), np.array([0.0, 0.2, 0.0])
    kernel = TransitionKernel(up=up, down=down)
    up[1] = 0.9  # the caller's array stays the caller's
    assert kernel.up[1] == 0.3 and up.flags.writeable
    again = TransitionKernel(up=kernel.up, down=kernel.down)
    assert again.up is kernel.up and again.down is kernel.down
    view = kernel.up[:]  # read-only, but its data is another array's
    assert TransitionKernel(up=view, down=kernel.down).up is not view


def test_kernel_validation_rejects_broken_rows():
    up = np.array([0.0, 0.6, 0.0])
    down = np.array([0.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="sum"):
        TransitionKernel(up=up, down=down)


@pytest.mark.parametrize("a_p, a_s", [(0, 0), (0, 1), (1, 0)])
def test_kernel_refuses_a_boundary_move_with_no_anchor_to_imitate(a_p, a_s):
    up, down = np.array([0.1, 0.2, 0.0]), np.array([0.0, 0.2, 0.1])
    with pytest.raises(ValueError, match="rates contradict the population"):
        TransitionKernel(up, down, *fermi_record(2, a_p, a_s))
    TransitionKernel(up, down, *fermi_record(2, 1, 1))
    TransitionKernel(up, down)  # a hand-made kernel records no population


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.integers(2, 60),
    st.integers(0, 2),
    st.integers(0, 2),
    st.floats(0.0, 1e4),
    st.integers(0, 2**32 - 1),
)
def test_kernel_derives_move_once(n, a_p, a_s, beta, seed):
    built = build_kernel(calibrated_params(), PopulationConfig(n, a_p, a_s), Fermi(beta=beta))
    rng = np.random.default_rng(seed)
    up, down = rng.uniform(0.0, 0.5, n + 1), rng.uniform(0.0, 0.5, n + 1)
    up[n] = down[0] = 0.0
    hand = TransitionKernel(up=up, down=down)
    halved = dataclasses.replace(hand, down=hand.down / 2)
    for kernel in (built, hand, halved, dataclasses.replace(built, params=None)):
        assert (1.0 - kernel.up - kernel.down).min() >= 0.0  # each row's stay
        assert kernel.move.tobytes() == (kernel.up + kernel.down).tobytes()
        assert kernel.move is kernel.move and not kernel.move.flags.writeable
    assert halved.move.tobytes() == (up + down / 2).tobytes()


def test_kernel_validation_rejects_bad_structural_zeros():
    up = np.array([0.2, 0.2, 0.1])
    down = np.array([0.0, 0.2, 0.1])
    with pytest.raises(ValueError, match="structural"):
        TransitionKernel(up=up, down=down)


def test_kernel_validation_rejects_negative_probabilities():
    up = np.array([0.2, -0.1, 0.0])
    down = np.array([0.0, 0.2, 0.1])
    with pytest.raises(ValueError):
        TransitionKernel(up=up, down=down)


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, seed=st.integers(0, 2**32 - 1))
def test_gain_keeps_its_bits(params, n, seed):
    pi_s = utility_secondary(params)
    # The lattice k/n, whose ties the snap is for; random shares in [0, 1]; and
    # 400 ulps each side of the equilibrium share, where the gain crosses the
    # snap's width of 32 ulps of the payoff.
    x_star = equilibrium(params).share_primary
    near = np.clip(x_star * (1.0 + np.arange(-400, 401) * 2.0**-52), 0.0, 1.0)
    for shares in (np.arange(n + 1) / n, np.random.default_rng(seed).random(n + 1), near):
        same(
            outcome(chain._gain, params, pi_s, shares), outcome(reference_gain, params, pi_s, shares)
        )


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, a_p=anchors, a_s=anchors, spec=rule_specs)
@example(NetworkParams(100.0, 30.0), 5000, 0, 0, ("ratio", 2000.0))
def test_build_kernel_keeps_its_bits(params, n, a_p, a_s, spec):
    population = PopulationConfig(n, a_p, a_s)
    rule = make_rule(spec, params, n) or PairwiseProportional()
    same(
        outcome(build_kernel, params, population, rule),
        outcome(reference_build_kernel, params, population, rule),
    )


ULP = 2.0**-52
SPECIALS = [
    math.nan, 0.0, -0.0, -5e-324, 5e-324, 1.0, 1.0 + ULP, math.inf, -math.inf, 1e308, -1e308, 0.25
]  # fmt: skip
# What a flaw does at one state: an entry set to a special value; or a row
# exactly at 1, or one ulp past it, through the down rate.
flaw_kinds = st.one_of(
    st.tuples(st.sampled_from(["up", "down"]), st.sampled_from(SPECIALS)),
    st.tuples(st.sampled_from(["row at 1", "row past 1"]), st.floats(0.0, 1.0)),
)


@st.composite
def rate_vectors(draw, structural=True):
    """(up, down) over n + 1 states: random rates with zeros and flaws."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 0.5, 1.0]))  # rows may pass 1 at scale 1
    zeros = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    up, down = (scale * rng.random(n + 1) * (rng.random(n + 1) >= zeros) for _ in range(2))
    if structural:
        up[n] = down[0] = 0.0
    for (kind, value), k in draw(st.lists(st.tuples(flaw_kinds, st.integers(0, n)), max_size=4)):
        if kind in ("up", "down"):
            (up if kind == "up" else down)[k] = value
        else:
            up[k] = value
            down[k] = 1.0 - value if kind == "row at 1" else np.nextafter(1.0 - value, 2.0)
    return up, down


@settings(max_examples=300, deadline=None, database=None)
@given(vectors=rate_vectors(structural=False), cut=st.integers(0, 3))
def test_check_rates_keeps_its_verdict_and_message(vectors, cut):
    up, down = (arr[cut:] for arr in vectors)  # a chunk of the noise-free route, at any offset
    if up.size == 0:
        return
    new = outcome(chain._check_rates, up, down)
    old = outcome(reference_check_rates, up, down)
    if new[0] == bits((up, down)):  # accepted: the rates come back as they were
        new = None, new[1]
    same(new, old)


# -- classification -------------------------------------------------------------


def test_classify_noisy_no_anchors_is_absorbing():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), Fermi(beta=400.0))
    structure = classify(kernel)
    assert structure.kind == "absorbing"
    assert structure.absorbing_states == (0, 10)


def test_classify_noisy_anchored_is_irreducible():
    kernel = build_kernel(
        calibrated_params(),
        PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1),
        Fermi(beta=400.0),
    )
    assert classify(kernel).kind == "irreducible"


def test_classify_one_sided_anchor_is_not_irreducible():
    kernel = build_kernel(
        calibrated_params(), PopulationConfig(n=10, anchored_primary=1), Fermi(beta=400.0)
    )
    assert classify(kernel).kind == "other"


@pytest.mark.parametrize("anchored", [0, 1])
def test_classify_noise_free_is_other_with_one_way_pattern(anchored):
    params = calibrated_params()
    population = PopulationConfig(n=10, anchored_primary=anchored, anchored_secondary=anchored)
    kernel = build_kernel(params, population, PairwiseProportional())
    structure = classify(kernel)
    assert structure.kind == "other"
    assert "blocked" in structure.detail
    k_star = critical_state(params, 10)
    assert (kernel.down[:k_star] == 0.0).all()
    assert (kernel.up[k_star:] == 0.0).all()


def test_classify_frozen_interior_is_other():
    # Both boundaries trap but the middle cannot move at all: not absorbing.
    up = np.array([0.0, 0.0, 0.0, 0.0])
    down = np.array([0.0, 0.0, 0.0, 0.0])
    kernel = TransitionKernel(up=up, down=down)
    assert classify(kernel).kind == "other"


def test_only_fermi_promises_a_positive_q():
    # A rule promises q > 0 by defining log_pair; the others leave it None.
    assert callable(Fermi(beta=1.0).log_pair)
    assert PairwiseProportional().log_pair is None
    assert CustomRule(lambda z: 0.5).log_pair is None


def underflow_kernel(n=50, ratio=2000.0, anchors=1):
    """At n = 50 and ratio 2000, q underflows to 0 at 6 up and 23 down
    states of the anchored chain."""
    params = calibrated_params()
    population = PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    return build_kernel(params, population, fermi_from_ratio(params, n, ratio))


def test_classify_reads_an_underflowed_fermi_rate_as_possible():
    kernel = underflow_kernel()
    assert (kernel.up[:-1] == 0.0).sum() == 6 and (kernel.down[1:] == 0.0).sum() == 23
    structure = classify(kernel)
    assert structure.kind == "irreducible" and "underflow" in structure.detail
    unanchored = underflow_kernel(anchors=0)
    assert (unanchored.down[1:-1] == 0.0).any()
    assert classify(unanchored).kind == "absorbing"


def test_absorption_refuses_an_underflowed_coupling_by_name():
    # The float chain is trapped around k*, so a solve would read P_0 + P_n = 0.
    kernel = underflow_kernel(anchors=0)
    for call in (absorption_table, lambda kernel: absorption_analysis(kernel, 25)):
        with pytest.raises(ChainStructureError, match="cannot cross a zero coupling"):
            call(kernel)
    assert absorption_analysis(kernel, 0).prob_absorb_at_0 == 1.0


def test_classify_keeps_the_zero_pattern_without_a_positive_rule():
    kernel = underflow_kernel()
    # The same rates by hand, and with a rule that may return 0.
    assert classify(TransitionKernel(kernel.up, kernel.down)).kind == "other"
    leaky = dataclasses.replace(kernel, rule=CustomRule(lambda z: 0.5))
    assert classify(leaky).kind == "other"


def test_eigen_refuses_a_zero_coupling_by_name():
    kernel = underflow_kernel()
    with pytest.raises(ChainStructureError, match="cannot cross a zero coupling"):
        stationary_eigen(kernel)
    assert stationary_product(kernel).kind == "product_form"


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(10, 2_000),
    ratio=st.sampled_from([1.0, 100.0, 2000.0]) | st.floats(1.0, 1e5),
    arrival=st.floats(10.0, 99.0),
    target=st.floats(0.05, 0.95),
    anchors=st.integers(1, 3),
)
@example(n=50, ratio=2000.0, arrival=30.0, target=0.68, anchors=1)
@example(n=2_000, ratio=1e5, arrival=99.0, target=0.68, anchors=1)
def test_long_run_of_underflowing_fermi_chains_against_mpmath(n, ratio, arrival, target, anchors):
    # Each step of log psi is good to a few ulps of its size, and their
    # running sum to eps * n * max|log psi|, which bounds the law's error
    # in TV.  Up to ratio 2000 the law stays within 1e-10 of the oracle.
    params = calibrated_params(arrival, target)
    population = PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    kernel = build_kernel(params, population, fermi_from_ratio(params, n, ratio))
    structure, law = chain.long_run(kernel)
    assert structure.kind == "irreducible" and law.kind == "product_form"
    exact, reach = mp_log_profile(kernel)
    bound = 1e-10 if ratio <= 2000.0 else max(1e-10, np.finfo(float).eps * n * reach)
    assert total_variation(law, exact) <= bound


# -- the kernel's one decision against the references ---------------------------------
#
# Each kernel is drawn as the fields of a TransitionKernel, of four kinds:
# underflow-prone kernels of every rule, random rate vectors with flaws,
# hand-made zero patterns, and kernels built across the 4,096-state seam.
# Hand-made kernels carry a Fermi record, under which a zero rate reads as an
# underflowed q, or none.


def fields(kernel):
    return kernel.up, kernel.down, kernel.params, kernel.population, kernel.rule


def fermi_record(n, a_p, a_s):
    return NetworkParams(100.0, 30.0), PopulationConfig(n, a_p, a_s), Fermi(beta=1.0)


@st.composite
def underflow_prone_kernels(draw):
    """Kernels of every rule at intensities up to ratio 1e5, with 0-2 anchors
    on each side, as built, without params, by hand, or built and then
    given extra zero rates by hand."""
    n = draw(st.integers(2, 300))
    population = PopulationConfig(n, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    params = calibrated_params(draw(st.floats(10.0, 99.0)), draw(st.floats(0.05, 0.95)))
    ratio = draw(st.sampled_from([0.0, 1.0, 2000.0, 1e5]) | st.floats(0.0, 1e5))
    beta = ratio / beta_reference(params, n)
    rules = {
        "fermi": lambda: fermi_from_ratio(params, n, ratio),
        "proportional": PairwiseProportional,
        # One-sided exponential: 1 at z >= 0, it underflows to 0 far below.
        "custom": lambda: CustomRule(lambda z: math.exp(min(0.0, beta * z))),
    }
    rule = rules[draw(st.sampled_from(["fermi", "fermi", "fermi", "proportional", "custom"]))]()
    kernel = build_kernel(params, population, rule)
    form = draw(st.sampled_from(["built", "built", "without params", "by hand", "zeroed"]))
    if form == "without params":
        return kernel.up, kernel.down, None, population, rule
    up, down = kernel.up.copy(), kernel.down.copy()
    zeros = draw(st.lists(st.integers(0, n), max_size=3))
    up[zeros] = down[zeros] = 0.0
    if form == "by hand":
        return up, down
    return (up, down, *fields(kernel)[2:]) if form == "zeroed" else fields(kernel)


@st.composite
def flawed_kernels(draw):
    """Random rate vectors with flaws, valid or not."""
    up, down = draw(rate_vectors())
    record = fermi_record(up.size - 1, draw(anchors), draw(anchors))
    return (up, down, *record) if draw(st.booleans()) else (up, down)


@st.composite
def zero_pattern_kernels(draw):
    """Valid rates with any zero pattern, up to 40 states or across the seam."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(4090, 4200)))
    zeros, a_p, a_s = draw(st.floats(0.0, 1.0)), draw(anchors), draw(anchors)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    up, down = (0.5 * rng.random(n + 1) * (rng.random(n + 1) >= zeros) for _ in range(2))
    up[n] = down[0] = 0.0
    up[0] *= a_p > 0
    down[n] *= a_s > 0
    return (up, down, *fermi_record(n, a_p, a_s)) if draw(st.booleans()) else (up, down)


def built(params, n, a_p, a_s, spec, default=Fermi(beta=1.0)):
    rule = make_rule(spec, params, n) or default
    with np.errstate(all="ignore"):
        return fields(build_kernel(params, PopulationConfig(n, a_p, a_s), rule))


@st.composite
def built_kernels(draw):
    """Kernels of the sweep path's economies, sizes and rules."""
    args = draw(economies), draw(sizes), draw(anchors), draw(anchors), draw(rule_specs)
    try:
        return built(*args, draw(st.sampled_from([Fermi(beta=1.0), PairwiseProportional()])))
    except ValueError:
        assume(False)  # no kernel to classify


def refusal(call, kernel):
    """Whether ``call`` refuses the kernel for a zero coupling."""
    try:
        call(kernel)
    except ChainStructureError as err:
        return "cannot cross a zero coupling" in str(err)
    except np.linalg.LinAlgError:
        pass
    return False


@settings(max_examples=1600, deadline=None, database=None)
@given(
    case=st.one_of(
        underflow_prone_kernels(), flawed_kernels(), zero_pattern_kernels(), built_kernels()
    )
)
@example((np.array([0.0, 0.5, 1e308, 0.0]), np.array([0.0, 0.5, 1e308, 0.0])))
@example((np.array([0.0, 0.5, 0.0]), np.array([0.0, np.nextafter(0.5, 1.0), 0.0]), *fermi_record(2, 0, 0)))  # fmt: skip
@example((np.array([0.0, math.nan, 0.0]), np.array([0.0, 0.5, -1.0])))
@example((np.array([0.0, 0.5, 0.0]), np.array([0.0, math.nan, 0.0]), *fermi_record(2, 1, 1)))
@example((np.array([0.0, 0.5, 0.1]), np.array([0.0, 0.5, 0.0]), *fermi_record(2, 1, 1)))
@example((np.array([0.0, 0.5, -0.0]), np.array([-0.0, 0.5, 0.0]), *fermi_record(2, 1, 1)))
@example(built(NetworkParams(100.0, 30.0), 5000, 0, 0, ("ratio", 2000.0)))
@example(built(NetworkParams(100.0, 30.0), 5000, 1, 1, ("ratio", 2000.0)))
@example(built(NetworkParams(100.0, 30.0), 4096, 1, 1, ("ratio", 1.0)))
# Rates that move off a boundary with no anchor there to imitate: the log
# profile read the record and the rates apart, and the eigen route let a
# non-finite law escape, until the kernel refused them.
@example((np.array([5e-324, 0.13, 0.0]), np.array([0.0, 0.36, 0.27]), *fermi_record(2, 0, 0)))
@example((np.array([5e-324, 0.13, 0.0]), np.array([0.0, 0.36, 0.27]), *fermi_record(2, 1, 0)))
# A rate far below what the record's rule gives: the eigen route, pinned
# where the record's profile peaks, now refuses the law it cannot hold.
@example((np.array([5e-324, 0.13, 0.0]), np.array([0.0, 0.36, 0.27]), *fermi_record(2, 1, 1)))
def test_the_kernels_one_decision_matches_the_five_it_replaced(case):
    # The kernel's validation, class, smallest rate, log profile and
    # refusals of a zero coupling, each against its reference.
    same(outcome(TransitionKernel, *case), outcome(reference_kernel_post_init, *case))
    try:
        kernel = TransitionKernel(*case)
    except ValueError:
        return
    structure = reference_classify(kernel)
    assert classify(kernel) == structure
    assert bits(kernel._min_rate) == bits(reference_min_rate(kernel))
    up, down = kernel.up, kernel.down
    irreducible, absorbing = structure.kind == "irreducible", structure.kind == "absorbing"
    if irreducible:
        profile = chain._log_profile(kernel), reference_log_profile(kernel)
        assert profile[0].tobytes() == profile[1].tobytes()
    eigen = irreducible and reference_refuses_underflow(kernel, up[:-1], down[1:])
    assert refusal(stationary_eigen, kernel) == eigen
    table = absorbing and reference_refuses_underflow(kernel, up[1:-1], down[1:-1])
    assert refusal(absorption_table, kernel) == table


def test_the_plain_irreducible_class_is_one_value():
    vectors = [([0.2, 0.3, 0.0], [0.0, 0.1, 0.4]), ([0.1, 0.1, 0.0], [0.0, 0.1, 0.1])] * 2
    classes = [classify(TransitionKernel(*map(np.array, pair))) for pair in vectors]
    assert classes[0] == ChainClass(kind="irreducible", detail="all interior moves possible")
    assert all(structure is classes[0] for structure in classes)


# -- noise-free stationary law -----------------------------------------------------


def test_two_point_support_and_exact_sum():
    params = calibrated_params()
    distribution = stationary_noise_free(params, PopulationConfig(n=10))
    assert set(np.flatnonzero(distribution.psi)) == {6, 7}
    assert distribution.psi.sum() == 1.0
    assert distribution.kind == "two_point_noise_free"


def test_two_point_weights_match_hand_balance():
    params = calibrated_params()
    n = 10
    distribution = stationary_noise_free(params, PopulationConfig(n=n))
    pi_s = utility_secondary(params)
    # Hand-built one-step rates at the critical pair, straight from the
    # sampling weights and the proportional rule.
    gain6 = utility_primary(params, 6, n) - pi_s
    gain7 = utility_primary(params, 7, n) - pi_s
    t_up = (n - 6) * 6 / (n * (n - 1)) * gain6
    t_down = 7 * (n - 7) / (n * (n - 1)) * (-gain7)
    assert distribution.psi[6] == pytest.approx(t_down / (t_up + t_down), rel=1e-12)
    assert distribution.psi[7] == pytest.approx(t_up / (t_up + t_down), rel=1e-12)


def test_two_point_balanced_weights():
    # Choose the price gap so the climb rate at 6 equals the descent rate
    # at 7 exactly; the law then splits 50/50.
    params0 = calibrated_params()
    n = 10
    h6 = payoff_step(params0, 6, n)
    h7 = payoff_step(params0, 7, n)
    # up weight at 6 is 24/90, down weight at 7 is 21/90: balance requires
    # 24*(h6 - d) = 21*(d - h7).
    gap = (24.0 * h6 + 21.0 * h7) / 45.0
    params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    distribution = stationary_noise_free(params, PopulationConfig(n=n))
    assert distribution.psi[6] == pytest.approx(0.5, abs=1e-12)
    assert distribution.psi[7] == pytest.approx(0.5, abs=1e-12)


def test_two_point_knife_edge_collapses_to_point_mass():
    # With the equilibrium share exactly on a lattice point the chain
    # freezes there: all mass on k*.
    gap = calibrate_price_gap(100.0, 30.0, 1.0, 0.5)
    params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    distribution = stationary_noise_free(params, PopulationConfig(n=10))
    assert distribution.psi[5] == 1.0
    assert set(np.flatnonzero(distribution.psi)) == {5}


def test_two_point_respects_anchors():
    params = calibrated_params()
    plain = stationary_noise_free(params, PopulationConfig(n=10))
    anchored = stationary_noise_free(
        params, PopulationConfig(n=10, anchored_primary=3, anchored_secondary=0)
    )
    # Primary anchors strengthen climbs, shifting mass toward k*.
    assert anchored.psi[7] > plain.psi[7]


def test_two_point_rejects_boundary_critical_state():
    params = NetworkParams(100.0, 30.0, 1.0, 0.3, 0.3)  # equal prices: k* = n
    with pytest.raises(ValueError, match="boundary"):
        stationary_noise_free(params, PopulationConfig(n=10))


# Finite prices and delays whose payoff difference overflows at one end of
# 0..n only: at k = 0 (it reaches 1.9e308 there and is finite from about
# k = n / 2 on), or at k = n, where the primary payoff is -2e308.
@pytest.mark.parametrize(
    "prices", [(-1e308, 0.4e308), (1e308, -0.9e308)], ids=["at_0", "at_n"]
)
def test_rates_refuse_a_payoff_difference_that_overflows(prices):
    params = NetworkParams(1.0, 0.5, 0.5e308, *prices)
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    with pytest.raises(ValueError, match="payoff difference is not finite"):
        build_kernel(params, population, PairwiseProportional())
    with pytest.raises(ValueError, match="payoff difference is not finite"):
        stationary_noise_free(params, population)


def test_two_point_rejects_noisy_rule():
    params = calibrated_params()
    with pytest.raises(ValueError, match="noise-free"):
        stationary_noise_free(params, PopulationConfig(n=10), Fermi(beta=100.0))


def test_two_point_random_sanity():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        params, n = random_calibrated(rng, n_range=(4, 120))
        k_star = critical_state(params, n)
        if not 1 <= k_star <= n - 1:
            continue
        distribution = stationary_noise_free(params, PopulationConfig(n=n))
        support = set(np.flatnonzero(distribution.psi))
        assert support <= {k_star - 1, k_star}
        assert distribution.psi.sum() == 1.0
        checked += 1
    assert checked > 30


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, a_p=anchors, a_s=anchors, spec=rule_specs)
# k* = 4,096: up[k*-1] ends the first chunk and down[k*] starts the second.
@example(calibrated_params(target=0.8), 5119, 0, 0, ("none", None))
@example(calibrated_params(target=0.8), 5120, 1, 2, ("proportional", 2.0))
def test_stationary_noise_free_keeps_its_bits(params, n, a_p, a_s, spec):
    population = PopulationConfig(n, a_p, a_s)
    rule = make_rule(spec, params, n)
    same(
        outcome(stationary_noise_free, params, population, rule),
        outcome(reference_stationary_noise_free, params, population, rule),
    )
    # The same law from a built kernel, as long_run takes it.
    try:
        with np.errstate(all="ignore"):
            kernel = build_kernel(params, population, rule or PairwiseProportional())
    except ValueError:
        return
    if kernel._min_rate < math.inf or classify(kernel).kind != "other":
        return
    up, down = kernel.up, kernel.down
    kept = outcome(reference_two_point, params, n, lambda lo, hi: (up[lo:hi], down[lo:hi]))
    same(outcome(lambda: chain.long_run(kernel)[1]), kept)


def out_of_range(value):
    """A step rule whose q is ``value`` wherever |z| passes 1e-9: it passes its
    spot check, which reads [-1e-9, 1e-9] only."""
    return CustomRule(fn=lambda z: value if abs(z) > 1e-9 else 0.0, check_range=(-1e-9, 1e-9))


@pytest.mark.parametrize(
    "rule, message",
    [
        (out_of_range(50.0), "up entries must be probabilities in [0, 1]"),
        (out_of_range(-0.5), "up entries must be probabilities in [0, 1]"),
        (out_of_range(math.nan), "up entries must be probabilities in [0, 1]"),
        (out_of_range(3.9), "rows must sum to 1: up + down exceeds 1 at some state"),
    ],
)
def test_stationary_noise_free_refuses_a_bad_rule_with_the_message_it_had(rule, message):
    params, population = calibrated_params(), PopulationConfig(50)
    for call in (stationary_noise_free, reference_stationary_noise_free):
        with pytest.raises(ValueError) as refused:
            call(params, population, rule)
        assert str(refused.value) == message


# -- product form ------------------------------------------------------------------


def test_uniform_identity_exact():
    params = calibrated_params()
    for n in (10, 100):
        population = PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
        kernel = build_kernel(params, population, Fermi(beta=0.0))
        distribution = stationary_product(kernel)
        assert np.abs(distribution.psi - 1.0 / (n + 1)).max() <= 1e-12


def test_product_form_rejects_absorbing_kernel():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), Fermi(beta=400.0))
    with pytest.raises(ChainStructureError, match="irreducible"):
        stationary_product(kernel)


def test_product_form_matches_reconstruction():
    rng = np.random.default_rng(53)
    for _ in range(25):
        kernel = random_irreducible_kernel(rng, int(rng.integers(3, 80)))
        product = stationary_product(kernel)
        recon = reconstruct_detailed_balance(kernel)
        assert np.abs(product.psi - recon).max() < 1e-12


def test_product_form_survives_extreme_intensity():
    # beta far beyond the figure range: ratios overflow any direct product
    # but stay finite in log space.
    params = calibrated_params()
    population = PopulationConfig(n=1000, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, fermi_from_ratio(params, 1000, 50.0))
    distribution = stationary_product(kernel)
    assert np.isfinite(distribution.psi).all()
    assert distribution.psi.sum() == pytest.approx(1.0, abs=1e-12)
    assert distribution.psi.max() > 0.1


def test_stationarity_under_the_kernel():
    params = calibrated_params()
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, fermi_from_ratio(params, 10, 1.0))
    psi = stationary_product(kernel).psi
    assert np.abs(psi @ dense_matrix(kernel) - psi).max() < 1e-15


# -- eigenvector route ------------------------------------------------------------


def test_balance_solve_matches_product_form():
    rng = np.random.default_rng(61)
    for _ in range(20):
        kernel = random_irreducible_kernel(rng, int(rng.integers(3, 120)))
        product = stationary_product(kernel)
        eigen = stationary_eigen(kernel)
        assert eigen.kind == "eigenvector"
        assert np.abs(product.psi - eigen.psi).max() < 1e-10


def test_balance_solve_large_population():
    rng = np.random.default_rng(67)
    kernel = random_irreducible_kernel(rng, 1000)
    assert np.abs(stationary_product(kernel).psi - stationary_eigen(kernel).psi).max() < 1e-10


def test_power_iteration_agrees():
    params = calibrated_params()
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, fermi_from_ratio(params, 10, 1.0))
    power = power_reference(kernel)
    assert np.abs(stationary_eigen(kernel).psi - power).max() < 1e-10
    assert np.abs(stationary_product(kernel).psi - power).max() < 1e-10


# -- the balance solve against solve_banded ---------------------------------------
#
# chain._solve_balance_block solves each block by cyclic reduction, whose
# rounding differs from a banded LU's; scipy.linalg.solve_banded on a loop
# assembly of the same rows is the oracle, to a bound rather than bit for bit.


def peaked_kernel(rng, size, pin_above, step_scale):
    """Kernel on 0..size+1 whose unimodal law peaks at the pin of a
    balance block of ``size`` states: state size above block 0..size-1,
    or state 1 below block 2..size+1, as stationary_eigen pins its blocks.

    The log profile falls away from the peak by random steps of scale
    ``step_scale``; a small scale makes a nearly neutral chain.  A law
    with a second mode beyond a deep valley would not do: its weight there
    hangs on flows far below the rounding of ``move`` near the pin, and
    neither solver, LU or cyclic reduction, recovers it.
    """
    steps = np.abs(rng.normal(scale=step_scale, size=size + 1))
    profile = np.concatenate(([0.0], np.cumsum(steps)))
    pin = size if pin_above else 1
    profile = -np.abs(profile - profile[pin])
    ratios = np.exp(np.diff(profile))
    scale = rng.uniform(0.2, 0.45)
    up = np.zeros(size + 2)
    down = np.zeros(size + 2)
    up[:-1] = scale * np.minimum(1.0, ratios)
    down[1:] = scale * np.minimum(1.0, 1.0 / ratios)
    return TransitionKernel(up=up, down=down)


def long_double_block(kernel, lo, hi, pin_above):
    """A block of a peaked_kernel solved by detailed balance in long double:
    psi[s] / psi[pin] as the product of the edge ratios between s and the pin."""
    up, down = kernel.up.astype(np.longdouble), kernel.down.astype(np.longdouble)
    if pin_above:
        return np.cumprod((down[lo + 1 : hi + 2] / up[lo : hi + 1])[::-1])[::-1]
    return np.cumprod(up[lo - 1 : hi] / down[lo : hi + 1])


# Sizes at and next to 2^k - 1, where the levels' sizes turn from odd to even.
POWER_EDGE_SIZES = sorted({2**k + d for k in range(1, 9) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None, database=None)
@given(
    size=st.one_of(st.sampled_from(POWER_EDGE_SIZES), st.integers(1, 300)),
    pin_above=st.booleans(),
    step_scale=st.floats(-4.0, math.log10(0.7)).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
def test_balance_block_matches_solve_banded(size, pin_above, step_scale, seed):
    from netsel.chain import _solve_balance_block

    kernel = peaked_kernel(np.random.default_rng(seed), size, pin_above, step_scale)
    lo, hi = (0, size - 1) if pin_above else (2, size + 1)
    got = _solve_balance_block(kernel, lo, hi, pin_above)
    expected = loop_balance_block(kernel, lo, hi, pin_above)
    assert got.shape == expected.shape == (size,)
    scale = np.abs(expected).max()
    assert np.abs(got - long_double_block(kernel, lo, hi, pin_above)).max() <= 1e-11 * scale
    if step_scale >= 1e-2:
        # Nearer neutral, a few hundred rows are conditioned like size^2:
        # solve_banded itself strays up to 2e-12 of the largest entry from
        # the long-double solution there (this solver 1.2e-12).
        assert np.abs(got - expected).max() <= 1e-12 * scale


# The figures' target x* = 0.68 at loads up to 90% of capacity.  Nearer
# capacity, or on flatter laws, the solve_banded route itself strays from
# the exact law by more than 1e-11 (the next test).
@settings(max_examples=24, deadline=None, database=None)
@given(
    n=st.sampled_from((10**3, 10**5)),
    ratio=st.sampled_from((0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)),
    anchors=st.integers(1, 3),
    arrival=st.sampled_from((10.0, 30.0, 50.0, 70.0, 90.0)),
)
@example(n=10**5, ratio=100.0, anchors=1, arrival=30.0)
@example(n=10**5, ratio=0.3, anchors=2, arrival=30.0)
def test_eigen_matches_the_solve_banded_route(n, ratio, anchors, arrival):
    params = calibrated_params(arrival)
    population = PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    kernel = build_kernel(params, population, fermi_from_ratio(params, n, ratio))
    assert total_variation(stationary_eigen(kernel), oracle_eigen(kernel)) <= 1e-11


# Flat laws at n = 10^5 spread over tens of thousands of states.  In TV
# from the long-double law, this route reads 2.1e-12, 5.2e-11 and 2.4e-11
# on these three, and the solve_banded route 1.7e-11, 1.4e-10 and 6.8e-11.
@pytest.mark.parametrize(
    "arrival, target, ratio, anchors",
    [(30.0, 0.68, 0.01, 1), (99.0, 0.5, 0.01, 3), (98.0, 0.15, 0.02, 3)],
)
def test_eigen_on_flat_laws_against_extended_precision(arrival, target, ratio, anchors):
    params = calibrated_params(arrival, target)
    n = 10**5
    population = PopulationConfig(n=n, anchored_primary=anchors, anchored_secondary=anchors)
    kernel = build_kernel(params, population, fermi_from_ratio(params, n, ratio))
    ratios = kernel.up[:-1].astype(np.longdouble) / kernel.down[1:].astype(np.longdouble)
    log_psi = np.concatenate(([0.0], np.cumsum(np.log(ratios))))
    exact = np.exp(log_psi - log_psi.max())
    exact /= exact.sum()
    assert float(0.5 * np.abs(stationary_eigen(kernel).psi - exact).sum()) <= 1e-10


def two_mode_kernel(depth, n=300):
    """Two equal modes at k = 0 and k = n, split by a valley e^-depth deep at n / 2."""
    x = np.arange(n + 1) / n
    ratios = np.exp(np.diff(-depth * np.exp(-(((x - 0.5) / 0.1) ** 2)) + 1e-3 * x))
    up, down = np.zeros(n + 1), np.zeros(n + 1)
    up[:n] = 0.3 * np.minimum(1.0, ratios)
    down[1:] = 0.3 * np.minimum(1.0, 1.0 / ratios)
    return TransitionKernel(up=up, down=down)


def test_eigen_refuses_a_second_mode_past_a_deep_valley():
    # Pinned at one mode, the solve carries its rounding through the valley
    # and the other mode comes out as zero: 0.5 off in TV, with no error.
    kernel = two_mode_kernel(40.0)
    with pytest.raises(ChainStructureError, match=r"falls 40\.0 .* rises 40\.0 past it"):
        stationary_eigen(kernel)
    assert stationary_product(kernel).kind == "product_form"


def test_eigen_still_solves_a_shallow_second_mode():
    # The solve reads 3.3e-10 in TV from the long-double law here, 1.3e-12
    # at depth 5; the bound on the rise, 12, lets it reach about 1.4e-9.
    kernel = two_mode_kernel(10.0)
    up, down = kernel.up.astype(np.longdouble), kernel.down.astype(np.longdouble)
    log_psi = np.concatenate(([0.0], np.cumsum(np.log(up[:-1] / down[1:]))))
    exact = np.exp(log_psi - log_psi.max())
    exact /= exact.sum()
    assert float(0.5 * np.abs(stationary_eigen(kernel).psi - exact).sum()) <= 1e-9


def test_eigen_rejects_absorbing_kernel():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), Fermi(beta=400.0))
    with pytest.raises(ChainStructureError):
        stationary_eigen(kernel)


def test_detailed_balance_residual_of_product_form():
    rng = np.random.default_rng(73)
    for _ in range(10):
        kernel = random_irreducible_kernel(rng, int(rng.integers(3, 60)))
        psi = stationary_product(kernel)
        assert detailed_balance_residual(kernel, psi) < 1e-12


# -- mode structure (anchored, one per side) -----------------------------------------


def test_mode_concentrates_on_critical_pair():
    rng = np.random.default_rng(83)
    for _ in range(50):
        params, n = random_calibrated(rng)
        population = PopulationConfig(n=n, anchored_primary=1, anchored_secondary=1)
        rule = fermi_from_ratio(params, n, float(rng.uniform(0.2, 20.0)))
        if rule.beta == 0.0:
            continue
        kernel = build_kernel(params, population, rule)
        distribution = stationary_product(kernel)
        k_star = critical_state(params, n)
        assert set(distribution_mode(distribution)) <= {k_star - 1, k_star}


def _gap_between_steps(params0, weight_low):
    """Price gap placing the payoff-difference magnitudes at the critical
    pair in a chosen proportion: weight_low = 0.5 balances them."""
    h6 = payoff_step(params0, 6, 10)
    h7 = payoff_step(params0, 7, 10)
    return weight_low * h6 + (1.0 - weight_low) * h7


@pytest.mark.parametrize(
    "weight_low,expected_mode",
    [
        (0.25, (7,)),  # advantage below k* outweighs the deficit at k*
        (0.5, (6, 7)),  # balanced magnitudes: exact tie
        (0.75, (6,)),  # deficit at k* dominates
    ],
)
def test_mode_three_way_case_split(weight_low, expected_mode):
    params0 = calibrated_params()
    gap = _gap_between_steps(params0, weight_low)
    params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    assert critical_state(params, 10) == 7
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, fermi_from_ratio(params, 10, 1.0))
    distribution = stationary_product(kernel)
    assert distribution_mode(distribution) == expected_mode


# -- absorption ---------------------------------------------------------------------


def test_absorption_from_boundaries_is_immediate():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), Fermi(beta=400.0))
    at_zero = absorption_analysis(kernel, 0)
    assert (at_zero.prob_absorb_at_0, at_zero.prob_absorb_at_n) == (1.0, 0.0)
    assert at_zero.expected_steps == 0.0
    at_n = absorption_analysis(kernel, 10)
    assert (at_n.prob_absorb_at_0, at_n.prob_absorb_at_n) == (0.0, 1.0)


def test_absorption_symmetric_walk_closed_form():
    # Unbiased walk on 0..4 with move probability 1/2 per event: from the
    # middle, ruin probability 1/2 and mean absorption time
    # k0 (n - k0) / (2p) = 8 events.
    up = np.array([0.0, 0.25, 0.25, 0.25, 0.0])
    down = np.array([0.0, 0.25, 0.25, 0.25, 0.0])
    kernel = TransitionKernel(up=up, down=down)
    result = absorption_analysis(kernel, 2)
    assert result.prob_absorb_at_0 == pytest.approx(0.5, rel=1e-12)
    assert result.prob_absorb_at_n == pytest.approx(0.5, rel=1e-12)
    assert result.expected_steps == pytest.approx(8.0, rel=1e-12)


def test_absorption_probabilities_complete_and_monotone():
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(n=10), fermi_from_ratio(params, 10, 1.0))
    previous = 0.0
    for k0 in range(11):
        result = absorption_analysis(kernel, k0)
        assert result.prob_absorb_at_0 + result.prob_absorb_at_n == pytest.approx(1.0, abs=1e-10)
        assert result.prob_absorb_at_n >= previous - 1e-12
        previous = result.prob_absorb_at_n


def test_absorption_rejects_irreducible_kernel():
    params = calibrated_params()
    kernel = build_kernel(
        params,
        PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1),
        Fermi(beta=100.0),
    )
    with pytest.raises(ChainStructureError, match="absorbing"):
        absorption_analysis(kernel, 5)


def test_absorption_rejects_bad_start():
    kernel = build_kernel(calibrated_params(), PopulationConfig(n=10), Fermi(beta=400.0))
    for initial in (11, -1, 2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="initial state"):
            absorption_analysis(kernel, initial)
    assert absorption_analysis(kernel, np.int64(4)) == absorption_analysis(kernel, 4)


def test_kernel_classifies_and_solves_its_absorption_table_once(monkeypatch):
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(n=12), fermi_from_ratio(params, 12, 1.0))
    calls = {"_classify": 0, "_eliminate": 0}
    for name in calls:

        def spy(*args, real=getattr(chain, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(chain, name, spy)
    min_rate, calls["_min_rate"] = TransitionKernel.__dict__["_min_rate"], 0

    def count_minima(kernel, real=min_rate.func):
        calls["_min_rate"] += 1
        return real(kernel)

    monkeypatch.setattr(min_rate, "func", count_minima)
    assert chain.long_run(kernel)[1] is None
    rows = np.array([dataclasses.astuple(absorption_analysis(kernel, k0)) for k0 in range(13)])
    table = absorption_table(kernel)
    assert table is kernel._absorption and table.shape == (13, 3)
    assert table.tobytes() == rows.tobytes()
    # The minimum rate is taken once, by the classification, and the
    # absorption refusal reads it.
    assert calls == {"_classify": 1, "_eliminate": 1, "_min_rate": 1}
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[5, 0] = 0.0
    fresh = dataclasses.replace(kernel, params=None)
    assert "_structure" not in vars(fresh) and "_absorption" not in vars(fresh)
    assert absorption_table(fresh).tobytes() == rows.tobytes()
    assert calls == {"_classify": 2, "_eliminate": 2, "_min_rate": 2}


# -- small tools ----------------------------------------------------------------------


def test_mode_of_uniform_is_everything():
    distribution = StationaryDistribution(psi=np.full(11, 1.0 / 11.0), kind="empirical")
    assert distribution_mode(distribution) == tuple(range(11))


def test_mode_accepts_bare_arrays():
    assert distribution_mode(np.array([0.2, 0.5, 0.3])) == (1,)


def test_total_variation_basics():
    a = np.zeros(5)
    a[0] = 1.0
    b = np.zeros(5)
    b[4] = 1.0
    assert total_variation(a, b) == 1.0
    assert total_variation(a, a) == 0.0
    with pytest.raises(ValueError):
        total_variation(a, np.ones(3) / 3.0)


def test_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        StationaryDistribution(psi=np.full(5, 0.1), kind="empirical")
    with pytest.raises(ValueError, match="negative"):
        StationaryDistribution(psi=np.array([0.6, 0.5, -0.1]), kind="empirical")
    with pytest.raises(ValueError, match="negative"):
        StationaryDistribution(psi=np.array([0.5, 0.5 + 1e-11, -1e-11]), kind="empirical")
    # A rounding-sized negative entry is clipped to zero.
    clipped = StationaryDistribution(psi=np.array([0.5, 0.5 + 1e-13, -1e-13]), kind="empirical")
    assert clipped.psi[2] == 0.0 and clipped.psi.min() == 0.0
    with pytest.raises(ValueError, match="kind"):
        StationaryDistribution(psi=np.full(4, 0.25), kind="guesswork")


psi_flaws = st.sampled_from([
    None, None, math.nan, 0.0, -0.0, -5e-324, 5e-324, -1e-13, -1e-6, math.inf, -math.inf, 1e308,
    "huge", "unnormalised", "within 1e-9", "past 1e-9",
])  # fmt: skip


@settings(max_examples=400, deadline=None, database=None)
@given(
    n=st.one_of(st.integers(1, 60), st.integers(1, 5000), st.integers(4090, 4200)),
    held=st.floats(0.0, 1.0),
    flaws=st.lists(st.tuples(psi_flaws, st.integers(0, 10**6)), max_size=3),
    kind=st.sampled_from(["product_form", "product_form", "eigenvector", "bogus"]),
    shape=st.sampled_from([None, None, None, "short", "matrix"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(4, 1.0, [("huge", 0), (math.inf, 4)], "product_form", None, 0)
@example(4, 1.0, [("huge", 1)], "product_form", None, 0)
@example(4, 1.0, [(-1e-13, 2)], "product_form", None, 0)
@example(4, 1.0, [(-0.0, 2)], "eigenvector", None, 0)
def test_law_keeps_its_validation(n, held, flaws, kind, shape, seed):
    rng = np.random.default_rng(seed)
    psi = rng.random(n + 1) * (rng.random(n + 1) < held)
    psi[rng.integers(n + 1)] += 1.0
    psi /= psi.sum()
    for flaw, where in flaws:
        k = where % (n + 1)
        with np.errstate(all="ignore"):
            if flaw == "huge":  # two entries whose sum overflows
                psi[k] = psi[(k + 1) % (n + 1)] = 1.7e308
            elif flaw == "unnormalised":
                psi *= 1.5
            elif flaw == "within 1e-9":
                psi *= 1.0 + 5e-10
            elif flaw == "past 1e-9":
                psi *= 1.0 + 2e-9
            elif flaw is not None:
                psi[k] = flaw
    if shape == "short":
        psi = psi[:1]
    elif shape == "matrix":
        psi = np.stack([psi, psi])
    same(outcome(StationaryDistribution, psi, kind), outcome(reference_law_post_init, psi, kind))


# -- loop references for the sliced array code ------------------------------------------
#
# classify's drain scans and the absorption assembly are built with slices;
# these element-wise loops are the reference they must match bit for bit.


def loop_drains(up, down):
    n = up.size - 1
    suffix_up = np.ones(n + 1, dtype=bool)
    for k in range(n - 1, -1, -1):
        suffix_up[k] = suffix_up[k + 1] and up[k] > 0.0
    prefix_down = np.ones(n + 1, dtype=bool)
    for k in range(1, n + 1):
        prefix_down[k] = prefix_down[k - 1] and down[k] > 0.0
    return all(suffix_up[k] or prefix_down[k] for k in range(1, n))


def loop_absorption_interior(kernel):
    up, down, n = kernel.up, kernel.down, kernel.n
    size = n - 1
    ab = np.zeros((3, size))
    rhs = np.zeros((size, 3))
    for j in range(1, n):
        r = j - 1
        ab[1, r] = up[j] + down[j]
        if r + 1 < size:
            ab[0, r + 1] = -up[j]
        if r - 1 >= 0:
            ab[2, r - 1] = -down[j]
        rhs[r, 2] = 1.0
    rhs[0, 0] = down[1]
    rhs[size - 1, 1] = up[n - 1]
    return solve_banded((1, 1), ab, rhs)


# -- the absorption solve against solve_banded ----------------------------------------
#
# chain._eliminate repeats LAPACK dgtsv's float operations on Python floats;
# scipy.linalg.solve_banded((1, 1), ...), which calls dgtsv (or divides
# once for a 1 x 1 system), is the reference, bit for bit.


def banded_reference(sub, diag, sup, rhs):
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = sup
    ab[1] = diag
    ab[2, :-1] = sub
    return solve_banded((1, 1), ab, rhs)


def eliminated(sub, diag, sup, rhs):
    return np.transpose(chain._eliminate(sub, diag, sup, [c.tolist() for c in rhs.T]))


# Either sign, magnitudes from 1e-6 to 1e7, and one value in five an exact zero.
band_values = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((-1.0, -1.0, 0.0, 1.0, 1.0)),
    st.floats(1.0, 10.0),
    st.integers(-6, 6),
)


@st.composite
def tridiagonal_systems(draw):
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    sub = draw(st.lists(band_values, min_size=m - 1, max_size=m - 1))
    # solve_banded divides a 1 x 1 system without a singularity check.
    diag = draw(st.lists(band_values.filter(bool) if m == 1 else band_values, min_size=m, max_size=m))
    sup = draw(st.lists(band_values, min_size=m - 1, max_size=m - 1))
    rhs = draw(st.lists(band_values, min_size=m * k, max_size=m * k))
    return sub, diag, sup, np.array(rhs).reshape(m, k)


@settings(max_examples=250, deadline=None, database=None)
@given(tridiagonal_systems())
# Rows swap at the only step, at the last of two, and at each of three.
@example(([4.0], [1.0, 2.0], [3.0], np.array([[1.0], [-2.0]])))
@example(([1.0, 4.0], [3.0, 1.0, 2.0], [5.0, 3.0], np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])))
@example(([5.0, 6.0, 7.0], [1.0, -1.0, 1.0, 2.0], [2.0, 3.0, 4.0], np.eye(4)[:, :3]))
def test_elimination_matches_solve_banded_bit_for_bit(system):
    sub, diag, sup, rhs = system
    try:
        expected = banded_reference(sub, diag, sup, rhs)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            eliminated(sub, diag, sup, rhs)
        return
    assert np.array_equal(eliminated(sub, diag, sup, rhs).view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None, database=None)
@given(
    n=st.integers(2, 300),
    ratio=st.one_of(st.just(0.0), st.floats(-2.0, 5.0).map(lambda e: 10.0**e)),
    arrival=st.floats(1.0, 99.0),
    target=st.floats(0.05, 0.95),
)
@example(n=2, ratio=1.0, arrival=30.0, target=0.68)  # solve_banded's own 1 x 1 branch
@example(n=200, ratio=1e5, arrival=30.0, target=0.68)
def test_absorption_solve_matches_solve_banded_bit_for_bit(n, ratio, arrival, target):
    params = calibrated_params(arrival, target)
    kernel = build_kernel(params, PopulationConfig(n=n), fermi_from_ratio(params, n, ratio))
    try:
        expected = loop_absorption_interior(kernel)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            chain._absorption_solve(kernel)
        return
    table = chain._absorption_solve(kernel)
    assert np.array_equal(table[1:n].view(np.int64), expected.view(np.int64))


def test_zero_pivot_is_singular_on_both_sides():
    # Absorbing, and nonsingular in exact arithmetic, but the first pivot
    # 0.5 + 1e-20 rounds to 0.5, so the second, 0.5 - 0.5 * 0.5 / 0.5, is 0.
    up = np.array([0.0, 0.5, 0.0, 0.0])
    down = np.array([0.0, 1e-20, 0.5, 0.0])
    kernel = TransitionKernel(up=up, down=down)
    assert classify(kernel).kind == "absorbing"
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        loop_absorption_interior(kernel)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        absorption_analysis(kernel, 1)
    assert absorption_analysis(kernel, 3).prob_absorb_at_n == 1.0
    zero = np.zeros((2, 1))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        banded_reference([0.0], [0.0, 1.0], [1.0], zero)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        eliminated([0.0], [0.0, 1.0], [1.0], zero)


def test_classify_drain_scan_matches_the_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(400):
        n = int(rng.integers(2, 9))
        up = np.where(rng.random(n + 1) < 0.7, 0.2, 0.0)
        down = np.where(rng.random(n + 1) < 0.7, 0.3, 0.0)
        up[0] = up[n] = down[0] = down[n] = 0.0
        kernel = TransitionKernel(up=up, down=down)
        expected = "absorbing" if loop_drains(up, down) else "other"
        assert classify(kernel).kind == expected
        seen.add(expected)
    assert seen == {"absorbing", "other"}


def test_sliced_banded_assembly_matches_the_loop():
    from netsel.chain import _absorption_solve

    for n in (2, 3, 7, 40):
        params = calibrated_params()
        absorbing = build_kernel(params, PopulationConfig(n=n), fermi_from_ratio(params, n, 1.0))
        table = _absorption_solve(absorbing)
        assert table[1:n].tobytes() == loop_absorption_interior(absorbing).tobytes()
        assert table[0].tolist() == [1.0, 0.0, 0.0] and table[n].tolist() == [0.0, 1.0, 0.0]


# -- loop references for the array kernel and expected PoA -------------------------------
#
# build_kernel and expected_poa evaluate every state in one array pass;
# the per-state loops they replaced are the reference, bit for bit.  The
# loop takes q from the rule's scalar formula, not from the rule object.


TANH_RULE = CustomRule(fn=lambda z: 0.5 + 0.5 * math.tanh(40.0 * z))

array_games = st.fixed_dictionaries(
    {
        "arrival": st.floats(1.0, 99.0),
        "target": st.floats(0.01, 1.0),
        "n": st.integers(2, 300),
        "lattice": st.booleans(),
        "anchored_primary": st.integers(0, 3),
        "anchored_secondary": st.integers(0, 3),
        "rule": st.one_of(
            st.just(0.0),
            st.floats(0.0, 50.0),
            st.just(2000.0),
            st.builds(PairwiseProportional, st.floats(1e-3, 1e3)),
            st.just(TANH_RULE),
        ),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def game_setup(game):
    n = game["n"]
    target = game["target"]
    if game["lattice"]:
        target = max(1, min(n, round(target * n))) / n  # x* = k/n exactly
    gap = calibrate_price_gap(100.0, game["arrival"], 1.0, target)
    params = NetworkParams(100.0, game["arrival"], 1.0, gap, 0.0)
    population = PopulationConfig(n, game["anchored_primary"], game["anchored_secondary"])
    rule = game["rule"]
    if isinstance(rule, float):
        rule = fermi_from_ratio(params, n, rule)
    return params, population, rule


@settings(max_examples=300, deadline=None, database=None)
@given(array_games)
def test_array_kernel_and_poa_match_the_loops(game):
    params, population, rule = game_setup(game)
    kernel = build_kernel(params, population, rule)
    up, down, stay, _ = loop_kernel(params, population, rule)
    assert np.array_equal(kernel.up, up)
    assert np.array_equal(kernel.down, down)
    assert np.array_equal(1.0 - kernel.up - kernel.down, stay)
    weights = np.random.default_rng(game["seed"]).random(population.n + 1)
    for psi in (weights / weights.sum(), np.full(population.n + 1, 1.0 / (population.n + 1))):
        assert expected_poa(params, psi) == loop_expected_poa(params, psi)


@pytest.mark.parametrize("n, k_star", [(10, 5), (10, 7), (40, 13), (300, 204)])
def test_array_kernel_snaps_lattice_ties_like_the_loop(n, k_star):
    gap = calibrate_price_gap(100.0, 30.0, 1.0, k_star / n)
    params = NetworkParams(100.0, 30.0, 1.0, gap, 0.0)
    population = PopulationConfig(n=n, anchored_primary=1)
    for rule in (PairwiseProportional(), fermi_from_ratio(params, n, 2000.0)):
        kernel = build_kernel(params, population, rule)
        up, down, stay, snapped = loop_kernel(params, population, rule)
        assert snapped == [k_star]
        stays = 1.0 - kernel.up - kernel.down
        assert (kernel.up.tobytes(), kernel.down.tobytes(), stays.tobytes()) == (
            up.tobytes(), down.tobytes(), stay.tobytes()
        )  # fmt: skip


def test_kernel_refuses_counts_beyond_exact_floats():
    params = calibrated_params()
    rule = Fermi(beta=1.0)
    # n * (n - 1 + a_p + a_s) = 2 * 2**52 = 2**53 is the largest exact size.
    edge = PopulationConfig(n=2, anchored_primary=2**52 - 1)
    kernel = build_kernel(params, edge, rule)
    up, down, stay, _ = loop_kernel(params, edge, rule)
    assert np.array_equal(kernel.up, up) and np.array_equal(kernel.down, down)
    with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
        build_kernel(params, PopulationConfig(n=2, anchored_primary=2**52), rule)
    with pytest.raises(ValueError, match=r"exceeds 2\*\*53"):
        build_kernel(params, PopulationConfig(n=10, anchored_secondary=10**16), rule)
