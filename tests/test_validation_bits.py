"""Kernel and law validation against the code it replaced, bit for bit.

A kernel's validation measures its interior minima once, and its
classification and smallest rate read them; a law is accepted in two
passes; the noise-free route checks only the rates it builds.  Each
``previous_*`` function below is the code before that change, kept
verbatim except for the names of the previous functions it calls.  The
properties draw valid and invalid vectors (NaN, signed zeros, the smallest
subnormal, 1 + ulp, rows one ulp past 1, broken structural zeros,
infinities and huge finite rates) across the 4,096-state chunk seam, and
assert that both versions return the same bytes, or raise the same
exception type with the same message, and that no warning is raised where
the previous code raised none.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsel import chain
from netsel.chain import (
    _CHUNK,
    _DISTRIBUTION_KINDS,
    ChainClass,
    PopulationConfig,
    StationaryDistribution,
    TransitionKernel,
    _frozen,
    _readonly,
)
from netsel.model import NetworkParams, calibrate_price_gap
from netsel.protocols import CustomRule, Fermi, PairwiseProportional
from test_sweep_path_bits import anchors, economies, make_rule, rule_specs

# -- the previous code ---------------------------------------------------------


def previous_check_rates(up, down):
    """ValueError unless up and down are probabilities whose sum stays within 1."""
    for name, arr in (("up", up), ("down", down)):
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # false on a NaN too
            raise ValueError(f"{name} entries must be probabilities in [0, 1]")
    for lo in range(0, up.size, _CHUNK):
        if (1.0 - up[lo : lo + _CHUNK] - down[lo : lo + _CHUNK]).min() < 0.0:
            raise ValueError("rows must sum to 1: up + down exceeds 1 at some state")


def previous_kernel_post_init(up, down):
    """TransitionKernel.__post_init__ on (up, down); returns the vectors it would keep."""
    up, down = _frozen(up), _frozen(down)
    if up.shape != down.shape or up.ndim != 1 or up.size < 3:
        raise ValueError("up/down must be equal-length vectors over k = 0..n with n >= 2")
    previous_check_rates(up, down)
    if up[-1] != 0.0 or down[0] != 0.0:
        raise ValueError("structural zeros violated: need up[n] == 0 and down[0] == 0")
    return _readonly(up), _readonly(down)


def previous_min_rate(self):
    population, rule = self.population, self.rule
    if self.params is None or population is None or rule is None or rule.log_pair is None:
        return math.inf
    up = self.up[0 if population.anchored_primary else 1 : self.n]
    down = self.down[1 : self.n + 1 if population.anchored_secondary else self.n]
    return float(min(up.min(), down.min()))


def previous_classify(kernel):
    up, down = kernel.up, kernel.down
    n = kernel.n
    # Rates are never NaN, so a positive minimum means every move is possible.
    if up[:n].min() > 0.0 and down[1:].min() > 0.0:
        return ChainClass(kind="irreducible", detail="all interior moves possible")
    up_pos, down_pos = up > 0.0, down > 0.0
    positive = previous_min_rate(kernel) < math.inf
    if positive:  # every interior weight is positive, and a boundary one only with an anchor
        up_pos[1:n] = down_pos[1:n] = True
        up_pos[0] = kernel.population.anchored_primary > 0
        down_pos[n] = kernel.population.anchored_secondary > 0
        if up_pos[0] and down_pos[n]:
            return ChainClass(
                kind="irreducible",
                detail="all interior moves possible; some rates underflow to 0 in float",
            )
    if not up_pos[0] and not down_pos[n]:
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
    zero_up = np.flatnonzero(~up_pos[:n]).tolist()
    zero_down = (np.flatnonzero(~down_pos[1:]) + 1).tolist()
    return ChainClass(
        kind="other",
        detail=f"blocked up moves at k={zero_up}, blocked down moves at k={zero_down}",
    )


def previous_law_post_init(psi, kind):
    """StationaryDistribution.__post_init__ on (psi, kind); returns the vector it would keep."""
    if kind not in _DISTRIBUTION_KINDS:
        raise ValueError(f"kind must be one of {_DISTRIBUTION_KINDS}, got {kind!r}")
    psi = _frozen(psi)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError("psi must be a vector over at least two states")
    if not np.isfinite(psi).all():
        raise ValueError("psi entries must be finite")
    if psi.min() < 0.0:
        if psi.min() < -1e-12:
            raise ValueError(f"negative probability in psi: min entry {psi.min()!r}")
        psi = np.clip(psi, 0.0, None)
    if abs(float(psi.sum()) - 1.0) > 1e-9:
        raise ValueError(f"psi must sum to 1, got {float(psi.sum())!r}")
    return _readonly(psi)


# -- what a call gave ----------------------------------------------------------------


def bits(value):
    """A value's bytes: arrays, kernels and laws by their vectors, floats by their bits."""
    if isinstance(value, TransitionKernel):
        return bits(value.up), bits(value.down)
    if isinstance(value, StationaryDistribution):
        return bits(value.psi)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes(), value.flags.writeable
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def outcome(fn, *args):
    """(the bits of fn(*args) or the type and message of what it raised, the
    set of (category, message) of the warnings it raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = bits(fn(*args))
        except Exception as exc:
            result = type(exc), str(exc)
    return result, {(w.category, str(w.message)) for w in caught}


def same(new, old):
    """Same result, and no warning that the previous code did not raise."""
    assert new[0] == old[0]
    assert new[1] <= old[1]


# -- what the properties draw --------------------------------------------------------

# Across the seam of the 4,096-state chunks.
sizes = st.one_of(st.integers(2, 60), st.integers(2, 5000), st.integers(4090, 4200))
ULP = 2.0**-52
SPECIALS = [
    math.nan, 0.0, -0.0, -5e-324, 5e-324, 1.0, 1.0 + ULP, math.inf, -math.inf, 1e308, -1e308, 0.25
]
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


# -- the properties ----------------------------------------------------------------------


@settings(max_examples=400, deadline=None, database=None)
@given(vectors=rate_vectors(), a_p=anchors, a_s=anchors, built=st.booleans())
@example((np.array([0.0, 0.5, 1e308, 0.0]), np.array([0.0, 0.5, 1e308, 0.0])), 1, 1, False)
@example((np.array([0.0, 0.5, 0.0]), np.array([0.0, np.nextafter(0.5, 1.0), 0.0])), 0, 0, True)
@example((np.array([0.0, math.nan, 0.0]), np.array([0.0, 0.5, -1.0])), 0, 0, False)
@example((np.array([0.0, 0.5, 0.0]), np.array([0.0, math.nan, 0.0])), 1, 1, True)
@example((np.array([0.0, 0.5, 0.1]), np.array([0.0, 0.5, 0.0])), 1, 1, True)
@example((np.array([0.0, 0.5, -0.0]), np.array([-0.0, 0.5, 0.0])), 1, 1, True)
def test_kernel_keeps_its_validation_class_and_smallest_rate(vectors, a_p, a_s, built):
    up, down = vectors
    n = up.size - 1
    same(outcome(TransitionKernel, up, down), outcome(previous_kernel_post_init, up, down))
    try:
        record = (NetworkParams(100.0, 30.0), PopulationConfig(n, a_p, a_s), Fermi(beta=1.0))
        kernel = TransitionKernel(up, down, *record) if built else TransitionKernel(up, down)
    except ValueError:
        return
    assert chain.classify(kernel) == previous_classify(kernel)
    assert bits(kernel._min_rate) == bits(previous_min_rate(kernel))


@settings(max_examples=200, deadline=None, database=None)
@given(params=economies, n=sizes, a_p=anchors, a_s=anchors, spec=rule_specs)
@example(NetworkParams(100.0, 30.0), 5000, 1, 1, ("ratio", 2000.0))
@example(NetworkParams(100.0, 30.0), 4096, 1, 1, ("ratio", 1.0))
def test_built_kernel_keeps_its_class_and_smallest_rate(params, n, a_p, a_s, spec):
    try:
        with np.errstate(all="ignore"):
            kernel = chain.build_kernel(
                params, PopulationConfig(n, a_p, a_s), make_rule(spec, params, n) or Fermi(1.0)
            )
    except ValueError:
        return
    assert chain.classify(kernel) == previous_classify(kernel)
    assert bits(kernel._min_rate) == bits(previous_min_rate(kernel))


@settings(max_examples=300, deadline=None, database=None)
@given(vectors=rate_vectors(structural=False), cut=st.integers(0, 3))
def test_check_rates_keeps_its_verdict_and_message(vectors, cut):
    up, down = (arr[cut:] for arr in vectors)  # a chunk of the noise-free route, at any offset
    if up.size == 0:
        return
    new = outcome(chain._check_rates, up, down)
    old = outcome(previous_check_rates, up, down)
    if new[0] == bits((up, down)):  # accepted: the rates come back as they were
        new = None, new[1]
    same(new, old)


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
    same(outcome(StationaryDistribution, psi, kind), outcome(previous_law_post_init, psi, kind))


def test_the_plain_irreducible_class_is_one_value():
    vectors = [([0.2, 0.3, 0.0], [0.0, 0.1, 0.4]), ([0.1, 0.1, 0.0], [0.0, 0.1, 0.1])] * 2
    classes = [chain.classify(TransitionKernel(*map(np.array, pair))) for pair in vectors]
    assert classes[0] == ChainClass(kind="irreducible", detail="all interior moves possible")
    assert all(structure is classes[0] for structure in classes)


# -- the noise-free route checks only the rates it builds ------------------------------


def noise_free_economy():
    gap = calibrate_price_gap(100.0, 30.0, 1.0, 0.68)
    return NetworkParams(100.0, 30.0, 1.0, gap, 0.0)


@pytest.mark.parametrize("n", [10, 5000])
def test_long_run_does_not_recheck_a_noise_free_kernel(monkeypatch, n):
    params, population = noise_free_economy(), PopulationConfig(n, 1, 2)
    kernel = chain.build_kernel(params, population, PairwiseProportional())
    calls = []

    def spy(up, down, real=chain._check_rates):
        calls.append(up.size)
        return real(up, down)

    monkeypatch.setattr(chain, "_check_rates", spy)
    structure, law = chain.long_run(kernel)
    assert structure.kind == "other" and calls == []
    # stationary_noise_free checks each chunk it builds, and gives the same law.
    free = chain.stationary_noise_free(params, population)
    assert calls == [min(_CHUNK, n + 1 - lo) for lo in range(0, n + 1, _CHUNK)]
    assert free.psi.tobytes() == law.psi.tobytes()


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
    params, population = noise_free_economy(), PopulationConfig(50)
    with pytest.raises(ValueError) as refused:
        chain.stationary_noise_free(params, population, rule)
    assert str(refused.value) == message
    with pytest.raises(ValueError) as before:
        previous_check_rates(*chain._rates(params, population, rule)(0, 51))
    assert str(before.value) == message
