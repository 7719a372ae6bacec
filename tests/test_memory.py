"""How many n-sized arrays each large-n stage keeps alive, and the bits it gives.

A stage's peak is read with tracemalloc, which counts numpy's buffers and
Python objects alike, as the most memory held at once during the call
beyond what was held before it, result included, in units of one float64
vector over the states k = 0..n.  The caps are the peaks this code reaches
on the anchored chain at n = 2 * 10^5, with a little room for the Python
objects a call makes.
"""

import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from netsel import model
from netsel.chain import (
    ChainStructureError,
    PopulationConfig,
    _log_profile,
    build_kernel,
    detailed_balance_residual,
    stationary_eigen,
    stationary_noise_free,
    stationary_product,
    total_variation,
)
from netsel.model import expected_poa
from netsel.protocols import CustomRule, PairwiseProportional, fermi_from_ratio
from oracle import calibrated_params, reference_build_kernel, reference_log_profile

N = 200_000


def peak_arrays(n, fn, *args):
    """fn(*args) and the most n-sized float64 arrays it held at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - before) / (8 * (n + 1))


@pytest.fixture(scope="module")
def chain():
    params = calibrated_params()
    population = PopulationConfig(N, 1, 1)
    rule = fermi_from_ratio(params, N, 1.0)
    return params, population, rule


def test_build_kernel_keeps_its_arrays_few(chain):
    kernel, peak = peak_arrays(N, build_kernel, *chain)
    assert peak <= 2.25
    assert "move" not in vars(kernel)  # derived on first use only


def test_stationary_laws_and_poa_keep_their_arrays_few(chain):
    params, population, rule = chain
    kernel = build_kernel(params, population, rule)
    kernel._structure  # classify once, outside the measured calls
    product, peak = peak_arrays(N, stationary_product, kernel)
    assert peak <= 2.01
    eigen, peak = peak_arrays(N, stationary_eigen, kernel)
    assert peak <= 3.0
    _, peak = peak_arrays(N, expected_poa, params, product)
    assert peak <= 0.25
    _, peak = peak_arrays(N, stationary_noise_free, params, population)
    assert peak <= 1.25
    _, peak = peak_arrays(N, detailed_balance_residual, kernel, product)
    assert peak <= 1.1
    _, peak = peak_arrays(N, total_variation, product, eigen)
    assert peak <= 1.1
    assert "move" not in vars(kernel)  # the balance solve adds its own slices


def test_the_log_domain_product_form_keeps_its_arrays_few():
    # At ratio 10^5 the Fermi q underflows to 0 at nearly every step, and
    # each such step takes the log-domain value.
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(N, 1, 1), fermi_from_ratio(params, N, 1e5))
    assert kernel._structure.kind == "irreducible" and kernel._min_rate == 0.0
    _, peak = peak_arrays(N, stationary_product, kernel)
    assert peak <= 2.25


# Recorded before the stages were changed to reuse their buffers: the bytes
# of the kernel's four arrays, the product, eigenvector and noise-free laws
# and the expected PoA under each, on two economies at n = 10^5.
LARGE_N_SHA256 = "0867b4eba7fb5b47ea4a2de76dcaac9d0629448d09b1045b3e3a72c3e4376792"


def test_large_n_outputs_keep_their_bits():
    n = 100_000
    digest = hashlib.sha256()
    for arrival in (30.0, 70.0):
        params = calibrated_params(arrival)
        population = PopulationConfig(n, 1, 1)
        kernel = build_kernel(params, population, fermi_from_ratio(params, n, 1.0))
        laws = (
            stationary_product(kernel),
            stationary_eigen(kernel),
            stationary_noise_free(params, population),
        )
        stay = 1.0 - kernel.up - kernel.down
        for arr in (kernel.up, kernel.down, stay, kernel.move, *(law.psi for law in laws)):
            digest.update(arr.tobytes())
        for law in laws:
            digest.update(struct.pack("<d", expected_poa(params, law)))
    assert digest.hexdigest() == LARGE_N_SHA256


CHUNK = model._CHUNK
RULES = {
    "proportional": PairwiseProportional(),
    "fermi": fermi_from_ratio(calibrated_params(), 2 * CHUNK, 1.0),
    "custom": CustomRule(lambda z: min(1.0, 40.0 * z) if z > 0.0 else 0.0),
}


# At n = 6,023 the critical pair {4095, 4096} straddles the first two chunks.
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 6023, 2 * CHUNK + 3])
@pytest.mark.parametrize("rule", list(RULES.values()), ids=list(RULES))
def test_chunked_rates_keep_the_one_pass_bits(n, rule):
    params = calibrated_params()
    population = PopulationConfig(n, 1, 2)
    up, down = reference_build_kernel(params, population, rule)
    kernel = build_kernel(params, population, rule)
    assert (kernel.up.tobytes(), kernel.down.tobytes()) == (up.tobytes(), down.tobytes())
    k = model.critical_state(params, n)
    if down[1:k].any() or up[k:].any():
        with pytest.raises(ChainStructureError, match="rule is not noise-free"):
            stationary_noise_free(params, population, rule)
        return
    psi = np.zeros(n + 1)
    psi[k - 1] = down[k] / (up[k - 1] + down[k])
    psi[k] = 1.0 - psi[k - 1]
    assert stationary_noise_free(params, population, rule).psi.tobytes() == psi.tobytes()


# At n = 2 * 10^4 the underflowed steps fill all five chunks at ratio 10^5,
# and chunks 0-2 and 4 at ratio 2000 with anchors (1, 2).  At n = CHUNK + 1
# the last step, from n - 1 to n, is the only one in its chunk.
@pytest.mark.parametrize(
    "n, ratio, anchors",
    [(20_000, 1e5, (1, 1)), (20_000, 2000.0, (1, 2)), (CHUNK + 1, 1e5, (2, 1))],
)
def test_chunked_log_domain_steps_keep_the_one_pass_bits(n, ratio, anchors):
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(n, *anchors), fermi_from_ratio(params, n, ratio))
    assert kernel._min_rate < np.finfo(float).tiny  # the log-domain branch
    assert _log_profile(kernel).tobytes() == reference_log_profile(kernel).tobytes()


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_chunked_diagnostics_keep_the_one_pass_values(n):
    params = calibrated_params()
    kernel = build_kernel(params, PopulationConfig(n, 1, 1), RULES["fermi"])
    rng = np.random.default_rng(n)
    q = rng.random(n + 1)
    q /= q.sum()
    for spike in (0, CHUNK - 1, CHUNK, n):  # the largest flow at each end of a chunk
        p = rng.random(n + 1)
        p[min(spike, n)] += n
        p /= p.sum()
        flows = p[:-1] * kernel.up[:-1] - p[1:] * kernel.down[1:]
        assert detailed_balance_residual(kernel, p) == float(np.abs(flows).max())
        assert total_variation(p, q) == 0.5 * float(np.abs(p - q).sum())


@dataclasses.dataclass(frozen=True)
class EdgeLeak(PairwiseProportional):
    """The proportional rule, but for switches of 1e-3 where the gain lies
    beyond ``cut``: down moves above a positive cut, up moves below a negative one."""

    cut: float = 0.0

    def pair(self, payoff_diffs):
        q_up, q_down = super().pair(payoff_diffs)
        if self.cut > 0.0:
            q_down[payoff_diffs > self.cut] = 1e-3
        else:
            q_up[payoff_diffs < self.cut] = 1e-3
        return q_up, q_down


# At n = 2 * CHUNK + 3 the leak sits below state 5, in the first chunk, or
# above state n - 3, in the last.
@pytest.mark.parametrize("state", [5, 2 * CHUNK])
def test_noise_free_sees_a_move_away_in_any_chunk(state):
    params, n = calibrated_params(), 2 * CHUNK + 3
    cut = model.utility_primary(params, state, n) - model.utility_secondary(params)
    with pytest.raises(ChainStructureError, match="rule is not noise-free"):
        stationary_noise_free(params, PopulationConfig(n, 1, 2), EdgeLeak(cut=cut))
