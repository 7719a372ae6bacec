"""How many n-sized arrays each large-n stage keeps alive, and the bits it gives.

A stage's peak is read with tracemalloc, which counts numpy's buffers and
Python objects alike, as the most memory held at once during the call
beyond what was held before it, result included, in units of one float64
vector over the states k = 0..n.  The caps are the peaks this code reaches
on the anchored chain at n = 2 * 10^5, with a little room for the Python
objects a call makes.
"""

import hashlib
import struct
import tracemalloc

import pytest

from netsel.chain import (
    PopulationConfig,
    build_kernel,
    stationary_eigen,
    stationary_noise_free,
    stationary_product,
)
from netsel.model import NetworkParams, calibrate_price_gap, expected_poa
from netsel.protocols import fermi_from_ratio

N = 200_000


def economy(arrival=30.0):
    return NetworkParams(100.0, arrival, 1.0, calibrate_price_gap(100.0, arrival, 1.0, 0.68), 0.0)


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
    params = economy()
    population = PopulationConfig(N, 1, 1)
    rule = fermi_from_ratio(params, N, 1.0)
    return params, population, rule


def test_build_kernel_keeps_its_arrays_few(chain):
    kernel, peak = peak_arrays(N, build_kernel, *chain)
    assert peak <= 5.25
    assert "stay" not in vars(kernel)  # derived on first use only


def test_stationary_laws_and_poa_keep_their_arrays_few(chain):
    params, population, rule = chain
    kernel = build_kernel(params, population, rule)
    kernel._structure  # classify once, outside the measured calls
    product, peak = peak_arrays(N, stationary_product, kernel)
    assert peak <= 2.01
    _, peak = peak_arrays(N, stationary_eigen, kernel)
    assert peak <= 4.1
    _, peak = peak_arrays(N, expected_poa, params, product)
    assert peak <= 1.1
    _, peak = peak_arrays(N, stationary_noise_free, params, population)
    assert peak <= 5.2


# Recorded before the stages were changed to reuse their buffers: the bytes
# of the kernel's four arrays, the product, eigenvector and noise-free laws
# and the expected PoA under each, on two economies at n = 10^5.
LARGE_N_SHA256 = "0867b4eba7fb5b47ea4a2de76dcaac9d0629448d09b1045b3e3a72c3e4376792"


def test_large_n_outputs_keep_their_bits():
    n = 100_000
    digest = hashlib.sha256()
    for arrival in (30.0, 70.0):
        params = economy(arrival)
        population = PopulationConfig(n, 1, 1)
        kernel = build_kernel(params, population, fermi_from_ratio(params, n, 1.0))
        laws = (
            stationary_product(kernel),
            stationary_eigen(kernel),
            stationary_noise_free(params, population),
        )
        for arr in (kernel.up, kernel.down, kernel.stay, kernel.move, *(law.psi for law in laws)):
            digest.update(arr.tobytes())
        for law in laws:
            digest.update(struct.pack("<d", expected_poa(params, law)))
    assert digest.hexdigest() == LARGE_N_SHA256
