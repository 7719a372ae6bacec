"""The single long-run entry point agrees with the routes it dispatches to."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsel import chain
from netsel.chain import (
    _CHUNK,
    ChainStructureError,
    PopulationConfig,
    TransitionKernel,
    absorption_analysis,
    absorption_table,
    build_kernel,
    classify,
    long_run,
    stationary_noise_free,
    stationary_product,
)
from netsel.protocols import PairwiseProportional, fermi_from_ratio
from oracle import bits, calibrated_params, outcome

games = st.fixed_dictionaries(
    {
        "arrival": st.floats(1.0, 99.0),
        "target": st.floats(0.05, 1.0),
        "n": st.integers(2, 60),
        "anchored_primary": st.integers(0, 1),
        "anchored_secondary": st.integers(0, 1),
        "ratio": st.one_of(st.none(), st.floats(0.0, 50.0)),
    }
)


@settings(max_examples=300, deadline=None, database=None)
@given(games)
def test_long_run_matches_the_direct_routes(game):
    params, n = calibrated_params(game["arrival"], game["target"]), game["n"]
    population = PopulationConfig(
        n=n,
        anchored_primary=game["anchored_primary"],
        anchored_secondary=game["anchored_secondary"],
    )
    if game["ratio"] is None:
        rule = PairwiseProportional()
    else:
        rule = fermi_from_ratio(params, n, game["ratio"])
    kernel = build_kernel(params, population, rule)
    structure = classify(kernel)
    if structure.kind == "irreducible":
        direct = bits(stationary_product(kernel))  # the product form never refuses
    elif structure.kind == "absorbing":
        direct = None
    else:
        direct = outcome(stationary_noise_free, params, population, rule)[0]
    result = outcome(long_run, kernel)[0]
    if structure.kind == "other" and isinstance(direct[0], type):  # the noise-free route raised
        assert issubclass(direct[0], ValueError) and result[0] is direct[0]
        return
    assert result == (structure, direct)
    if structure.kind != "absorbing":
        return
    table = outcome(absorption_table, kernel)[0]
    if isinstance(table[0], type):
        assert issubclass(table[0], ValueError)
        assert outcome(absorption_analysis, kernel, 1)[0] == table
        return
    rows = np.array([dataclasses.astuple(absorption_analysis(kernel, k0)) for k0 in range(n + 1)])
    assert table == (rows.dtype.str, (n + 1, 3), rows.tobytes(), False)  # read-only


def test_long_run_classifies_once(monkeypatch):
    params = calibrated_params()
    population = PopulationConfig(n=10, anchored_primary=1, anchored_secondary=1)
    kernel = build_kernel(params, population, fermi_from_ratio(params, 10, 1.0))
    calls, minima = [], []
    real = chain._classify
    monkeypatch.setattr(chain, "_classify", lambda k: calls.append(k) or real(k))
    min_rate = chain.TransitionKernel.__dict__["_min_rate"]
    monkeypatch.setattr(min_rate, "func", lambda k, real=min_rate.func: minima.append(k) or real(k))
    structure, law = long_run(kernel)
    assert structure.kind == "irreducible" and law.kind == "product_form"
    # The public classify and every later analysis read the kernel's class,
    # and its minimum rate, which the first product form took.
    assert chain.classify(kernel) is structure
    chain.stationary_eigen(kernel)
    assert chain.stationary_product(kernel).psi.tobytes() == law.psi.tobytes()
    assert len(calls) == 1 and len(minima) == 1


@pytest.mark.parametrize("n", [10, 5000])
def test_long_run_does_not_recheck_a_noise_free_kernel(monkeypatch, n):
    params, population = calibrated_params(), PopulationConfig(n, 1, 2)
    kernel = build_kernel(params, population, PairwiseProportional())
    calls = []

    def spy(up, down, real=chain._check_rates):
        calls.append(up.size)
        return real(up, down)

    monkeypatch.setattr(chain, "_check_rates", spy)
    structure, law = long_run(kernel)
    assert structure.kind == "other" and calls == []
    # stationary_noise_free checks each chunk it builds, and gives the same law.
    free = stationary_noise_free(params, population)
    assert calls == [min(_CHUNK, n + 1 - lo) for lo in range(0, n + 1, _CHUNK)]
    assert free.psi.tobytes() == law.psi.tobytes()


def test_long_run_needs_params_for_a_one_way_kernel():
    up = np.array([0.0, 0.2, 0.0, 0.0])
    down = np.array([0.0, 0.0, 0.0, 0.3])
    kernel = TransitionKernel(up=up, down=down)
    assert classify(kernel).kind == "other"
    with pytest.raises(ChainStructureError, match="network parameters"):
        long_run(kernel)


def test_absorption_table_rejects_irreducible_kernel():
    up = np.array([0.2, 0.2, 0.2, 0.0])
    down = np.array([0.0, 0.3, 0.3, 0.3])
    kernel = TransitionKernel(up=up, down=down)
    with pytest.raises(ChainStructureError, match="absorbing"):
        absorption_table(kernel)
