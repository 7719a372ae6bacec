"""The single long-run entry point agrees with the routes it dispatches to."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsel.chain import (
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
from netsel.model import NetworkParams, calibrate_price_gap
from netsel.protocols import PairwiseProportional, fermi_from_ratio


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


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
    gap = calibrate_price_gap(100.0, game["arrival"], 1.0, game["target"])
    params = NetworkParams(100.0, game["arrival"], 1.0, gap, 0.0)
    population = PopulationConfig(
        n=game["n"],
        anchored_primary=game["anchored_primary"],
        anchored_secondary=game["anchored_secondary"],
    )
    if game["ratio"] is None:
        rule = PairwiseProportional()
    else:
        rule = fermi_from_ratio(params, game["n"], game["ratio"])
    kernel = build_kernel(params, population, rule)
    structure = classify(kernel)
    if structure.kind == "irreducible":
        direct = stationary_product(kernel)
    elif structure.kind == "absorbing":
        direct = None
    else:
        direct = outcome(stationary_noise_free, params, population, rule)
    result = outcome(long_run, kernel)
    if isinstance(direct, type):
        assert result is direct
        return
    got_class, law = result
    assert got_class == structure
    if direct is None:
        assert law is None
    else:
        assert law.kind == direct.kind
        assert law.psi.tobytes() == direct.psi.tobytes()
    if structure.kind != "absorbing":
        return
    table = outcome(absorption_table, kernel)
    if isinstance(table, type):
        assert outcome(absorption_analysis, kernel, 1) is table
        return
    assert table.shape == (population.n + 1, 3) and not table.flags.writeable
    for k0, row in enumerate(table):
        expected = np.array(dataclasses.astuple(absorption_analysis(kernel, k0)))
        assert row.tobytes() == expected.tobytes()


def test_long_run_classifies_once(monkeypatch):
    import netsel.chain as chain

    params = NetworkParams(100.0, 30.0, 1.0, calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
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
