"""The package namespace: one public name list, taken from the submodules'."""

import netsel
from netsel import chain, model, montecarlo, protocols, replicator
from netsel.chain import PopulationConfig, build_kernel, stationary_product
from netsel.model import NetworkParams, calibrate_price_gap
from netsel.montecarlo import SimulationSpec
from netsel.protocols import Fermi

SUBMODULES = (model, protocols, chain, replicator, montecarlo)


def test_public_names_are_the_submodules_names():
    assert len(set(netsel.__all__)) == len(netsel.__all__)
    union = {name for module in SUBMODULES for name in module.__all__}
    assert set(netsel.__all__) == {"__version__"} | union


def test_each_public_name_is_the_submodule_object():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(netsel, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_the_single_event_step_is_not_public():
    assert "step" not in netsel.__all__
    assert not hasattr(netsel, "step")
    assert not hasattr(montecarlo, "step")


def test_array_holding_results_compare_and_hash_by_identity():
    # Field-wise == would compare arrays, whose truth value is ambiguous,
    # and hash() would hash them; two equal-input builds are two objects.
    params = NetworkParams(100.0, 30.0, 1.0, calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
    population = PopulationConfig(n=8, anchored_primary=1, anchored_secondary=1)
    spec = SimulationSpec(seed=3, steps=200, replicas=2, initial_state=4)

    def results():
        kernel = build_kernel(params, population, Fermi(beta=40.0))
        sampled = montecarlo.run(spec, kernel, trajectory_decimation=50)
        integrated = replicator.integrate(params, 0.2)
        return kernel, stationary_product(kernel), sampled, sampled.histogram, integrated

    for a, b in zip(results(), results()):
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__
