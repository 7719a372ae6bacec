"""The package namespace: one public name list, taken from the submodules'."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_a_star_import_binds_every_public_name_and_dir_lists_them():
    namespace = {}
    exec("from netsel import *", namespace)
    for name in netsel.__all__:
        assert namespace[name] is getattr(netsel, name), name
    assert set(netsel.__all__) <= set(dir(netsel))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'netsel' has no attribute 'no_such_name'$"):
        netsel.no_such_name


def test_the_population_config_has_one_home_and_one_integer_check():
    assert chain.PopulationConfig is model.PopulationConfig is netsel.PopulationConfig
    assert "PopulationConfig" in model.__all__ and "PopulationConfig" not in chain.__all__
    assert model.PopulationConfig(n=np.int64(5), anchored_primary=np.uint8(1)).n == 5
    for bad in (dict(n=True), dict(n=5, anchored_secondary=False), dict(n=5.0)):
        with pytest.raises(ValueError):
            model.PopulationConfig(**bad)


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


# perfbench's tracer imports netsel.cli, then looks up each name it traces
# in the layer modules with a getattr that has no default: a layer module
# that netsel.cli no longer loads, or a traced name renamed or removed,
# kills every traced benchmark run.
TRACING = """
import sys
sys.path.insert(0, sys.argv[1])
import netsel.cli
import tracing
for layer, names in tracing.TRACED.items():
    module = sys.modules[f"netsel.{layer}"]
    for name in names:
        assert callable(getattr(module, name)), f"{layer}.{name}"
tracer = tracing.Tracer()
tracer.install()
from netsel import model, replicator
params = model.NetworkParams(100.0, 30.0, 1.0, model.calibrate_price_gap(100.0, 30.0, 1.0, 0.68), 0.0)
result = replicator.integrate(params, 0.2)
assert tracer.counts == {"replicator.integrate.samples": len(result.trajectory)}, tracer.counts
"""


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACING, str(root / "perfbench")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
