"""The package namespace: one public name list, taken from the submodules'."""

import netsel
from netsel import chain, model, montecarlo, protocols, replicator

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
