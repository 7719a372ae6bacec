"""netsel: the primary/secondary network selection game as a stochastic
imitation process.

A population of cognitive-radio users repeatedly chooses between a
priced licensed network and a free unlicensed one, imitating each other
under configurable decision noise.  The package computes the game's
equal-cost equilibrium and welfare measures (:mod:`netsel.model`), the
imitation rules (:mod:`netsel.protocols`), the induced birth-death
chain with its stationary and absorption analyses (:mod:`netsel.chain`),
the deterministic mean dynamics (:mod:`netsel.replicator`), and seeded
Monte Carlo simulation (:mod:`netsel.montecarlo`), all behind a CSV-
emitting command line (:mod:`netsel.cli`).

``import netsel`` runs only the numpy-free :mod:`netsel.model`; the array layers
load on first use (``importlib.util.LazyLoader``).  Python 3.11's LazyLoader has
no lock for a concurrent first access, and netsel starts no threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from . import model


def _lazy(name: str):
    """netsel.<name>, registered in sys.modules and run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = (model, *map(_lazy, ("protocols", "chain", "replicator", "montecarlo")))
protocols, chain, replicator, montecarlo = _LAYERS[1:]


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(public for layer in _LAYERS for public in layer.__all__)]
    for layer in _LAYERS:
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
