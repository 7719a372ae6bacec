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
"""

__version__ = "0.1.0"

from . import chain, model, montecarlo, protocols, replicator
from .chain import *
from .model import *
from .montecarlo import *
from .protocols import *
from .replicator import *

__all__ = [
    "__version__",
    *model.__all__,
    *protocols.__all__,
    *chain.__all__,
    *replicator.__all__,
    *montecarlo.__all__,
]
