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

from .chain import (
    AbsorptionResult,
    ChainClass,
    ChainStructureError,
    PopulationConfig,
    StationaryDistribution,
    TransitionKernel,
    absorption_analysis,
    absorption_table,
    build_kernel,
    classify,
    detailed_balance_residual,
    distribution_mode,
    long_run,
    stationary_eigen,
    stationary_noise_free,
    stationary_product,
    total_variation,
)
from .model import (
    EquilibriumInfo,
    NetworkParams,
    calibrate_price_gap,
    critical_state,
    equilibrium,
    expected_poa,
    poa_absorbing,
    poa_at,
    social_optimum,
    social_welfare,
    utility_primary,
    utility_primary_at_share,
    utility_secondary,
)
from .montecarlo import (
    AbsorptionFrequency,
    OccupancyHistogram,
    RunResult,
    SimulationSpec,
    absorption_frequency,
    run,
    step,
)
from .protocols import (
    CustomRule,
    Fermi,
    ImitationRule,
    PairwiseProportional,
    beta_reference,
    fermi_from_ratio,
)
from .replicator import (
    IntegrationResult,
    ReplicatorState,
    integrate,
    mean_dynamics_rhs,
    replicator_rhs,
)

__all__ = [
    "__version__",
    # model
    "NetworkParams",
    "EquilibriumInfo",
    "utility_primary",
    "utility_primary_at_share",
    "utility_secondary",
    "equilibrium",
    "critical_state",
    "calibrate_price_gap",
    "social_welfare",
    "social_optimum",
    "poa_at",
    "poa_absorbing",
    "expected_poa",
    # protocols
    "ImitationRule",
    "PairwiseProportional",
    "Fermi",
    "CustomRule",
    "beta_reference",
    "fermi_from_ratio",
    # chain
    "ChainStructureError",
    "PopulationConfig",
    "TransitionKernel",
    "ChainClass",
    "StationaryDistribution",
    "AbsorptionResult",
    "build_kernel",
    "classify",
    "stationary_noise_free",
    "stationary_product",
    "stationary_eigen",
    "absorption_analysis",
    "absorption_table",
    "long_run",
    "distribution_mode",
    "total_variation",
    "detailed_balance_residual",
    # replicator
    "ReplicatorState",
    "IntegrationResult",
    "replicator_rhs",
    "mean_dynamics_rhs",
    "integrate",
    # montecarlo
    "SimulationSpec",
    "OccupancyHistogram",
    "RunResult",
    "AbsorptionFrequency",
    "step",
    "run",
    "absorption_frequency",
]
