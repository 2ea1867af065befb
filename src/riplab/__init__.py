"""Restricted isometry certification and clique-based hardness experiments.

The package has six modules: dense symmetric linear algebra (`linalg`),
exact and lazy restricted-isometry certification (`certify`), seeded
counter-based random models (`randgen`), the graph-to-matrix reduction with
its distinguishing experiments (`reduction`), text/JSON persistence
(`fileio`) and the command line (`cli`).
"""

from .certify import (
    BudgetExceededError,
    LazyCertificate,
    RipReport,
    UnitColumnError,
    Witness,
    coherence,
    exact_rip,
    lazy_certify,
    lift_order,
    subset_deviation,
)
from .fileio import VERSION as __version__
from .randgen import (
    Graph,
    PlantedInstance,
    Seed,
    gen_bernoulli_sensing,
    gen_gnp_half,
    gen_model_a,
    gen_model_b,
    plant_clique,
)
from .reduction import (
    ExperimentReport,
    ReductionParams,
    block_compose,
    cholesky_reduce,
    clique_witness,
    run_distinguishing_experiment,
    signed_adjacency,
    spectral_clique_refuter,
    verify_violation,
)

__all__ = [
    "BudgetExceededError",
    "ExperimentReport",
    "Graph",
    "LazyCertificate",
    "PlantedInstance",
    "ReductionParams",
    "RipReport",
    "Seed",
    "UnitColumnError",
    "Witness",
    "block_compose",
    "cholesky_reduce",
    "clique_witness",
    "coherence",
    "exact_rip",
    "gen_bernoulli_sensing",
    "gen_gnp_half",
    "gen_model_a",
    "gen_model_b",
    "lazy_certify",
    "lift_order",
    "plant_clique",
    "run_distinguishing_experiment",
    "signed_adjacency",
    "spectral_clique_refuter",
    "subset_deviation",
    "verify_violation",
]
