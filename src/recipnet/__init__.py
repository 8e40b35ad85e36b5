"""Reciprocal preferential attachment networks: simulation and analysis.

A directed graph grows one node and one edge per step, attaching by
degree preference with offset delta; the receiving side reciprocates
instantaneously with a probability depending on both endpoints'
behavioral groups. This package simulates the graph, solves the limiting
edge-fraction fixed point, samples the limiting joint in/out-degree law
through a branching-process embedding, and verifies the predicted
power-law tail indices and ray concentration empirically.
"""

from .params import (
    BadDimensions,
    BadSimplex,
    ModelParams,
    NonPositiveDelta,
    NonProbability,
    ParameterError,
    group_rates,
    validate_params,
)
from .spectral import GroupSpectral, all_spectra, order_groups, spectral
from .equilibrium import (
    EquilibriumSolution,
    NoConvergence,
    build_jstar,
    solve_equilibrium,
)
from .simulate import (
    GraphState,
    ResourceLimit,
    SimConfig,
    Trajectory,
    degree_histogram,
    init_graph,
    run,
    step,
)
from .branching import (
    EventBudgetExceeded,
    JointPmfEstimate,
    estimate_pkl,
    sample_limit_pairs,
    simulate_mbi_batch,
)
from .embedding import (
    EnumerationTooLarge,
    embedding_chains,
    enumerate_graph_law,
    verify_equivalence,
)
from .tails import (
    ConditionsUnmet,
    DegenerateTail,
    DegreeDataset,
    EmptySelection,
    GridMismatch,
    InsufficientData,
    NonPositiveValues,
    PeelOptions,
    angular_transform,
    compare_pmf,
    hill_estimator,
    hrv_peel,
    ray_distance,
    tail_report,
)

__version__ = "0.1.0"
