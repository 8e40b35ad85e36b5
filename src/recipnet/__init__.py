"""Reciprocal preferential attachment networks: simulation and analysis.

A directed graph grows one node and one edge per step, attaching by
degree preference with offset delta; the receiving side reciprocates
instantaneously with a probability depending on both endpoints'
behavioral groups. This package simulates the graph, solves the limiting
edge-fraction fixed point, samples the limiting joint in/out-degree law
through a branching-process embedding, and verifies the predicted
power-law tail indices and ray concentration empirically.

The names below load on first use (PEP 562), so ``import recipnet`` and
each CLI subcommand import only the modules they run.
"""

from importlib import import_module as _import_module

# bound now: a later import of the submodule recipnet.spectral would set the
# package attribute to the module, and __getattr__ is not asked once it is set
from .spectral import spectral

# module -> the names the package exports from it
_EXPORTS = {
    "params": ("BadDimensions", "BadSimplex", "ModelParams", "NonPositiveDelta",
               "NonProbability", "ParameterError", "group_rates", "validate_params"),
    "spectral": ("GroupSpectral", "all_spectra", "order_groups", "spectral"),
    "equilibrium": ("EquilibriumSolution", "NoConvergence", "build_jstar",
                    "solve_equilibrium"),
    "simulate": ("GraphState", "ResourceLimit", "SimConfig", "Trajectory",
                 "degree_histogram", "init_graph", "run", "step"),
    "branching": ("EventBudgetExceeded", "JointPmfEstimate", "estimate_pkl",
                  "sample_limit_pairs", "simulate_mbi_batch"),
    "embedding": ("EnumerationTooLarge", "embedding_chains", "enumerate_graph_law",
                  "verify_equivalence"),
    "tails": ("ConditionsUnmet", "DegenerateTail", "DegreeDataset", "EmptySelection",
              "GridMismatch", "InsufficientData", "NonPositiveValues", "PeelOptions",
              "angular_transform", "compare_pmf", "hill_estimator", "hrv_peel",
              "ray_distance", "tail_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
