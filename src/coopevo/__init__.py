"""Cooperative coevolution for large-scale black-box optimization.

The package splits a high-dimensional problem into low-dimensional
sub-problems with known structure, then optimizes them cooperatively
against a shared context vector. Two optimizers are provided: a
surrogate-assisted one that screens trial sub-solutions with per-sub-problem
cubic radial basis models and only re-evaluates the most promising few, and
a traditional baseline that evaluates every trial against the simulation
model. A benchmark suite with controllable separability structure and an
experiment harness round out the library.
"""

__version__ = "0.1.0"

from .benchmarks import (
    BASES,
    BenchmarkFunction,
    Group,
    get_function,
    make_separable,
    make_suite,
    suite_manifest,
)
from .decomposition import Decomposition, embed, ideal_decompose
from .harness import (
    ExperimentConfig,
    SummaryRow,
    cohens_d,
    compare_algorithms,
    effect_label,
    export_convergence,
    fes_to_match,
    mean_curve,
    run_experiment,
)
from .rbf import RbfModel, TrainingArchive, TrainingError, train_surrogate
from .runtime import (
    BudgetExhausted,
    ContextState,
    CooperativeRun,
    FeBudget,
    RunParams,
    RunRecord,
)
from .shade import (
    ParameterMemory,
    mutate_crossover,
    pbest_fraction,
    sample_params,
)
from .shade_cc import ShadeCC
from .surrogate_cc import SurrogateCC, initialization_cost

__all__ = [
    "BASES",
    "BenchmarkFunction",
    "BudgetExhausted",
    "ContextState",
    "CooperativeRun",
    "Decomposition",
    "ExperimentConfig",
    "FeBudget",
    "Group",
    "ParameterMemory",
    "RbfModel",
    "RunParams",
    "RunRecord",
    "ShadeCC",
    "SummaryRow",
    "SurrogateCC",
    "TrainingArchive",
    "TrainingError",
    "cohens_d",
    "compare_algorithms",
    "effect_label",
    "embed",
    "export_convergence",
    "fes_to_match",
    "get_function",
    "ideal_decompose",
    "initialization_cost",
    "make_separable",
    "make_suite",
    "mean_curve",
    "mutate_crossover",
    "pbest_fraction",
    "run_experiment",
    "sample_params",
    "suite_manifest",
    "train_surrogate",
]
