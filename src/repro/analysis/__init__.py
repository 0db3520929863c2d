"""Analysis: experiment harness, figure reproduction, and §6 heuristics.

``scenarios``     the three application problems at reproducible scale
``experiments``   cached sweeps over (algorithm, rank count, seeding)
``report``        paper-style figure tables from sweep results
``claims``        the paper's §5 claims, checked on the reproduction grid
``heuristics``    §6 decision guidelines as an executable recommender
"""

from repro.analysis.scenarios import (
    DATASETS,
    SEEDINGS,
    make_problem,
    scenario_machine,
)
from repro.analysis.experiments import (
    ExperimentKey,
    RunSummary,
    clear_cache,
    run_experiment,
    sweep_dataset,
)
from repro.analysis.report import figure_table, format_series
from repro.analysis.heuristics import (
    ProblemTraits,
    recommend_algorithm,
    traits_of_problem,
)
from repro.analysis.validation import (
    convergence_study,
    curve_deviation,
    observed_order,
)

__all__ = [
    "DATASETS",
    "convergence_study",
    "curve_deviation",
    "observed_order",
    "ExperimentKey",
    "ProblemTraits",
    "RunSummary",
    "SEEDINGS",
    "clear_cache",
    "figure_table",
    "format_series",
    "make_problem",
    "recommend_algorithm",
    "run_experiment",
    "scenario_machine",
    "sweep_dataset",
    "traits_of_problem",
]
