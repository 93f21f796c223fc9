"""Nominal association measures and categorical feature selection.

The package computes the expected-confusion association matrix of
proportional prediction, its per-category accuracy-lift vector, and
simplex-weighted global association measures (including the Goodman-Kruskal
tau) for categorical data, and applies them to supervised and unsupervised
variable selection, proportional-prediction evaluation, pairwise variable
equivalence, and stratified bootstrap uncertainty estimates.
"""

from .association import (
    AssociationMatrix,
    AssociationVector,
    MarginalStats,
    WeightVector,
    association_matrix,
    association_vector,
    equal_weights,
    expected_concentration,
    goodman_kruskal_tau,
    goodman_kruskal_weights,
    inverse_probability_weights,
    marginal_stats,
    resolve_weights,
    tau_for,
    weighted_tau,
)
from .dataset import (
    CategoricalDataset,
    CompositeVariable,
    ContingencyTable,
    VariableMeta,
    compose,
    compress,
    contingency,
    expand_to_unit_rows,
    from_scenarios,
    load_delimited,
    split,
)
from .equivalence import (
    EquivalenceLevel,
    EquivalenceReport,
    Witness,
    check,
    hierarchy_scan,
)
from .errors import (
    DataError,
    DroppedLevelsWarning,
    HierarchyInconsistencyError,
    NomassocError,
    ParseError,
)
from .prediction import (
    ConfusionMatrix,
    ProportionalPredictor,
    expected_confusion,
    fit,
    predict_and_score,
)
from .resampling import (
    BootstrapSummary,
    bootstrap,
    make_reduction_statistic,
    reduction_statistic,
)
from .scenarios import (
    FluScenarioConfig,
    flu_population_distribution,
    flu_population_tables,
    generate_flu,
)
from .selection import (
    BasisReport,
    SelectionConfig,
    SelectionResult,
    SelectionStep,
    select_structural,
    select_supervised,
    verify_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationMatrix",
    "AssociationVector",
    "BasisReport",
    "BootstrapSummary",
    "CategoricalDataset",
    "CompositeVariable",
    "ConfusionMatrix",
    "ContingencyTable",
    "DataError",
    "DroppedLevelsWarning",
    "EquivalenceLevel",
    "EquivalenceReport",
    "FluScenarioConfig",
    "HierarchyInconsistencyError",
    "MarginalStats",
    "NomassocError",
    "ParseError",
    "ProportionalPredictor",
    "SelectionConfig",
    "SelectionResult",
    "SelectionStep",
    "VariableMeta",
    "WeightVector",
    "Witness",
    "association_matrix",
    "association_vector",
    "bootstrap",
    "check",
    "compose",
    "compress",
    "contingency",
    "equal_weights",
    "expand_to_unit_rows",
    "expected_concentration",
    "expected_confusion",
    "fit",
    "flu_population_distribution",
    "flu_population_tables",
    "from_scenarios",
    "generate_flu",
    "goodman_kruskal_tau",
    "goodman_kruskal_weights",
    "hierarchy_scan",
    "inverse_probability_weights",
    "load_delimited",
    "make_reduction_statistic",
    "marginal_stats",
    "predict_and_score",
    "reduction_statistic",
    "resolve_weights",
    "select_structural",
    "select_supervised",
    "split",
    "tau_for",
    "verify_basis",
    "weighted_tau",
]
