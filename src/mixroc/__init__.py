"""mixroc: ROC curve estimation with Gaussian mixtures and Monte Carlo ensembles.

The package provides three estimators on a shared false-positive-rate
grid: the empirical curve, the crude binormal curve, and a mixture-based
Monte Carlo ensemble estimate with confidence bands, together with AUC
and pAUC summaries.
"""

from .binormal import BinormalParams, binormal_auc, binormal_curve, fit_binormal
from .datasets import (
    DatasetError,
    FprGrid,
    LabeledDataset,
    PopulationTag,
    ScoreSample,
    from_arrays,
    load_dataset,
    load_two_files,
    make_refined_grid,
    make_uniform_grid,
    save_dataset,
)
from .ensemble import MgConfig, MgEnsembleResult, mg_pipeline, run_mg
from .gmm import (
    EmCollapseError,
    EmConfig,
    GmmModel,
    bic,
    fit_em,
    pdf,
    sample_from,
    select_k,
    survival,
    survival_inverse,
)
from .report import Report, compare_table
from .roc import (
    RocCurveGrid,
    auc_mann_whitney,
    auc_trapezoid,
    auc_trapezoid_points,
    empirical_roc,
    empirical_roc_points,
    functional_roc,
    pauc,
)

__version__ = "0.1.0"

__all__ = [
    "BinormalParams",
    "DatasetError",
    "EmCollapseError",
    "EmConfig",
    "FprGrid",
    "GmmModel",
    "LabeledDataset",
    "MgConfig",
    "MgEnsembleResult",
    "PopulationTag",
    "Report",
    "RocCurveGrid",
    "ScoreSample",
    "auc_mann_whitney",
    "auc_trapezoid",
    "auc_trapezoid_points",
    "bic",
    "binormal_auc",
    "binormal_curve",
    "compare_table",
    "empirical_roc",
    "empirical_roc_points",
    "fit_binormal",
    "fit_em",
    "from_arrays",
    "functional_roc",
    "load_dataset",
    "load_two_files",
    "make_refined_grid",
    "make_uniform_grid",
    "mg_pipeline",
    "pauc",
    "pdf",
    "run_mg",
    "sample_from",
    "save_dataset",
    "select_k",
    "survival",
    "survival_inverse",
]
