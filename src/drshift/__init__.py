"""Density-ratio-weighted robust classification with calibrated uncertainties
under covariate shift, plus self-training and consistency-based
semi-supervised loops built on top of it.
"""

from .calibration import (
    CalibrationReport,
    ReliabilityBin,
    brier,
    calibration_report,
    ece,
    fit_temperature,
    miscls_entropy,
    nll,
)
from .data import (
    SOURCE,
    TARGET,
    AugmentationSpec,
    Dataset,
    GaussianShiftSpec,
    augment_batch,
    dataset_from_arrays,
    default_shift_spec,
    generate_gaussian_shift,
    load_csv,
    save_csv,
)
from .domain import DomainClassifier, bce_loss, default_domain_classifier
from .errors import ConfigError, ContractError, CsvParseError, DivergenceError
from .features import (
    FeatureMap,
    feature_map_from_json,
    feature_map_to_json,
    identity_map,
    init_mlp,
)
from .kde import KdeModel, kde_log_density, plugin_ratio, run_plugin_simulation
from .robust import (
    RobustClassifier,
    SourceGradient,
    TrainConfig,
    checkpoint_from_json,
    checkpoint_to_json,
    class_scores,
    default_classifier,
    dual_objective,
    feature_constraint,
    grad_source,
    predict_proba,
    target_predictions,
    train_end_to_end,
    train_erm,
)
from .selftrain import SelfTrainSchedule, run_drst, select_pseudo
from .semisup import SslConfig, run_drssl

__version__ = "0.1.0"
