"""Canonical recipes for the 2-D covariate-shift benchmark, and the builders
that turn a recipe into a run.

The recipes are the default experiment configurations the CLI runs and the
acceptance suite checks. Each method carries its own training recipe; the
shared data spec is the default Gaussian shift. The ratio clamp differs by
recipe: the calibration run keeps the wide default clamp, while the
self-training and semi-supervised loops clamp near 1, which is the regime
where ratio-weighted gradient updates stay stable at this scale.

The builders below apply every default and seed offset a recipe does not
hold; the CLI calls them with its config laid over a recipe, the trials
with the recipes as they are.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .calibration import calibration_report, fit_temperature
from .data import (
    SOURCE,
    AugmentationSpec,
    dataset_from_arrays,
    default_shift_spec,
    generate_gaussian_shift,
    split_indices,
)
from .domain import default_domain_classifier
from .errors import ConfigError, ContractError
from .robust import (
    TrainConfig,
    _softmax_lse,
    _train_pass,
    class_scores,
    default_classifier,
    target_predictions,
    train_erm,
)
from .selftrain import SelfTrainSchedule, run_drst
from .semisup import SslConfig, run_drssl

CALIBRATION_RECIPE = {
    "r": 0.5,
    "ratio_bounds": (1e-3, 1e3),
    "lr_domain": 0.002,
    "lr_model": 0.05,
    "momentum": 0.9,
    "batch_size": 64,
    "epochs": 400,
}

SELF_TRAIN_RECIPE = {
    "r": 1.0,
    "ratio_bounds": (0.9, 1.11),
    "lr_domain": 0.02,
    "lr_model": 0.02,
    "momentum": 0.9,
    "batch_size": 64,
    "epochs": 100,
    "rounds": 5,
}

SEMI_SUP_RECIPE = {
    "r": 0.5,
    "ratio_bounds": (0.5, 2.0),
    "lr_domain": 0.002,
    "lr_model": 0.02,
    "momentum": 0.9,
    "batch_size": 16,
    "epochs": 40,
    "threshold": 0.95,
    "loss_weight": 1.0,
    "unlabeled_batch": 16,
    "weak_noise_std": 0.1,
    "strong_noise_std": 0.6,
    "strong_mask_fraction": 0.0,
    "labeled_count": 40,
}


def _pick(recipe, keys):
    return {key: recipe[key] for key in keys if key in recipe}


@contextmanager
def _in_section(section):
    """Prefix a ConfigError raised inside the block with the config section."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _train_config(recipe, seed):
    """TrainConfig of a recipe; batches shuffle at seed, and keys the recipe
    omits keep the TrainConfig defaults."""
    keys = ("lr_domain", "lr_model", "momentum", "batch_size", "epochs", "domain_update_period")
    with _in_section("train"):
        return TrainConfig(**_pick(recipe, keys), seed=seed)


def ssl_config(recipe, base):
    """SslConfig of a recipe over the TrainConfig base; its augmentation
    stream draws at base.seed + 60."""
    with _in_section("ssl"):
        return SslConfig(
            threshold=recipe["threshold"],
            unlabeled_batch=recipe["unlabeled_batch"],
            loss_weight=recipe["loss_weight"],
            augmentation=AugmentationSpec(
                weak_noise_std=recipe["weak_noise_std"],
                strong_noise_std=recipe["strong_noise_std"],
                strong_mask_fraction=recipe["strong_mask_fraction"],
                seed=base.seed + 60,
            ),
            base=base,
        )


def self_train_schedule(recipe):
    """SelfTrainSchedule of a recipe; keys it omits keep the schedule defaults."""
    with _in_section("schedule"):
        return SelfTrainSchedule(**_pick(recipe, ("p0", "dp", "pmax", "rounds")))


def initial_models(recipe, dim, class_count, seed):
    """Initial classifier (initialised at seed) and domain net (at seed + 1),
    both clamped to the recipe's ratio bounds."""
    bounds = tuple(recipe["ratio_bounds"])
    clf = default_classifier(
        dim, class_count, seed=seed, r=recipe["r"], ratio_bounds=bounds,
        **_pick(recipe, ("hidden", "feature_dim")),
    )
    return clf, default_domain_classifier(dim, seed=seed + 1, ratio_bounds=bounds)


def temperature_split(logits, labels, seed, split):
    """Temperature fitted on the head of split_indices at seed + 7, and the
    remaining eval rows."""
    fit_idx, eval_idx = split_indices(len(labels), split, np.random.default_rng(seed + 7))
    return fit_temperature(logits[fit_idx], labels[fit_idx]), eval_idx


def class_balanced_subset(dataset, n_total, seed):
    """Pick an equal number of samples per class, ordered by original index."""
    rng = np.random.default_rng(seed)
    per = n_total // dataset.class_count
    idxs = []
    for c in range(dataset.class_count):
        pool = np.flatnonzero(dataset.y == c)
        if pool.size < per:
            raise ContractError(
                f"class {c} has only {pool.size} samples, need {per} for the labeled subset"
            )
        idxs.extend(rng.choice(pool, size=per, replace=False).tolist())
    idxs = sorted(idxs)
    return dataset_from_arrays(dataset.X[idxs], dataset.y[idxs], SOURCE, dataset.class_count)


def calibration_trial(seed):
    """Train the robust model and the source-only baseline on one seeded shift.

    Temperature scaling is fit on half of the labeled target data; every
    model is scored on the other half. Returns per-model CalibrationReports.
    """
    recipe = CALIBRATION_RECIPE
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    cfg = _train_config(recipe, seed)
    clf0, dom0 = initial_models(recipe, source.dim, source.class_count, seed + 100)
    clf, dom, _ = _train_pass(source, target, clf0, dom0, cfg)
    erm, _ = train_erm(source, cfg)

    logits = class_scores(erm, target.X)
    temperature, eval_idx = temperature_split(logits, target.y, seed, 0.5)
    probs_drl, _ = target_predictions(clf, dom, target)
    probs_erm, _ = target_predictions(erm, None, target)
    probs_ts, _ = _softmax_lse(logits[eval_idx] / temperature)
    y_eval = target.y[eval_idx]
    return {
        "drl": calibration_report(probs_drl[eval_idx], y_eval),
        "erm": calibration_report(probs_erm[eval_idx], y_eval),
        "ts": calibration_report(probs_ts, y_eval),
    }


def erm_baseline(seed):
    """Source-only baseline trained with the calibration recipe, scored on
    the full target set."""
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    erm, _ = train_erm(source, _train_config(CALIBRATION_RECIPE, seed))
    probs, _ = target_predictions(erm, None, target)
    return {"report": calibration_report(probs, target.y)}


def self_training_trial(seed, variant="full"):
    """One seeded self-training run; variant is full, unit_ratio (no domain
    net, all ratios 1), or no_reg (r = 0)."""
    recipe = SELF_TRAIN_RECIPE
    if variant == "no_reg":
        recipe = {**recipe, "r": 0.0}
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    clf0, dom0 = initial_models(recipe, source.dim, source.class_count, seed)
    dom0 = None if variant == "unit_ratio" else dom0
    cfg = _train_config(recipe, seed)
    clf, dom, _ = run_drst(source, target, self_train_schedule(recipe), cfg, clf0, dom0)
    probs, _ = target_predictions(clf, dom, target)
    return {"report": calibration_report(probs, target.y)}


def semi_supervised_trial(seed, baseline=False):
    """One seeded consistency-training run with few labeled source samples.

    baseline=True runs the identical loop with no domain net (unit ratios)
    and r = 0, i.e. plain softmax confidences.
    """
    recipe = SEMI_SUP_RECIPE
    if baseline:
        recipe = {**recipe, "r": 0.0}
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    labeled = class_balanced_subset(source, recipe["labeled_count"], seed + 50)
    clf0, dom0 = initial_models(recipe, source.dim, source.class_count, seed)
    cfg = ssl_config(recipe, _train_config(recipe, seed))
    clf, dom, _ = run_drssl(labeled, target, cfg, clf0, None if baseline else dom0)
    probs, _ = target_predictions(clf, dom, target)
    return {"report": calibration_report(probs, target.y)}
