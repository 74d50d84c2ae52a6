"""Canonical recipes for the 2-D covariate-shift benchmark.

These are the default experiment configurations the CLI runs and the
acceptance suite checks. Each method carries its own training recipe; the
shared data spec is the default Gaussian shift. The ratio clamp differs by
recipe: the calibration run keeps the wide default clamp, while the
self-training and semi-supervised loops clamp near 1, which is the regime
where ratio-weighted gradient updates stay stable at this scale.
"""

from __future__ import annotations

import numpy as np
from scipy.special import softmax

from .calibration import calibration_report, fit_temperature
from .data import (
    SOURCE,
    AugmentationSpec,
    dataset_from_arrays,
    default_shift_spec,
    generate_gaussian_shift,
)
from .domain import default_domain_classifier
from .robust import (
    TrainConfig,
    class_scores,
    default_classifier,
    target_predictions,
    train_end_to_end,
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


def _train_config(recipe, seed):
    return TrainConfig(
        lr_domain=recipe["lr_domain"],
        lr_model=recipe["lr_model"],
        momentum=recipe["momentum"],
        batch_size=recipe["batch_size"],
        epochs=recipe["epochs"],
        seed=seed,
    )


def class_balanced_subset(dataset, n_total, seed):
    """Pick an equal number of samples per class, ordered by original index."""
    from .errors import ContractError

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


def calibration_trial(seed, recipe=None, n_bins=5):
    """Train the robust model and the source-only baseline on one seeded shift.

    Temperature scaling is fit on half of the labeled target data; every
    model is scored on the other half. Returns per-model CalibrationReports
    plus the fitted temperature.
    """
    recipe = recipe or CALIBRATION_RECIPE
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    cfg = _train_config(recipe, seed)
    clf0 = default_classifier(
        source.dim, source.class_count, seed=seed + 100, r=recipe["r"],
        ratio_bounds=recipe["ratio_bounds"],
    )
    dom0 = default_domain_classifier(
        source.dim, seed=seed + 101, ratio_bounds=recipe["ratio_bounds"]
    )
    clf, dom, history = train_end_to_end(source, target, clf0, dom0, cfg)
    erm, _ = train_erm(source, cfg)

    rng = np.random.default_rng(seed + 7)
    perm = rng.permutation(len(target))
    half = len(target) // 2
    fit_idx, eval_idx = perm[:half], perm[half:]
    logits = class_scores(erm, target.X)
    temperature = fit_temperature(logits[fit_idx], target.y[fit_idx])

    probs_drl, _ = target_predictions(clf, dom, target)
    probs_erm, _ = target_predictions(erm, None, target)
    probs_ts = softmax(logits[eval_idx] / temperature, axis=1)
    y_eval = target.y[eval_idx]
    return {
        "drl": calibration_report(probs_drl[eval_idx], y_eval, n_bins),
        "erm": calibration_report(probs_erm[eval_idx], y_eval, n_bins),
        "ts": calibration_report(probs_ts, y_eval, n_bins),
        "temperature": temperature,
        "models": (clf, dom, erm),
        "history": history,
        "target": target,
        "eval_idx": eval_idx,
    }


def erm_baseline(seed, recipe=None):
    """Source-only baseline trained with the calibration recipe, scored on
    the full target set."""
    recipe = recipe or CALIBRATION_RECIPE
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    cfg = _train_config(recipe, seed)
    erm, _ = train_erm(source, cfg)
    probs, _ = target_predictions(erm, None, target)
    return {"report": calibration_report(probs, target.y), "model": erm, "target": target}


def self_training_trial(seed, variant="full", recipe=None):
    """One seeded self-training run; variant is full, unit_ratio, or no_reg."""
    recipe = recipe or SELF_TRAIN_RECIPE
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    cfg = _train_config(recipe, seed)
    r = 0.0 if variant == "no_reg" else recipe["r"]
    unit_ratio = variant == "unit_ratio"
    clf0 = default_classifier(
        source.dim, source.class_count, seed=seed, r=r, ratio_bounds=recipe["ratio_bounds"]
    )
    dom0 = default_domain_classifier(source.dim, seed=seed + 1, ratio_bounds=recipe["ratio_bounds"])
    schedule = SelfTrainSchedule(rounds=recipe["rounds"])
    clf, dom, history = run_drst(
        source, target, schedule, cfg, r=r, clf=clf0, dom=dom0, unit_ratio=unit_ratio
    )
    probs, _ = target_predictions(clf, dom, target, unit_ratio=unit_ratio)
    return {
        "report": calibration_report(probs, target.y),
        "history": history,
        "models": (clf, dom),
        "target": target,
    }


def semi_supervised_trial(seed, baseline=False, recipe=None):
    """One seeded consistency-training run with few labeled source samples.

    baseline=True runs the identical loop with unit ratios and r = 0, i.e.
    plain softmax confidences.
    """
    recipe = recipe or SEMI_SUP_RECIPE
    source, target, _ = generate_gaussian_shift(default_shift_spec(seed=seed))
    labeled = class_balanced_subset(source, recipe["labeled_count"], seed + 50)
    cfg = SslConfig(
        threshold=recipe["threshold"],
        unlabeled_batch=recipe["unlabeled_batch"],
        loss_weight=recipe["loss_weight"],
        augmentation=AugmentationSpec(
            weak_noise_std=recipe["weak_noise_std"],
            strong_noise_std=recipe["strong_noise_std"],
            strong_mask_fraction=recipe["strong_mask_fraction"],
            seed=seed + 60,
        ),
        base=_train_config(recipe, seed),
    )
    r = 0.0 if baseline else recipe["r"]
    clf0 = default_classifier(
        source.dim, source.class_count, seed=seed, r=r, ratio_bounds=recipe["ratio_bounds"]
    )
    dom0 = default_domain_classifier(source.dim, seed=seed + 1, ratio_bounds=recipe["ratio_bounds"])
    clf, dom, history = run_drssl(
        labeled, target, cfg, r=r, clf=clf0, dom=dom0, unit_ratio=baseline
    )
    probs, _ = target_predictions(clf, dom, target, unit_ratio=baseline)
    return {
        "report": calibration_report(probs, target.y),
        "history": history,
        "models": (clf, dom),
        "target": target,
    }
