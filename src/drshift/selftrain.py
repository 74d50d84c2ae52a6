"""Self-training for unsupervised adaptation: each round re-solves the robust
learning problem, then merges class-balanced confident target predictions
into the source set under a growing portion schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import calibration_report
from .data import Dataset
from .errors import ConfigError, ContractError
from .robust import _train_pass, target_predictions


@dataclass
class SelfTrainSchedule:
    p0: float = 0.065
    dp: float = 0.0085
    pmax: float = 0.165
    rounds: int = 5

    def __post_init__(self):
        if not 0.0 <= self.p0 <= self.pmax <= 1.0:
            raise ConfigError("need 0 <= p0 <= pmax <= 1")
        if self.dp < 0:
            raise ConfigError("dp must be >= 0")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")

    def portion(self, t):
        return min(self.p0 + t * self.dp, self.pmax)


def select_pseudo(preds, portion):
    """Sorted target indices of a class-balanced selection of the most
    confident predictions; a selected row's pseudo-label is its argmax.

    For every class c, the ceil(portion * N_c) highest-confidence targets
    whose argmax is c are selected (N_c = number of targets predicted as c),
    ties broken by lower target index. Each target appears at most once.
    """
    if not 0.0 <= portion <= 1.0:
        raise ContractError("portion must lie in [0, 1]")
    P = np.asarray(preds, dtype=float)
    if P.shape[0] == 0:
        return np.zeros(0, dtype=int)
    labels, conf = P.argmax(axis=1), P.max(axis=1)
    chosen = []
    for c in range(P.shape[1]):
        idx = np.flatnonzero(labels == c)
        chosen.append(idx[np.lexsort((idx, -conf[idx]))][: math.ceil(portion * idx.size)])
    return np.sort(np.concatenate(chosen))


def _augmented_source(source, target, idx, labels):
    """The source plus the target rows idx, labeled labels and tagged as target."""
    return Dataset(
        np.concatenate([source.X, target.X[idx]]),
        np.concatenate([source.y, labels]),
        np.concatenate([source.is_source, np.zeros(len(idx), dtype=bool)]),
        source.class_count,
        name=source.name,
    )


def run_drst(source, target, schedule, cfg, clf, dom=None):
    """Iterated robust self-training from the initial models clf and dom.

    One end-to-end training pass runs first; each round t then selects a
    portion(t) of confident targets per class (test-mode predictions),
    rebuilds the augmented source as original source plus freshly selected
    pseudo-labeled targets (earlier selections are discarded, not
    accumulated), and retrains from the current models. Pseudo-labeled
    targets keep their target domain tag, so the domain classifier keeps
    seeing them as target inputs. dom=None runs every pass at unit ratios
    with no domain step (plain softmax confidences). The test-mode
    predictions after each pass serve both its evaluation and the next
    round's selection. Each pass is a train_end_to_end pass that keeps no
    per-epoch history: after every epoch it checks only that the dual
    objective is finite (a non-finite theta, dual or density ratio raises
    DivergenceError). History rows carry round, portion, n_pseudo, and,
    when the target carries evaluation labels, accuracy / Brier / ECE on
    all targets.
    """
    clf, dom, _ = _train_pass(source, target, clf, dom, cfg)
    probs, _ = target_predictions(clf, dom, target)
    history = []
    for t in range(schedule.rounds):
        portion = schedule.portion(t)
        pseudo = select_pseudo(probs, portion)
        aug = _augmented_source(source, target, pseudo, probs[pseudo].argmax(axis=1))
        round_cfg = replace(cfg, seed=cfg.seed + t + 1)
        clf, dom, _ = _train_pass(aug, target, clf, dom, round_cfg)
        probs, _ = target_predictions(clf, dom, target)

        record = {"round": t, "portion": portion, "n_pseudo": len(pseudo)}
        if target.labeled:
            report = calibration_report(probs, target.y)
            record.update(accuracy=report.accuracy, brier=report.brier, ece=report.ece)
        history.append(record)
    return clf, dom, history
