"""Calibration metrics: Brier score, ECE, reliability bins, misclassification
entropy, and a temperature-scaling baseline fitted by NLL minimization.

All logarithms are natural. Confidence means the maximum predicted
probability; predicted class is the argmax with ties going to the lowest
class index. Labels come one per row, each in [0, C) for C columns; any
other labels are a ContractError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, _check_num, _class_labels, _finite_rows

TEMPERATURE_RANGE = (0.05, 20.0)
LOG_TEMPERATURE_TOL = 1e-4
REPORT_BINS = 5


@dataclass
class ReliabilityBin:
    lower: float
    upper: float
    count: int
    mean_confidence: float
    accuracy: float


@dataclass
class CalibrationReport:
    accuracy: float
    brier: float
    ece: float
    miscls_entropy: float
    bins: list


def _as_rows(values):
    """values as a float array of rows, a single row being a one-row batch,
    or ContractError naming the first row with a non-finite value."""
    return _finite_rows(np.atleast_2d(np.asarray(values, dtype=float)), "row")


def brier(probs, labels):
    """Mean over samples of the summed squared gap to the one-hot label."""
    P = _as_rows(probs)
    y = _class_labels(labels, *P.shape)
    if P.shape[0] == 0:
        raise ContractError("brier needs at least one sample")
    onehot = np.zeros_like(P)
    onehot[np.arange(P.shape[0]), y] = 1.0
    return float(((P - onehot) ** 2).sum(axis=1).mean())


def ece(probs, labels, n_bins=REPORT_BINS):
    """Expected calibration error over equal-width confidence bins.

    Bins partition [0, 1]; a confidence exactly on an interior edge falls in
    the upper bin and the last bin is closed at 1. Empty bins contribute
    zero; zero rows, and an n_bins that is not an int >= 1 (a bool is
    not), are a ContractError. Returns (ece, bins).
    """
    if isinstance(n_bins, bool) or not isinstance(n_bins, numbers.Integral) or n_bins < 1:
        raise ContractError(f"n_bins must be an integer >= 1, got {n_bins!r}")
    P = _as_rows(probs)
    y = _class_labels(labels, *P.shape)
    n = P.shape[0]
    if n == 0:
        raise ContractError("ece needs at least one sample")
    conf = P.max(axis=1)
    correct = (P.argmax(axis=1) == y).astype(float)
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)

    bins = []
    total = 0.0
    for j in range(n_bins):
        mask = idx == j
        count = int(mask.sum())
        lower, upper = j / n_bins, (j + 1) / n_bins
        if count:
            mean_conf = float(conf[mask].mean())
            acc = float(correct[mask].mean())
            total += (count / n) * abs(acc - mean_conf)
        else:
            mean_conf, acc = 0.0, 0.0
        bins.append(ReliabilityBin(lower, upper, count, mean_conf, acc))
    return float(total), bins


def miscls_entropy(probs, labels):
    """Mean Shannon entropy of the misclassified predictions.

    Returns (entropy, all_correct); entropy is 0 when nothing was
    misclassified, and zero rows are a ContractError.
    """
    P = _as_rows(probs)
    y = _class_labels(labels, *P.shape)
    if P.shape[0] == 0:
        raise ContractError("miscls_entropy needs at least one sample")
    wrong = P.argmax(axis=1) != y
    if not wrong.any():
        return 0.0, True
    Pw = P[wrong]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(Pw > 0.0, Pw * np.log(Pw), 0.0)
    return float(-terms.sum(axis=1).mean()), False


def _row_reduce(ufunc, A):
    """ufunc.reduce(A, axis=1, keepdims=True) of an (n, C) array, bitwise.

    Below 8 columns numpy reduces each row one column after the other (its
    pairwise sum starts at 8), so for 2 <= C < 8 a running ufunc over the
    columns gives the same bits with C - 1 calls on whole columns instead of
    n reductions of length C.
    """
    C = A.shape[1]
    if not 1 < C < 8:
        return ufunc.reduce(A, axis=1, keepdims=True)
    out = ufunc(A[:, :1], A[:, 1:2])
    for j in range(2, C):
        ufunc(out, A[:, j:j + 1], out=out)
    return out


def _lse_parts(L, m=None):
    """Row-wise log-sum-exp of an (n, C) array, with the shifted exponentials.

    Returns (lse, e, s): e = exp(L - m) with m the (n, 1) row max, s the
    (n, 1) row sums of e and lse = m + log s. Shifting by the max keeps exp in
    range, and e / s is the softmax, so one exp serves both. A caller that
    already holds the row max may pass it as m; it must equal
    L.max(axis=1, keepdims=True) bitwise for the result to. The row max and
    row sum go through _row_reduce, so at C < 8 classes they are column-wise
    and at C >= 8 (such as the KDE's columns) numpy's axis reductions.
    """
    if m is None:
        m = _row_reduce(np.maximum, L)
    e = L - m
    np.exp(e, out=e)
    s = _row_reduce(np.add, e)
    return m[:, 0] + np.log(s[:, 0]), e, s


def _mean_nll(L, L_label, temperature, L_max=None):
    """nll from the logits L, their label column L_label and, optionally,
    their (n, 1) row max L_max. Division by T > 0 keeps the order of every
    row, so L_max / T is the row max of L / T bitwise."""
    m = None if L_max is None else L_max / temperature
    return float((_lse_parts(L / temperature, m)[0] - L_label / temperature).mean())


def nll(logits, labels, temperature=1.0):
    """Mean negative log-likelihood of softmax(logits / T); a temperature
    that is not a finite number > 0 (a bool is not) is a ContractError."""
    temperature = _check_num(temperature, "temperature", gt=0, error=ContractError)
    L = _as_rows(logits)
    y = _class_labels(labels, *L.shape)
    if L.shape[0] == 0:
        raise ContractError("nll needs at least one sample")
    return _mean_nll(L, L[np.arange(L.shape[0]), y], temperature)


def fit_temperature(logits, labels):
    """Golden-section search for the NLL-minimizing temperature on log T in
    TEMPERATURE_RANGE, to LOG_TEMPERATURE_TOL.

    The returned temperature never has higher NLL than T = 1 (ties resolve
    to 1). The label logits and the row max of the logits are taken once;
    every NLL evaluation divides both by its T, which gives nll's values
    bitwise.
    """
    L = _as_rows(logits)
    if L.shape[0] == 0:
        raise ContractError("fit_temperature needs at least one sample")
    L_label = L[np.arange(L.shape[0]), _class_labels(labels, *L.shape)]
    L_max = _row_reduce(np.maximum, L)

    def f(log_t):
        return _mean_nll(L, L_label, np.exp(log_t), L_max)

    a, b = (np.log(t) for t in TEMPERATURE_RANGE)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > LOG_TEMPERATURE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    t_star = float(np.exp((a + b) / 2.0))
    if _mean_nll(L, L_label, t_star, L_max) <= _mean_nll(L, L_label, 1.0, L_max) - 1e-12:
        return t_star
    return 1.0


def calibration_report(probs, labels):
    """Accuracy, Brier, ECE (with REPORT_BINS bins), and misclassification entropy."""
    P = _as_rows(probs)
    y = _class_labels(labels, *P.shape)
    b = brier(P, y)  # first, so zero rows raise before any mean is taken
    acc = float((P.argmax(axis=1) == y).mean())
    e, bins = ece(P, y)
    ent, _ = miscls_entropy(P, y)
    return CalibrationReport(acc, b, e, ent, bins)
