"""Exception types shared across the package, and its per-row checks."""

import numpy as np


class ConfigError(ValueError):
    """A spec, config file, or model was constructed with invalid values."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


def _one_per_row(values, n, what):
    """The array values unchanged, or ContractError naming both counts (or
    the shape of values that are not 1-D) unless it has shape (n,): one
    what for each of n rows."""
    if values.shape != (n,):
        got = f"{values.size} {what}s" if values.ndim == 1 else f"shape {values.shape}"
        raise ContractError(f"expected one {what} per row: {got} for {n} rows")
    return values


def _int_labels(labels, error=ContractError):
    """labels as an int64 array, or error naming the first label that is
    not an integer: fractional, non-finite or outside int64. Integer arrays
    are only cast; other labels are read as floats and checked."""
    y = np.asarray(labels)
    if y.dtype.kind in "biu":
        return y.astype(np.int64, copy=False)
    y = y.astype(float)
    bad = ~((y == np.floor(y)) & (y >= -(2.0**63)) & (y < 2.0**63))
    if bad.any():
        raise error(f"label {float(y[bad][0])!r} is not an integer")
    return y.astype(np.int64)


def _class_labels(labels, n, class_count):
    """labels as an int array, or ContractError unless it holds one integer
    label for each of n rows, each in [0, class_count)."""
    y = _one_per_row(_int_labels(labels), n, "label")
    # As unsigned, a negative label exceeds any class count: one max checks both ends.
    if n and y.view(np.uint64).max() >= class_count:
        bad = y[(y < 0) | (y >= class_count)][0]
        raise ContractError(f"label {bad} outside [0, {class_count})")
    return y


class CsvParseError(ConfigError):
    """A CSV cell could not be parsed; carries 1-based row/column."""

    def __init__(self, path, row, column, message):
        super().__init__(f"{path}: row {row}, column {column}: {message}")
        self.path = str(path)
        self.row = row
        self.column = column


class DivergenceError(RuntimeError):
    """Training hit a non-finite value; carries a diagnostic snapshot."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = dict(state or {})
