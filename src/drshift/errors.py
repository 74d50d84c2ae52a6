"""Exception types shared across the package, its config field check and
its per-row checks."""

import numbers
import operator
import sys

import numpy as np


class ConfigError(ValueError):
    """A spec, config file, or model was constructed with invalid values."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


def _check_num(val, name, *, gt=None, ge=None, lt=None, le=None, integer=False,
               error=ConfigError):
    """val as a float (an int when integer), or error, its message starting
    with name, unless val is a finite real number, not a bool, that is
    integral when integer and lies within each bound given. numpy scalars
    count as numbers."""
    if isinstance(val, (bool, np.bool_)) or not isinstance(val, numbers.Real):
        raise error(f"{name}: expected a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities and ints too large for a float
        raise error(f"{name}: must be finite, got {val}")
    if integer and int(val) != val:
        raise error(f"{name}: expected an integer, got {val}")
    num = int(val) if integer else float(val)
    for sign, bound, holds in ((">", gt, operator.gt), (">=", ge, operator.ge),
                               ("<", lt, operator.lt), ("<=", le, operator.le)):
        if bound is not None and not holds(num, bound):
            raise error(f"{name}: must be {sign} {bound}, got {val}")
    return num


def _one_per_row(values, n, what):
    """The array values unchanged, or ContractError naming both counts (or
    the shape of values that are not 1-D) unless it has shape (n,): one
    what for each of n rows."""
    if values.shape != (n,):
        got = f"{values.size} {what}s" if values.ndim == 1 else f"shape {values.shape}"
        raise ContractError(f"expected one {what} per row: {got} for {n} rows")
    return values


def _finite_rows(A, what):
    """The 2-D array A unchanged, or ContractError "{what} i must be finite"
    naming its first row i that holds a non-finite value."""
    finite = np.isfinite(A)
    if not finite.all():
        raise ContractError(f"{what} {int(np.argmin(finite.all(axis=1)))} must be finite")
    return A


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
