"""Exception types shared across the package, and its one per-row count check."""


class ConfigError(ValueError):
    """A spec, config file, or model was constructed with invalid values."""


class ContractError(ValueError):
    """A caller violated a documented precondition."""


def _one_per_row(values, n, what):
    """The array values unchanged, or ContractError naming both counts
    unless it has shape (n,): one what for each of n rows."""
    if values.shape != (n,):
        raise ContractError(f"expected one {what} per row: {values.size} {what}s for {n} rows")
    return values


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
