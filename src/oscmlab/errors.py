"""Exception types shared across the package."""


class SizeLimitError(Exception):
    """An input exceeds a solver's or oracle's hard size limit."""


class InstanceParseError(ValueError):
    """Malformed instance text. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NodeBudgetExceeded(Exception):
    """A divide-and-conquer run hit its configured node budget.

    Carries the partial ledger and the solve's modelled peak state bytes
    and depth (dc_peak_state_bytes and dc_max_depth of its size), so that
    instrumented runs at sizes too large to finish still report them.
    """

    def __init__(self, ledger, peak_state_bytes, max_depth):
        self.ledger = ledger
        self.peak_state_bytes = peak_state_bytes
        self.max_depth = max_depth
        super().__init__(
            f"node budget exhausted (modelled peak state {peak_state_bytes} "
            f"bytes, max depth {max_depth})"
        )
