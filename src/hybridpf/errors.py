"""Exception types shared across the package."""


class HybridPfError(Exception):
    """Base class for all errors raised by hybridpf."""


class DataError(HybridPfError):
    """A network element carries invalid data (singular impedance, bad sign, ...)."""


class ParameterError(DataError):
    """A converter loss parameter is outside its valid domain."""


class TopologyError(HybridPfError):
    """The network graph is not solvable as given (raised from diagnostics)."""


class CaseFormatError(HybridPfError):
    """A case or solution file violates the schema.

    ``location`` is a JSON-path-like string such as ``ac_buses[3].p``.
    """

    def __init__(self, message, location=None, path=None):
        self.location = location
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if location is not None:
            prefix += f"at {location}: "
        super().__init__(prefix + message)


class SolverError(HybridPfError):
    """The Newton iteration could not proceed (singular Jacobian, ...).

    ``row_label`` names a residual row at fault, ``state_label`` a state (a
    column of the Jacobian)."""

    def __init__(self, message, iteration=None, row_label=None, state_label=None):
        self.iteration = iteration
        self.row_label = row_label
        self.state_label = state_label
        detail = [f"{what} {value}" for what, value in (
            ("iteration", iteration), ("worst row", row_label), ("state", state_label))
            if value is not None]
        super().__init__(message + (f" ({', '.join(detail)})" if detail else ""))


class InfeasibleError(HybridPfError):
    """The requested AC power exceeds what the DC link can transfer."""
