"""Exception types shared across the package."""


class PairPlasmaError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(PairPlasmaError):
    """A physical or numerical parameter is outside its valid range."""


class InvalidStateError(PairPlasmaError):
    """A field or kernel argument violates a state invariant (NaN, negative density)."""


class ChargeImbalanceError(PairPlasmaError):
    """The periodic domain carries net charge, so no periodic field solution exists."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NumericalBreakdownError(PairPlasmaError):
    """The solution left the model's validity range (non-finite values or n <= 0).

    Carries the simulation time and the offending cell index; its message
    names both and the five field values in that cell (E, n_e, n_p, p_e,
    p_p). When raised out of a run loop, any diagnostics collected so far
    are attached so the caller can flush them before exiting.
    """

    def __init__(self, message: str, t: float, cell: int):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.records = []
        self.snapshots = []


class ConfigError(PairPlasmaError):
    """Configuration text, or a snapshot file it names as input, failed to parse or validate."""
