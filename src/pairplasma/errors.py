"""Exception types shared across the package.

Every package error is a `ConfigError` (bad input, exit 1) or a
`NumericalBreakdownError` (the solution left the model, exit 2), one class
per exit code of `pairplasma run` (see `cli`), with no subclasses.
"""


class PairPlasmaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PairPlasmaError):
    """Bad input: config text, a value out of range, a snapshot, or a charged initial state."""


class NumericalBreakdownError(PairPlasmaError):
    """The solution left the model's validity range (non-finite values or n <= 0).

    Carries the simulation time and the offending cell index; its message
    names both and the five field values in that cell (E, n_e, n_p, p_e,
    p_p). Raised out of `solver.run`, it carries as `result` the run's
    `RunResult`, the records and snapshots collected so far, for the caller
    to flush (`pairplasma run` empties it as it writes); else None.
    """

    def __init__(self, message: str, t: float, cell: int):
        super().__init__(message)
        self.t = t
        self.cell = cell
        self.result = None
