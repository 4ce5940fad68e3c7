"""Pointwise physics kernels for field-induced pair creation.

Normalized units: the electric field E is measured in units of the critical
field, momenta in m_e*c, densities in a reference density n0, lengths in
Compton wavelengths and times in Compton times. In these units the local
pair creation rate is

    q0(E) = (E^2 / N0) * exp(-pi / |E|),

where N0 = n0 * h^3 / (m_e * c)^3 is the dimensionless reference density.
All kernels are pure functions of their arguments (no global state) and
accept scalars or equal-shaped numpy arrays; they are safe to call from any
number of concurrent evaluators.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import InvalidParameterError, InvalidStateError

# Default of `physics.eps_field`. `pair_factor` zeroes every cell with
# |E| < max(eps_field, UNDERFLOW_FIELD), so a value up to pi/746 ~ 4.21e-3,
# this one included, changes no bit: the cutoff is UNDERFLOW_FIELD.
DEFAULT_EPS_FIELD = 1e-8

# exp(x) rounds to exactly 0 for x below about -745.13, so exp(-pi/|E|) is
# exactly 0 for every |E| < pi/746.
UNDERFLOW_FIELD = math.pi / 746.0

# SI prefactor of the pair creation rate, pairs / (m^3 s): c / ((2*pi)^3 lambda^4).
SI_RATE_PREFACTOR = constants.C / ((2.0 * math.pi) ** 3 * constants.COMPTON_LENGTH**4)


def derived_plasma_frequency(N0: float, alpha: float) -> float:
    """Normalized electron plasma frequency sqrt(2*alpha*N0) / (2*pi).

    The ion background density is the normalization density, so the plasma
    frequency (in inverse Compton times) depends only on N0 and the
    fine-structure constant.
    """
    if not (N0 > 0.0):
        raise InvalidParameterError(f"N0 must be positive, got {N0}")
    if not (alpha > 0.0):
        raise InvalidParameterError(f"alpha must be positive, got {alpha}")
    return math.sqrt(2.0 * alpha * N0) / (2.0 * math.pi)


@dataclass
class PhysicsParams:
    """Normalized physical constants of one simulation.

    N0        : dimensionless reference density n0 * h^3 / (m_e c)^3
    alpha     : fine-structure constant (configurable; CODATA by default)
    a         : recombination coefficient for the n_e*n_p loss term (0 = off)
    eps_field : q0 and q0/E are exact zero where |E| < max(eps_field, pi/746);
                only a value above pi/746 ~ 4.21e-3 changes the run
    """

    N0: float = 0.2
    alpha: float = constants.ALPHA_FINE_STRUCTURE
    a: float = 0.0
    eps_field: float = DEFAULT_EPS_FIELD
    omega_pe_sq: float = field(init=False)

    def __post_init__(self):
        if not (self.a >= 0.0):
            raise InvalidParameterError(f"recombination coefficient a must be >= 0, got {self.a}")
        if not (self.eps_field > 0.0):
            raise InvalidParameterError(f"eps_field must be positive, got {self.eps_field}")
        self.omega_pe_sq = derived_plasma_frequency(self.N0, self.alpha) ** 2


def _checked(E, name="E"):
    arr = np.asarray(E, dtype=np.float64)
    if np.isnan(arr).any():
        raise InvalidStateError(f"{name} contains NaN")
    return arr


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def lorentz_gamma(p, out=None):
    """Relativistic gamma factor sqrt(1 + p^2) for momentum in units of m_e*c.

    Writes into `out` when given.
    """
    p = np.asarray(p, dtype=np.float64)
    g = np.multiply(p, p, out=np.empty(p.shape) if out is None else out)
    g += 1.0
    return _maybe_scalar(np.sqrt(g, out=g))


def pair_factor(E, N0: float, eps_field: float, out=None):
    """Guarded factor phi = exp(-pi / |E|) / N0 shared by q0 and the displacement flux.

    q0 = E^2 * phi and D_s = g_s * (E * phi). Exact zero below the eps_field
    guard and wherever the exponential underflows. The exponential is only
    evaluated where |E| >= max(eps_field, UNDERFLOW_FIELD): below
    UNDERFLOW_FIELD its argument is below -746, where exp rounds to exactly
    0, so skipping those cells (numpy's exp is slow on them) changes no bit
    of the result. NaN cells are evaluated like any other. Does no
    validation: the solver checks its state once per stage, the public
    kernels check their own arguments. Writes into `out` when given.
    """
    abs_e = np.abs(E)
    live = ~(abs_e < max(eps_field, UNDERFLOW_FIELD))
    phi = np.empty(abs_e.shape) if out is None else out
    phi.fill(0.0)
    np.divide(-np.pi, abs_e, out=phi, where=live)
    np.exp(phi, out=phi, where=live)
    phi /= N0
    return phi


def schwinger_rate_norm(E, N0: float, eps_field: float = DEFAULT_EPS_FIELD):
    """Normalized pair creation rate q0 = (E^2 / N0) * exp(-pi / |E|).

    Even in E. Returns exact zero below the eps_field guard and wherever the
    exponential underflows.
    """
    if not (N0 > 0.0):
        raise InvalidParameterError(f"N0 must be positive, got {N0}")
    arr = _checked(E)
    return _maybe_scalar(arr * arr * pair_factor(arr, N0, eps_field))


def displacement_flux(E, gamma, N0: float, eps_field: float = DEFAULT_EPS_FIELD):
    """Pair-displacement flux gamma * q0(E) / E = gamma * (E / N0) * exp(-pi / |E|).

    Models creation of the two partners at field-dependent offsets, so the
    pair's energy is drawn from the field. Odd in E; exact zero below the
    eps_field guard.
    """
    if not (N0 > 0.0):
        raise InvalidParameterError(f"N0 must be positive, got {N0}")
    arr = _checked(E)
    return _maybe_scalar(gamma * (arr * pair_factor(arr, N0, eps_field)))


def schwinger_rate_si(E_field):
    """Pair creation rate in SI units (pairs per m^3 per s) for E in V/m.

    rate = c / ((2*pi)^3 * lambda^4) * (E / E_crit)^2 * exp(-pi * E_crit / |E|)

    with lambda the Compton wavelength and E_crit the critical field, both
    from the CODATA values in `constants`.
    """
    arr = _checked(E_field, name="E_field")
    abs_e = np.abs(arr)
    zero = abs_e == 0.0
    safe = np.where(zero, 1.0, abs_e)
    ratio = arr / constants.E_CRIT
    with np.errstate(over="ignore"):
        rate = np.where(
            zero, 0.0, SI_RATE_PREFACTOR * (ratio * ratio) * np.exp(-np.pi * constants.E_CRIT / safe)
        )
    return _maybe_scalar(rate)


def recombination_momentum_exchange(p_self, p_other, n_other, a: float):
    """Momentum drag -a * n_other * (p_self - p_other) from annihilation."""
    if not (a >= 0.0):
        raise InvalidParameterError(f"recombination coefficient a must be >= 0, got {a}")
    p_self = np.asarray(p_self, dtype=np.float64)
    p_other = np.asarray(p_other, dtype=np.float64)
    n_other = np.asarray(n_other, dtype=np.float64)
    if (n_other < 0.0).any():
        raise InvalidStateError("densities must be non-negative")
    return _maybe_scalar(-a * (n_other * (p_self - p_other)))
