"""Pointwise physics kernels for field-induced pair creation.

Normalized units: the electric field E is measured in units of the critical
field, momenta in m_e*c, densities in a reference density n0, lengths in
Compton wavelengths and times in Compton times. In these units the local
pair creation rate is

    q0(E) = (E^2 / N0) * exp(-pi / |E|),

where N0 = n0 * h^3 / (m_e * c)^3 is the dimensionless reference density.
All kernels are pure functions of their arguments (no global state) and
accept scalars or equal-shaped numpy arrays; they are safe to call from any
number of concurrent evaluators. They check nothing: N0 and a are those
that `PhysicsParams` checks, a NaN argument gives NaN as numpy evaluates it,
and the solver checks its state (finite fields, and n > 0 where a term needs
it) before it evaluates them. `Workspace`, by contrast, holds one run's
buffers: the gamma and phi it primes, and the arrays `solver` and
`diagnostics` compute in.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import ConfigError

# exp(x) rounds to exactly 0 for x below about -745.13, so exp(-pi/|E|) is
# exactly 0 for every |E| < pi/746.
UNDERFLOW_FIELD = math.pi / 746.0

# SI prefactor of the pair creation rate, pairs / (m^3 s): c / ((2*pi)^3 lambda^4).
SI_RATE_PREFACTOR = constants.C / ((2.0 * math.pi) ** 3 * constants.COMPTON_LENGTH**4)


def derived_plasma_frequency(N0: float, alpha: float) -> float:
    """Normalized electron plasma frequency sqrt(2*alpha*N0) / (2*pi).

    The ion background density is the normalization density, so the plasma
    frequency (in inverse Compton times) depends only on N0 and alpha. Both
    must be positive; `PhysicsParams` checks them.
    """
    return math.sqrt(2.0 * alpha * N0) / (2.0 * math.pi)


@dataclass
class PhysicsParams:
    """Normalized physical constants of one simulation.

    N0    : dimensionless reference density n0 * h^3 / (m_e c)^3
    alpha : fine-structure constant (configurable; CODATA by default)
    a     : recombination coefficient for the n_e*n_p loss term (0 = off)
    """

    N0: float = 0.2
    alpha: float = constants.ALPHA_FINE_STRUCTURE
    a: float = 0.0
    omega_pe_sq: float = field(init=False)

    def __post_init__(self):
        if not (self.N0 > 0.0):
            raise ConfigError(f"physics.N0 = {self.N0!r} must be positive")
        if not (self.alpha > 0.0):
            raise ConfigError(f"physics.alpha = {self.alpha!r} must be positive")
        if not (self.a >= 0.0):
            raise ConfigError(f"physics.a = {self.a!r} must be >= 0 (0 disables)")
        self.omega_pe_sq = derived_plasma_frequency(self.N0, self.alpha) ** 2
        if not (0.0 < self.omega_pe_sq < math.inf):
            raise ConfigError(
                f"physics.N0 = {self.N0!r} and physics.alpha = {self.alpha!r} give the "
                f"squared plasma frequency 2*alpha*N0/(2*pi)^2 = {self.omega_pe_sq!r}; "
                "it must be positive and finite"
            )


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


def pair_factor(E, N0: float, out=None):
    """Factor phi = exp(-pi / |E|) / N0 shared by q0 and the displacement flux.

    q0 = E^2 * phi and D_s = g_s * (E * phi). The exponential is only
    evaluated where |E| >= UNDERFLOW_FIELD: below it its argument is below
    -746, where exp rounds to exactly 0, so skipping those cells (numpy's
    exp is slow on them) changes no bit of the result. NaN cells are
    evaluated like any other. Does no validation: the solver checks its
    state once per stage. Writes into `out` when given.
    """
    abs_e = np.abs(E)
    live = ~(abs_e < UNDERFLOW_FIELD)
    phi = np.empty(abs_e.shape) if out is None else out
    phi.fill(0.0)
    np.divide(-np.pi, abs_e, out=phi, where=live)
    np.exp(phi, out=phi, where=live)
    phi /= N0
    return phi


def schwinger_rate_norm(E, N0: float):
    """Normalized pair creation rate q0 = (E^2 / N0) * exp(-pi / |E|).

    Even in E. Returns exact zero wherever the exponential underflows, and
    NaN where E is NaN. N0 must be positive; `PhysicsParams` checks it.
    """
    arr = np.asarray(E, dtype=np.float64)
    return _maybe_scalar(arr * arr * pair_factor(arr, N0))


def displacement_flux(E, gamma, N0: float):
    """Pair-displacement flux gamma * q0(E) / E = gamma * (E / N0) * exp(-pi / |E|).

    Models creation of the two partners at field-dependent offsets, so the
    pair's energy is drawn from the field. Odd in E; exact zero wherever
    the exponential underflows, NaN where E is NaN. N0 must be positive;
    `PhysicsParams` checks it. `solver.rhs` computes it inline and never
    calls this; it stays while `perfbench/child.py` traces it (ROADMAP item 1).
    """
    arr = np.asarray(E, dtype=np.float64)
    return _maybe_scalar(gamma * (arr * pair_factor(arr, N0)))


def schwinger_rate_si(E_field):
    """Pair creation rate in SI units (pairs per m^3 per s) for E in V/m.

    rate = c / ((2*pi)^3 * lambda^4) * (E / E_crit)^2 * exp(-pi * E_crit / |E|)

    with lambda the Compton wavelength and E_crit the critical field, both
    from the CODATA values in `constants`: the normalized rate at N0 = 1 of
    E / E_crit, times SI_RATE_PREFACTOR.
    """
    with np.errstate(over="ignore"):
        return SI_RATE_PREFACTOR * schwinger_rate_norm(np.divide(E_field, constants.E_CRIT), 1.0)


def recombination_momentum_exchange(p_self, p_other, n_other, a: float):
    """Momentum drag -a * n_other * (p_self - p_other) from annihilation.

    a >= 0 is checked by `PhysicsParams`, and n_other > 0 by the solver
    before any stage with recombination on. `solver.rhs` computes it inline
    and never calls this; it stays while `perfbench/child.py` traces it
    (ROADMAP item 1).
    """
    p_self = np.asarray(p_self, dtype=np.float64)
    p_other = np.asarray(p_other, dtype=np.float64)
    n_other = np.asarray(n_other, dtype=np.float64)
    return _maybe_scalar(-a * (n_other * (p_self - p_other)))


# Each workspace buffer starts at its own offset into a 4 KiB page, BUFFER_SKEW
# bytes after the previous one. Large arrays that numpy allocates fresh all
# start at the same page offset, and a loop that loads from one such array
# while it stores into another stalls on false store-to-load dependencies
# (4K aliasing): spreading the buffers made the M = 2048 reference run about
# 10% faster.
PAGE_BYTES = 4096
BUFFER_SKEW = 320


def _at_page_offset(shape, offset: int) -> np.ndarray:
    """Empty float array of `shape` whose data start `offset` bytes into a page."""
    size = math.prod(shape)
    raw = np.empty(size + PAGE_BYTES // 8)
    start = (offset - raw.ctypes.data) % PAGE_BYTES // 8
    return raw[start : start + size].reshape(shape)


class Workspace:
    """Buffers for the RK4 steps of one run on one grid size, allocated once.

    `pad` is the one stencil stack, six padded rows (see `grid.padded`):
    rhs writes the combined fluxes F_e and F_p into the interiors of rows
    0-1, and `prime` writes gamma_e and gamma_p into rows 2-3 (`gamma`), so
    one stencil call differentiates all four and refreshes only their ghost
    cells. With the Bohm term on, rows 4-5 hold the padded root
    (n_s/g_s)^{1/2} and rhs writes g_s - Q_s/2 over the gammas. After the
    stencil, hyperdiffusion pads the state's five rows into rows 0-4, with
    scratch `stage`. The RK4 derivatives `k`, the stage state `stage` and
    the stencil scratch `tmp` are (5, M) arrays like `u`.
    `primed` is the state whose gamma and phi the buffers hold, or None;
    rhs reuses them for that state instead of recomputing them and
    rescanning it, and consumes them, since it may write over the gammas.
    The solver never writes into a state's array but one it built in the
    workspace, so the state object identifies its values. Between steps pad
    rows 0-1, scratch and tmp are free for the series record.
    """

    def __init__(self, cells: int):
        shapes = [(6, cells + 4), (cells,), (cells,), (5, cells)] + [(5, cells)] * 4
        skewed = (_at_page_offset(shape, i * BUFFER_SKEW) for i, shape in enumerate(shapes))
        self.pad, self.phi, self.scratch, self.tmp, k1, k2, k3, self.stage = skewed
        self.k = (k1, k2, k3)
        self.gamma = self.pad[2:4, 2:-2]
        self.primed = None

    def prime(self, state, params: PhysicsParams):
        """Compute gamma_e, gamma_p and phi of `state`, which must be known finite."""
        lorentz_gamma(state.p, out=self.gamma)
        pair_factor(state.E, params.N0, out=self.phi)
        self.primed = state
