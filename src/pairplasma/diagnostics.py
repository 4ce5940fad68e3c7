"""Monitored functionals: energies, pair count, constraint residual, balance term.

The total energy

    E_tot = integral( n_e*g_e + n_p*g_p + E^2 / (2*w2) ) dx

is approximately conserved when the displacement source terms are active and
recombination is off; its exact semi-discrete drift is the small transport
residual reported as `balance_rhs`,

    balance_rhs = -integral( (q0 / 2E) * d/dx(g_e^2 - g_p^2) ) dx.

Both the raw energy and a rest-mass-subtracted variant (minus 2 per unit
length, the rest energy of a neutral pair plasma at the background density)
are reported, since either convention is useful when comparing curves.

All functions are pure functions of a state snapshot. Given a solver
Workspace, they compute in its free buffers instead of new arrays, with
the same operations in the same order; that form belongs to the run that
owns the workspace.
"""

from dataclasses import dataclass, fields

import numpy as np

from .grid import ddx, integrate
from .kernels import PhysicsParams, lorentz_gamma, pair_factor


@dataclass
class SeriesRecord:
    """One diagnostics row; field order defines the series CSV columns."""

    t: float
    field_energy: float
    kinetic_e: float
    kinetic_p: float
    total_energy: float
    total_energy_sub: float
    delta_pairs: float
    max_abs_E: float
    max_gamma: float
    gauss_residual: float
    balance_rhs: float


SERIES_COLUMNS = tuple(f.name for f in fields(SeriesRecord))


def pair_count_delta(state, initial_n_e: float) -> float:
    """Created pairs so far: integral(n_e) minus its initial value."""
    return integrate(state.n_e, state.grid.dx) - initial_n_e


def _buffers(work, cells: int):
    """A padded buffer and two buffers of M values: the free ones of a solver
    Workspace, or new arrays when `work` is None."""
    if work is None:
        return np.empty(cells + 4), np.empty(cells), np.empty(cells)
    return work.pad[0], work.scratch, work.tmp[0]


def gauss_residual(state, omega_pe_sq: float, work=None) -> float:
    """L-infinity departure of E from the Gauss-law constraint.

    Computes in the free buffers of `work` when given (see `make_record`).
    """
    pad, res, tmp = _buffers(work, state.grid.cells)
    pad[2:-2] = state.E
    ddx(pad, state.grid.dx, out=res, tmp=tmp)
    source = np.subtract(1.0, state.n_e, out=tmp)
    source += state.n_p
    source *= omega_pe_sq
    res -= source
    return float(np.maximum.reduce(np.abs(res, out=res)))


def energy_balance_rhs(state, params: PhysicsParams, work=None) -> float:
    """Exact semi-discrete d(E_tot)/dt when displacement terms are on and a = 0.

    q0/E = E * phi uses the solver's pair factor, so the integrand vanishes
    identically where exp(-pi/|E|) underflows. With `work` (see
    `make_record`) phi is read from it and the free buffers are used.
    """
    dx = state.grid.dx
    pad, dgsq, integrand = _buffers(work, state.grid.cells)
    gamma_sq_diff = np.multiply(state.p_e, state.p_e, out=pad[2:-2])  # g^2 = 1 + p^2
    gamma_sq_diff -= np.multiply(state.p_p, state.p_p, out=integrand)
    ddx(pad, dx, out=dgsq, tmp=integrand)
    phi = pair_factor(state.E, params.N0) if work is None else work.phi
    q0_over_e = np.multiply(state.E, phi, out=integrand)
    q0_over_e *= 0.5
    q0_over_e *= dgsq
    return -integrate(q0_over_e, dx)


def make_record(state, params: PhysicsParams, initial_n_e: float, work=None) -> SeriesRecord:
    """One series row for `state`.

    `work` is a solver Workspace, primed here for `state` unless it is: its
    gamma and phi = exp(-pi/|E|)/N0 are used, and its free buffers (pad rows
    0-1, scratch and tmp) hold the temporaries, so the record allocates no
    array of M values. Without it gamma and phi are computed here into new
    arrays. Both forms run the same operations in the same order, so their
    records are identical. Sums and maxima call `np.add.reduce` and
    `np.maximum.reduce`, the reductions `np.sum` and `np.max` wrap.
    """
    dx = state.grid.dx
    if work is None:
        gamma = lorentz_gamma(state.p)
        buf, pair = np.empty(state.grid.cells), np.empty(gamma.shape)
    else:
        if work.primed is not state:
            work.prime(state, params)
        gamma, buf, pair = work.gamma, work.scratch, work.tmp[:2]
    # one pairwise sum per row, the same sums as integrate() of each row
    kin_e, kin_p = (dx * np.add.reduce(np.multiply(state.n, gamma, out=pair), axis=1)).tolist()
    energy_density = np.multiply(state.E, state.E, out=buf)
    energy_density /= 2.0 * params.omega_pe_sq
    fld = integrate(energy_density, dx)
    total = kin_e + kin_p + fld
    return SeriesRecord(
        t=state.t,
        field_energy=fld,
        kinetic_e=kin_e,
        kinetic_p=kin_p,
        total_energy=total,
        total_energy_sub=total - 2.0 * state.grid.length,
        delta_pairs=pair_count_delta(state, initial_n_e),
        max_abs_E=float(np.maximum.reduce(np.abs(state.E, out=buf))),
        max_gamma=float(np.maximum.reduce(gamma, axis=None)),
        gauss_residual=gauss_residual(state, params.omega_pe_sq, work),
        balance_rhs=energy_balance_rhs(state, params, work),
    )
