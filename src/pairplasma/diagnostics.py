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

All functions are pure functions of a state snapshot and may run
concurrently with stepping only on copies.
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


def total_energy(state, omega_pe_sq: float) -> tuple[float, float]:
    """Raw and rest-subtracted total energy of a state."""
    dx = state.grid.dx
    gamma_e = lorentz_gamma(state.p_e)
    gamma_p = lorentz_gamma(state.p_p)
    total = integrate(
        state.n_e * gamma_e + state.n_p * gamma_p + state.E * state.E / (2.0 * omega_pe_sq), dx
    )
    return total, total - 2.0 * state.grid.length


def pair_count_delta(state, initial_n_e: float) -> float:
    """Created pairs so far: integral(n_e) minus its initial value."""
    return integrate(state.n_e, state.grid.dx) - initial_n_e


def gauss_residual(state, omega_pe_sq: float) -> float:
    """L-infinity departure of E from the Gauss-law constraint."""
    dx = state.grid.dx
    res = ddx(state.E, dx) - omega_pe_sq * (1.0 - state.n_e + state.n_p)
    return float(np.max(np.abs(res)))


def energy_balance_rhs(state, params: PhysicsParams, phi=None) -> float:
    """Exact semi-discrete d(E_tot)/dt when displacement terms are on and a = 0.

    q0/E = E * phi uses the solver's guarded pair factor, so the integrand
    vanishes identically where the field is negligible. `phi` may be passed
    in when the caller already holds it for this state.
    """
    dx = state.grid.dx
    if phi is None:
        phi = pair_factor(state.E, params.N0, params.eps_field)
    q0_over_e = state.E * phi
    gamma_sq_diff = state.p_e * state.p_e - state.p_p * state.p_p  # g^2 = 1 + p^2
    return -integrate(0.5 * q0_over_e * ddx(gamma_sq_diff, dx), dx)


def make_record(
    state, params: PhysicsParams, initial_n_e: float, gamma_e=None, gamma_p=None, phi=None
) -> SeriesRecord:
    """One series row for `state`.

    gamma_e, gamma_p and phi = exp(-pi/|E|)/N0 may be passed in when the
    caller already holds them for this state (the solver computes them once
    per step); otherwise they are computed here.
    """
    dx = state.grid.dx
    if gamma_e is None:
        gamma_e = lorentz_gamma(state.p_e)
        gamma_p = lorentz_gamma(state.p_p)
    kin_e = integrate(state.n_e * gamma_e, dx)
    kin_p = integrate(state.n_p * gamma_p, dx)
    fld = integrate(state.E * state.E / (2.0 * params.omega_pe_sq), dx)
    total = kin_e + kin_p + fld
    return SeriesRecord(
        t=state.t,
        field_energy=fld,
        kinetic_e=kin_e,
        kinetic_p=kin_p,
        total_energy=total,
        total_energy_sub=total - 2.0 * state.grid.length,
        delta_pairs=pair_count_delta(state, initial_n_e),
        max_abs_E=float(np.max(np.abs(state.E))),
        max_gamma=float(max(np.max(gamma_e), np.max(gamma_p))),
        gauss_residual=gauss_residual(state, params.omega_pe_sq),
        balance_rhs=energy_balance_rhs(state, params, phi),
    )
