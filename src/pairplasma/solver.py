"""Semi-discrete right-hand side of the two-fluid system and RK4 time advance.

Evolved fields (normalized units) on one periodic grid:

    dn_e/dt = -d/dx(n_e p_e/g_e) + q0 + d/dx(D_e) - a n_e n_p
    dn_p/dt = -d/dx(n_p p_p/g_p) + q0 - d/dx(D_p) - a n_e n_p
    dp_e/dt = -d/dx(g_e) - E  [+ Bohm, recombination drag]
    dp_p/dt = -d/dx(g_p) + E  [+ Bohm, recombination drag]
    dE/dt   = w2 * (n_e p_e/g_e - n_p p_p/g_p - (D_e + D_p))

with g_s = sqrt(1 + p_s^2), q0 the pair creation rate, D_s = g_s q0 / E the
pair-displacement flux and w2 the squared plasma frequency. Momentum
advection uses the cold-fluid identity (p/g) dp/dx = dg/dx.

The sign of the displacement term in dE/dt is the one obtained by
differentiating the Gauss law in time and substituting the continuity
equations; with it, d/dx(dE/dt) == w2*(dn_p/dt - dn_e/dt) holds exactly
stencil-for-stencil, so the Gauss constraint is a linear invariant of the
semi-discrete system and RK4 preserves it to rounding. It also makes pair
creation drain field energy rather than add it. The opposite sign is
available behind `ampere_sign_flip` for comparison; it breaks both
properties.

The electric field is advanced through this Ampere-type law; the Gauss law
is used only to build the initial field and as a residual diagnostic.

Cold-fluid flows at these amplitudes steepen into caustics (wave breaking),
past which the fluid description is no longer trustworthy pointwise. The
integrator requires strictly positive densities in the initial data and
aborts on non-finite values, but by default it integrates through density
zero-crossings at a caustic rather than stopping: the scheme stays finite
there and the global diagnostics (energies, pair count, constraint
residual) remain meaningful. Set `stop_on_negative_density` to treat any
n <= 0 as a hard stop instead. The Bohm and recombination terms are
undefined at n <= 0, so with either on the same stop applies. No clamping
or smoothing is ever applied.

Finite checks run in two places: `rhs` scans its input, which covers every
RK4 stage state, and `rk4_step` scans the state it returns. Derivatives are
not scanned on their own, because a non-finite derivative makes the next
stage state or the step result non-finite. Either check raises
NumericalBreakdownError with the time and the first offending cell.

Each stage evaluates the guarded factor phi = exp(-pi/|E|)/N0
(`kernels.pair_factor`) once and shares it: q0 = E^2 phi and
D_s = g_s (E phi).

A single run owns its state; `rhs` itself is pure and may be evaluated
concurrently on snapshots.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import make_record
from .errors import InvalidParameterError, NumericalBreakdownError
from .grid import Grid1D, bohm_potential, ddx, hyperdiffusion, integrate, poisson_init_E
from .kernels import (
    PhysicsParams,
    lorentz_gamma,
    pair_factor,
    recombination_loss,
    recombination_momentum_exchange,
)
from .output import read_snapshot

# Hard step-size ceiling: signal speeds never exceed c = 1 in these units.
CFL_MAX = 0.5

IC_KINDS = ("gaussian", "sine", "uniform", "file")


@dataclass
class SimState:
    """Time plus the five evolved fields, all on one grid."""

    grid: Grid1D
    t: float
    E: np.ndarray
    n_e: np.ndarray
    n_p: np.ndarray
    p_e: np.ndarray
    p_p: np.ndarray

    def copy(self) -> "SimState":
        return SimState(
            self.grid,
            self.t,
            self.E.copy(),
            self.n_e.copy(),
            self.n_p.copy(),
            self.p_e.copy(),
            self.p_p.copy(),
        )


@dataclass
class SolverOptions:
    """Time integration and model-term switches.

    Exactly one of dt (explicit step) or cfl (step = cfl*dx) may be given;
    with neither, cfl defaults to 0.4.
    """

    dt: Optional[float] = None
    cfl: Optional[float] = None
    t_end: float = 1500.0
    displacement_terms: bool = True
    bohm: bool = False
    nu_h: float = 0.0
    ampere_sign_flip: bool = False
    stop_on_negative_density: bool = False

    def __post_init__(self):
        if self.dt is not None and self.cfl is not None:
            raise InvalidParameterError("dt and cfl are mutually exclusive; set only one")
        if self.dt is None and self.cfl is None:
            self.cfl = 0.4
        if self.dt is not None and not (self.dt > 0.0):
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if self.cfl is not None and not (0.0 < self.cfl <= CFL_MAX):
            raise InvalidParameterError(f"cfl must be in (0, {CFL_MAX}], got {self.cfl}")
        if not (self.t_end >= 0.0):
            raise InvalidParameterError(f"t_end must be >= 0, got {self.t_end}")
        if not (self.nu_h >= 0.0):
            raise InvalidParameterError(f"nu_h must be >= 0, got {self.nu_h}")

    def step_size(self, dx: float) -> float:
        return self.dt if self.dt is not None else self.cfl * dx


@dataclass
class InitialCondition:
    """Initial-state description.

    kind 'gaussian': n_e = base_e + amplitude*(x/L)*exp(-x^2/L^2), n_p = base_p
    kind 'sine':     n_e = base_e + epsilon*sin(pi*mode*x/X),       n_p = base_p
    kind 'uniform':  n_e = base_e, n_p = base_p
    kind 'file':     n_e, n_p, p_e, p_p read from a snapshot CSV at `path`

    Momenta start at zero unless the file provides them; E always comes from
    the Gauss-law solve so the state starts constraint-consistent.
    """

    kind: str = "gaussian"
    L: float = 6000.0
    base_e: float = 1.01
    base_p: float = 0.01
    amplitude: float = 2.0
    epsilon: float = 1e-6
    mode: int = 2
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise InvalidParameterError(
                f"unknown initial-condition kind {self.kind!r}; expected one of {IC_KINDS}"
            )
        if not (self.L > 0.0):
            raise InvalidParameterError(f"ic L must be positive, got {self.L}")
        if self.mode < 1:
            raise InvalidParameterError(f"ic mode must be a positive integer, got {self.mode}")
        if self.kind == "file" and not self.path:
            raise InvalidParameterError("ic kind 'file' requires ic path")


@dataclass
class RunResult:
    state: SimState
    records: list
    snapshots: list  # (index, SimState) pairs


def _check_fields(t: float, *fields_: np.ndarray):
    bad = ~np.isfinite(fields_[0])
    for f in fields_[1:]:
        bad |= ~np.isfinite(f)
    if bad.any():
        cell = int(np.argmax(bad))
        raise NumericalBreakdownError(
            f"non-finite field value at t = {t:.6g}, cell {cell}", t=t, cell=cell
        )


def _check_positive_densities(state: SimState):
    neg = (state.n_e <= 0.0) | (state.n_p <= 0.0)
    if neg.any():
        cell = int(np.argmax(neg))
        raise NumericalBreakdownError(
            f"density <= 0 at t = {state.t:.6g}, cell {cell} (cold-fluid wave breaking)",
            t=state.t,
            cell=cell,
        )


def rhs(state: SimState, params: PhysicsParams, opts: SolverOptions):
    """Time derivatives (dE, dn_e, dn_p, dp_e, dp_p) of the semi-discrete system.

    Checks that its input is finite; the derivatives themselves are not
    scanned (rk4_step scans the state it returns).
    """
    _check_fields(state.t, state.E, state.n_e, state.n_p, state.p_e, state.p_p)
    # Bohm and recombination are undefined for n <= 0: stop as a breakdown
    # (with t and cell) rather than fail inside their kernels.
    if opts.stop_on_negative_density or opts.bohm or params.a != 0.0:
        _check_positive_densities(state)
    dx = state.grid.dx

    gamma_e = lorentz_gamma(state.p_e)
    gamma_p = lorentz_gamma(state.p_p)
    flux_e = state.n_e * (state.p_e / gamma_e)
    flux_p = state.n_p * (state.p_p / gamma_p)

    phi = pair_factor(state.E, params.N0, params.eps_field)
    q0 = state.E * state.E * phi
    dn_e = -ddx(flux_e, dx) + q0
    dn_p = -ddx(flux_p, dx) + q0
    current = flux_e - flux_p

    if opts.displacement_terms:
        e_phi = state.E * phi
        disp_e = gamma_e * e_phi
        disp_p = gamma_p * e_phi
        dn_e = dn_e + ddx(disp_e, dx)
        dn_p = dn_p - ddx(disp_p, dx)
        sign = 1.0 if opts.ampere_sign_flip else -1.0
        current = current + sign * (disp_e + disp_p)

    dp_e = -ddx(gamma_e, dx) - state.E
    dp_p = -ddx(gamma_p, dx) + state.E

    if params.a != 0.0:
        loss = recombination_loss(state.n_e, state.n_p, params.a)
        dn_e = dn_e - loss
        dn_p = dn_p - loss
        dp_e = dp_e + recombination_momentum_exchange(state.p_e, state.p_p, state.n_p, params.a)
        dp_p = dp_p + recombination_momentum_exchange(state.p_p, state.p_e, state.n_e, params.a)

    if opts.bohm:
        dp_e = dp_e + 0.5 * ddx(bohm_potential(state.n_e, gamma_e, dx), dx)
        dp_p = dp_p + 0.5 * ddx(bohm_potential(state.n_p, gamma_p, dx), dx)

    if opts.nu_h != 0.0:
        dn_e = dn_e + hyperdiffusion(state.n_e, opts.nu_h)
        dn_p = dn_p + hyperdiffusion(state.n_p, opts.nu_h)
        dp_e = dp_e + hyperdiffusion(state.p_e, opts.nu_h)
        dp_p = dp_p + hyperdiffusion(state.p_p, opts.nu_h)

    return params.omega_pe_sq * current, dn_e, dn_p, dp_e, dp_p


def _shifted(state: SimState, deriv, h: float) -> SimState:
    dE, dn_e, dn_p, dp_e, dp_p = deriv
    return SimState(
        state.grid,
        state.t + h,
        state.E + h * dE,
        state.n_e + h * dn_e,
        state.n_p + h * dn_p,
        state.p_e + h * dp_e,
        state.p_p + h * dp_p,
    )


def rk4_step(state: SimState, dt: float, params: PhysicsParams, opts: SolverOptions) -> SimState:
    """One classical Runge-Kutta step of all five fields; bit-reproducible.

    Raises NumericalBreakdownError if any stage state or the returned state
    holds a non-finite value.
    """
    if not (0.0 < dt <= CFL_MAX * state.grid.dx * (1.0 + 1e-12)):
        raise InvalidParameterError(
            f"dt = {dt} violates the step bound dt <= {CFL_MAX}*dx = {CFL_MAX * state.grid.dx}"
        )
    k1 = rhs(state, params, opts)
    k2 = rhs(_shifted(state, k1, 0.5 * dt), params, opts)
    k3 = rhs(_shifted(state, k2, 0.5 * dt), params, opts)
    k4 = rhs(_shifted(state, k3, dt), params, opts)
    sixth = dt / 6.0
    fields_ = []
    for u, a, b, c, d in zip(
        (state.E, state.n_e, state.n_p, state.p_e, state.p_p), k1, k2, k3, k4
    ):
        fields_.append(u + sixth * ((a + d) + 2.0 * (b + c)))
    _check_fields(state.t + dt, *fields_)
    return SimState(state.grid, state.t + dt, *fields_)


def initial_condition(ic: InitialCondition, grid: Grid1D, params: PhysicsParams) -> SimState:
    """Build a Gauss-law-consistent initial state at t = 0."""
    x = grid.x
    p_e = np.zeros(grid.cells)
    p_p = np.zeros(grid.cells)
    if ic.kind == "gaussian":
        u = x / ic.L
        n_e = ic.base_e + ic.amplitude * u * np.exp(-u * u)
        n_p = np.full(grid.cells, ic.base_p)
    elif ic.kind == "sine":
        k = math.pi * ic.mode / grid.half_width
        n_e = ic.base_e + ic.epsilon * np.sin(k * x)
        n_p = np.full(grid.cells, ic.base_p)
    elif ic.kind == "uniform":
        n_e = np.full(grid.cells, ic.base_e)
        n_p = np.full(grid.cells, ic.base_p)
    else:  # file
        _, fields_ = read_snapshot(ic.path)
        n_e, n_p = fields_["n_e"], fields_["n_p"]
        p_e, p_p = fields_["p_e"], fields_["p_p"]
        if len(n_e) != grid.cells:
            raise InvalidParameterError(
                f"snapshot has {len(n_e)} cells but the grid has {grid.cells}"
            )
    E = poisson_init_E(n_e, n_p, params.omega_pe_sq, grid)
    state = SimState(grid, 0.0, E, n_e, n_p, p_e, p_p)
    _check_fields(0.0, E, n_e, n_p, p_e, p_p)
    _check_positive_densities(state)  # initial data must be strictly positive
    return state


def _plan_steps(opts: SolverOptions, dx: float):
    """Step count and (possibly shrunk) step so the loop lands on t_end."""
    if opts.t_end == 0.0:
        return 0, opts.step_size(dx)
    dt = opts.step_size(dx)
    n_steps = max(1, math.ceil(opts.t_end / dt * (1.0 - 1e-12)))
    if opts.dt is None:
        dt = opts.t_end / n_steps  # cfl mode: divide evenly, never exceeding cfl*dx
    return n_steps, dt


def run(config) -> RunResult:
    """Execute a configured run; collect one diagnostics row per output step.

    `config` is a RunConfig (or anything exposing .physics, .grid, .solver,
    .ic and .output the same way). Series records and field snapshots are
    taken at step 0, every series_every/snapshot_every steps (0 disables the
    periodic cadence) and at the final step. On numerical breakdown the
    partial records/snapshots are attached to the raised error so callers can
    flush them.
    """
    params: PhysicsParams = config.physics
    grid: Grid1D = config.grid
    opts: SolverOptions = config.solver
    series_every = config.output.series_every
    snapshot_every = config.output.snapshot_every

    state = initial_condition(config.ic, grid, params)
    n_steps, dt = _plan_steps(opts, grid.dx)
    initial_n_e = integrate(state.n_e, grid.dx)

    records = [make_record(state, params, initial_n_e)]
    snapshots = [(0, state.copy())]
    snap_index = 1
    try:
        for step in range(1, n_steps + 1):
            state = rk4_step(state, dt, params, opts)
            last = step == n_steps
            if (series_every and step % series_every == 0) or last:
                records.append(make_record(state, params, initial_n_e))
            if (snapshot_every and step % snapshot_every == 0) or last:
                snapshots.append((snap_index, state.copy()))
                snap_index += 1
    except NumericalBreakdownError as err:
        err.records = records
        err.snapshots = snapshots
        raise
    return RunResult(state, records, snapshots)
