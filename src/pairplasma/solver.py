"""Semi-discrete right-hand side of the two-fluid system and RK4 time advance.

Evolved fields (normalized units) on one periodic grid:

    dn_e/dt = -d/dx(F_e) + q0 - a n_e n_p,   F_e = n_e p_e/g_e - D_e
    dn_p/dt = -d/dx(F_p) + q0 - a n_e n_p,   F_p = n_p p_p/g_p + D_p
    dp_e/dt = -d/dx(g_e [- Q_e/2]) - E  [+ recombination drag]
    dp_p/dt = -d/dx(g_p [- Q_p/2]) + E  [+ recombination drag]
    dE/dt   = w2 * (n_e p_e/g_e - n_p p_p/g_p - (D_e + D_p))

with g_s = sqrt(1 + p_s^2), q0 the pair creation rate, D_s = g_s q0 / E the
pair-displacement flux, Q_s the Bohm potential (when on) and w2 the squared
plasma frequency. Momentum advection uses the cold-fluid identity
(p/g) dp/dx = dg/dx. Each evolved equation takes one first-derivative
stencil: of its combined flux F_s, or of g_s - Q_s/2.

The sign of the displacement term in dE/dt is the one obtained by
differentiating the Gauss law in time and substituting the continuity
equations: dE/dt = w2 * (F_e - F_p). The continuity equations take their
stencils of the same F_e and F_p, so d/dx(dE/dt) == w2*(dn_p/dt - dn_e/dt)
holds stencil-for-stencil, up to rounding, and the Gauss constraint is a
linear invariant of the semi-discrete system that RK4 preserves to
rounding. It also makes pair creation drain field energy rather than add
it; the opposite sign would break both properties. Hyperdiffusion
(nu_h > 0) adds the fourth-difference damping -nu_h d4 f to all five
equations, E's included: d4 and the stencil commute and d4 of a constant
is 0, so ddx(d4 E) = w2 d4(n_p - n_e) and the Gauss law stays an
invariant.

The electric field is advanced through this Ampere-type law; the Gauss law
is used only to build the initial field and as a residual diagnostic.

Cold-fluid flows at these amplitudes steepen into caustics (wave breaking),
past which the fluid description is no longer trustworthy pointwise. The
integrator requires strictly positive densities in the initial data and
aborts on non-finite values, but by default it integrates through density
zero-crossings at a caustic rather than stopping. The scheme stays finite
there, but past the caustic the run does not converge in M: with the default
physics at dt = 0.586, the t = 1500 values of M <= 4096 agree to about 1e-8,
M = 8192 moves delta_pairs by 1.7e-4 (relative) and max|E| by 71%, and
M = 16384 moves them by 5.4% and 6.3x. Hyperdiffusion (nu_h = 0.1) restores
convergence. Set `stop_on_negative_density` to treat any n <= 0 as a hard
stop instead; with the Bohm or recombination term on, undefined there, it
always applies. It scans the stage states, so at cfl 0.4 it stops at
t = 1293.75 (M = 512) and 1195.31 (M = 2048), before the first step states
with n <= 0 at 1312.5 and 1218.75. No clamping or smoothing is ever applied.

A state stores its five fields as the rows of one (5, M) array `u` (E, n_e,
n_p, p_e, p_p), and the derivatives, stage states and RK4 sums are (5, M)
arrays in the same order. The model is symmetric in the two species, so
each term of a species pair, (n_e, n_p) or (p_e, p_p), is one numpy call on
two rows, a stage state u + h k is two calls on the whole array, and one
stencil call differentiates both combined fluxes and both g_s (or
g_s - Q_s/2). The results are bit-identical to evaluating every
field on its own: each operation is elementwise, in the same order.

Finite checks run on every state the integrator evaluates, each once.
`initial_condition` scans the initial state and `rk4_step` the state it
returns; `rhs` scans its input unless its workspace holds that state's
gamma and phi (below), and consumes them. `rk4_step` leaves its workspace
primed for the state it returns, so stage 1 of the next step through the
same workspace, in `run` or in a caller's own loop, skips the scan: a step
makes four scans, of the inputs of stages 2-4 and of its result, one
`isfinite` over all five rows each. Derivatives are not scanned, because a
non-finite derivative makes the next stage state or the step result
non-finite. Each check raises NumericalBreakdownError (`_breakdown`) naming
the time, the first offending cell (column), whichever row holds the bad
value, and the five field values there. With the Bohm term, recombination
or `stop_on_negative_density` on, `rhs` also checks n > 0 once per stage,
and evaluates those terms in place without a second density scan.

Each stage evaluates gamma_s and the guarded factor phi = exp(-pi/|E|)/N0
(`kernels.pair_factor`) once and shares them: q0 = E^2 phi and
D_s = g_s (E phi). For the state a step returns they are computed once,
by `rk4_step` (`Workspace.prime`), and used by both its series record
(`diagnostics.make_record`, which allocates no array of M values) and the
next step's stage 1; the initial state's record primes it.

`run` allocates one `kernels.Workspace` after `initial_condition` and steps
through it, with results bit-identical to evaluating each formula into new
arrays. A workspace belongs to one run (or one caller) and is not shared;
`rk4_step` returns a state with a new array, so states and snapshots never
alias it. Without a workspace `rhs` and `rk4_step` build a fresh one, so
they stay pure and may be evaluated concurrently on snapshots.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import make_record
from .errors import ConfigError, NumericalBreakdownError
from .grid import (
    Grid1D,
    bohm_potential,
    ddx,
    hyperdiffusion,
    integrate,
    poisson_init_E,
)
from .kernels import PhysicsParams, Workspace, lorentz_gamma
from .output import SNAPSHOT_COLUMNS, read_snapshot

# Hard step-size ceiling: signal speeds never exceed c = 1 in these units.
CFL_MAX = 0.5

# RK4 is stable on the negative real axis for |lambda*dt| up to about 2.785,
# and on the imaginary axis up to 2*sqrt(2). Hyperdiffusion damps the
# grid-scale mode at rate 16*nu_h. The Bohm term is dispersive: its fastest
# grid mode (theta = k*dx near 2.07) oscillates at BOHM_OMEGA_DX2/dx^2, the
# maximum over theta of |k1|*sqrt(k2)/2 * dx^2 (k1, k2 the symbols of the
# first- and second-derivative stencils), rounded up. The triangle with
# vertices 0, -RK4_REAL_LIMIT and i*RK4_IMAG_LIMIT lies inside RK4's stability
# region, and the eigenvalues of the two terms, -nu_h (2 - 2 cos theta)^2
# +- i omega(theta), lie in the rectangle [-16 nu_h, 0] x [-omega_max, omega_max].
# So a step is stable when that rectangle times dt stays in the triangle:
#     16*nu_h*dt/RK4_REAL_LIMIT + omega_max*dt/RK4_IMAG_LIMIT <= 1,
# with omega_max = 0 when the Bohm term is off.
RK4_REAL_LIMIT = 2.785
RK4_IMAG_LIMIT = 2.0 * math.sqrt(2.0)
BOHM_OMEGA_DX2 = 1.258294

IC_KINDS = ("gaussian", "sine", "file")


@dataclass
class SimState:
    """Time plus the five evolved fields, all on one grid.

    The fields are the rows of one C-contiguous (5, M) array `u`, in the
    order E, n_e, n_p, p_e, p_p. `E`, `n_e`, ... are views of its rows, and
    `n` = u[1:3] and `p` = u[3:5] are the species pairs. Build a state from
    five separate fields with `SimState.from_fields`.
    """

    grid: Grid1D
    t: float
    u: np.ndarray

    @classmethod
    def from_fields(cls, grid: Grid1D, t: float, E, n_e, n_p, p_e, p_p) -> "SimState":
        """A state holding a copy of the five fields, stacked into one array."""
        return cls(grid, t, np.array((E, n_e, n_p, p_e, p_p), dtype=np.float64))

    @property
    def E(self) -> np.ndarray:
        return self.u[0]

    @property
    def n_e(self) -> np.ndarray:
        return self.u[1]

    @property
    def n_p(self) -> np.ndarray:
        return self.u[2]

    @property
    def p_e(self) -> np.ndarray:
        return self.u[3]

    @property
    def p_p(self) -> np.ndarray:
        return self.u[4]

    @property
    def n(self) -> np.ndarray:
        return self.u[1:3]

    @property
    def p(self) -> np.ndarray:
        return self.u[3:5]

    def copy(self) -> "SimState":
        return SimState(self.grid, self.t, self.u.copy())


@dataclass
class SolverOptions:
    """Time integration and model-term switches.

    A run's step is at most cfl*dx (see `_plan_steps`); `rk4_step` takes its
    dt from the caller and reads no step from here.
    """

    cfl: float = 0.4
    t_end: float = 1500.0
    displacement_terms: bool = True
    bohm: bool = False
    nu_h: float = 0.0
    stop_on_negative_density: bool = False

    def __post_init__(self):
        if not (0.0 < self.cfl <= CFL_MAX):
            raise ConfigError(f"solver.cfl = {self.cfl!r} must be in (0, {CFL_MAX}]")
        if not (self.t_end >= 0.0):
            raise ConfigError(f"solver.t_end = {self.t_end!r} must be >= 0")
        if not (self.nu_h >= 0.0):
            raise ConfigError(f"solver.nu_h = {self.nu_h!r} must be >= 0 (0 disables)")


def check_config_path(key: str, path: str):
    """Reject a path that a config cannot hold: '#' starts a comment, a line
    break ends the line, blanks around a value are stripped and no file name
    holds a NUL."""
    if "#" in path or "\0" in path or path != path.strip() or len(path.splitlines()) != 1:
        raise ConfigError(
            f"{key} = {path!r} cannot be written in a config: it must be non-empty, "
            "without '#', NUL or line breaks, and not start or end with a blank"
        )


@dataclass
class InitialCondition:
    """Initial-state description.

    kind 'gaussian': n_e = 1 + base_p + amplitude*(x/L)*exp(-x^2/L^2), n_p = base_p
    kind 'sine':     n_e = 1 + base_p + amplitude*sin(pi*mode*x/X),     n_p = base_p
    kind 'file':     n_e, n_p, p_e, p_p read from a snapshot CSV at `path`

    The electron background 1 + base_p neutralizes the positrons and the
    immobile ion density 1; a uniform plasma is a Gaussian of amplitude 0.
    Momenta start at zero unless the file provides them; E always comes from
    the Gauss-law solve so the state starts constraint-consistent. base_p
    must be positive, a Gaussian's L at least one cell, and a snapshot must
    have the grid's cell count, its x column exactly the grid's cell centres
    and no net charge (else the run stops with a configuration error). A
    restart runs from t = 0: the snapshot's own time is not carried over.
    """

    kind: str = "gaussian"
    L: float = 6000.0
    base_p: float = 0.01
    amplitude: float = 2.0
    mode: int = 2
    path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in IC_KINDS:
            raise ConfigError(f"ic.kind = {self.kind!r} must be one of {', '.join(IC_KINDS)}")
        if not (self.L > 0.0):
            raise ConfigError(f"ic.L = {self.L!r} must be positive")
        if not (self.base_p > 0.0):
            raise ConfigError(f"ic.base_p = {self.base_p!r} must be positive")
        # the wavenumber pi*mode/X needs a mode that converts to a float
        if not 1 <= self.mode <= sys.float_info.max:
            raise ConfigError(
                f"ic.mode = {self.mode!r} must be an integer in [1, {sys.float_info.max!r}]"
            )
        if self.kind == "file" and not self.path:
            raise ConfigError("ic.kind = file needs ic.path")
        if self.path is not None:
            check_config_path("ic.path", self.path)
            if self.kind != "file":
                raise ConfigError(
                    f"ic.path is read only with ic.kind = file, but ic.kind = {self.kind}"
                )


@dataclass
class RunResult:
    records: list
    snapshots: list  # states in file order: snapshots[i] is fields_{i:06d}.csv

    @property
    def state(self) -> SimState:
        return self.snapshots[-1]  # a finished run's final state


def _breakdown(reason: str, t: float, u: np.ndarray, at: np.ndarray) -> NumericalBreakdownError:
    """The NumericalBreakdownError for `reason` at time t, in the cell where
    the M values `at` are largest (for per-cell flags, the first set one).
    Its message names t, the cell and the values of u's five rows there."""
    cell = int(np.argmax(at))
    values = ", ".join(f"{name} = {v:.6g}" for name, v in zip(SNAPSHOT_COLUMNS[1:], u[:, cell]))
    message = f"{reason} at t = {t:.6g}, cell {cell}: {values}"
    return NumericalBreakdownError(message, t=t, cell=cell)


def _check_fields(t: float, u: np.ndarray):
    """Raise NumericalBreakdownError at the first cell where any row of u is not finite."""
    finite = np.isfinite(u)
    if not finite.all():
        raise _breakdown("non-finite field value", t, u, ~finite.all(axis=0))


def _check_positive_densities(state: SimState, reason="density <= 0 (cold-fluid wave breaking)"):
    neg = state.n <= 0.0
    if neg.any():
        raise _breakdown(reason, state.t, state.u, neg.any(axis=0))


def rhs(state: SimState, params: PhysicsParams, opts: SolverOptions, work=None, out=None):
    """Time derivatives of the semi-discrete system, as a (5, M) array.

    Its rows are dE, dn_e, dn_p, dp_e, dp_p, in the order of a state's `u`.
    Checks that its input is finite unless `work` is primed for this state,
    and leaves `work` unprimed; the derivatives are not scanned (rk4_step
    scans the state it returns). Uses a new Workspace when `work` is None,
    and writes into the (5, M) array `out` when given, else into a new one;
    with nu_h > 0 it also writes over `work.stage`, as scratch.
    """
    if work is None:
        work = Workspace(state.grid.cells)
    u = state.u
    if work.primed is not state:
        _check_fields(state.t, u)
        work.prime(state, params)
    work.primed = None  # the stencil stack below may overwrite the gammas
    # Bohm and recombination are undefined for n <= 0: stop as a breakdown
    # (with t and cell). This is their one density check; the kernels have none.
    if opts.stop_on_negative_density or opts.bohm or params.a != 0.0:
        _check_positive_densities(state)
    if out is None:
        out = np.empty(u.shape)
    dx = state.grid.dx
    E, n, p = u[0], u[1:3], u[3:5]
    dE, dn, dp = out[0], out[1:3], out[3:5]
    pad, tmp, scratch, gamma = work.pad, work.tmp, work.scratch, work.gamma

    flux = np.divide(p, gamma, out=pad[:2, 2:-2])
    flux *= n
    current = np.subtract(flux[0], flux[1], out=dE)
    if opts.displacement_terms:
        # D_s waits in the dn slots, which the stencil below overwrites
        e_phi = np.multiply(E, work.phi, out=scratch)
        disp = np.multiply(gamma, e_phi, out=dn)
        current -= np.add(disp[0], disp[1], out=scratch)
        flux[0] -= disp[0]
        flux[1] += disp[1]
    current *= params.omega_pe_sq
    q0 = np.multiply(E, E, out=scratch)
    q0 *= work.phi

    if opts.bohm:
        half_q = bohm_potential(n, gamma, dx, out=tmp[2:4], s=pad[4:6], tmp=tmp[:2])
        half_q *= 0.5
        np.subtract(gamma, half_q, out=gamma)
    # one stencil per evolved equation, all four in one call
    ddx(pad[:4], dx, out=out[1:5], tmp=tmp[:4])
    np.subtract(q0, dn, out=dn)
    # -ddx - E and -ddx + E, which equals E - ddx in every bit
    np.negative(dp, out=dp)
    dp[0] -= E
    dp[1] += E

    if params.a != 0.0:
        # the loss a*(n_e*n_p) and the drag -a*(n_other*(p_self - p_other)),
        # without a second n >= 0 scan
        loss = np.multiply(n[0], n[1], out=scratch)
        loss *= params.a
        dn -= loss
        drag = np.subtract(p, p[::-1], out=tmp[:2])
        drag *= n[::-1]
        drag *= -params.a
        dp += drag

    if opts.nu_h != 0.0:
        # `pad` is free once the stencil has run, `stage` once u is copied;
        # E is damped too, so the Gauss law stays an invariant (module docstring)
        pad[:5, 2:-2] = u
        out += hyperdiffusion(pad[:5], opts.nu_h, out=tmp, tmp=work.stage)

    return out


def _stage(state: SimState, deriv: np.ndarray, h: float, work: Workspace) -> SimState:
    """The RK4 stage state u + h*k, in the workspace's stage buffer."""
    s = np.multiply(deriv, h, out=work.stage)
    s += state.u
    return SimState(state.grid, state.t + h, work.stage)


def _check_stability(dt: float, dx: float, opts: SolverOptions):
    """Raise ConfigError if dt breaks the stability rule at RK4_REAL_LIMIT.

    The rule is multiplied through by RK4_REAL_LIMIT, so that with the Bohm
    term off it is exactly 16*nu_h*dt <= RK4_REAL_LIMIT.
    """
    omega_max = BOHM_OMEGA_DX2 / (dx * dx) if opts.bohm else 0.0
    if 16.0 * opts.nu_h * dt + RK4_REAL_LIMIT / RK4_IMAG_LIMIT * omega_max * dt <= RK4_REAL_LIMIT:
        return
    if not opts.bohm:
        raise ConfigError(
            f"solver.nu_h = {opts.nu_h} at dt = {dt} breaks RK4's stability bound "
            f"16*nu_h*dt <= {RK4_REAL_LIMIT}; the largest nu_h allowed at this dt is "
            f"{RK4_REAL_LIMIT / (16.0 * dt):.6g}"
        )
    rate = 16.0 * opts.nu_h / RK4_REAL_LIMIT + omega_max / RK4_IMAG_LIMIT
    terms = f"solver.bohm = on and solver.nu_h = {opts.nu_h}" if opts.nu_h else "solver.bohm = on"
    raise ConfigError(
        f"{terms} at dt = {dt} (dx = {dx:.6g}) breaks RK4's stability bound "
        f"16*nu_h*dt/{RK4_REAL_LIMIT} + {BOHM_OMEGA_DX2}*dt/(2*sqrt(2)*dx^2) <= 1 "
        f"(here {rate * dt:.4g}); the largest dt allowed is {1.0 / rate:.6g} "
        f"(cfl {1.0 / (rate * dx):.6g})"
    )


def rk4_step(
    state: SimState, dt: float, params: PhysicsParams, opts: SolverOptions, work=None
) -> SimState:
    """One classical Runge-Kutta step of all five fields; bit-reproducible.

    Steps through `work` (a new Workspace when None) and returns a state
    with a new array, leaving `work` primed for it. Raises
    NumericalBreakdownError if any stage state or the returned state holds
    a non-finite value, and ConfigError if dt breaks the CFL
    bound or puts hyperdiffusion or the Bohm term outside RK4's stability
    region (see RK4_REAL_LIMIT).
    """
    if not (0.0 < dt <= CFL_MAX * state.grid.dx * (1.0 + 1e-12)):
        raise ConfigError(
            f"dt = {dt} violates the step bound dt <= {CFL_MAX}*dx = {CFL_MAX * state.grid.dx}"
        )
    _check_stability(dt, state.grid.dx, opts)
    if work is None:
        work = Workspace(state.grid.cells)
    slot_a, slot_b, slot_c = work.k
    half = 0.5 * dt
    k1 = rhs(state, params, opts, work, out=slot_a)
    k2 = rhs(_stage(state, k1, half, work), params, opts, work, out=slot_b)
    k3 = rhs(_stage(state, k2, half, work), params, opts, work, out=slot_c)
    k2 += k3
    k4 = rhs(_stage(state, k3, dt, work), params, opts, work, out=slot_c)
    # u + dt/6 * ((k1 + k4) + 2 (k2 + k3)) in this order, accumulated in k1's and k2's slots
    k1 += k4
    k2 *= 2.0
    k1 += k2
    k1 *= dt / 6.0
    u = np.add(state.u, k1)
    _check_fields(state.t + dt, u)
    result = SimState(state.grid, state.t + dt, u)
    # gamma and phi of the result, shared by its record and the next step's stage 1
    work.prime(result, params)
    return result


# numpy warns of no overflow or invalid value here: the finite scan and the
# energy check below report them with their cell
@np.errstate(over="ignore", invalid="ignore")
def initial_condition(ic: InitialCondition, grid: Grid1D, params: PhysicsParams) -> SimState:
    """Build a Gauss-law-consistent initial state at t = 0."""
    x = grid.x
    p_e = np.zeros(grid.cells)
    p_p = np.zeros(grid.cells)
    base_e = 1.0 + ic.base_p  # neutral with the ions
    if ic.kind == "gaussian":
        if ic.L < grid.dx:
            # (x/L)^2 would overflow and leave a uniform plasma
            raise ConfigError(
                f"ic.L = {ic.L!r} is narrower than one cell (grid dx = {grid.dx!r}); "
                "the Gaussian is not resolved"
            )
        u = x / ic.L
        n_e = base_e + ic.amplitude * u * np.exp(-u * u)
        n_p = np.full(grid.cells, ic.base_p)
    elif ic.kind == "sine":
        k = math.pi * ic.mode / grid.half_width
        n_e = base_e + ic.amplitude * np.sin(k * x)
        n_p = np.full(grid.cells, ic.base_p)
    else:  # file
        _, fields_ = read_snapshot(ic.path)
        n_e, n_p = fields_["n_e"], fields_["n_p"]
        p_e, p_p = fields_["p_e"], fields_["p_p"]
        if len(n_e) != grid.cells:
            raise ConfigError(
                f"snapshot {ic.path} has {len(n_e)} cells but the grid has {grid.cells}"
            )
        if not np.array_equal(fields_["x"], grid.x):
            raise ConfigError(
                f"snapshot {ic.path}: its x column is not the grid's cell centres "
                f"(half_width {grid.half_width!r}, cells {grid.cells})"
            )
    try:
        E = poisson_init_E(n_e, n_p, params.omega_pe_sq, grid)
    except ConfigError as err:
        if ic.kind == "file":
            # the snapshot's own densities carry the charge: a bad input file
            raise ConfigError(f"snapshot {ic.path}: {err}") from None
        # the odd Gaussian and the whole-period sine are neutral: only rounding
        # at an extreme amplitude (or background) charges them
        raise ConfigError(
            f"ic.amplitude = {ic.amplitude!r} and ic.base_p = {ic.base_p!r} charge the "
            f"neutral {ic.kind} state by rounding: {err}"
        ) from None
    state = SimState.from_fields(grid, 0.0, E, n_e, n_p, p_e, p_p)
    _check_fields(0.0, state.u)
    # a finite state whose energy overflows has no energy to record: the
    # densities E^2/(2 w2), n_e g_e and n_p g_p, then their integral
    field = E * E / (2.0 * params.omega_pe_sq)
    density = np.concatenate(([field], state.n * lorentz_gamma(state.p)))
    finite = np.isfinite(density)
    for name, rows in (("field", finite[:1]), ("kinetic", finite[1:])):
        if not rows.all():
            raise _breakdown(f"{name} energy density overflows", 0.0, state.u, ~rows.all(axis=0))
    if not math.isfinite(integrate(density, grid.dx)):
        # at the cell of the largest energy density
        raise _breakdown("total energy overflows", 0.0, state.u, density.max(axis=0))
    _check_positive_densities(state, "density <= 0 in the initial state")
    return state


def _plan_steps(opts: SolverOptions, dx: float):
    """Step count and step so the loop lands on t_end.

    The step cfl*dx shrinks to t_end / n_steps, with n_steps the fewest
    steps of at most cfl*dx that reach t_end. A step too small to advance
    t_end by one rounding unit is a configuration error, not a plan of
    more than 2^53 steps.
    """
    dt = opts.cfl * dx
    if opts.t_end == 0.0:
        return 0, dt
    if opts.t_end + dt == opts.t_end:
        raise ConfigError(
            f"the step dt = cfl*dx = {opts.cfl!r}*{dx!r} = {dt!r} is too small to "
            f"advance t at t_end = {opts.t_end!r}; raise solver.cfl or grid.half_width, "
            "or lower grid.cells"
        )
    n_steps = max(1, math.ceil(opts.t_end / dt * (1.0 - 1e-12)))
    return n_steps, opts.t_end / n_steps


def run(config) -> RunResult:
    """Execute a configured run; collect its series records and snapshots.

    `config` is a RunConfig (or anything exposing .physics, .grid, .solver,
    .ic and .output the same way). Series records and field snapshots are
    taken at step 0, every series_every/snapshot_every steps (0 disables the
    periodic cadence) and at the final step. On numerical breakdown, the
    initial state's included, the result so far is attached to the raised
    error as `err.result` so callers can flush it.
    """
    params: PhysicsParams = config.physics
    grid: Grid1D = config.grid
    opts: SolverOptions = config.solver
    series_every = config.output.series_every
    snapshot_every = config.output.snapshot_every

    n_steps, dt = _plan_steps(opts, grid.dx)
    result = RunResult([], [])
    try:
        state = initial_condition(config.ic, grid, params)
        initial_n_e = integrate(state.n_e, grid.dx)
        work = Workspace(grid.cells)
        result.records.append(make_record(state, params, initial_n_e, work))
        result.snapshots.append(state)
        for step in range(1, n_steps + 1):
            # an overflow or invalid value in a step that leaves a field
            # non-finite is reported by its finite scans with t and cell;
            # numpy's warnings would only add source lines to that message
            with np.errstate(over="ignore", invalid="ignore"):
                state = rk4_step(state, dt, params, opts, work)
            last = step == n_steps
            if (series_every and step % series_every == 0) or last:
                result.records.append(make_record(state, params, initial_n_e, work))
            if (snapshot_every and step % snapshot_every == 0) or last:
                result.snapshots.append(state)
    except NumericalBreakdownError as err:
        err.result = result
        raise
    return result
