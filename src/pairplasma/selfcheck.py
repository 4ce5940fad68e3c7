"""Built-in invariant suite behind the `check` CLI subcommand.

Fast numerical smoke checks of the properties the solver is built on: kernel
parity and limits, operator convergence order, the stencil-exact coupling
between the field update and the continuity equations, and the linear
plasma-oscillation frequency. Each check returns a pass/fail result with a
one-line measurement summary.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants, kernels
from .grid import Grid1D, ddx, integrate
from .kernels import PhysicsParams
from .solver import (
    InitialCondition,
    SimState,
    SolverOptions,
    Workspace,
    initial_condition,
    rhs,
    rk4_step,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_smooth_state(grid: Grid1D, rng: np.random.Generator, n_modes: int = 6) -> SimState:
    """Random band-limited periodic state with strictly positive densities."""

    def smooth(scale: float) -> np.ndarray:
        phase = np.pi * (grid.x + grid.half_width) / grid.half_width
        f = np.zeros(grid.cells)
        for m in range(1, n_modes + 1):
            f += (rng.normal() * np.cos(m * phase) + rng.normal() * np.sin(m * phase)) / m
        peak = np.max(np.abs(f))
        return scale * f / peak if peak > 0 else f

    return SimState(
        grid,
        t=0.0,
        E=smooth(0.8),
        n_e=1.0 + smooth(0.45),
        n_p=1.0 + smooth(0.45),
        p_e=smooth(2.0),
        p_p=smooth(2.0),
    )


def fit_oscillation_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Angular frequency of a (damped) cosine sampled at uniform times.

    Prony's method of order 2: A*exp(-g*t)*cos(w*t + phase) obeys
    y[n+1] = c1*y[n] + c2*y[n-1] exactly, with c1 = 2r*cos(w*dt) and
    c2 = -r^2 (r = exp(-g*dt)); c1 and c2 come from one linear least-squares
    solve. Needs 0 < w*dt < pi.
    """
    (c1, c2), *_ = np.linalg.lstsq(np.column_stack((y[1:-1], y[:-2])), y[2:], rcond=None)
    return math.acos(c1 / (2.0 * math.sqrt(-c2))) / (t[1] - t[0])


def measure_langmuir_period(
    cells: int = 256,
    half_width: float = 2560.0,
    dt: float = 10.0,
    n_periods: float = 4.0,
    mode: int = 2,
    params: PhysicsParams | None = None,
) -> tuple[float, float]:
    """(measured, theoretical) oscillation period of a small sine perturbation.

    Theory for a cold two-fluid plasma with immobile ions: the field at every
    point oscillates at omega^2 = omega_pe^2 * (n_e0 + n_p0), independent of
    the wavenumber, so any small perturbation mode works.
    """
    params = params or PhysicsParams(N0=0.2)
    grid = Grid1D(half_width=half_width, cells=cells)
    ic = InitialCondition(kind="sine", epsilon=1e-6, mode=mode, base_e=1.01, base_p=0.01)
    opts = SolverOptions(dt=dt, t_end=0.0)
    state = initial_condition(ic, grid, params)
    work = Workspace(grid.cells)

    omega_theory = math.sqrt(params.omega_pe_sq * (ic.base_e + ic.base_p))
    k = math.pi * mode / grid.half_width
    probe = np.cos(k * grid.x)

    n_steps = int(round(n_periods * 2.0 * math.pi / omega_theory / dt))
    times = np.empty(n_steps + 1)
    signal = np.empty(n_steps + 1)
    for step in range(n_steps + 1):
        times[step] = state.t
        signal[step] = 2.0 / grid.cells * np.dot(state.E, probe)
        if step < n_steps:
            state = rk4_step(state, dt, params, opts, work)
    omega_measured = fit_oscillation_frequency(times, signal)
    return 2.0 * math.pi / omega_measured, 2.0 * math.pi / omega_theory


def check_kernels(seed: int = 2094) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    e_samples = rng.uniform(-5.0, 5.0, size=200)
    q_plus = kernels.schwinger_rate_norm(e_samples, 0.2)
    q_minus = kernels.schwinger_rate_norm(-e_samples, 0.2)
    results.append(
        CheckResult(
            "kernel parity: q0 even, displacement flux odd",
            bool(
                np.array_equal(q_plus, q_minus)
                and np.array_equal(
                    kernels.displacement_flux(e_samples, 1.5, 0.2),
                    -kernels.displacement_flux(-e_samples, 1.5, 0.2),
                )
            ),
            "checked at 200 random fields",
        )
    )

    results.append(
        CheckResult(
            "kernel positivity: q0 >= 0, gamma >= 1",
            bool(np.all(q_plus >= 0.0) and np.all(kernels.lorentz_gamma(e_samples) >= 1.0)),
            "checked at 200 random arguments",
        )
    )

    small = np.linspace(1e-4, 0.05, 400)
    q_small = kernels.schwinger_rate_norm(small, 0.2)
    worst = max(float(np.max(q_small / small**n)) for n in range(1, 9))
    results.append(
        CheckResult(
            "kernel decay: q0 vanishes faster than any power of E",
            worst < 1e-10,
            f"max q0/E^n over n<=8, |E|<=0.05: {worst:.3e}",
        )
    )

    # Same rate in both unit systems: q0_norm = q0_SI * tau / n0 with
    # n0 = N0 / ((2*pi)^3 lambda^3).
    factor = constants.COMPTON_TIME * (2.0 * math.pi) ** 3 * constants.COMPTON_LENGTH**3
    worst_rel = 0.0
    for _ in range(100):
        n0 = rng.uniform(0.05, 1.0)
        e_norm = rng.uniform(0.05, 5.0) * (-1.0 if rng.random() < 0.5 else 1.0)
        converted = kernels.schwinger_rate_si(e_norm * constants.E_CRIT) * factor / n0
        norm = kernels.schwinger_rate_norm(e_norm, n0)
        worst_rel = max(worst_rel, abs(converted - norm) / norm)
    results.append(
        CheckResult(
            "kernel units: SI and normalized rates agree",
            worst_rel < 1e-12,
            f"max relative difference over 100 fields: {worst_rel:.3e}",
        )
    )
    return results


def check_operators() -> list[CheckResult]:
    results = []
    errors = []
    for cells in (64, 128, 256):
        grid = Grid1D(half_width=10.0, cells=cells)
        k = 2.0 * math.pi / grid.length
        err = np.max(np.abs(ddx(np.sin(k * grid.x), grid.dx) - k * np.cos(k * grid.x)))
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    results.append(
        CheckResult(
            "operator convergence: ddx is 4th order",
            all(r >= 15.0 for r in ratios),
            f"error reduction per doubling: {', '.join(f'{r:.1f}x' for r in ratios)}",
        )
    )

    grid = Grid1D(half_width=10.0, cells=128)
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid.cells)
    total = abs(integrate(ddx(f, grid.dx), grid.dx))
    results.append(
        CheckResult(
            "operator telescoping: integral of ddx(f) vanishes",
            total < 1e-12,
            f"|integral| = {total:.3e} for random periodic f",
        )
    )
    return results


def check_field_update_identity(seed: int = 411, n_states: int = 25) -> list[CheckResult]:
    """d/dx(dE/dt) must equal w2*(dn_p/dt - dn_e/dt) stencil-exactly."""
    rng = np.random.default_rng(seed)
    params = PhysicsParams(N0=0.2)
    opts = SolverOptions(t_end=1.0)
    grid = Grid1D(half_width=24000.0, cells=512)
    worst = 0.0
    for _ in range(n_states):
        state = random_smooth_state(grid, rng)
        dE, dn_e, dn_p, _, _ = rhs(state, params, opts)
        lhs = ddx(dE, grid.dx)
        rhs_side = params.omega_pe_sq * (dn_p - dn_e)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs_side)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs_side)) / scale))
    return [
        CheckResult(
            "field update: charge-conservation identity is stencil-exact",
            worst <= 1e-13,
            f"worst relative mismatch over {n_states} random states: {worst:.3e}",
        )
    ]


def check_langmuir() -> list[CheckResult]:
    measured, theory = measure_langmuir_period()
    rel = abs(measured - theory) / theory
    return [
        CheckResult(
            "linear physics: plasma oscillation period within 1%",
            rel < 0.01,
            f"measured {measured:.4f} vs theory {theory:.4f} (rel. err {rel:.2e})",
        )
    ]


def run_all() -> list[CheckResult]:
    results = []
    results += check_kernels()
    results += check_operators()
    results += check_field_update_identity()
    results += check_langmuir()
    return results
