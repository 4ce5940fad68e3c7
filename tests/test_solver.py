"""Solver tests: equilibria, frozen uniform-state derivatives, linear physics,
conservation structure, symmetry, breakdown handling."""

import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import pairplasma.kernels as kernels
import pairplasma.solver as sv
from pairplasma.config import OutputConfig, parse_config
from pairplasma.diagnostics import SERIES_COLUMNS, make_record
from pairplasma.errors import InvalidParameterError, NumericalBreakdownError
from pairplasma.grid import Grid1D, ddx, hyperdiffusion, integrate
from pairplasma.kernels import PhysicsParams, pair_factor
from pairplasma.selfcheck import (
    fit_oscillation_frequency,
    measure_bohm_dispersion,
    measure_langmuir_period,
    measure_recombination_error,
    random_smooth_state,
)
from pairplasma.solver import (
    InitialCondition,
    SimState,
    SolverOptions,
    Workspace,
    initial_condition,
    rhs,
    rk4_step,
    run,
)
from test_grid import roll_d2dx2, roll_ddx, roll_hyperdiffusion

mp.mp.dps = 50

PARAMS = PhysicsParams(N0=0.2, alpha=1.0 / 137.0)


def uniform_state(grid, e_field=0.0, n_e=1.01, n_p=0.01, p_e=0.0, p_p=0.0):
    m = grid.cells
    return SimState.from_fields(
        grid,
        0.0,
        np.full(m, float(e_field)),
        np.full(m, float(n_e)),
        np.full(m, float(n_p)),
        np.full(m, float(p_e)),
        np.full(m, float(p_p)),
    )


class TestRhs:
    def test_quiescent_equilibrium(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        for deriv in rhs(state, PARAMS, SolverOptions(t_end=1.0)):
            assert np.all(deriv == 0.0)

    def test_uniform_strong_field(self):
        # E = 0.5 everywhere, both fluids at rest with unit density:
        # the only nonzero derivatives are the local source/force terms.
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid, e_field=0.5, n_e=1.0, n_p=1.0)
        dE, dn_e, dn_p, dp_e, dp_p = rhs(state, PARAMS, SolverOptions(t_end=1.0))

        q0 = float(mp.mpf("0.25") / mp.mpf("0.2") * mp.e ** (-2 * mp.pi))
        w2 = mp.sqrt(2 * (mp.mpf(1) / 137) * mp.mpf("0.2")) / (2 * mp.pi)
        de_want = float(-(w2**2) * 2 * (mp.mpf("0.25") / mp.mpf("0.2") * mp.e ** (-2 * mp.pi)) / mp.mpf("0.5"))

        assert np.all(dp_e == -0.5)
        assert np.all(dp_p == 0.5)
        np.testing.assert_allclose(dn_e, q0, rtol=1e-13)
        np.testing.assert_allclose(dn_p, q0, rtol=1e-13)
        np.testing.assert_allclose(dE, de_want, rtol=1e-13)
        assert dE[0] == pytest.approx(-6.905e-7, rel=1e-3)

    def test_displacement_off_removes_field_source(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid, e_field=0.5, n_e=1.0, n_p=1.0)
        dE, dn_e, dn_p, _, _ = rhs(state, PARAMS, SolverOptions(t_end=1.0, displacement_terms=False))
        assert np.all(dE == 0.0)  # no currents, no displacement correction
        assert np.all(dn_e == dn_p)

    def test_ampere_sign_flip(self):
        # The displacement sign in dE/dt is the solver's only one, and not a
        # free choice: the opposite sign, kept here in the reference, breaks
        # the stencil charge identity and makes pair creation add field
        # energy instead of drawing it from the field.
        opts = SolverOptions(t_end=1.0)
        grid = Grid1D(half_width=24000.0, cells=512)
        state = random_smooth_state(grid, np.random.default_rng(97))
        assert np.array_equal(rhs(state, PARAMS, opts), np.array(reference_rhs(state, PARAMS, opts)))
        for sign, holds in ((-1.0, True), (1.0, False)):
            dE, dn_e, dn_p, _, _ = reference_rhs(state, PARAMS, opts, sign=sign)
            lhs = ddx(dE, grid.dx)
            rhs_side = PARAMS.omega_pe_sq * (dn_p - dn_e)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs_side)))
            assert (np.max(np.abs(lhs - rhs_side)) <= 1e-13 * scale) == holds
        # a uniform field over a plasma at rest: pairs are created, and the
        # field energy E^2/(2 w2) changes at the rate integral(E dE/dt)/w2
        uniform = uniform_state(Grid1D(half_width=100.0, cells=64), e_field=0.5, n_e=1.0, n_p=1.0)
        for sign in (-1.0, 1.0):
            dE, dn_e, dn_p, _, _ = reference_rhs(uniform, PARAMS, opts, sign=sign)
            assert np.all(dn_e > 0.0) and np.all(dn_p > 0.0)
            assert np.sign(np.sum(uniform.E * dE)) == sign

    def test_recombination_terms(self):
        grid = Grid1D(half_width=100.0, cells=64)
        params = PhysicsParams(N0=0.2, alpha=1.0 / 137.0, a=0.5)
        state = uniform_state(grid, n_e=2.0, n_p=1.0, p_e=1.0, p_p=0.0)
        _, dn_e, dn_p, dp_e, dp_p = rhs(state, params, SolverOptions(t_end=1.0))
        np.testing.assert_allclose(dn_e, -0.5 * 2.0 * 1.0, rtol=1e-15)
        np.testing.assert_allclose(dn_p, -0.5 * 2.0 * 1.0, rtol=1e-15)
        # drag pulls the momenta together, no field force (E = 0)
        np.testing.assert_allclose(dp_e, -0.5 * 1.0 * (1.0 - 0.0), rtol=1e-15)
        np.testing.assert_allclose(dp_p, -0.5 * 2.0 * (0.0 - 1.0), rtol=1e-15)

    def test_recombination_in_place_equals_kernels(self, monkeypatch):
        # rhs adds the drag itself, in the public kernel's order of operations,
        # without its density scan (it has checked n > 0); the loss a*(n_e*n_p)
        # is pinned bit for bit by TestWorkspaceReference's a = 1e-4 config
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(3))
        params = PhysicsParams(N0=0.2, alpha=1.0 / 137.0, a=0.5)
        opts = SolverOptions(t_end=1.0)
        dE, _, _, dp_e, dp_p = rhs(state, PARAMS, opts)
        drag_e = kernels.recombination_momentum_exchange(state.p_e, state.p_p, state.n_p, params.a)
        drag_p = kernels.recombination_momentum_exchange(state.p_p, state.p_e, state.n_e, params.a)

        def refuse(*args, **kwargs):
            raise AssertionError("rhs called a public recombination kernel")

        monkeypatch.setattr(kernels, "recombination_momentum_exchange", refuse)
        monkeypatch.setattr(sv, "recombination_momentum_exchange", refuse, raising=False)
        got = rhs(state, params, opts)
        for g, w in zip(got[[0, 3, 4]], (dE, dp_e + drag_e, dp_p + drag_p)):
            assert np.array_equal(g, w)

    def test_nan_rejected(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        state.p_e[5] = np.nan
        with pytest.raises(NumericalBreakdownError) as excinfo:
            rhs(state, PARAMS, SolverOptions(t_end=1.0))
        assert excinfo.value.cell == 5

    def test_strict_positivity_mode(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        state.n_p[7] = -1e-6
        rhs(state, PARAMS, SolverOptions(t_end=1.0))  # tolerated by default
        with pytest.raises(NumericalBreakdownError) as excinfo:
            rhs(state, PARAMS, SolverOptions(t_end=1.0, stop_on_negative_density=True))
        assert excinfo.value.cell == 7


# The model's terms, off and on, each with the (cfl, steps) of its Gauss-law
# run (M = 256) and of its mirror run (M = 128). The long runs reach t = 3750
# at cfl 0.4, into the default model's strongly nonlinear regime. The short
# ones take cfl 0.1 and stop at t = 1200 and t = 450: with the Bohm term or
# recombination a density reaches zero at the caustic (t = 1350 at M = 256,
# t = 600 at M = 128), nu_h = 2e-3 breaks RK4's stability bound at cfl 0.4
# and M = 128, and without the displacement terms the mirror run's field
# overflows at t = 3225.
LONG_GAUSS, SHORT_GAUSS = (0.4, 50), (0.1, 64)
LONG_MIRROR, SHORT_MIRROR = (0.4, 25), (0.1, 12)
INVARIANT_CONFIGS = {
    "default": (PARAMS, SolverOptions(t_end=1.0), LONG_GAUSS, LONG_MIRROR),
    "displacement_off": (
        PARAMS,
        SolverOptions(t_end=1.0, displacement_terms=False),
        LONG_GAUSS,
        SHORT_MIRROR,
    ),
    "bohm": (PARAMS, SolverOptions(t_end=1.0, bohm=True), SHORT_GAUSS, SHORT_MIRROR),
    "recombination": (
        dataclasses.replace(PARAMS, a=1e-4),
        SolverOptions(t_end=1.0),
        SHORT_GAUSS,
        SHORT_MIRROR,
    ),
    "hyperdiffusion": (PARAMS, SolverOptions(t_end=1.0, nu_h=2e-3), LONG_GAUSS, SHORT_MIRROR),
    "all_on": (
        dataclasses.replace(PARAMS, a=1e-4),
        SolverOptions(t_end=1.0, bohm=True, nu_h=2e-3),
        SHORT_GAUSS,
        SHORT_MIRROR,
    ),
}


class TestChargeConservationIdentity:
    def test_stencil_exact_on_random_states(self):
        rng = np.random.default_rng(97)
        grid = Grid1D(half_width=24000.0, cells=512)
        opts = SolverOptions(t_end=1.0)
        for _ in range(20):
            state = random_smooth_state(grid, rng)
            dE, dn_e, dn_p, _, _ = rhs(state, PARAMS, opts)
            lhs = ddx(dE, grid.dx)
            rhs_side = PARAMS.omega_pe_sq * (dn_p - dn_e)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs_side)))
            assert np.max(np.abs(lhs - rhs_side)) <= 1e-13 * scale

    def test_gauss_residual_is_time_invariant(self):
        # the constraint is a linear invariant of the semi-discrete system in
        # every configuration, so RK4 preserves it to rounding over many
        # steps
        grid = Grid1D(half_width=24000.0, cells=256)
        for name, (params, opts, (cfl, steps), _) in INVARIANT_CONFIGS.items():
            state = initial_condition(InitialCondition(), grid, params)
            dt = cfl * grid.dx

            def residual(st):
                return np.max(
                    np.abs(ddx(st.E, grid.dx) - params.omega_pe_sq * (1.0 - st.n_e + st.n_p))
                )

            assert residual(state) < 1e-12, name
            for _ in range(steps):
                state = rk4_step(state, dt, params, opts)
            assert residual(state) < 1e-10, name


class TestRk4Step:
    def test_fixed_point(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        dt = 0.4 * grid.dx
        stepped = rk4_step(state, dt, PARAMS, SolverOptions(t_end=1.0))
        assert stepped.t == dt
        for name in ("E", "n_e", "n_p", "p_e", "p_p"):
            assert np.array_equal(getattr(stepped, name), getattr(state, name))

    def test_translation_invariance(self):
        # uniform drifting neutral plasma: nothing changes
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid, n_e=1.0, n_p=1.0, p_e=0.75, p_p=0.75)
        stepped = rk4_step(state, 0.4 * grid.dx, PARAMS, SolverOptions(t_end=1.0))
        for name in ("E", "n_e", "n_p", "p_e", "p_p"):
            assert np.array_equal(getattr(stepped, name), getattr(state, name))

    def test_step_bound_enforced(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        with pytest.raises(InvalidParameterError):
            rk4_step(state, 0.6 * grid.dx, PARAMS, SolverOptions(t_end=1.0))

    def test_one_langmuir_period_returns_profile(self):
        grid = Grid1D(half_width=2560.0, cells=256)
        period = 2.0 * math.pi / math.sqrt(PARAMS.omega_pe_sq * 1.02)
        errors = []
        for n_steps in (73, 146):  # dt ~ 0.5*dx and half that, landing exactly on one period
            dt = period / n_steps
            assert dt <= 0.5 * grid.dx
            state = initial_condition(InitialCondition(kind="sine", epsilon=1e-6, mode=2), grid, PARAMS)
            start = state.E.copy()
            opts = SolverOptions(t_end=period)
            for _ in range(n_steps):
                state = rk4_step(state, dt, PARAMS, opts)
            errors.append(np.linalg.norm(state.E - start) / np.linalg.norm(start))
        assert errors[0] <= 1e-6
        assert errors[0] / errors[1] >= 8.0  # 4th-order accuracy evidence

    def test_stage_overflow_is_breakdown(self):
        # finite input, but gamma = sqrt(1 + p^2) overflows to inf in stage 1
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        state.p_e[3] = 1e200
        dt = 0.4 * grid.dx
        with pytest.raises(NumericalBreakdownError) as excinfo:
            with np.errstate(over="ignore", invalid="ignore"):
                rk4_step(state, dt, PARAMS, SolverOptions(t_end=1.0))
        assert excinfo.value.t == 0.5 * dt  # caught on entry to stage 2
        assert 1 <= excinfo.value.cell <= 5

    def test_non_finite_step_result_is_breakdown(self, monkeypatch):
        # only the last stage is non-finite: the scan of the returned state catches it
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        calls = []

        def fake_rhs(st, params, opts, work=None, out=None):
            calls.append(st.t)
            for deriv in out:
                deriv.fill(0.0)
            if len(calls) == 4:
                out[2][9] = np.inf
            return out

        monkeypatch.setattr(sv, "rhs", fake_rhs)
        dt = 0.4 * grid.dx
        with pytest.raises(NumericalBreakdownError) as excinfo:
            rk4_step(state, dt, PARAMS, SolverOptions(t_end=1.0))
        assert len(calls) == 4
        assert (excinfo.value.t, excinfo.value.cell) == (dt, 9)

    def test_pair_factor_once_per_stage(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return pair_factor(*args, **kwargs)

        monkeypatch.setattr(sv, "pair_factor", counted)
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(2))
        opts = SolverOptions(t_end=1.0)
        rhs(state, PARAMS, opts)
        assert len(calls) == 1
        rk4_step(state, 0.4 * grid.dx, PARAMS, opts)
        # four stages, then the returned state is primed for a next step
        # (here discarded with the step's own workspace)
        assert len(calls) == 1 + 5

    def test_hyperdiffusion_step_bound(self):
        # the grid-scale mode decays at 16*nu_h; RK4 is stable for 16*nu_h*dt <= 2.785
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid)
        dt = 0.4 * grid.dx
        largest = sv.RK4_REAL_LIMIT / (16.0 * dt)
        rk4_step(state, dt, PARAMS, SolverOptions(t_end=1.0, nu_h=largest))
        with pytest.raises(InvalidParameterError) as excinfo:
            rk4_step(state, dt, PARAMS, SolverOptions(t_end=1.0, nu_h=largest * (1.0 + 1e-9)))
        message = str(excinfo.value)
        assert "solver.nu_h" in message and "2.785" in message
        assert f"{largest:.6g}" in message

    def test_bohm_frequency_constant_is_the_grid_maximum(self):
        # omega(theta) dx^2 = |k1| sqrt(k2) / 2 with k1, k2 the stencil symbols
        theta = np.linspace(0.0, np.pi, 200001)
        k1 = (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / 6.0
        k2 = (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 12.0
        peak = float(np.max(np.abs(k1) * np.sqrt(k2) / 2.0))
        assert peak <= sv.BOHM_OMEGA_DX2 <= peak + 1e-6

    def test_stability_triangle_lies_in_rk4_region(self):
        # the step rule keeps every eigenvalue times dt in the triangle with
        # vertices 0, -RK4_REAL_LIMIT and i*RK4_IMAG_LIMIT
        u, v = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 1.0, 401))
        inside = u + v <= 1.0
        z = -sv.RK4_REAL_LIMIT * u[inside] + 1j * sv.RK4_IMAG_LIMIT * v[inside]
        amplification = np.abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
        assert np.max(amplification) <= 1.0 + 1e-12

    @pytest.mark.parametrize("nu_h_share", [0.0, 0.5], ids=["bohm", "bohm_and_nu_h"])
    def test_bohm_step_bound(self, nu_h_share):
        # the Bohm term's fastest mode oscillates at 1.2583/dx^2, and RK4 is
        # stable up to 2*sqrt(2) on the imaginary axis; with hyperdiffusion
        # the two shares of the rule add up to 1 at the largest dt
        grid = Grid1D(half_width=3.2, cells=64)
        state = uniform_state(grid)
        omega_max = sv.BOHM_OMEGA_DX2 / grid.dx**2
        largest = (1.0 - nu_h_share) * sv.RK4_IMAG_LIMIT / omega_max
        nu_h = nu_h_share * sv.RK4_REAL_LIMIT / (16.0 * largest)
        opts = SolverOptions(t_end=1.0, bohm=True, nu_h=nu_h)
        rk4_step(state, largest * (1.0 - 1e-9), PARAMS, opts)
        with pytest.raises(InvalidParameterError) as excinfo:
            rk4_step(state, largest * (1.0 + 1e-9), PARAMS, opts)
        message = str(excinfo.value)
        assert message.startswith("solver.bohm = on")
        assert ("solver.nu_h" in message) == bool(nu_h)
        assert f"the largest dt allowed is {largest:.6g}" in message

    @pytest.mark.parametrize("bohm", [False, True], ids=["bohm_off", "bohm_on"])
    @pytest.mark.parametrize("displacement_terms", [False, True], ids=["disp_off", "disp_on"])
    def test_ddx_calls_per_rhs(self, monkeypatch, displacement_terms, bohm):
        # one stencil per evolved equation, all four in one call on four padded
        # rows: the continuity equations take the combined flux n_s v_s -/+ D_s,
        # the momentum equations g_s, or g_s - Q_s/2 with Bohm on (then written
        # over the primed gammas)
        calls = []

        def counted(f, dx, *args, **kwargs):
            calls.append(1)
            return ddx(f, dx, *args, **kwargs)

        monkeypatch.setattr(sv, "ddx", counted)
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(2))
        opts = SolverOptions(t_end=1.0, displacement_terms=displacement_terms, bohm=bohm)
        rhs(state, PARAMS, opts)
        assert len(calls) == 1

    @pytest.mark.parametrize("bohm", [False, True], ids=["bohm_off", "bohm_on"])
    def test_hyperdiffusion_calls_per_rhs(self, monkeypatch, bohm):
        # one call damps all five fields
        calls = []

        def counted(f, nu_h, *args, **kwargs):
            calls.append(f.shape)
            return hyperdiffusion(f, nu_h, *args, **kwargs)

        monkeypatch.setattr(sv, "hyperdiffusion", counted)
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(2))
        rhs(state, PARAMS, SolverOptions(t_end=1.0, bohm=bohm, nu_h=0.01))
        assert calls == [(5, grid.cells + 4)]

    def test_mirror_equivariance_is_bit_exact(self):
        grid = Grid1D(half_width=24000.0, cells=128)

        def mirrored(s):
            return SimState.from_fields(
                s.grid,
                s.t,
                -s.E[::-1].copy(),
                s.n_e[::-1].copy(),
                s.n_p[::-1].copy(),
                -s.p_e[::-1].copy(),
                -s.p_p[::-1].copy(),
            )

        for config, (params, opts, _, (cfl, steps)) in INVARIANT_CONFIGS.items():
            state = random_smooth_state(grid, np.random.default_rng(5))
            dt = cfl * grid.dx
            a, b = state.copy(), mirrored(state)
            for _ in range(steps):
                a = rk4_step(a, dt, params, opts)
                b = rk4_step(b, dt, params, opts)
            expected = mirrored(a)
            for name in ("E", "n_e", "n_p", "p_e", "p_p"):
                assert np.array_equal(getattr(expected, name), getattr(b, name)), (config, name)


class TestInitialCondition:
    def test_gaussian_defaults(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        assert state.t == 0.0
        assert np.all(state.p_e == 0.0) and np.all(state.p_p == 0.0)
        assert np.all(state.n_p == 0.01)
        assert np.max(np.abs(state.E)) == pytest.approx(PARAMS.omega_pe_sq * 6000.0, rel=1e-3)

    def test_uniform_neutral(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = initial_condition(InitialCondition(kind="uniform"), grid, PARAMS)
        assert np.all(state.E == 0.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            InitialCondition(kind="vortex")

    def test_negative_initial_density_rejected(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        with pytest.raises(NumericalBreakdownError):
            initial_condition(InitialCondition(amplitude=3.0), grid, PARAMS)


class TestSolverOptions:
    def test_cfl_default_and_bound(self):
        assert SolverOptions().cfl == 0.4
        assert SolverOptions(cfl=sv.CFL_MAX).cfl == 0.5
        for cfl in (0.0, -0.1, 0.5000001, 0.7):
            with pytest.raises(InvalidParameterError, match="cfl must be in"):
                SolverOptions(cfl=cfl)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SolverOptions(t_end=-5.0)
        with pytest.raises(InvalidParameterError):
            SolverOptions(nu_h=-1e-3)

    def test_step_planning(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        n, dt = sv._plan_steps(SolverOptions(t_end=1500.0), grid.dx)
        assert (n, dt) == (160, 9.375)
        n, dt = sv._plan_steps(SolverOptions(t_end=0.0), grid.dx)
        assert n == 0
        # cfl*dx = 9.375 shrinks to 21 / 3
        n, dt = sv._plan_steps(SolverOptions(cfl=0.4, t_end=21.0), grid.dx)
        assert (n, dt) == (3, 7.0)

    def test_step_that_cannot_advance_t_end_is_refused(self):
        # below half a rounding unit of t_end, t_end + dt == t_end: the plan
        # would hold more than 2^53 steps
        unit = math.ulp(1500.0)
        n, dt = sv._plan_steps(SolverOptions(cfl=0.5, t_end=1500.0), unit * 1.01)
        assert n > 2**53
        with pytest.raises(InvalidParameterError, match="is too small to advance t"):
            sv._plan_steps(SolverOptions(cfl=0.5, t_end=1500.0), unit * 0.99)


class _MiniConfig:
    def __init__(self, **kw):
        self.physics = kw.get("physics", PARAMS)
        self.grid = kw.get("grid", Grid1D(half_width=24000.0, cells=256))
        self.solver = kw.get("solver", SolverOptions(t_end=300.0))
        self.ic = kw.get("ic", InitialCondition())
        self.output = kw.get("output", OutputConfig(series_every=1, snapshot_every=0))


class TestRun:
    def test_zero_horizon(self):
        result = run(_MiniConfig(solver=SolverOptions(t_end=0.0)))
        assert len(result.records) == 1
        assert result.records[0].t == 0.0
        assert result.records[0].delta_pairs == 0.0

    def test_equilibrium_records_identical(self):
        config = _MiniConfig(
            ic=InitialCondition(kind="uniform"), solver=SolverOptions(t_end=500.0)
        )
        result = run(config)
        first = result.records[0]
        for rec in result.records[1:]:
            assert rec.total_energy == first.total_energy
            assert rec.delta_pairs == first.delta_pairs
            assert rec.max_abs_E == 0.0

    def test_pair_count_grows_monotonically(self):
        result = run(_MiniConfig())
        deltas = [rec.delta_pairs for rec in result.records]
        assert deltas[-1] > 0.0
        assert all(b >= a - 1e-9 for a, b in zip(deltas, deltas[1:]))

    def test_strict_mode_attaches_partial_series(self):
        config = _MiniConfig(
            grid=Grid1D(half_width=24000.0, cells=512),
            solver=SolverOptions(t_end=1500.0, stop_on_negative_density=True),
        )
        with pytest.raises(NumericalBreakdownError) as excinfo:
            run(config)
        assert excinfo.value.t > 0.0
        assert len(excinfo.value.records) > 10
        assert excinfo.value.records[0].t == 0.0

    def test_step_lands_on_t_end(self):
        # dx = 750, so cfl*dx = 100 and 250 / 100 is not whole: the step
        # shrinks to 250 / 3 rather than a fourth step of 100 ending at t = 300
        config = _MiniConfig(
            grid=Grid1D(half_width=24000.0, cells=64), solver=SolverOptions(cfl=0.4 / 3, t_end=250.0)
        )
        result = run(config)
        assert [rec.t for rec in result.records[1:]] == [250.0 / 3, 500.0 / 3, 250.0]
        assert result.state.t == 250.0

    def test_final_record_at_t_end(self):
        config = _MiniConfig(solver=SolverOptions(t_end=300.0))
        result = run(config)
        assert result.records[-1].t == pytest.approx(300.0, abs=1e-9)
        assert result.state.t == pytest.approx(300.0, abs=1e-9)


def reference_pair_factor(E, params):
    # guarded at 1e-8, not at pi/746 where the solver's mask is: any guard
    # below pi/746 gives the same bytes (see test_kernels.TestPairFactorMask)
    abs_e = np.abs(E)
    weak = abs_e < 1e-8
    return np.where(weak, 0.0, np.exp(-np.pi / np.where(weak, 1.0, abs_e)) / params.N0)


def reference_rhs(s, params, opts, fold=True, sign=-1.0):
    """The allocating right-hand side, one new array per operation.

    With `fold` (the solver's form) each equation takes one stencil: of
    flux_e - D_e, flux_p + D_p and g_s - Q_s/2, Q_s the Bohm potential.
    Without it each piece is differentiated on its own, as the solver did
    before; the two forms differ only by rounding. `sign` is the sign of the
    displacement term in dE/dt; the solver's is -1.
    """
    dx = s.grid.dx
    gamma_e = np.sqrt(1.0 + s.p_e * s.p_e)
    gamma_p = np.sqrt(1.0 + s.p_p * s.p_p)
    flux_e = s.n_e * (s.p_e / gamma_e)
    flux_p = s.n_p * (s.p_p / gamma_p)
    phi = reference_pair_factor(s.E, params)
    q0 = s.E * s.E * phi
    current = flux_e - flux_p
    if not opts.displacement_terms:
        dn_e = q0 - roll_ddx(flux_e, dx)
        dn_p = q0 - roll_ddx(flux_p, dx)
    else:
        e_phi = s.E * phi
        disp_e = gamma_e * e_phi
        disp_p = gamma_p * e_phi
        current = current + sign * (disp_e + disp_p)
        if fold:
            dn_e = q0 - roll_ddx(flux_e - disp_e, dx)
            dn_p = q0 - roll_ddx(flux_p + disp_p, dx)
        else:
            dn_e = q0 - roll_ddx(flux_e, dx) + roll_ddx(disp_e, dx)
            dn_p = q0 - roll_ddx(flux_p, dx) - roll_ddx(disp_p, dx)
    potential_e, potential_p = gamma_e, gamma_p
    if opts.bohm:
        root_e = np.sqrt(s.n_e / gamma_e)
        root_p = np.sqrt(s.n_p / gamma_p)
        bohm_e = roll_d2dx2(root_e, dx) / root_e
        bohm_p = roll_d2dx2(root_p, dx) / root_p
        if fold:
            potential_e = gamma_e - 0.5 * bohm_e
            potential_p = gamma_p - 0.5 * bohm_p
    dp_e = -roll_ddx(potential_e, dx) - s.E
    dp_p = -roll_ddx(potential_p, dx) + s.E
    a = params.a
    if a != 0.0:
        loss = a * (s.n_e * s.n_p)
        dn_e = dn_e - loss
        dn_p = dn_p - loss
        dp_e = dp_e + -a * (s.n_p * (s.p_e - s.p_p))
        dp_p = dp_p + -a * (s.n_e * (s.p_p - s.p_e))
    if opts.bohm and not fold:
        dp_e = dp_e + 0.5 * roll_ddx(bohm_e, dx)
        dp_p = dp_p + 0.5 * roll_ddx(bohm_p, dx)
    dE = params.omega_pe_sq * current
    if opts.nu_h != 0.0:
        # E is damped like the other fields, which keeps the Gauss law invariant
        dE = dE + roll_hyperdiffusion(s.E, opts.nu_h)
        dn_e = dn_e + roll_hyperdiffusion(s.n_e, opts.nu_h)
        dn_p = dn_p + roll_hyperdiffusion(s.n_p, opts.nu_h)
        dp_e = dp_e + roll_hyperdiffusion(s.p_e, opts.nu_h)
        dp_p = dp_p + roll_hyperdiffusion(s.p_p, opts.nu_h)
    return dE, dn_e, dn_p, dp_e, dp_p


def reference_step(s, dt, params, opts, fold=True):
    def shifted(k, h):
        return SimState.from_fields(s.grid, s.t + h, *(u + h * d for u, d in zip(fields_of(s), k)))

    k1 = reference_rhs(s, params, opts, fold)
    k2 = reference_rhs(shifted(k1, 0.5 * dt), params, opts, fold)
    k3 = reference_rhs(shifted(k2, 0.5 * dt), params, opts, fold)
    k4 = reference_rhs(shifted(k3, dt), params, opts, fold)
    sixth = dt / 6.0
    new = [
        u + sixth * ((a + d) + 2.0 * (b + c))
        for u, a, b, c, d in zip(fields_of(s), k1, k2, k3, k4)
    ]
    return SimState.from_fields(s.grid, s.t + dt, *new)


def reference_record(s, params, initial_n_e):
    dx = s.grid.dx
    gamma_e = np.sqrt(1.0 + s.p_e * s.p_e)
    gamma_p = np.sqrt(1.0 + s.p_p * s.p_p)
    kin_e = float(dx * np.sum(s.n_e * gamma_e))
    kin_p = float(dx * np.sum(s.n_p * gamma_p))
    fld = float(dx * np.sum(s.E * s.E / (2.0 * params.omega_pe_sq)))
    total = kin_e + kin_p + fld
    gauss = roll_ddx(s.E, dx) - params.omega_pe_sq * (1.0 - s.n_e + s.n_p)
    q0_over_e = s.E * reference_pair_factor(s.E, params)
    balance = -float(dx * np.sum(0.5 * q0_over_e * roll_ddx(s.p_e * s.p_e - s.p_p * s.p_p, dx)))
    return (
        s.t,
        fld,
        kin_e,
        kin_p,
        total,
        total - 2.0 * s.grid.length,
        float(dx * np.sum(s.n_e)) - initial_n_e,
        float(np.max(np.abs(s.E))),
        float(max(np.max(gamma_e), np.max(gamma_p))),
        float(np.max(np.abs(gauss))),
        balance,
    )


def fields_of(s):
    return s.E, s.n_e, s.n_p, s.p_e, s.p_p


class TestWorkspaceReference:
    """run() through its workspace equals the plain allocating formulas bit for bit.

    The reference rebuilds every new array per operation, as the solver did
    before it stepped through a workspace, with np.roll stencils. Equality is
    exact; no digest is pinned, since numpy's exp and sqrt may round
    differently on other CPUs (both sides then change together).
    """

    CONFIGS = {
        "default": (PARAMS, SolverOptions(t_end=1500.0)),
        "displacement_off": (PARAMS, SolverOptions(t_end=1500.0, displacement_terms=False)),
        # cfl 0.05 keeps the nu_h = 0.01 damping inside RK4's stability region at M = 256
        "bohm_recombination_hyperdiffusion": (
            PhysicsParams(N0=0.2, alpha=1.0 / 137.0, a=1e-4),
            SolverOptions(t_end=600.0, cfl=0.05, bohm=True, nu_h=0.01),
        ),
    }

    @staticmethod
    def reference_run(config, fold):
        params, opts = config.physics, config.solver
        state = initial_condition(config.ic, config.grid, params)
        n_steps, dt = sv._plan_steps(opts, config.grid.dx)
        initial_n_e = integrate(state.n_e, config.grid.dx)
        records = [reference_record(state, params, initial_n_e)]
        for _ in range(n_steps):
            state = reference_step(state, dt, params, opts, fold)
            records.append(reference_record(state, params, initial_n_e))
        assert n_steps >= 20
        return records, state

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_run_equals_reference(self, name):
        params, opts = self.CONFIGS[name]
        config = _MiniConfig(physics=params, solver=opts)
        result = run(config)
        records, state = self.reference_run(config, fold=True)

        assert [dataclasses.astuple(r) for r in result.records] == records
        for got, want in zip(fields_of(result.state), fields_of(state)):
            assert np.array_equal(got, want)
        assert result.state.t == state.t

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_run_matches_unfolded_formulas(self, name):
        # One stencil of a sum in place of a sum of stencils changes rounding
        # only. Where the Gauss residual sits at rounding level its relative
        # noise is large, so it is compared to an absolute tolerance.
        params, opts = self.CONFIGS[name]
        config = _MiniConfig(physics=params, solver=opts)
        result = run(config)
        records, state = self.reference_run(config, fold=False)

        got = np.array([dataclasses.astuple(r) for r in result.records])
        want = np.array(records)
        gauss = SERIES_COLUMNS.index("gauss_residual")
        np.testing.assert_allclose(np.delete(got, gauss, 1), np.delete(want, gauss, 1), rtol=1e-12)
        np.testing.assert_allclose(got[:, gauss], want[:, gauss], rtol=1e-12, atol=1e-12)
        for g, w in zip(fields_of(result.state), fields_of(state)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_workspace_records_equal_public_records(self, name):
        params, opts = self.CONFIGS[name]
        config = _MiniConfig(
            physics=params, solver=opts, output=OutputConfig(series_every=1, snapshot_every=1)
        )
        result = run(config)
        initial_n_e = integrate(result.snapshots[0][1].n_e, config.grid.dx)
        assert len(result.records) == len(result.snapshots) >= 21
        for record, (_, snap) in zip(result.records, result.snapshots):
            assert record == make_record(snap, params, initial_n_e)


class TestWorkspaceMemory:
    def test_snapshots_share_no_memory(self, monkeypatch):
        made = []

        class Recorded(Workspace):
            def __init__(self, cells):
                super().__init__(cells)
                made.append(self)

        monkeypatch.setattr(sv, "Workspace", Recorded)
        result = run(_MiniConfig(output=OutputConfig(series_every=1, snapshot_every=1)))
        assert len(made) == 1

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, tuple):
                return [a for v in value for a in arrays_in(v)]
            return []

        work = made[0]
        buffers = [a for value in vars(work).values() for a in arrays_in(value)]
        cells = _MiniConfig().grid.cells
        # nine disjoint buffers, each BUFFER_SKEW bytes further into a page
        # than the one before (against 4K aliasing), one of them padded: the
        # stencil stack; gamma is a view of it
        own = [work.pad, work.phi, work.scratch, work.tmp, *work.k, work.stage, work.damp_tmp]
        assert [a.shape for a in own] == [(6, cells + 4), (cells,), (cells,)] + [(5, cells)] * 6
        assert len(buffers) == len(own) + 1 and np.shares_memory(work.gamma, work.pad)
        for i, a in enumerate(own):
            assert not any(np.shares_memory(a, b) for b in own[i + 1 :])
        offsets = [a.ctypes.data % sv.PAGE_BYTES for a in own]
        assert offsets == [i * sv.BUFFER_SKEW for i in range(len(own))]
        # each state's u, returned by one rk4_step, and its row views
        states = [snap.u for _, snap in result.snapshots]
        assert len(states) == 5 and all(u.shape == (5, cells) for u in states)
        for i, u in enumerate(states):
            assert u.flags.c_contiguous
            assert not any(np.shares_memory(u, b) for b in buffers)
            assert not any(np.shares_memory(u, v) for v in states[i + 1 :])
        arrays = [f for _, snap in result.snapshots for f in fields_of(snap)]
        for i, f in enumerate(arrays):
            assert not any(np.shares_memory(f, b) for b in buffers)
            assert not any(np.shares_memory(f, g) for g in arrays[i + 1 :])

    def test_public_rhs_returns_independent_arrays(self):
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(4))
        opts = SolverOptions(t_end=1.0)
        first = rhs(state, PARAMS, opts)
        kept = [d.copy() for d in first]
        second = rhs(state, PARAMS, opts)
        for a, b, k in zip(first, second, kept):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, k) and np.array_equal(b, k)

    def test_rhs_consumes_its_priming(self, monkeypatch):
        # rhs may write over the primed gammas (g_s - Q_s/2, hyperdiffusion's
        # padded state), so it leaves its workspace unprimed: a second rhs on
        # the same state rescans and reprimes it, and a record primes it again
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(6))
        params = PhysicsParams(N0=0.2, alpha=1.0 / 137.0, a=1e-3)
        opts = SolverOptions(t_end=1.0, bohm=True, nu_h=0.01)
        work = Workspace(grid.cells)
        work.prime(state, params)
        first = rhs(state, params, opts, work).copy()
        assert work.primed is None

        calls = []
        original = sv._check_fields

        def counted(t, u):
            calls.append(t)
            return original(t, u)

        monkeypatch.setattr(sv, "_check_fields", counted)
        second = rhs(state, params, opts, work)
        assert len(calls) == 1 and work.primed is None
        assert np.array_equal(second, first)

        record = make_record(state, params, 1.0, work)
        assert work.primed is state
        assert record == make_record(state, params, 1.0, Workspace(grid.cells))
        assert record == make_record(state, params, 1.0)

    def test_step_memory_is_bounded(self, monkeypatch):
        # High-water mark of traced memory above its level at the start of each
        # step (the step, gamma/phi of its result and its record), in arrays of M
        # values. Stepping through the workspace needs the returned state (5)
        # plus a record's temporaries; allocating every intermediate took 37.
        # Each record is also measured alone: it computes in the workspace's
        # free buffers and allocates no array of M values (the public form
        # took 6).
        cells = 8192
        grid = Grid1D(half_width=24000.0, cells=cells)
        config = _MiniConfig(grid=grid, solver=SolverOptions(t_end=20 * 0.4 * grid.dx))
        marks, record_marks = [], []

        def measured(*args, **kwargs):
            peak = max(tracemalloc.get_traced_memory()[1], measured.carry)
            marks.append((peak - measured.base) / (8 * cells))
            tracemalloc.reset_peak()
            measured.base, measured.carry = tracemalloc.get_traced_memory()[0], 0
            return rk4_step(*args, **kwargs)

        def measured_record(*args, **kwargs):
            # resetting the peak here must not hide the step's peak from `measured`
            current, peak = tracemalloc.get_traced_memory()
            measured.carry = max(measured.carry, peak)
            tracemalloc.reset_peak()
            record = make_record(*args, **kwargs)
            record_marks.append((tracemalloc.get_traced_memory()[1] - current) / (8 * cells))
            return record

        monkeypatch.setattr(sv, "rk4_step", measured)
        monkeypatch.setattr(sv, "make_record", measured_record)
        tracemalloc.start()
        try:
            measured.base, measured.carry = tracemalloc.get_traced_memory()[0], 0
            result = run(config)
        finally:
            tracemalloc.stop()
        assert len(result.records) == 21 and len(marks) == 20 and len(record_marks) == 21
        assert max(marks[1:]) <= 12.0  # marks[0] covers set-up and the workspace
        assert max(record_marks) < 0.1


class TestScanCounts:
    def test_four_finite_scans_per_step(self, monkeypatch):
        calls = []
        original = sv._check_fields

        def counted(t, *fields_):
            calls.append(t)
            return original(t, *fields_)

        monkeypatch.setattr(sv, "_check_fields", counted)
        result = run(_MiniConfig(solver=SolverOptions(t_end=300.0)))
        n_steps = len(result.records) - 1
        assert n_steps == 4
        assert len(calls) == 1 + 4 * n_steps  # initial_condition, then 3 stage inputs + the result

    def test_four_finite_scans_per_step_of_a_library_loop(self, monkeypatch):
        # rk4_step leaves its workspace primed for the state it returns, so a
        # loop of rk4_step calls through one workspace skips each next stage 1
        # scan, as run() does
        calls = []
        original = sv._check_fields

        def counted(t, *fields_):
            calls.append(t)
            return original(t, *fields_)

        monkeypatch.setattr(sv, "_check_fields", counted)
        grid = Grid1D(half_width=24000.0, cells=256)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        calls.clear()
        opts = SolverOptions(t_end=1.0)
        work = Workspace(grid.cells)
        for _ in range(10):
            state = rk4_step(state, 0.4 * grid.dx, PARAMS, opts, work)
        assert work.primed is state
        assert len(calls) == 1 + 4 * 10  # the unprimed first state, then 3 stage inputs + the result

    def test_bohm_term_skips_second_density_scan(self, monkeypatch):
        # rhs has checked n > 0 once; it calls the Bohm potential once, on both
        # species' rows, in the in-place form, which does not scan again (the
        # public form does, see test_grid)
        scans, forms = [], []
        check, potential = sv._check_positive_densities, sv.bohm_potential

        def counted_check(state):
            scans.append(state.t)
            return check(state)

        def recorded_potential(n, gamma, dx, out=None, **kwargs):
            forms.append(out is not None)
            return potential(n, gamma, dx, out=out, **kwargs)

        monkeypatch.setattr(sv, "_check_positive_densities", counted_check)
        monkeypatch.setattr(sv, "bohm_potential", recorded_potential)
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(2))
        rhs(state, PARAMS, SolverOptions(t_end=1.0, bohm=True))
        assert scans == [0.0]
        assert forms == [True]

    @pytest.mark.parametrize(
        "bad", [((4, 5), (0, 8)), ((0, 5), (4, 8)), ((2, 5), (1, 5)), ((3, 7), (3, 5))]
    )
    def test_finite_scan_reports_first_bad_cell_across_rows(self, bad):
        # one scan over all five rows of u finds the first column with any
        # non-finite value, whichever rows hold the bad values
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(8))
        state.t = 12.5
        (row_a, cell_a), (row_b, cell_b) = bad
        state.u[row_a, cell_a] = np.nan
        state.u[row_b, cell_b] = np.inf
        with pytest.raises(NumericalBreakdownError) as excinfo:
            rhs(state, PARAMS, SolverOptions(t_end=1.0))
        assert (excinfo.value.t, excinfo.value.cell) == (12.5, min(cell_a, cell_b))


class TestRecombinationClosedForm:
    """Recombination alone, against its closed form.

    A uniform neutral state stays uniform, so E stays exactly 0 and
    n_e = 1 + n_p, and dn_p/dt = -a n_p (1 + n_p) has the solution
    n_p(t) = 1 / ((1 + 1/n_p0) e^{a t} - 1).
    """

    # relative error of n_p at t = 2000 measured per step size; each bound is
    # twice its measurement
    MEASURED = {50.0: 1.11e-7, 25.0: 6.80e-9, 12.5: 4.21e-10}

    @staticmethod
    def relative_error(dt):
        # dx = 250, and cfl = dt / 250 (0.2, 0.1, 0.05) steps exactly dt
        a, n_p0 = 1e-3, 0.01
        config = parse_config(
            "ic.kind = uniform\nphysics.a = 1e-3\ngrid.cells = 16\n"
            f"grid.half_width = 2000\nsolver.t_end = 2000\nsolver.cfl = {dt / 250.0!r}\n"
        )
        result = run(config)
        state = result.state
        assert state.t == 2000.0 and len(result.records) == 2000.0 / dt + 1
        assert all(rec.max_abs_E == 0.0 for rec in result.records)
        want = 1.0 / ((1.0 + 1.0 / n_p0) * math.exp(a * state.t) - 1.0)
        return float(np.max(np.abs(state.n_p - want)) / want)

    def test_check_measures_the_same_error(self):
        # `pairplasma check` steps rk4_step itself; `run` takes the same steps
        assert measure_recombination_error(25.0) == self.relative_error(25.0)

    def test_matches_closed_form_at_fourth_order(self):
        errors = [self.relative_error(dt) for dt in self.MEASURED]
        for error, measured in zip(errors, self.MEASURED.values()):
            assert error <= 2.0 * measured
        # RK4: each halving of the step gains about 2^4 = 16
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0


class TestLinearDispersion:
    def test_two_species_langmuir_frequency(self):
        measured, theory = measure_langmuir_period(
            cells=128, half_width=1280.0, dt=5.0, n_periods=3.0, params=PARAMS
        )
        assert measured == pytest.approx(theory, rel=2e-4)

    # Bohm term on, mode 8 at M = 64 and half_width 100 (k = 0.251, k dx =
    # 0.785): relative error of the measured frequency against the discrete
    # dispersion relation per cfl; each bound is twice its measurement
    BOHM_MEASURED = {0.4: 2.22e-8, 0.2: 1.38e-9}

    def test_bohm_dispersion_matches_discrete_closed_form(self):
        errors = []
        for cfl, measured in self.BOHM_MEASURED.items():
            omega, discrete, continuum = measure_bohm_dispersion(mode=8, cfl=cfl)
            errors.append(abs(omega - discrete) / discrete)
            assert errors[-1] <= 2.0 * measured
            # the rest is the stencils' truncation error, the same at both cfl
            assert abs(omega - continuum) / continuum == pytest.approx(1.28e-2, rel=0.01)
        # RK4: halving the step gains about 2^4 = 16
        assert errors[0] / errors[1] >= 10.0

    @pytest.mark.parametrize("decay", [0.0, 2e-3])
    def test_frequency_fit_is_exact_on_a_damped_cosine(self, decay):
        t = 2.0 * np.arange(400)
        omega = 0.3
        y = 1.7 * np.exp(-decay * t) * np.cos(omega * t + 0.4)
        assert fit_oscillation_frequency(t, y) == pytest.approx(omega, rel=1e-10)


class TestPreCausticConvergence:
    """delta_pairs of the reference run converges in M up to t = 1000.

    The reference is the reference config at M = 8192 and cfl 0.1, run to
    t = 1000 (about 3 s, too long for the suite): its final delta_pairs was
    pinned from `run` on that config. The runs here use cfl 0.4. The test
    stops at t = 1000 because the cold-fluid flow steepens into a caustic
    later on: past it the solutions stop converging pointwise, and at
    t = 1500 M = 4096 and M = 8192 (both at cfl 0.1) still differ by 1.7e-4.
    """

    REFERENCE = 1049.949925597255
    # relative error of the final delta_pairs measured per M; each bound is
    # twice its measurement
    MEASURED = {1024: 2.08e-3, 2048: 3.33e-4, 4096: 1.67e-5}

    def test_delta_pairs_converges_in_cells(self):
        errors = []
        for cells, measured in self.MEASURED.items():
            config = parse_config(
                f"grid.cells = {cells}\nsolver.t_end = 1000\n"
                "output.series_every = 0\noutput.snapshot_every = 0\n"
            )
            delta_pairs = run(config).records[-1].delta_pairs
            errors.append(abs(delta_pairs - self.REFERENCE) / self.REFERENCE)
            assert errors[-1] <= 2.0 * measured
        assert errors[0] > errors[1] > errors[2]


def spectral_ddx(f, length, order=1):
    """order-th derivative of periodic samples f by FFT; the Nyquist mode is dropped."""
    m = f.shape[-1]
    ik = 2j * np.pi * np.arange(m // 2 + 1) / length
    ik[-1] = 0.0
    return np.fft.irfft(ik**order * np.fft.rfft(f), n=m)


def spectral_rhs(s, params):
    """The equations of the `solver` module docstring, with FFT derivatives.

    Every term is on: pair creation with its displacement flux, the Bohm
    potential and recombination; hyperdiffusion, a grid term, is not part of
    the equations. Uses no stencil or kernel of the package.
    """
    E, n, p = s.u[0], s.u[1:3], s.u[3:5]
    length = s.grid.length
    g = np.sqrt(1.0 + p * p)
    abs_e = np.abs(E)
    with np.errstate(divide="ignore"):
        phi = np.where(abs_e > 0.0, np.exp(-np.pi / abs_e), 0.0) / params.N0
    q0 = E * E * phi
    D = g * (E * phi)  # g_s q0 / E
    F = n * p / g + np.array([-D[0], D[1]])
    r = np.sqrt(n / g)
    Q = spectral_ddx(r, length, order=2) / r
    loss = params.a * n[0] * n[1]
    drag = -params.a * n[::-1] * (p - p[::-1])
    dE = params.omega_pe_sq * (F[0] - F[1])
    dn = -spectral_ddx(F, length) + q0 - loss
    dp = -spectral_ddx(g - 0.5 * Q, length) + np.array([-E, E]) + drag
    return np.vstack((dE, dn, dp))


class TestSpectralReference:
    """The full nonlinear `rhs` against `spectral_rhs` on one smooth state.

    The state is band-limited, with every term on and relativistic momenta,
    so the FFT derivatives are exact to rounding except through gamma and
    the Bohm root, whose spectra decay exponentially. The stencils are fourth
    order, so each doubling of M shrinks the error of every differentiated
    row by about 2^4 = 16; a wrong factor or sign of one term leaves an O(1)
    error that does not converge. dE takes no stencil: with nu_h = 0 it must
    agree to rounding, and with nu_h > 0 its fourth-difference damping is
    O(dx^4) on this state and converges like the other rows.
    """

    PARAMS = PhysicsParams(N0=0.2, a=0.3)
    CELLS = (32, 64, 128, 256, 512)

    @staticmethod
    def state(cells):
        grid = Grid1D(half_width=20.0, cells=cells)
        theta = np.pi * grid.x / grid.half_width
        return SimState.from_fields(
            grid,
            0.0,
            0.6 * np.sin(theta) + 0.2 * np.cos(2.0 * theta),
            1.0 + 0.3 * np.cos(theta),
            0.5 + 0.2 * np.sin(2.0 * theta),
            1.2 * np.sin(theta) + 0.3 * np.cos(3.0 * theta),
            -0.6 * np.cos(theta) + 0.2 * np.sin(2.0 * theta),
        )

    def errors(self, nu_h):
        """Largest error of each row per M, and the largest |dE| of the finest state."""
        opts = SolverOptions(t_end=1.0, bohm=True, nu_h=nu_h)
        errors = []
        for cells in self.CELLS:
            s = self.state(cells)
            want = spectral_rhs(s, self.PARAMS)
            errors.append(np.max(np.abs(rhs(s, self.PARAMS, opts) - want), axis=1))
        return np.array(errors), np.max(np.abs(want[0]))

    @pytest.mark.parametrize("nu_h", [0.0, 1e-3])
    def test_rhs_converges_at_fourth_order(self, nu_h):
        errors, largest_de = self.errors(nu_h)
        ratios = errors[-2] / errors[-1]  # M = 256 against 512
        assert np.all(ratios[1:] >= 14.0), ratios
        if nu_h == 0.0:
            assert np.all(errors[:, 0] <= 1e-14 * largest_de), errors[:, 0]
        else:
            assert ratios[0] >= 14.0, ratios
