"""Solver tests: equilibria, frozen uniform-state derivatives, linear physics,
conservation structure, symmetry, breakdown handling."""

import math

import mpmath as mp
import numpy as np
import pytest

import pairplasma.solver as sv
from pairplasma.errors import InvalidParameterError, NumericalBreakdownError
from pairplasma.grid import Grid1D, ddx
from pairplasma.kernels import PhysicsParams, pair_factor
from pairplasma.selfcheck import (
    fit_oscillation_frequency,
    measure_langmuir_period,
    random_smooth_state,
)
from pairplasma.solver import (
    InitialCondition,
    SimState,
    SolverOptions,
    initial_condition,
    rhs,
    rk4_step,
    run,
)

mp.mp.dps = 50

PARAMS = PhysicsParams(N0=0.2, alpha=1.0 / 137.0)


def uniform_state(grid, e_field=0.0, n_e=1.01, n_p=0.01, p_e=0.0, p_p=0.0):
    m = grid.cells
    return SimState(
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
        grid = Grid1D(half_width=100.0, cells=64)
        state = uniform_state(grid, e_field=0.5, n_e=1.0, n_p=1.0)
        dE_minus = rhs(state, PARAMS, SolverOptions(t_end=1.0))[0]
        dE_plus = rhs(state, PARAMS, SolverOptions(t_end=1.0, ampere_sign_flip=True))[0]
        assert np.array_equal(dE_plus, -dE_minus)

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
        # the constraint is a linear invariant of the semi-discrete system,
        # so RK4 preserves it to rounding over many steps
        grid = Grid1D(half_width=24000.0, cells=256)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        opts = SolverOptions(t_end=1.0)
        dt = 0.4 * grid.dx

        def residual(st):
            return np.max(
                np.abs(ddx(st.E, grid.dx) - PARAMS.omega_pe_sq * (1.0 - st.n_e + st.n_p))
            )

        assert residual(state) < 1e-12
        for _ in range(50):
            state = rk4_step(state, dt, PARAMS, opts)
        assert residual(state) < 1e-10


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
            opts = SolverOptions(dt=dt, t_end=period)
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
        zero = np.zeros(grid.cells)
        calls = []

        def fake_rhs(st, params, opts):
            calls.append(st.t)
            dn_p = zero.copy()
            if len(calls) == 4:
                dn_p[9] = np.inf
            return zero, zero, dn_p, zero, zero

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
        assert len(calls) == 1 + 4

    @pytest.mark.parametrize("displacement_terms, expected", [(False, 4), (True, 6)])
    def test_ddx_calls_per_rhs(self, monkeypatch, displacement_terms, expected):
        # with the displacement terms off no derivative of an all-zero flux is taken
        calls = []

        def counted(f, dx):
            calls.append(1)
            return ddx(f, dx)

        monkeypatch.setattr(sv, "ddx", counted)
        grid = Grid1D(half_width=24000.0, cells=64)
        state = random_smooth_state(grid, np.random.default_rng(2))
        rhs(state, PARAMS, SolverOptions(t_end=1.0, displacement_terms=displacement_terms))
        assert len(calls) == expected

    def test_mirror_equivariance_is_bit_exact(self):
        rng = np.random.default_rng(5)
        grid = Grid1D(half_width=24000.0, cells=128)
        state = random_smooth_state(grid, rng)

        def mirrored(s):
            return SimState(
                s.grid,
                s.t,
                -s.E[::-1].copy(),
                s.n_e[::-1].copy(),
                s.n_p[::-1].copy(),
                -s.p_e[::-1].copy(),
                -s.p_p[::-1].copy(),
            )

        opts = SolverOptions(t_end=1.0)
        dt = 0.4 * grid.dx
        a, b = state.copy(), mirrored(state)
        for _ in range(25):
            a = rk4_step(a, dt, PARAMS, opts)
            b = rk4_step(b, dt, PARAMS, opts)
        expected = mirrored(a)
        for name in ("E", "n_e", "n_p", "p_e", "p_p"):
            assert np.array_equal(getattr(expected, name), getattr(b, name))


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
    def test_exclusive_step_controls(self):
        with pytest.raises(InvalidParameterError):
            SolverOptions(dt=1.0, cfl=0.4)
        assert SolverOptions().cfl == 0.4
        assert SolverOptions(dt=2.0).dt == 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SolverOptions(dt=-1.0)
        with pytest.raises(InvalidParameterError):
            SolverOptions(cfl=0.7)
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
        n, dt = sv._plan_steps(SolverOptions(dt=7.0, t_end=21.0), grid.dx)
        assert (n, dt) == (3, 7.0)


class _MiniConfig:
    def __init__(self, **kw):
        from pairplasma.config import OutputConfig

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

    def test_final_record_at_t_end(self):
        config = _MiniConfig(solver=SolverOptions(t_end=300.0))
        result = run(config)
        assert result.records[-1].t == pytest.approx(300.0, abs=1e-9)
        assert result.state.t == pytest.approx(300.0, abs=1e-9)


class TestLinearDispersion:
    def test_two_species_langmuir_frequency(self):
        measured, theory = measure_langmuir_period(
            cells=128, half_width=1280.0, dt=5.0, n_periods=3.0, params=PARAMS
        )
        assert measured == pytest.approx(theory, rel=2e-4)

    @pytest.mark.parametrize("decay", [0.0, 2e-3])
    def test_frequency_fit_is_exact_on_a_damped_cosine(self, decay):
        t = 2.0 * np.arange(400)
        omega = 0.3
        y = 1.7 * np.exp(-decay * t) * np.cos(omega * t + 0.4)
        assert fit_oscillation_frequency(t, y) == pytest.approx(omega, rel=1e-10)
