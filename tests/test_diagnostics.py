"""Diagnostics tests: energies, pair counting, constraint residual, balance term."""

import numpy as np
import pytest

from pairplasma.config import OutputConfig
from pairplasma.diagnostics import (
    energy_balance_rhs,
    gauss_residual,
    make_record,
    pair_count_delta,
)
from pairplasma.grid import Grid1D, integrate
from pairplasma.kernels import PhysicsParams, schwinger_rate_norm
from pairplasma.selfcheck import random_smooth_state
from pairplasma.solver import (
    InitialCondition,
    SimState,
    SolverOptions,
    Workspace,
    initial_condition,
    rhs,
    run,
)

PARAMS = PhysicsParams(N0=0.2, alpha=1.0 / 137.0)


def make_state(grid, E=0.0, n_e=1.0, n_p=1.0, p_e=0.0, p_p=0.0):
    m = grid.cells

    def field(v):
        return np.full(m, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)

    return SimState.from_fields(grid, 0.0, field(E), field(n_e), field(n_p), field(p_e), field(p_p))


def total_energy(state):
    """Raw and rest-subtracted total energy, as the series record reports them."""
    record = make_record(state, PARAMS, integrate(state.n_e, state.grid.dx))
    return record.total_energy, record.total_energy_sub


class TestTotalEnergy:
    def test_rest_state(self):
        grid = Grid1D(half_width=10.0, cells=64)
        raw, sub = total_energy(make_state(grid))
        assert raw == pytest.approx(40.0, rel=1e-14)
        assert sub == pytest.approx(0.0, abs=1e-12)

    def test_moving_state(self):
        grid = Grid1D(half_width=10.0, cells=64)
        raw, sub = total_energy(make_state(grid, p_e=0.75, p_p=0.75))
        assert raw == pytest.approx(50.0, rel=1e-14)  # gamma = 1.25 exactly
        assert sub == pytest.approx(10.0, rel=1e-13)

    def test_uniform_field_energy(self):
        grid = Grid1D(half_width=10.0, cells=64)
        e0 = 0.3
        raw_rest, _ = total_energy(make_state(grid))
        raw, _ = total_energy(make_state(grid, E=e0))
        assert raw - raw_rest == pytest.approx(e0**2 * 10.0 / PARAMS.omega_pe_sq, rel=1e-12)

    def test_mirror_invariance(self):
        rng = np.random.default_rng(31)
        grid = Grid1D(half_width=10.0, cells=64)
        state = make_state(
            grid,
            E=rng.normal(size=64),
            n_e=1.5 + 0.3 * rng.random(64),
            n_p=0.5 + 0.3 * rng.random(64),
            p_e=rng.normal(size=64),
            p_p=rng.normal(size=64),
        )
        mirrored = SimState.from_fields(
            grid,
            0.0,
            -state.E[::-1].copy(),
            state.n_e[::-1].copy(),
            state.n_p[::-1].copy(),
            -state.p_e[::-1].copy(),
            -state.p_p[::-1].copy(),
        )
        raw_a, _ = total_energy(state)
        raw_b, _ = total_energy(mirrored)
        assert raw_a == pytest.approx(raw_b, rel=1e-13)


class TestPairCount:
    def test_zero_at_start(self):
        grid = Grid1D(half_width=10.0, cells=64)
        state = make_state(grid)
        assert pair_count_delta(state, integrate(state.n_e, grid.dx)) == 0.0

    def test_euler_increment_of_uniform_source(self):
        grid = Grid1D(half_width=100.0, cells=64)
        state = make_state(grid, E=0.5)
        n0 = integrate(state.n_e, grid.dx)
        _, dn_e, _, _, _ = rhs(state, PARAMS, SolverOptions(t_end=1.0))
        dt = 0.5
        bumped = make_state(grid, E=0.5, n_e=state.n_e + dt * dn_e)
        want = schwinger_rate_norm(0.5, 0.2) * grid.length * dt
        assert pair_count_delta(bumped, n0) == pytest.approx(want, rel=1e-12)

    def test_pure_recombination_decreases_count(self):
        from pairplasma.solver import rk4_step

        grid = Grid1D(half_width=100.0, cells=64)
        params = PhysicsParams(N0=0.2, alpha=1.0 / 137.0, a=0.5)
        state = make_state(grid)  # E = 0: no creation, only losses
        n0 = integrate(state.n_e, grid.dx)
        stepped = rk4_step(state, 1.0, params, SolverOptions(t_end=1.0))
        assert pair_count_delta(stepped, n0) < 0.0

    def test_electron_and_positron_counts_agree(self):
        class Cfg:
            physics = PARAMS
            grid = Grid1D(half_width=24000.0, cells=256)
            solver = SolverOptions(t_end=300.0)
            ic = InitialCondition()
            output = OutputConfig(series_every=0, snapshot_every=0)

        result = run(Cfg())
        initial = initial_condition(Cfg.ic, Cfg.grid, PARAMS)
        d_e = integrate(result.state.n_e, Cfg.grid.dx) - integrate(initial.n_e, Cfg.grid.dx)
        d_p = integrate(result.state.n_p, Cfg.grid.dx) - integrate(initial.n_p, Cfg.grid.dx)
        assert d_e > 0.0
        assert d_e == pytest.approx(d_p, abs=1e-8 * max(1.0, d_e))


class TestGaussResidual:
    def test_constructed_state_is_exact(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        assert gauss_residual(state, PARAMS.omega_pe_sq) < 1e-12

    def test_uniform_field_neutral_plasma(self):
        # neutral against the unit ion background: n_e - n_p = 1
        grid = Grid1D(half_width=10.0, cells=64)
        state = make_state(grid, E=0.7, n_e=1.5, n_p=0.5)
        assert gauss_residual(state, PARAMS.omega_pe_sq) == 0.0

    def test_single_cell_bump_response(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        state = initial_condition(InitialCondition(), grid, PARAMS)
        delta = 1e-3
        state.E[100] += delta
        # the widest stencil weight is 8/(12 dx)
        assert gauss_residual(state, PARAMS.omega_pe_sq) == pytest.approx(
            delta * 8.0 / (12.0 * grid.dx), rel=1e-6
        )


class TestEnergyBalance:
    def test_symmetric_flows_vanish(self):
        grid = Grid1D(half_width=10.0, cells=64)
        p = np.sin(2 * np.pi * grid.x / grid.length)
        state = make_state(grid, E=0.5, p_e=p, p_p=p.copy())
        assert energy_balance_rhs(state, PARAMS) == 0.0

    def test_zero_field_vanishes(self):
        grid = Grid1D(half_width=10.0, cells=64)
        p = np.sin(2 * np.pi * grid.x / grid.length)
        state = make_state(grid, E=0.0, p_e=p, p_p=-p)
        assert energy_balance_rhs(state, PARAMS) == 0.0

    def test_equals_semi_discrete_energy_derivative(self):
        # contract the energy gradient with the rhs: d/dt E_tot == balance_rhs
        rng = np.random.default_rng(71)
        grid = Grid1D(half_width=24000.0, cells=512)
        opts = SolverOptions(t_end=1.0)
        for _ in range(10):
            state = random_smooth_state(grid, rng)
            dE, dn_e, dn_p, dp_e, dp_p = rhs(state, PARAMS, opts)
            g_e = np.sqrt(1.0 + state.p_e**2)
            g_p = np.sqrt(1.0 + state.p_p**2)
            ddt_energy = integrate(
                g_e * dn_e
                + state.n_e * (state.p_e / g_e) * dp_e
                + g_p * dn_p
                + state.n_p * (state.p_p / g_p) * dp_p
                + state.E * dE / PARAMS.omega_pe_sq,
                grid.dx,
            )
            balance = energy_balance_rhs(state, PARAMS)
            # the balance form commutes the derivative past the square, an
            # O(dx^4) product-rule difference from the exact-summation form
            assert ddt_energy == pytest.approx(balance, rel=1e-5, abs=1e-13)

    @pytest.mark.parametrize("primed_for", ["nothing", "another_state"])
    def test_workspace_is_primed_for_the_state(self, primed_for):
        # phi is read from the workspace, so one that holds no phi, or the
        # phi of another state, must be primed for this state first
        grid = Grid1D(half_width=24000.0, cells=64)
        work = Workspace(grid.cells)
        state = random_smooth_state(grid, np.random.default_rng(12))
        if primed_for == "another_state":
            work.prime(random_smooth_state(grid, np.random.default_rng(13)), PARAMS)
        got = energy_balance_rhs(state, PARAMS, work)
        want = energy_balance_rhs(state, PARAMS)
        assert want != 0.0 and got.hex() == want.hex()
        assert work.primed is state

    def test_integral_form_over_reference_run(self):
        # E_tot(t) - E_tot(0) tracks the time integral of balance_rhs to
        # within 0.5% of E_tot(0)
        class Cfg:
            physics = PARAMS
            grid = Grid1D(half_width=24000.0, cells=2048)
            solver = SolverOptions(t_end=1500.0)
            ic = InitialCondition()
            output = OutputConfig(series_every=1, snapshot_every=0)

        result = run(Cfg())
        t = np.array([r.t for r in result.records])
        e_tot = np.array([r.total_energy for r in result.records])
        balance = np.array([r.balance_rhs for r in result.records])
        trapezoids = 0.5 * (balance[1:] + balance[:-1]) * np.diff(t)
        predicted = e_tot[0] + np.concatenate(([0.0], np.cumsum(trapezoids)))
        assert np.max(np.abs(e_tot - predicted)) <= 0.005 * e_tot[0]


class TestMakeRecord:
    def test_fields_consistent(self):
        grid = Grid1D(half_width=10.0, cells=64)
        state = make_state(grid, E=0.2, p_e=0.75)
        rec = make_record(state, PARAMS, integrate(state.n_e, grid.dx))
        assert rec.total_energy == pytest.approx(
            rec.kinetic_e + rec.kinetic_p + rec.field_energy, rel=1e-15
        )
        assert rec.total_energy_sub == pytest.approx(rec.total_energy - 2.0 * grid.length)
        assert rec.max_abs_E == pytest.approx(0.2)
        assert rec.max_gamma == pytest.approx(1.25)
        assert rec.delta_pairs == 0.0
        assert rec.kinetic_e >= integrate(state.n_e, grid.dx)
