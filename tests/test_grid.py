"""Grid operator tests: stencil contracts, convergence order, field solve."""

import math
from pathlib import Path

import numpy as np
import pytest

import pairplasma
from pairplasma.errors import ConfigError
from pairplasma.grid import (
    Grid1D,
    bohm_potential,
    d2dx2,
    ddx,
    hyperdiffusion,
    integrate,
    padded,
    poisson_init_E,
)
from pairplasma.kernels import PhysicsParams


class TestGrid1D:
    def test_geometry(self):
        grid = Grid1D(half_width=10.0, cells=64)
        assert grid.dx == pytest.approx(20.0 / 64.0)
        assert grid.length == 20.0
        assert grid.x[0] == pytest.approx(-10.0 + grid.dx / 2)
        assert grid.x[-1] == pytest.approx(10.0 - grid.dx / 2)
        assert grid.cells * grid.dx == pytest.approx(grid.length, rel=1e-15)

    @pytest.mark.parametrize("cells", [7, 6, 0, 65])
    def test_rejects_bad_cell_counts(self, cells):
        with pytest.raises(ConfigError):
            Grid1D(half_width=10.0, cells=cells)

    def test_rejects_bad_half_width(self):
        # inf and 1e308 leave the box length 2*half_width, and so dx, not finite
        for half_width in (0.0, -1.0, float("nan"), float("inf"), 1e308):
            with pytest.raises(ConfigError):
                Grid1D(half_width=half_width, cells=64)


class TestDdx:
    def test_constant_annihilated(self):
        grid = Grid1D(half_width=5.0, cells=32)
        assert np.all(ddx(np.full(32, 3.7), grid.dx) == 0.0)

    def test_fourth_order_convergence_on_sine(self):
        errors = []
        for cells in (64, 128, 256):
            grid = Grid1D(half_width=10.0, cells=cells)
            k = 2.0 * math.pi / grid.length
            err = np.max(np.abs(ddx(np.sin(k * grid.x), grid.dx) - k * np.cos(k * grid.x)))
            errors.append(err)
        assert errors[0] / errors[1] >= 15.0
        assert errors[1] / errors[2] >= 15.0

    def test_sawtooth_seam(self):
        grid = Grid1D(half_width=10.0, cells=64)
        d = ddx(grid.x, grid.dx)
        interior = np.r_[d[2:-2]]
        assert np.max(np.abs(interior - 1.0)) < 1e-11
        # the jump across the periodic seam contaminates exactly 2 cells per side
        assert np.all(np.abs(d[[0, 1, -2, -1]]) > 1.0)

    def test_mirror_antisymmetry_is_exact(self):
        rng = np.random.default_rng(41)
        grid = Grid1D(half_width=3.0, cells=48)
        f = rng.normal(size=48)
        assert np.array_equal(ddx(f[::-1].copy(), grid.dx), -ddx(f, grid.dx)[::-1])


class TestD2dx2:
    def test_constant_annihilated(self):
        grid = Grid1D(half_width=5.0, cells=32)
        assert np.all(d2dx2(np.full(32, -1.25), grid.dx) == 0.0)

    def test_fourth_order_convergence_on_sine(self):
        errors = []
        for cells in (64, 128, 256):
            grid = Grid1D(half_width=10.0, cells=cells)
            k = 2.0 * math.pi / grid.length
            f = np.sin(k * grid.x)
            errors.append(np.max(np.abs(d2dx2(f, grid.dx) + k * k * f)))
        assert errors[0] / errors[1] >= 15.0
        assert errors[1] / errors[2] >= 15.0

    def test_parabola_interior_exact(self):
        grid = Grid1D(half_width=10.0, cells=64)
        d2 = d2dx2(grid.x**2, grid.dx)
        assert np.max(np.abs(d2[3:-3] - 2.0)) < 1e-9


class TestIntegrate:
    def test_domain_measure(self):
        grid = Grid1D(half_width=10.0, cells=64)
        assert integrate(np.ones(64), grid.dx) == pytest.approx(20.0, rel=1e-15)

    def test_odd_mode_vanishes(self):
        grid = Grid1D(half_width=10.0, cells=64)
        k = 2.0 * math.pi / grid.length
        assert abs(integrate(np.sin(k * grid.x), grid.dx)) < 1e-14

    def test_gaussian(self):
        length_scale = 2.0
        grid = Grid1D(half_width=6.0 * length_scale, cells=256)
        got = integrate(np.exp(-(grid.x**2) / length_scale**2), grid.dx)
        assert got == pytest.approx(math.sqrt(math.pi) * length_scale, rel=1e-10)

    def test_divergence_theorem(self):
        rng = np.random.default_rng(4)
        grid = Grid1D(half_width=7.0, cells=128)
        f = rng.normal(size=128)
        assert abs(integrate(ddx(f, grid.dx), grid.dx)) < 1e-12


class TestHyperdiffusion:
    def test_disabled(self):
        f = np.random.default_rng(0).normal(size=32)
        assert np.all(hyperdiffusion(f, 0.0) == 0.0)

    def test_constant_null_space(self):
        assert np.all(hyperdiffusion(np.full(32, 2.5), 1.3) == 0.0)

    def test_grid_scale_mode(self):
        f = (-1.0) ** np.arange(32)
        assert np.array_equal(hyperdiffusion(f, 1.0), -16.0 * f)


class TestBohmPotential:
    def test_constant_ratio_vanishes(self):
        grid = Grid1D(half_width=5.0, cells=64)
        n = np.full(64, 0.7)
        gamma = np.full(64, 1.0)
        assert np.max(np.abs(bohm_potential(n, gamma, grid.dx))) == 0.0

    def test_gaussian_profile(self):
        sigma = 1.0
        grid = Grid1D(half_width=8.0, cells=512)
        n = np.exp(-(grid.x**2) / sigma**2)  # with gamma = 1, sqrt(n) = exp(-x^2/2 sigma^2)
        got = bohm_potential(n, np.ones(grid.cells), grid.dx)
        want = grid.x**2 / sigma**4 - 1.0 / sigma**2
        mask = np.abs(grid.x) <= 2.0 * sigma
        assert np.max(np.abs(got[mask] - want[mask])) < 1e-6

    def test_cosh_squared_interior(self):
        w = 2.0
        grid = Grid1D(half_width=20.0, cells=1024)
        n = np.cosh(grid.x / w) ** 2
        got = bohm_potential(n, np.ones(grid.cells), grid.dx)
        mask = np.abs(grid.x) <= grid.half_width / 2
        assert np.max(np.abs(got[mask] - 1.0 / w**2)) < 1e-8


def roll_ddx(f, dx):
    return (8.0 * (np.roll(f, -1) - np.roll(f, 1)) - (np.roll(f, -2) - np.roll(f, 2))) / (12.0 * dx)


def roll_d2dx2(f, dx):
    return (
        16.0 * (np.roll(f, -1) + np.roll(f, 1)) - (np.roll(f, -2) + np.roll(f, 2)) - 30.0 * f
    ) / (12.0 * dx * dx)


def roll_hyperdiffusion(f, nu_h):
    return -nu_h * (
        (np.roll(f, -2) + np.roll(f, 2)) - 4.0 * (np.roll(f, -1) + np.roll(f, 1)) + 6.0 * f
    )


class TestRollReference:
    """The slice stencils reproduce the np.roll formulation bit for bit."""

    @pytest.mark.parametrize("cells", [8, 2048])
    def test_bit_identical(self, cells):
        rng = np.random.default_rng(cells)
        grid = Grid1D(half_width=3.0, cells=cells)
        for _ in range(5):
            f = rng.normal(scale=rng.uniform(1e-3, 1e3), size=cells)
            assert np.array_equal(ddx(f, grid.dx), roll_ddx(f, grid.dx))
            assert np.array_equal(d2dx2(f, grid.dx), roll_d2dx2(f, grid.dx))
            assert np.array_equal(hyperdiffusion(f, 0.37), roll_hyperdiffusion(f, 0.37))

    def test_no_roll_left_in_package(self):
        package = Path(pairplasma.__file__).parent
        offenders = [
            f"{path.name}:{number}"
            for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "np.roll" in line
        ]
        assert offenders == []


class TestInPlaceForm:
    """Padded buffers and out= give the public results bit for bit, whatever the ghost cells held."""

    def test_matches_public_form(self):
        rng = np.random.default_rng(11)
        grid = Grid1D(half_width=3.0, cells=64)
        out, tmp = np.empty(64), np.empty(64)
        for _ in range(3):
            f = rng.normal(scale=rng.uniform(1e-3, 1e3), size=64)
            g = padded(f)
            for op, args in ((ddx, (grid.dx,)), (d2dx2, (grid.dx,)), (hyperdiffusion, (0.37,))):
                g[:2] = g[-2:] = np.nan  # stale ghost cells are refreshed
                assert op(g, *args, out=out, tmp=tmp) is out
                assert np.array_equal(out, op(f, *args))
                assert np.array_equal(g[2:-2], f)

    def test_bohm_potential_in_place(self):
        # the potential comes back unpadded, as in the public form; only the
        # root is padded, for its second-derivative stencil
        rng = np.random.default_rng(12)
        grid = Grid1D(half_width=3.0, cells=64)
        n = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid.x / grid.length) + 0.01 * rng.random(64)
        gamma = 1.0 + rng.random(64)
        potential, root = np.full(64, np.nan), np.full(68, np.nan)
        got = bohm_potential(n, gamma, grid.dx, out=potential, s=root, tmp=np.empty(64))
        assert got is potential
        assert np.array_equal(potential, bohm_potential(n, gamma, grid.dx))
        assert np.array_equal(root[2:-2], np.sqrt(n / gamma))


class TestFieldSolve:
    params = PhysicsParams(N0=0.2, alpha=1.0 / 137.0)

    def test_uniform_neutral_gives_zero_field(self):
        grid = Grid1D(half_width=100.0, cells=64)
        e_field = poisson_init_E(
            np.full(64, 1.01), np.full(64, 0.01), self.params.omega_pe_sq, grid
        )
        assert np.max(np.abs(e_field)) < 1e-18

    def test_gaussian_pulse_amplitude(self):
        # odd electron perturbation: the field is a Gaussian bump of height w2*L
        grid = Grid1D(half_width=24000.0, cells=2048)
        length = 6000.0
        u = grid.x / length
        n_e = 1.01 + 2.0 * u * np.exp(-(u**2))
        n_p = np.full(grid.cells, 0.01)
        e_field = poisson_init_E(n_e, n_p, self.params.omega_pe_sq, grid)
        want_peak = self.params.omega_pe_sq * length
        assert np.max(np.abs(e_field)) == pytest.approx(want_peak, rel=1e-3)
        assert np.max(np.abs(e_field)) == pytest.approx(0.44373, rel=1e-3)
        # peak sits at the center, field vanishes toward the seam
        assert abs(grid.x[np.argmax(e_field)]) < 3.0 * grid.dx
        assert abs(e_field[0]) < 1e-6 * want_peak

    def test_sine_mode_analytic(self):
        grid = Grid1D(half_width=24000.0, cells=2048)
        eps, mode = 1e-3, 2
        k = math.pi * mode / grid.half_width
        n_e = 1.01 + eps * np.sin(k * grid.x)
        n_p = np.full(grid.cells, 0.01)
        e_field = poisson_init_E(n_e, n_p, self.params.omega_pe_sq, grid)
        analytic = self.params.omega_pe_sq * eps / k * (np.cos(k * grid.x) - math.cos(k * grid.half_width))
        assert np.max(np.abs(e_field - analytic)) < 1e-8 * np.max(np.abs(analytic))

    def test_solution_satisfies_discrete_gauss_law(self):
        rng = np.random.default_rng(13)
        grid = Grid1D(half_width=50.0, cells=256)

        def ripple():
            return sum(
                rng.normal() / m * np.sin(2 * math.pi * m * (grid.x + 50.0) / 100.0 + rng.normal())
                for m in range(1, 6)
            )

        n_e = 1.2 + 0.1 * ripple()
        n_p = 0.2 + 0.1 * ripple()  # integral neutrality, nontrivial pointwise source
        e_field = poisson_init_E(n_e, n_p, self.params.omega_pe_sq, grid)
        source = self.params.omega_pe_sq * (1.0 - n_e + n_p)
        assert np.max(np.abs(ddx(e_field, grid.dx) - source)) < 1e-13 * np.max(np.abs(source))

    def test_net_charge_rejected(self):
        grid = Grid1D(half_width=100.0, cells=64)
        # the residual, -0.19 * 200 = -38
        with pytest.raises(ConfigError, match=r"net charge integral -3\.800000e\+01 exceeds"):
            poisson_init_E(np.full(64, 1.2), np.full(64, 0.01), 1e-4, grid)
