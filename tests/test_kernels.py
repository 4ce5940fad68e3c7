"""Pointwise kernel tests against extended-precision evaluations of the closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest

from pairplasma import constants, kernels
from pairplasma.errors import InvalidParameterError, InvalidStateError

mp.mp.dps = 50


def q0_reference(e_field, n0):
    """Extended-precision (E^2/N0) exp(-pi/|E|)."""
    e_field = mp.mpf(e_field)
    return float(e_field**2 / mp.mpf(n0) * mp.e ** (-mp.pi / abs(e_field)))


def omega_reference(n0, alpha):
    return float(mp.sqrt(2 * mp.mpf(alpha) * mp.mpf(n0)) / (2 * mp.pi))


class TestPlasmaFrequency:
    def test_reference_value(self):
        got = kernels.derived_plasma_frequency(0.2, 1.0 / 137.0)
        want = omega_reference("0.2", mp.mpf(1) / 137)
        assert got == pytest.approx(want, rel=1e-14)
        assert got**2 == pytest.approx(7.3957068352071366e-05, rel=1e-13)

    def test_unit_frequency_inversion(self):
        alpha = 1.0 / 137.0
        n0 = 2.0 * math.pi**2 / alpha
        assert kernels.derived_plasma_frequency(n0, alpha) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n0,alpha", [(0.0, 1 / 137), (-1.0, 1 / 137), (0.2, 0.0), (0.2, -2.0)])
    def test_rejects_nonpositive(self, n0, alpha):
        with pytest.raises(InvalidParameterError):
            kernels.derived_plasma_frequency(n0, alpha)

    def test_params_derive_omega(self):
        params = kernels.PhysicsParams(N0=0.2, alpha=1.0 / 137.0)
        assert params.omega_pe_sq == kernels.derived_plasma_frequency(0.2, 1 / 137) ** 2
        with pytest.raises(InvalidParameterError):
            kernels.PhysicsParams(N0=0.2, a=-0.1)
        with pytest.raises(InvalidParameterError):
            kernels.PhysicsParams(N0=0.2, eps_field=0.0)


class TestPairCreationRate:
    def test_reference_values(self):
        assert kernels.schwinger_rate_norm(0.5, 0.2) == pytest.approx(
            q0_reference("0.5", "0.2"), rel=1e-13
        )
        assert kernels.schwinger_rate_norm(0.44373, 0.2) == pytest.approx(
            q0_reference("0.44373", "0.2"), rel=1e-13
        )
        # three-digit values of the same quantities
        assert kernels.schwinger_rate_norm(0.5, 0.2) == pytest.approx(2.33430e-3, rel=1e-5)
        assert kernels.schwinger_rate_norm(0.44373, 0.2) == pytest.approx(8.29e-4, rel=1e-3)

    def test_even_parity(self):
        rng = np.random.default_rng(11)
        e_field = rng.uniform(-6.0, 6.0, size=200)
        assert np.array_equal(
            kernels.schwinger_rate_norm(e_field, 0.2), kernels.schwinger_rate_norm(-e_field, 0.2)
        )
        assert kernels.schwinger_rate_norm(-0.5, 0.2) == kernels.schwinger_rate_norm(0.5, 0.2)

    def test_zero_field_and_guard(self):
        assert kernels.schwinger_rate_norm(0.0, 0.2) == 0.0
        assert kernels.schwinger_rate_norm(5e-9, 0.2) == 0.0  # below the guard
        assert kernels.schwinger_rate_norm(1e-3, 0.2) == 0.0  # exponential underflows

    def test_faster_than_any_power_decay(self):
        e_field = np.linspace(1e-4, 0.05, 500)
        q0 = kernels.schwinger_rate_norm(e_field, 0.2)
        for n in range(1, 9):
            assert np.max(q0 / e_field**n) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        q0 = kernels.schwinger_rate_norm(rng.uniform(-10, 10, 500), 0.2)
        assert np.all(q0 >= 0.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidStateError):
            kernels.schwinger_rate_norm(float("nan"), 0.2)
        with pytest.raises(InvalidParameterError):
            kernels.schwinger_rate_norm(0.5, 0.0)


class TestSIRate:
    def test_zero_field(self):
        assert kernels.schwinger_rate_si(0.0) == 0.0

    def test_critical_field_value(self):
        # prefactor * e^{-pi} with the prefactor reduced symbolically at E = E_crit
        want = float(
            mp.mpf(constants.C)
            / ((2 * mp.pi) ** 3 * mp.mpf(constants.COMPTON_LENGTH) ** 4)
            * mp.e ** (-mp.pi)
        )
        got = kernels.schwinger_rate_si(constants.E_CRIT)
        assert got == pytest.approx(want, rel=1e-12)

    def test_even_in_field(self):
        e_field = np.array([0.3, 1.0, 2.5]) * constants.E_CRIT
        assert np.array_equal(kernels.schwinger_rate_si(e_field), kernels.schwinger_rate_si(-e_field))

    def test_matches_normalized_rate(self):
        # q0_norm(E/E_crit, N0) == q0_SI(E) * tau / n0 with n0 = N0 / ((2 pi)^3 lambda^3)
        rng = np.random.default_rng(17)
        volume_factor = (2.0 * math.pi) ** 3 * constants.COMPTON_LENGTH**3
        for _ in range(100):
            n0_dimless = rng.uniform(0.05, 1.0)
            e_norm = rng.uniform(0.05, 5.0) * (-1.0 if rng.random() < 0.5 else 1.0)
            si = kernels.schwinger_rate_si(e_norm * constants.E_CRIT)
            converted = si * constants.COMPTON_TIME * volume_factor / n0_dimless
            norm = kernels.schwinger_rate_norm(e_norm, n0_dimless)
            assert abs(converted - norm) / norm < 1e-12


def unmasked_pair_factor(E, N0, eps_field):
    """exp(-pi/|E|)/N0 evaluated on every cell outside the eps_field guard."""
    abs_e = np.abs(E)
    weak = abs_e < eps_field
    return np.where(weak, 0.0, np.exp(-np.pi / np.where(weak, 1.0, abs_e)) / N0)


def around(x, ulps=40, rel=1e-4):
    """x, its neighbouring doubles, and a band of relative width rel around it."""
    steps = [x]
    for _ in range(ulps):
        steps.append(np.nextafter(steps[-1], np.inf))
    for _ in range(ulps):
        steps.insert(0, np.nextafter(steps[0], 0.0))
    return np.concatenate((steps, x * (1.0 + rel * np.linspace(-1.0, 1.0, 201))))


class TestPairFactorMask:
    """Skipping exp where it underflows changes no bit of pair_factor."""

    @pytest.mark.parametrize("eps_field", [kernels.DEFAULT_EPS_FIELD, 1e-6, 1e-2])
    def test_bytes_equal_unmasked_formula(self, eps_field):
        magnitudes = np.concatenate(
            (
                around(math.pi / 746.0),
                around(math.pi / 745.13),
                around(eps_field),
                np.geomspace(math.pi / 760.0, math.pi / 700.0, 2001),  # subnormal outputs
                np.geomspace(1e-12, 10.0, 500),
                [0.0, 5e-324, np.inf, np.nan],
            )
        )
        E = np.concatenate((magnitudes, -magnitudes, [-0.0]))
        want = unmasked_pair_factor(E, 0.2, eps_field)
        assert kernels.pair_factor(E, 0.2, eps_field).tobytes() == want.tobytes()
        out = np.full(E.shape, 7.0)
        assert kernels.pair_factor(E, 0.2, eps_field, out=out) is out
        assert out.tobytes() == want.tobytes()
        for value in E[:: len(E) // 37]:
            got = kernels.pair_factor(value, 0.2, eps_field)
            assert got.tobytes() == unmasked_pair_factor(value, 0.2, eps_field).tobytes()

    def test_inputs_reach_subnormal_and_zero_outputs(self):
        # the band above the mask edge produces subnormals, so the comparison
        # above covers exp's underflow range, not only ordinary values
        E = np.geomspace(math.pi / 760.0, math.pi / 700.0, 2001)
        phi = kernels.pair_factor(E, 0.2, kernels.DEFAULT_EPS_FIELD)
        tiny = np.finfo(np.float64).tiny
        assert np.any((phi > 0.0) & (phi < tiny))
        assert np.any((phi == 0.0) & (E >= kernels.UNDERFLOW_FIELD))
        assert np.all(phi[E < kernels.UNDERFLOW_FIELD] == 0.0)
        assert math.exp(-math.pi / np.nextafter(kernels.UNDERFLOW_FIELD, 0.0)) == 0.0


class TestLorentzGamma:
    def test_values(self):
        assert kernels.lorentz_gamma(0.0) == 1.0
        assert kernels.lorentz_gamma(0.75) == 1.25
        assert kernels.lorentz_gamma(-3.0) == pytest.approx(float(mp.sqrt(10)), rel=1e-15)

    def test_at_least_one_and_even(self):
        rng = np.random.default_rng(23)
        p = rng.normal(scale=50.0, size=300)
        gamma = kernels.lorentz_gamma(p)
        assert np.all(gamma >= 1.0)
        assert np.array_equal(gamma, kernels.lorentz_gamma(-p))


class TestDisplacementFlux:
    def test_reference_value(self):
        want = q0_reference("0.5", "0.2") / 0.5
        assert kernels.displacement_flux(0.5, 1.0, 0.2) == pytest.approx(want, rel=1e-13)
        assert kernels.displacement_flux(0.5, 1.0, 0.2) == pytest.approx(4.66859e-3, rel=1e-5)

    def test_odd_parity(self):
        rng = np.random.default_rng(29)
        e_field = rng.uniform(-4.0, 4.0, size=200)
        gamma = 1.0 + rng.uniform(0.0, 10.0, size=200)
        assert np.array_equal(
            kernels.displacement_flux(e_field, gamma, 0.2),
            -kernels.displacement_flux(-e_field, gamma, 0.2),
        )
        assert kernels.displacement_flux(-0.5, 1.0, 0.2) == -kernels.displacement_flux(0.5, 1.0, 0.2)

    def test_zero_field(self):
        assert kernels.displacement_flux(0.0, 1.0, 0.2) == 0.0

    def test_gamma_scaling(self):
        one = kernels.displacement_flux(0.7, 1.0, 0.2)
        assert kernels.displacement_flux(0.7, 3.0, 0.2) == pytest.approx(3.0 * one, rel=1e-15)


class TestRecombination:
    def test_loss_values(self):
        assert kernels.recombination_loss(2.0, 3.0, 0.0) == 0.0
        assert kernels.recombination_loss(1.0, 1.0, 0.5) == 0.5
        assert kernels.recombination_loss(2.0, 0.25, 0.1) == pytest.approx(0.05, rel=1e-15)

    def test_loss_rejects_negative_density(self):
        with pytest.raises(InvalidStateError):
            kernels.recombination_loss(-1.0, 1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            kernels.recombination_loss(1.0, 1.0, -0.1)

    def test_momentum_exchange(self):
        assert kernels.recombination_momentum_exchange(1.0, 1.0, 5.0, 0.3) == 0.0
        assert kernels.recombination_momentum_exchange(1.0, 0.0, 1.0, 0.0) == 0.0
        assert kernels.recombination_momentum_exchange(1.0, 0.0, 1.0, 0.2) == pytest.approx(-0.2)
        with pytest.raises(InvalidStateError):
            kernels.recombination_momentum_exchange(1.0, 0.0, -1.0, 0.2)
