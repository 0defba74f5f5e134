"""Noise-budget anchors and conversions.

The numeric anchors are frozen from first-principles evaluation of the
published receiver parameters (800 nm heterodyne LLO chain, cloudy-sky
optical background, 1 GHz microwave antenna at room temperature).
"""

import math

import numpy as np
import pytest
import scipy.constants
from scipy.constants import c as SPEED_OF_LIGHT

from cvqkd import noise
from cvqkd.noise import (
    ReceiverOptics,
    SetupConfig,
    blackbody_mode_photons,
    microwave_etendue,
    microwave_thermal_photons,
    optical_etendue,
    setup_noise_from_thetas,
    sky_background_photons,
    theta_el,
    theta_ph,
    xi_from_photons,
)

# 800 nm heterodyne receiver with a local LO: NEP 6 pW/rtHz, W = 100 MHz,
# P_LO = 100 mW, Delta_t = 10 ns, linewidth 1.6 kHz, clock 5 MHz, mu = 10.
FIBER_CFG = SetupConfig(
    wavelength=800e-9,
    detector_bandwidth=100e6,
    nep=6e-12,
    lo_power=100e-3,
    lo_pulse_duration=10e-9,
    linewidth=1.6e3,
    clock=5e6,
    nu_det=2,
    sigma_x2=9.0,
    lo_kind="llo",
)


class TestSetupNoise:
    def test_electronic_coefficient_anchor(self):
        value = theta_el(FIBER_CFG)
        assert value == pytest.approx(0.0014498255714523003, rel=1e-12)
        assert value == pytest.approx(1.45e-3, rel=0.02)

    def test_electronic_coefficient_scalings(self):
        base = theta_el(FIBER_CFG)
        hom = SetupConfig(**{**FIBER_CFG.__dict__, "nu_det": 1})
        assert theta_el(hom) == pytest.approx(base / 2.0)
        strong_lo = SetupConfig(**{**FIBER_CFG.__dict__, "lo_power": 200e-3})
        assert theta_el(strong_lo) == pytest.approx(base / 2.0)

    def test_phase_coefficient_and_llo_excess_noise(self):
        th_ph = theta_ph(FIBER_CFG)
        assert th_ph == pytest.approx(math.pi * 9.0 * 1.6e3 / 5e6, rel=1e-12)
        # the phase share of the LLO excess noise is tau-independent
        for tau in (0.1, 0.25, 0.63):
            xi = xi_from_photons(th_ph * tau, tau)
            assert xi == pytest.approx(0.018095573684677208, rel=1e-12)
            assert xi == pytest.approx(0.018, rel=0.03)

    def test_combined_photon_example(self):
        # th_el = 1.45e-3 plus th_ph = 2.88e-3 at tau = 0.5 gives 2.89e-3
        n_ex = setup_noise_from_thetas(1.45e-3, 2.88e-3, "llo", 0.5)
        assert n_ex == pytest.approx(2.89e-3, rel=1e-12)

    def test_tlo_vs_llo_monotonicity(self):
        # TLO noise falls with tau; LLO noise grows with tau (0-40 dB span).
        taus = [10 ** (-db / 10.0) for db in range(0, 41, 2)]
        tlo = [setup_noise_from_thetas(1.45e-3, 0.0, "tlo", t) for t in taus]
        llo = [setup_noise_from_thetas(1.45e-3, 9.05e-3, "llo", t) for t in taus]
        assert all(a < b for a, b in zip(tlo, tlo[1:]))  # tau decreasing along list
        assert all(a > b for a, b in zip(llo, llo[1:]))

    def test_setup_noise_uses_config_offsets(self):
        # the untrusted n_other photons add to either LO law
        th_el, th_ph = theta_el(FIBER_CFG), theta_ph(FIBER_CFG)
        assert setup_noise_from_thetas(th_el, th_ph, "llo", 0.5, n_other=1e-4) \
            == pytest.approx(th_el + th_ph * 0.5 + 1e-4)
        assert setup_noise_from_thetas(th_el, th_ph, "tlo", 0.5, n_other=1e-4) \
            == pytest.approx(th_el / 0.5 + 1e-4)

    def test_array_tau_matches_float_path(self):
        taus = np.array([0.05, 0.3, 0.72, 1.0])
        for lo_kind in ("tlo", "llo"):
            got = setup_noise_from_thetas(1.45e-3, 2.88e-3, lo_kind, taus, 1e-4)
            expect = [setup_noise_from_thetas(1.45e-3, 2.88e-3, lo_kind, float(t),
                                              1e-4) for t in taus]
            assert got.tolist() == expect
        # a pulse whose transmissivity underflowed to 0 is allowed in an array
        llo = setup_noise_from_thetas(1.45e-3, 2.88e-3, "llo", np.array([0.0, 0.5]))
        assert llo[0] == 1.45e-3
        with pytest.raises(ValueError):
            setup_noise_from_thetas(1.45e-3, 2.88e-3, "llo", np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            setup_noise_from_thetas(1.45e-3, 2.88e-3, "llo", np.array([-0.1]))

    def test_validation(self):
        with pytest.raises(ValueError):
            setup_noise_from_thetas(1e-3, 1e-3, "xlo", 0.5)
        with pytest.raises(ValueError):
            setup_noise_from_thetas(1e-3, 1e-3, "llo", 0.0)
        with pytest.raises(ValueError):
            SetupConfig(**{**FIBER_CFG.__dict__, "nu_det": 3})
        with pytest.raises(ValueError):
            SetupConfig(**{**FIBER_CFG.__dict__, "lo_power": 0.0})


class TestExcessNoiseConversions:
    def test_validation(self):
        with pytest.raises(ValueError):
            xi_from_photons(0.1, 0.0)
        with pytest.raises(ValueError):
            xi_from_photons(-0.1, 0.5)


class TestPhysicalConstants:
    def test_si_literals_equal_scipy(self):
        # c, h and k_B are exact in the 2019 SI; the literals must match
        # scipy.constants bit for bit
        assert noise.SPEED_OF_LIGHT == scipy.constants.c
        assert noise.PLANCK == scipy.constants.h
        assert noise.BOLTZMANN == scipy.constants.k


class TestOpticalBackground:
    def test_cloudy_day_anchor(self):
        optics = ReceiverOptics(aperture_radius=1e-2, fov=1e-4, spectral_filter=0.1e-12)
        n_b = sky_background_photons(optics, 800e-9, 100e6, 1.5e-1)
        assert n_b == pytest.approx(0.018978172351088216, rel=1e-12)
        assert n_b == pytest.approx(0.019, rel=0.05)

    def test_clear_night_scales_linearly(self):
        optics = ReceiverOptics(aperture_radius=1e-2, fov=1e-4, spectral_filter=0.1e-12)
        cloudy = sky_background_photons(optics, 800e-9, 100e6, 1.5e-1)
        night = sky_background_photons(optics, 800e-9, 100e6, 1.5e-6)
        assert night == pytest.approx(cloudy * 1e-5, rel=1e-12)
        assert night == pytest.approx(1.9e-7, rel=0.05)

    def test_etendue_composition(self):
        optics = ReceiverOptics(aperture_radius=1e-2, fov=1e-4, spectral_filter=0.1e-12)
        assert optical_etendue(optics, 100e6) == pytest.approx(
            0.1e-12 / 100e6 * 1e-4 * 1e-4, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ReceiverOptics(aperture_radius=0.0, fov=1e-4, spectral_filter=1e-13)
        optics = ReceiverOptics(aperture_radius=1e-2, fov=1e-4, spectral_filter=1e-13)
        with pytest.raises(ValueError):
            sky_background_photons(optics, 800e-9, 100e6, -1.0)


class TestMicrowaveBackground:
    WAVELENGTH = SPEED_OF_LIGHT / 1e9  # 1 GHz carrier
    FOV = math.radians(1.0) ** 2  # one-degree square field of view
    APERTURE = 5e-2

    def test_etendue_anchor(self):
        gamma = microwave_etendue(self.WAVELENGTH, self.FOV, self.APERTURE)
        assert gamma == pytest.approx(2.28305012568688e-16, rel=1e-12)
        assert gamma == pytest.approx(2.28e-16, rel=0.02)

    def test_thermal_photon_anchor(self):
        n_th = microwave_thermal_photons(self.WAVELENGTH, 290.0, self.FOV, self.APERTURE)
        assert n_th == pytest.approx(0.10239356132899088, rel=1e-12)
        assert n_th == pytest.approx(0.1, rel=0.05)

    def test_blackbody_occupancy_rayleigh_jeans_limit(self):
        # h nu << k T: occupation approaches (2c/lambda^4) * (lambda k T / h c)
        n_mode = blackbody_mode_photons(self.WAVELENGTH, 290.0)
        from scipy.constants import h, k

        rj = (2.0 * SPEED_OF_LIGHT / self.WAVELENGTH**4) * (
            self.WAVELENGTH * k * 290.0 / (h * SPEED_OF_LIGHT)
        )
        assert n_mode == pytest.approx(rj, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            microwave_etendue(0.0, self.FOV, self.APERTURE)
        with pytest.raises(ValueError):
            blackbody_mode_photons(self.WAVELENGTH, 0.0)
