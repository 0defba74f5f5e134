"""Free-space channel models: beam spread, aperture clipping, pointing fading."""

import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ive
from scipy.stats import kstest

from cvqkd.channel import (
    BeamConfig,
    FadingModel,
    _scaled_bessel_i01,
    deflection_for_tau,
    diffraction_transmissivity,
    fading_pdf,
    fading_probability,
    microwave_best_range,
    microwave_transmissivity,
    pointing_tau_approx,
    pointing_tau_exact,
    sample_deflections,
    spot_size,
)
from oracles import fading_probability_quadrature

# Collimated 800 nm beam with 1 mm waist onto a 1 cm aperture: the
# short-range optical-wireless geometry used throughout.
BEAM = BeamConfig(wavelength=800e-9, waist=1e-3)
APERTURE = 1e-2
POINTING = 1.745e-3  # rad, one tenth of a degree


def fading_at(z: float, pointing: float = POINTING, eta_eff: float = 0.7) -> FadingModel:
    return FadingModel.from_geometry(BEAM, z, APERTURE, pointing, eta_eff)


def numpy_window_probability(lo, hi, fad: FadingModel) -> tuple:
    """The broadcast numpy closed form of P(lo <= tau <= hi) over arrays of
    windows: (exp(-r(hi)^2 / 2 sp^2), that term minus exp(-r(lo)^2 / 2 sp^2))
    with r(tau) = r0 ln(eta / tau)^(1 / gamma)."""
    def deflection(tau):
        return fad.r0 * np.log(np.clip(fad.eta / tau, 1.0, None)) ** (1.0 / fad.gamma)

    two_sp2 = 2.0 * fad.sigma_p ** 2
    larger = np.exp(-np.square(deflection(np.minimum(hi, fad.eta))) / two_sp2)
    return larger, larger - np.exp(-np.square(deflection(lo)) / two_sp2)


class TestBeamGeometry:
    def test_rayleigh_range(self):
        assert BEAM.rayleigh_range == pytest.approx(math.pi * 1e-6 / 800e-9, rel=1e-12)

    def test_collimated_spot_size(self):
        zr = BEAM.rayleigh_range
        assert spot_size(BEAM, 0.0) == pytest.approx(1e-3)
        assert spot_size(BEAM, zr) == pytest.approx(1e-3 * math.sqrt(2.0))
        zs = np.linspace(0.0, 100.0, 50)
        ws = [spot_size(BEAM, z) for z in zs]
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(wavelength=0.0, waist=1e-3)
        with pytest.raises(ValueError):
            spot_size(BEAM, -1.0)


class TestDiffractionTransmissivity:
    def test_near_field_collects_everything(self):
        # 1 cm aperture against a ~1 mm spot
        assert diffraction_transmissivity(BEAM, 0.0, APERTURE) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        z = 40.0
        wz = spot_size(BEAM, z)
        expect = 1.0 - math.exp(-2.0 * APERTURE**2 / wz**2)
        assert diffraction_transmissivity(BEAM, z, APERTURE) == pytest.approx(expect, rel=1e-12)

    def test_monotone_decreasing_and_bounded(self):
        etas = [diffraction_transmissivity(BEAM, z, APERTURE) for z in np.linspace(0.0, 200.0, 80)]
        assert all(0.0 < e <= 1.0 for e in etas)
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_atmospheric_factor(self):
        assert diffraction_transmissivity(BEAM, 10.0, APERTURE, eta_atm=0.5) == pytest.approx(
            0.5 * diffraction_transmissivity(BEAM, 10.0, APERTURE)
        )

    def test_far_field_limit(self):
        # far from the aperture eta_d tends to 2 a_R^2 / w_z^2, the far-field
        # parameter of the fading fit, which exceeds 1 in the near field
        def far(z):
            return 2.0 * APERTURE**2 / spot_size(BEAM, z) ** 2

        z = 5000.0
        exact = diffraction_transmissivity(BEAM, z, APERTURE)
        assert far(z) == pytest.approx(exact, rel=1e-4)
        assert far(1.0) > 1.0


class TestMicrowaveBroadcast:
    def test_best_range_anchor(self):
        # g = 10, a_R = 5 cm
        assert microwave_best_range(10.0, 5e-2) == pytest.approx(
            0.04460310290381928, rel=1e-12
        )

    def test_unit_transmissivity_up_to_best_range(self):
        z_best = microwave_best_range(10.0, 5e-2)
        assert microwave_transmissivity(10.0, 5e-2, 0.5 * z_best) == 1.0
        assert microwave_transmissivity(10.0, 5e-2, z_best) == pytest.approx(1.0)

    def test_inverse_square_beyond(self):
        z = 0.1
        assert microwave_transmissivity(10.0, 5e-2, z) == pytest.approx(
            10.0 * 25e-4 / (4.0 * math.pi * z * z), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            microwave_transmissivity(0.0, 5e-2, 1.0)
        with pytest.raises(ValueError):
            microwave_best_range(10.0, 0.0)


class TestDeflectionStatistics:
    def test_sampling_matches_cdf(self):
        sigma = 8.725e-3
        rng = np.random.default_rng(2024)
        samples = sample_deflections(sigma, 200_000, rng)
        stat = kstest(samples, lambda r: 1.0 - np.exp(-(r**2) / (2.0 * sigma**2)))
        assert stat.pvalue > 1e-3

    def test_sample_moments(self):
        sigma = 5e-3
        rng = np.random.default_rng(7)
        samples = sample_deflections(sigma, 500_000, rng)
        assert samples.mean() == pytest.approx(sigma * math.sqrt(math.pi / 2.0), rel=5e-3)
        assert (samples**2).mean() == pytest.approx(2.0 * sigma**2, rel=5e-3)


class TestPointingTauExact:
    def test_centred_beam_reproduces_eta(self):
        wz = spot_size(BEAM, 5.0)
        for eta in (0.7, 0.42):
            assert pointing_tau_exact(0.0, wz, APERTURE, eta) == pytest.approx(eta, rel=1e-10)

    def test_against_photon_monte_carlo(self):
        # Beam intensity is an isotropic Gaussian of std w_z/2 per axis
        # centred at (r, 0); tau is the mass inside the aperture disc.
        z = 5.0
        wz = spot_size(BEAM, z)
        eta_d = -math.expm1(-2.0 * APERTURE**2 / wz**2)
        rng = np.random.default_rng(42)
        for r in (0.5 * APERTURE, APERTURE, 1.2 * APERTURE):
            pts = rng.normal(size=(2_000_000, 2)) * (wz / 2.0)
            pts[:, 0] += r
            mc = float(np.mean(pts[:, 0] ** 2 + pts[:, 1] ** 2 < APERTURE**2))
            exact = pointing_tau_exact(r, wz, APERTURE, eta_d)
            assert exact == pytest.approx(mc, abs=1.5e-3)

    def test_monotone_in_deflection(self):
        wz = spot_size(BEAM, 10.0)
        taus = [pointing_tau_exact(r, wz, APERTURE, 0.7) for r in np.linspace(0.0, 3e-2, 40)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))


class TestFadingModel:
    def test_fit_parameters_finite_positive_over_range(self):
        for z in np.linspace(1.0, 100.0, 34):
            fad = fading_at(float(z))
            assert math.isfinite(fad.gamma) and fad.gamma > 0.0
            assert math.isfinite(fad.r0) and fad.r0 > 0.0
            assert 0.0 < fad.eta <= 1.0

    def test_tau_zero_deflection_is_eta(self):
        fad = fading_at(5.0)
        assert pointing_tau_approx(0.0, fad) == pytest.approx(fad.eta, rel=1e-12)
        assert fad.eta == pytest.approx(fad.eta_d * 0.7, rel=1e-12)

    def test_approximation_within_documented_band(self):
        # Documented: within 5% of the quadrature oracle for deflections up
        # to the aperture radius, across 1-100 m in this geometry.
        for z in (1.0, 5.0, 10.0, 20.0, 45.0, 100.0):
            fad = fading_at(z)
            wz = spot_size(BEAM, z)
            rs = np.linspace(0.0, APERTURE, 41)
            exact = np.array([pointing_tau_exact(r, wz, APERTURE, fad.eta) for r in rs])
            approx = pointing_tau_approx(rs, fad)
            assert np.max(np.abs(approx - exact) / exact) <= 0.05

    def test_scaled_bessel_against_scipy(self):
        # Lambda_n(x/2) = exp(-x) I_n(x) for x = 2 eta_far; tolerance fixed
        # before the run: 1e-14 relative to scipy's ive, over 1e-6..1500 and
        # on both sides of the series/Hankel switch at x = 25
        xs = np.concatenate((np.geomspace(1e-6, 1500.0, 4000),
                             np.linspace(24.0, 26.0, 201),
                             [np.nextafter(25.0, 0.0), 25.0]))
        got = np.array([_scaled_bessel_i01(float(x)) for x in xs])
        for n in (0, 1):
            ref = ive(n, xs)
            assert np.all(np.abs(got[:, n] - ref) <= 1e-14 * ref)

    def test_deflection_round_trip(self):
        fad = fading_at(5.0)
        # below ~0.2 r0 the map rounds tau to eta itself; beyond ~2 r0 tau
        # underflows: both ends destroy the deflection information
        rs = np.linspace(2.5e-3, 1.5e-2, 17)
        back = [deflection_for_tau(float(tau), fad) for tau in pointing_tau_approx(rs, fad)]
        assert np.allclose(back, rs, rtol=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            FadingModel.from_geometry(BEAM, 5.0, APERTURE, 0.0, 0.7)
        with pytest.raises(ValueError):
            FadingModel.from_geometry(BEAM, 0.0, APERTURE, POINTING, 0.7)
        fad = fading_at(5.0)
        with pytest.raises(ValueError):
            pointing_tau_approx(-1e-3, fad)
        with pytest.raises(ValueError):
            deflection_for_tau(fad.eta * 1.01, fad)


class TestFadingDistribution:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_pdf_normalisation(self):
        # Integrate in s = ln(eta/tau); the remaining sub-floating-point tail
        # P(tau < eta e^-600) is bounded analytically through the Weibull law.
        for z in (5.0, 20.0, 45.0):
            fad = fading_at(z)
            s_max = 600.0
            r_cut = fad.r0 * s_max ** (1.0 / fad.gamma)
            tail = math.exp(-(r_cut**2) / (2.0 * fad.sigma_p**2))

            def integrand(s, fad=fad):
                tau = fad.eta * math.exp(-s)
                return fading_pdf(tau, fad) * tau

            val, _ = quad(integrand, 0.0, s_max, limit=400)
            assert abs(val + tail - 1.0) <= 1e-6

    # Short range (0.5-2.71 m) puts nearly all the mass within an ulp of
    # tau = eta; the quadrature in s = ln(eta/tau) returned 6.5e-14 there at
    # 0.5 m (closed form 1.0) and raised at 1.5 m. In ln s it agrees with
    # the closed form to 5e-14 at every z below.
    WINDOW_Z = (0.5, 0.94, 1.5, 2.71, 5.0, 20.0, 45.0)

    def test_window_probability_consistency(self):
        # Exact CDF path vs direct pdf quadrature on post-selection windows.
        for z in self.WINDOW_Z:
            fad = fading_at(z)
            for f_th in (0.5, 0.8, 0.95):
                lo, hi = f_th * fad.eta, fad.eta
                assert fading_probability_quadrature(lo, hi, fad) == pytest.approx(
                    fading_probability(lo, hi, fad), abs=1e-12
                )
        fad = fading_at(5.0)
        assert fading_probability_quadrature(fad.eta, fad.eta, fad) == 0.0

    def test_probability_against_sampled_deflections(self):
        fad = fading_at(5.0)
        rng = np.random.default_rng(11)
        r = sample_deflections(fad.sigma_p, 400_000, rng)
        tau = pointing_tau_approx(r, fad)
        lo, hi = 0.8 * fad.eta, fad.eta
        p_hat = float(np.mean((tau >= lo) & (tau <= hi)))
        p = fading_probability(lo, hi, fad)
        assert p_hat == pytest.approx(p, abs=3.5 * math.sqrt(p * (1 - p) / 400_000))

    def test_probability_monotone_in_window(self):
        fad = fading_at(5.0)
        ps = [fading_probability(f * fad.eta, fad.eta, fad) for f in (0.95, 0.8, 0.5, 0.1)]
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p < 1.0 for p in ps)

    def test_probability_additive_over_windows(self):
        # the bins of a window, priced one scalar call each, sum to it
        fad = fading_at(5.0)
        edges = np.linspace(0.5 * fad.eta, fad.eta, 9)
        got = [fading_probability(lo, hi, fad) for lo, hi in zip(edges[:-1], edges[1:])]
        assert math.fsum(got) == pytest.approx(
            fading_probability(edges[0], edges[-1], fad), rel=1e-12)
        assert all(isinstance(p, float) for p in got)
        assert isinstance(fading_probability(edges[0], edges[-1], fad), float)

    def test_scalar_probability_matches_numpy_closed_form(self):
        # Tolerances fixed before the run. Against the broadcast numpy form it
        # replaced: within 1e-12 of the larger Weibull CDF term over 50-bin
        # lattices at 1-80 m, since a narrow bin is the difference of two
        # nearly equal terms (largest seen 3.5e-14). Against the pdf
        # quadrature: within 1e-12 absolute on the bins at 0.5-45 m (largest
        # seen 3.6e-14, at 0.94 m). The quadrature in s = ln(eta/tau) that
        # the one in ln s replaced was 1.09e-6 off on the top bin at 5 m.
        for z in np.geomspace(1.0, 80.0, 12):
            fad = fading_at(float(z))
            for f_th in (0.1, 0.5, 0.8, 0.95):
                edges = np.linspace(f_th * fad.eta, fad.eta, 51)
                larger, expect = numpy_window_probability(edges[:-1], edges[1:], fad)
                got = np.array([fading_probability(lo, hi, fad)
                                for lo, hi in zip(edges[:-1], edges[1:])])
                assert np.all(np.abs(got - expect) <= 1e-12 * larger)
        for z in self.WINDOW_Z:
            fad = fading_at(z)
            edges = np.linspace(0.8 * fad.eta, fad.eta, 11)
            for lo, hi in zip(edges[:-1], edges[1:]):
                assert fading_probability(lo, hi, fad) == pytest.approx(
                    fading_probability_quadrature(lo, hi, fad), abs=1e-12)

    def test_probability_validates_every_window(self):
        fad = fading_at(5.0)
        for lo, hi in ((0.0, 0.6 * fad.eta),
                       (0.6 * fad.eta, 0.5 * fad.eta),            # lo > hi
                       (0.5 * fad.eta, 1.1 * fad.eta),
                       (math.nan, 0.6 * fad.eta),
                       (0.5 * fad.eta, math.nan)):
            with pytest.raises(ValueError):
                fading_probability(lo, hi, fad)

    def test_pdf_rejects_out_of_support(self):
        fad = fading_at(5.0)
        with pytest.raises(ValueError):
            fading_pdf(fad.eta, fad)
        with pytest.raises(ValueError):
            fading_pdf(0.0, fad)
        with pytest.raises(ValueError):
            fading_probability(0.0, fad.eta, fad)
