"""Holevo bounds, trust-level orderings, and asymptotic rates."""

import math
from pathlib import Path

import numpy as np
import pytest

from cvqkd.cli import evaluate_rate_point
from cvqkd.config import resolve_scenario
from cvqkd.gaussian import entropic_h, two_mode_blocks
from cvqkd.rates import (
    ChannelPoint,
    TrustLevel,
    bob_variance,
    holevo_standard,
    holevo_untrusted_closed_form,
    plob_thermal_bound,
    point_holevo,
)
from oracles import (
    CovarianceMatrix,
    asymptotic_rate,
    eve_joint_cm,
    holevo,
    holevo_los,
    microwave_los_rate,
    mutual_information,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def leakage_chi(b: float, theta: float, phi: float, nu_det: int) -> float:
    """h(phi) - h(phi') of a leakage mode with V_BE = [[b I, theta I],
    [theta I, phi I]] after Bob's homodyne (1) or heterodyne (2)."""
    if nu_det == 1:
        cond = math.sqrt(phi * (phi - theta * theta / b))
    else:
        cond = phi - theta * theta / (b + 1.0)
    return entropic_h(phi) - entropic_h(cond)


def require_bona_fide(b: float, theta: float, phi: float) -> None:
    v = two_mode_blocks(b * np.eye(2), phi * np.eye(2), theta * np.eye(2))
    CovarianceMatrix(v).require_physical()


def point(tau=0.25, eta_eff=1.0, n_b=0.0, n_ex=0.01, nu_det=2, mu=10.0) -> ChannelPoint:
    return ChannelPoint(eta_ch=tau / eta_eff, eta_eff=eta_eff, n_b=n_b, n_ex=n_ex,
                        nu_det=nu_det, mu=mu)


class TestChannelPoint:
    def test_derived_quantities(self):
        ch = ChannelPoint(eta_ch=0.5, eta_eff=0.7, n_b=0.02, n_ex=0.003, nu_det=2, mu=10.0)
        assert ch.tau == pytest.approx(0.35)
        assert ch.nbar == pytest.approx(0.7 * 0.02 + 0.003)
        assert ch.sigma_x2 == pytest.approx(9.0)

    def test_bob_variance_anchor(self):
        ch = point(tau=0.25, n_ex=0.01, mu=10.0)
        assert bob_variance(ch.tau, ch.nbar, ch.mu) == pytest.approx(0.25 * 9.0 + 0.02 + 1.0)
        assert bob_variance(ch.tau, ch.nbar, ch.mu) == pytest.approx(3.27)

    def test_from_estimates_round_trip(self):
        ch = ChannelPoint.from_estimates(tau=0.35, eta_eff=0.7, nbar=0.0173,
                                         n_b=0.02, nu_det=2, mu=10.0)
        assert ch.tau == pytest.approx(0.35)
        assert ch.nbar == pytest.approx(0.0173)
        assert ch.n_ex == pytest.approx(0.0173 - 0.014)

    def test_from_estimates_validation(self):
        with pytest.raises(ValueError):
            ChannelPoint.from_estimates(tau=0.8, eta_eff=0.7, nbar=0.1, n_b=0.0,
                                        nu_det=2, mu=10.0)
        with pytest.raises(ValueError):
            ChannelPoint.from_estimates(tau=0.3, eta_eff=0.7, nbar=0.001, n_b=0.1,
                                        nu_det=2, mu=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelPoint(eta_ch=0.0, eta_eff=1.0, n_b=0.0, n_ex=0.0, nu_det=2, mu=10.0)
        with pytest.raises(ValueError):
            ChannelPoint(eta_ch=0.5, eta_eff=1.0, n_b=-0.1, n_ex=0.0, nu_det=2, mu=10.0)
        with pytest.raises(ValueError):
            ChannelPoint(eta_ch=0.5, eta_eff=1.0, n_b=0.0, n_ex=0.0, nu_det=3, mu=10.0)
        with pytest.raises(ValueError):
            ChannelPoint(eta_ch=0.5, eta_eff=1.0, n_b=0.0, n_ex=0.0, nu_det=2, mu=0.5)


class TestMutualInformation:
    def test_closed_form(self):
        ch = point(tau=0.25, n_ex=0.01, nu_det=2, mu=10.0)
        chi_n = (2.0 * 0.01 + 2.0) / 0.25
        assert mutual_information(ch) == pytest.approx(math.log2(1.0 + 9.0 / chi_n))

    def test_monotonicities(self):
        base = mutual_information(point())
        assert mutual_information(point(mu=20.0)) > base
        assert mutual_information(point(n_ex=0.1)) < base
        assert mutual_information(point(tau=0.5)) > base


class TestDualDerivation:
    def test_closed_form_matches_conditioning_path(self):
        taus = np.linspace(0.05, 0.95, 13)
        nbars = (0.0, 0.05, 0.2)
        mus = (2.0, 10.0, 50.0)
        for nu_det in (1, 2):
            for tau in taus:
                for nbar in nbars:
                    for mu in mus:
                        ch = point(tau=float(tau), n_ex=nbar, nu_det=nu_det, mu=mu)
                        chi_cm = holevo_standard(ch, TrustLevel.UNTRUSTED)
                        chi_cf = holevo_untrusted_closed_form(ch)
                        assert abs(chi_cm - chi_cf) <= 1e-9

    def test_closed_form_at_identity_channel(self):
        # at tau = 1 untrusted Eve still holds nbar thermal photons: the
        # purified Alice-Bob state gives 0.28185 (homodyne) and 0.49086
        # (heterodyne) bits at nbar = 0.01, mu = 10
        for nu_det, expect in ((1, 0.28185), (2, 0.49086)):
            ch = point(tau=1.0, n_ex=0.01, nu_det=nu_det, mu=10.0)
            chi_cf = holevo_untrusted_closed_form(ch)
            assert chi_cf == pytest.approx(expect, abs=1e-5)
            assert abs(holevo_standard(ch, TrustLevel.UNTRUSTED) - chi_cf) <= 1e-9

    def test_eve_dilation_is_bona_fide_across_grid(self):
        for trust in TrustLevel:
            for tau in np.linspace(0.05, 0.95, 7):
                ch = ChannelPoint(eta_ch=float(tau), eta_eff=0.7, n_b=0.02,
                                  n_ex=0.003, nu_det=2, mu=10.0)
                state = eve_joint_cm(ch, trust)
                CovarianceMatrix(state.joint).require_physical()


class TestTrustAndSecurityOrdering:
    GRID = [
        dict(eta_ch=e, eta_eff=0.7, n_b=0.019, n_ex=0.003, nu_det=nu, mu=10.0)
        for e in (0.1, 0.3, 0.6, 0.9)
        for nu in (1, 2)
    ]

    def test_holevo_grows_with_distrust(self):
        for kw in self.GRID:
            ch = ChannelPoint(**kw)
            chi1 = holevo_standard(ch, TrustLevel.PASSIVE)
            chi2 = holevo_standard(ch, TrustLevel.TRUSTED_NOISE)
            chi3 = holevo_standard(ch, TrustLevel.UNTRUSTED)
            assert chi1 <= chi2 + 1e-12
            assert chi2 <= chi3 + 1e-12

    def test_los_never_exceeds_standard(self):
        for kw in self.GRID:
            ch = ChannelPoint(**kw)
            for trust in (TrustLevel.PASSIVE, TrustLevel.TRUSTED_NOISE):
                assert holevo_los(ch, trust) <= holevo_standard(ch, trust) + 1e-12

    def test_rate_ordering_follows(self):
        for kw in self.GRID:
            ch = ChannelPoint(**kw)
            r1, r2, r3 = (
                asymptotic_rate(ch, t, "standard", 0.95).rate
                for t in TrustLevel
            )
            assert r3 <= r2 + 1e-12 and r2 <= r1 + 1e-12

    def test_untrusted_is_max_of_all_securities(self):
        # the untrusted Holevo dominates even the LoS-trusted variants
        for kw in self.GRID:
            ch = ChannelPoint(**kw)
            chi3 = holevo_standard(ch, TrustLevel.UNTRUSTED)
            for trust in (TrustLevel.PASSIVE, TrustLevel.TRUSTED_NOISE):
                assert holevo_los(ch, trust) <= chi3 + 1e-12

    @pytest.mark.parametrize("trust, los", [
        (0, False), (4, False), (2.5, False), ("1", False), (0, True)])
    def test_unknown_trust_is_refused(self, trust, los):
        # not read as untrusted: the trust-3 value is 1.2298669317177997
        with pytest.raises(ValueError, match="trust must be 1, 2 or 3"):
            point_holevo(0.5, 0.7, 0.01, 0.01, 2, 10.0, trust, los)


class TestHybridTrustEquivalence:
    def test_trusted_noise_with_folded_setup_equals_untrusted(self):
        # Crediting Eve with the setup photons via an adjusted background
        # makes the trusted-noise dilation coincide with the untrusted one.
        for tau in (0.2, 0.45, 0.65):
            for nu_det in (1, 2):
                ch3 = ChannelPoint(eta_ch=tau / 0.7, eta_eff=0.7, n_b=0.019,
                                   n_ex=0.003, nu_det=nu_det, mu=10.0)
                n_b_adj = 0.019 + 0.003 / 0.7  # setup photons moved into n_b
                ch2 = ChannelPoint(eta_ch=tau / 0.7, eta_eff=0.7, n_b=n_b_adj,
                                   n_ex=0.0, nu_det=nu_det, mu=10.0)
                assert holevo_standard(ch2, TrustLevel.TRUSTED_NOISE) == pytest.approx(
                    holevo_standard(ch3, TrustLevel.UNTRUSTED), abs=1e-12
                )


class TestIdentityChannel:
    def test_holevo_vanishes(self):
        # eta = 1 into a vacuum environment leaks nothing; untrusted Eve
        # still owns the setup photons, a bright environment as eta -> 1
        ch = ChannelPoint(eta_ch=1.0, eta_eff=1.0, n_b=0.0, n_ex=0.01, nu_det=2, mu=10.0)
        for trust in (TrustLevel.PASSIVE, TrustLevel.TRUSTED_NOISE):
            assert holevo_standard(ch, trust) == 0.0
            assert holevo_los(ch, trust) == 0.0
        chi3 = holevo_standard(ch, TrustLevel.UNTRUSTED)
        assert chi3 == pytest.approx(holevo_untrusted_closed_form(ch), abs=1e-9)
        assert chi3 > 0.4

    def test_dilation_constructor_raises(self):
        ch = ChannelPoint(eta_ch=1.0, eta_eff=1.0, n_b=0.0, n_ex=0.01, nu_det=2, mu=10.0)
        with pytest.raises(ValueError):
            eve_joint_cm(ch, TrustLevel.PASSIVE)
        with pytest.raises(ValueError):
            eve_joint_cm(ch, TrustLevel.UNTRUSTED)

    def test_passive_limit_keys_on_external_channel(self):
        # eta_ch = 1 with lossy detection: passive Eve's dilation sits at its
        # bright-environment limit, the untrusted level still holds the
        # eta_eff loss
        def chi(eta_ch, trust):
            ch = ChannelPoint(eta_ch=eta_ch, eta_eff=0.7, n_b=0.019, n_ex=0.003,
                              nu_det=2, mu=10.0)
            return holevo_standard(ch, trust)

        limit = chi(1.0, TrustLevel.PASSIVE)
        assert limit > 0.0
        assert limit == pytest.approx(chi(1.0 - 1e-9, TrustLevel.PASSIVE), abs=1e-6)
        assert chi(1.0, TrustLevel.UNTRUSTED) > limit


class TestLineOfSight:
    def test_rejects_untrusted(self):
        ch = point(n_b=0.01, n_ex=0.001, eta_eff=0.7)
        with pytest.raises(ValueError):
            holevo_los(ch, TrustLevel.UNTRUSTED)

    def test_noiseless_background_leaks_nothing(self):
        # with n_b = 0 the leakage mode is vacuum-correlated only through
        # the modulation; chi stays finite and small
        ch = ChannelPoint(eta_ch=0.5, eta_eff=0.7, n_b=0.0, n_ex=0.003,
                          nu_det=2, mu=10.0)
        chi = holevo_los(ch, TrustLevel.TRUSTED_NOISE)
        assert chi >= 0.0

    def test_coefficients_build_physical_state(self):
        # the leakage mode of Eve's dilation is bona fide, and the scaled
        # kernel is h(phi) - h(phi') of it
        for nu_det in (1, 2):
            ch = ChannelPoint(eta_ch=0.5, eta_eff=0.7, n_b=0.019, n_ex=0.003,
                              nu_det=nu_det, mu=10.0)
            for trust in (TrustLevel.PASSIVE, TrustLevel.TRUSTED_NOISE):
                state = eve_joint_cm(ch, trust)
                require_bona_fide(state.b, state.theta, state.phi)
                assert holevo_los(ch, trust) == pytest.approx(
                    leakage_chi(state.b, state.theta, state.phi, nu_det), abs=1e-13)


def microwave_mode(tau: float, sigma_x2: float, n_th: float) -> tuple:
    """(b, theta, phi) of the microwave leakage mode: Bob holds
    n_R = tau sigma_x^2 / 2 + n_th photons and Eve the reflected modulation."""
    return (tau * sigma_x2 + 2.0 * n_th + 1.0,
            -math.sqrt(tau * (1.0 - tau)) * sigma_x2,
            (1.0 - tau) * sigma_x2 + 2.0 * n_th + 1.0)


def microwave_point(tau: float, nu_det: int = 2, mu: float = 21.0) -> ChannelPoint:
    return ChannelPoint.from_estimates(tau, 1.0, 0.1, 0.0, nu_det, mu)


class TestMicrowaveLoS:
    def test_coefficient_anchor(self):
        b, theta, phi = microwave_mode(tau=0.5, sigma_x2=20.0, n_th=0.1)
        assert (b, theta, phi) == pytest.approx((11.2, -10.0, 11.2))
        chi = microwave_los_rate(microwave_point(0.5), 0.1, 0.98).holevo
        assert chi == pytest.approx(entropic_h(11.2) - entropic_h(11.2 - 100.0 / 12.2),
                                    abs=1e-13)

    def test_state_physical_and_chi_positive(self):
        for nu_det in (1, 2):
            for tau in np.linspace(0.05, 0.95, 10):
                b, theta, phi = microwave_mode(float(tau), 20.0, 0.1024)
                require_bona_fide(b, theta, phi)
                ch = microwave_point(float(tau), nu_det)
                chi = microwave_los_rate(ch, 0.1024, 0.98).holevo
                assert chi >= 0.0
                assert chi == pytest.approx(leakage_chi(b, theta, phi, nu_det),
                                            abs=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            microwave_los_rate(microwave_point(0.5), -0.1, 0.98)
        with pytest.raises(ValueError):
            microwave_los_rate(microwave_point(0.5), 0.1, 0.0)


class TestAsymptoticRate:
    def test_report_composition(self):
        ch = point(n_ex=0.01)
        rep = asymptotic_rate(ch, TrustLevel.UNTRUSTED, "standard", 0.95)
        assert rep.rate == pytest.approx(0.95 * rep.mutual_information - rep.holevo)
        assert rep.holevo == pytest.approx(holevo(ch, TrustLevel.UNTRUSTED,
                                                  "standard"))

    def test_rate_can_be_negative(self):
        ch = point(tau=0.05, n_ex=0.5)
        assert asymptotic_rate(ch, TrustLevel.UNTRUSTED, "standard",
                               0.95).rate < 0.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            asymptotic_rate(point(), TrustLevel.UNTRUSTED, "standard", 0.0)


class TestPlobBound:
    def test_pure_loss_limit(self):
        for tau in (0.2, 0.5, 0.9):
            assert plob_thermal_bound(tau, 0.0) == pytest.approx(-math.log2(1.0 - tau))

    def test_entanglement_breaking_cutoff(self):
        assert plob_thermal_bound(0.3, 0.3) == 0.0
        assert plob_thermal_bound(0.3, 0.5) == 0.0

    def test_decreasing_in_thermal_photons(self):
        vals = [plob_thermal_bound(0.9, n) for n in (0.0, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_closed_form(self):
        tau, n_th = 0.8, 0.1
        expo = n_th / (1.0 - tau)
        expect = -math.log2((1.0 - tau) * tau**expo) - entropic_h(2.0 * expo + 1.0)
        assert plob_thermal_bound(tau, n_th) == pytest.approx(expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            plob_thermal_bound(1.0, 0.1)
        with pytest.raises(ValueError):
            plob_thermal_bound(0.5, -0.1)


class TestMicrowaveAnchor:
    """Gate criterion 6 asks for a rate of at least 1e-2 at the best range of
    configs/microwave.ini and fails by design: the rate there is 0.009769.
    Near the anchor the rate falls about 5 bits per unit of thermal photons
    n_th, so it crosses 1e-2 at n_th = 0.1023475, 0.045 % below the computed
    0.1023936, and the paper's rounded n_th = 0.1 gives 0.02184."""

    @staticmethod
    def rate_at_best_range(n_th: float) -> float:
        scenario = resolve_scenario((CONFIGS / "microwave.ini").read_text(encoding="utf-8"))
        z_best = scenario.derived["z_best"]
        scenario.derived["n_th"] = n_th
        return evaluate_rate_point(scenario, z_best, clamp=False)["rate_raw"]

    def test_rate_crosses_the_anchor_just_below_the_computed_n_th(self):
        lo, hi = 0.1, 0.1023936
        assert self.rate_at_best_range(lo) > 1e-2 > self.rate_at_best_range(hi)
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if self.rate_at_best_range(mid) > 1e-2 else (lo, mid)
        assert 0.10230 <= lo <= 0.10240

    def test_rounded_n_th_meets_the_anchor(self):
        rate = self.rate_at_best_range(0.1)
        assert rate > 1e-2
        assert rate == pytest.approx(0.02184, abs=1e-5)
