"""Composable finite-size corrections, estimators, and the general-attack
extension.

Protocol anchors: N = 1e7 pulses with m = 0.1 N disclosed, d = 32,
beta = 0.95; collective attacks use p_ec = 0.9 with all epsilons 2^-33,
general attacks p_ec = 0.1 with epsilons 1e-43 and energy-test fraction 0.2.
"""

import functools
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcinv

from cvqkd import cli, finite_size
from cvqkd.channel import BeamConfig, FadingModel, fading_probability
from cvqkd.config import resolve_scenario
from cvqkd.noise import noise_map, setup_noise_from_thetas
from cvqkd.finite_size import (
    ERFINV_FLOOR,
    P_DELTA_MIN,
    TAU_FLOOR,
    FadingLattice,
    ProtocolParams,
    background_bound,
    confidence_w,
    delta_aep,
    energy_test_threshold,
    general_attack_extension,
    mobile_worst_case,
    theta_term,
    total_epsilon,
    window_bounds,
    worst_case_bounds,
)
from oracles import composable_rate, empirical_estimators

ROOT = Path(__file__).resolve().parents[1]
COLLECTIVE = ProtocolParams(n_total=1e7, m=1e6, beta=0.95, p_ec=0.9,
                            eps_pe=2.0**-33, eps_s=2.0**-33, eps_h=2.0**-33,
                            eps_cor=2.0**-33, mu=10.0, d=32)
GENERAL = ProtocolParams(n_total=1e7, m=1e6, beta=0.95, p_ec=0.1,
                         eps_pe=1e-43, eps_s=1e-43, eps_h=1e-43,
                         eps_cor=1e-43, mu=10.0, d=32, f_et=0.2)


class TestConfidence:
    def test_table_anchors(self):
        assert confidence_w(2.0**-33) == pytest.approx(6.33795775455379, rel=1e-12)
        assert confidence_w(2.0**-33) == pytest.approx(6.34, abs=0.01)
        assert confidence_w(1e-43) == pytest.approx(14.072040292633046, rel=1e-12)
        assert confidence_w(1e-43) == pytest.approx(14.07, abs=0.01)

    def test_two_sigma_identity(self):
        assert confidence_w(0.0228) == pytest.approx(2.0, abs=1e-3)

    def test_monotone_through_tail_switch(self):
        eps = [1e-10, 1e-14, 1e-16, 5e-17, 2e-17, 1e-17, 1e-18, 1e-25]
        ws = [confidence_w(e) for e in eps]
        assert all(math.isfinite(w) for w in ws)
        assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_degenerate_half_gives_zero_margin(self):
        assert confidence_w(0.5) == 0.0

    def test_validation(self):
        for bad in (0.0, 0.50001, -0.1, 1.0):
            with pytest.raises(ValueError):
                confidence_w(bad)

    def test_normal_quantile_against_erfcinv_and_mpmath(self):
        # tolerance fixed before the run: 1e-15 relative to scipy's erfcinv
        # and to a 50-digit sqrt(2) erfinv(1 - 2 eps), over the whole
        # quantile branch
        for eps in np.append(np.geomspace(1.0001e-17, 0.5, 120)[:-1], 0.4999):
            eps = float(eps)
            w = confidence_w(eps)
            scipy_w = math.sqrt(2.0) * float(erfcinv(2.0 * eps))
            with mpmath.workdps(50):
                exact = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(eps))
            assert abs(w - scipy_w) <= 1e-15 * scipy_w
            assert abs(w - exact) <= 1e-15 * exact


# every eps_pe that the shipped configs and the tests use
USED_EPS_PE = (2.0**-33, 1e-43, 0.01, 0.05, 0.0228, 0.3, 0.5, 1e-5, 1e-10, 1e-14,
               1e-16, 5e-17, 2e-17, 1e-17, 1e-18, 1e-25)

# The reference w is -NormalDist().inv_cdf(eps) above ERFINV_FLOOR and the
# tail bound below it. Run in a fresh interpreter, refusing _statistics if
# asked, the probe prints the module of the kernel that finite_size took,
# whether _statistics is loaded, and whether confidence_w equals the reference
# bit for bit at every eps_pe in argv.
W_PROBE = """\
import math, sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "_statistics":
            raise ModuleNotFoundError(f"{name} is refused")
if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, Refuse())
from statistics import NormalDist
from cvqkd.finite_size import ERFINV_FLOOR, _normal_dist_inv_cdf, confidence_w
def reference(eps):
    if eps > ERFINV_FLOOR:
        return 0.0 - NormalDist().inv_cdf(eps)
    return math.sqrt(2.0 * math.log(1.0 / eps))
eps = [float(arg) for arg in sys.argv[2:]]
print(_normal_dist_inv_cdf.__module__, "_statistics" in sys.modules,
      all(confidence_w(e).hex() == reference(e).hex() for e in eps))
"""


def normal_dist_w(eps: float) -> float:
    if eps > ERFINV_FLOOR:
        return 0.0 - statistics.NormalDist().inv_cdf(eps)
    # ln(1/eps), or -ln(eps) where 1/eps overflows (eps below 1 / DBL_MAX)
    return math.sqrt(2.0 * (math.log(1.0 / eps) if math.isfinite(1.0 / eps) else -math.log(eps)))


class TestConfidenceKernel:
    """confidence_w takes the C kernel behind NormalDist.inv_cdf, or the
    statistics module's own where _statistics is missing, and agrees with
    NormalDist bit for bit either way."""

    def test_used_eps_pe_bit_identical(self):
        for eps in USED_EPS_PE:
            assert confidence_w(eps).hex() == normal_dist_w(eps).hex(), eps

    @settings(derandomize=True, database=None, deadline=None, max_examples=2000)
    @given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    @example(5e-324)
    def test_sweep_bit_identical(self, eps):
        assert confidence_w(eps).hex() == normal_dist_w(eps).hex()
        assert math.isfinite(confidence_w(eps))

    @pytest.mark.parametrize("mode, kernel", [("allow", "_statistics"),
                                              ("refuse", "statistics")])
    def test_both_kernels(self, mode, kernel):
        grid = [repr(float(e)) for e in np.geomspace(1e-300, 0.5, 400)]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", W_PROBE, mode, *map(repr, USED_EPS_PE), *grid],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}).stdout.split()
        assert out == [kernel, str(mode == "allow"), "True"]


class TestProtocolParams:
    def test_block_arithmetic(self):
        assert COLLECTIVE.n == 9e6
        assert GENERAL.n == 7.5e6  # (N - m) / (1 + f_et), exactly
        with_pilots = ProtocolParams(n_total=1e7, m=1e6, m_pl=5e5, beta=0.95,
                                     p_ec=0.9, eps_pe=2.0**-33, eps_s=2.0**-33,
                                     eps_h=2.0**-33, eps_cor=2.0**-33, mu=10.0)
        assert with_pilots.n == 8.5e6

    def test_epsilon_budget_anchor(self):
        eps = total_epsilon(COLLECTIVE)
        assert eps == pytest.approx(5.587935447692871e-10, rel=1e-12)
        assert eps == pytest.approx(5.6e-10, rel=0.02)
        assert eps == pytest.approx((2.0 * 0.9 + 3.0) * 2.0**-33, rel=1e-12)

    def test_w_property(self):
        assert COLLECTIVE.w == confidence_w(2.0**-33)

    def test_cached_w_follows_replace(self):
        # w is computed once per instance and kept in its __dict__; a block
        # rebuilt with another eps_pe gets its own, and neither can be changed
        base = dict(n_total=1e7, m=1e6, beta=0.95, p_ec=0.9, eps_pe=2.0**-33,
                    eps_s=2.0**-33, eps_h=2.0**-33, eps_cor=2.0**-33, mu=10.0)
        params = ProtocolParams(**base)
        assert params.w == params.w == vars(params)["w"] == confidence_w(2.0**-33)
        other = ProtocolParams(**{**base, "eps_pe": 1e-5})
        assert other.w == confidence_w(1e-5)
        assert params.w == confidence_w(2.0**-33)
        fields = {**base, "d": 32, "m_pl": 0.0, "f_et": 0.0, "w": other.w}
        assert vars(other) == {**fields, "eps_pe": 1e-5}
        with pytest.raises(AttributeError, match="read-only"):
            params.eps_pe = 1e-5
        with pytest.raises(AttributeError, match="read-only"):
            del params.w

    def test_validation(self):
        base = dict(n_total=1e7, m=1e6, beta=0.95, p_ec=0.9, eps_pe=2.0**-33,
                    eps_s=2.0**-33, eps_h=2.0**-33, eps_cor=2.0**-33, mu=10.0)
        with pytest.raises(ValueError):
            ProtocolParams(**{**base, "m": 1e7})  # exhausts the block
        with pytest.raises(ValueError):
            ProtocolParams(**{**base, "d": 12})  # not a power of two
        with pytest.raises(ValueError):
            ProtocolParams(**{**base, "beta": 1.2})
        with pytest.raises(ValueError):
            ProtocolParams(**{**base, "f_et": -0.1})


class TestEmpiricalEstimators:
    def test_noiseless_regression_is_exact(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=3.0, size=1000)
        y = math.sqrt(0.42) * x
        snap = empirical_estimators(x, y, nu_det=2)
        assert snap.tau_hat == pytest.approx(0.42, rel=1e-12)
        assert snap.n_hat == pytest.approx(-1.0, abs=1e-12)  # -nu_det/2 before flooring

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=3.0, size=4096)
        y = 0.6 * x + rng.normal(scale=1.5, size=4096)
        snap = empirical_estimators(x, y, nu_det=1)
        perm = rng.permutation(4096)
        snap_p = empirical_estimators(x[perm], y[perm], nu_det=1)
        assert snap_p.tau_hat == pytest.approx(snap.tau_hat, rel=1e-12)
        assert snap_p.sigma_z2_hat == pytest.approx(snap.sigma_z2_hat, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_estimators(np.ones(3), np.ones(4), 2)
        with pytest.raises(ValueError):
            empirical_estimators(np.ones(3), np.ones(3), 3)


class TestWorstCaseEstimators:
    """worst_case_bounds: (tau', tau'', nbar', nbar'', floored)."""

    def test_zero_confidence_collapses(self):
        tau_lo, tau_hi, n_hi, n_lo, _ = worst_case_bounds(0.3, 0.05, 9.0, 2.1, 1e6, 0.0)
        assert tau_lo == tau_hi == 0.3
        assert n_hi == n_lo == 0.05

    def test_formulas(self):
        tau, nbar, sx2, sz2, m_p, w = 0.3, 0.05, 9.0, 2.1, 1e6, 6.34
        tau_lo, tau_hi, n_hi, n_lo, floored = worst_case_bounds(tau, nbar, sx2, sz2, m_p, w)
        margin = 2.0 * w * math.sqrt((2.0 * tau**2 + tau * sz2 / sx2) / m_p)
        shift = w * sz2 / math.sqrt(2.0 * m_p)
        assert tau_lo == pytest.approx(tau - margin, rel=1e-12)
        assert tau_hi == pytest.approx(tau + margin, rel=1e-12)
        assert n_hi == pytest.approx(nbar + shift, rel=1e-12)
        assert n_lo == pytest.approx(nbar - shift, rel=1e-12)
        assert floored is False

    def test_microwave_inputs(self):
        # a thermal microwave link discloses nu_det m pairs whose residual
        # variance is the model value 2 n_th + nu_det
        tau, n_th, sx2, m, nu_det, w = 0.8, 0.1024, 20.0, 5e6, 2, 6.34
        sz2, m_p = 2.0 * n_th + nu_det, nu_det * m
        tau_lo, _, n_hi, n_lo, floored = worst_case_bounds(tau, n_th, sx2, sz2, m_p, w)
        assert floored is False
        assert tau_lo == pytest.approx(
            tau - 2.0 * w * math.sqrt((2.0 * tau**2 + tau * sz2 / sx2) / m_p), rel=1e-12
        )
        shift = w * sz2 / math.sqrt(2.0 * m_p)
        assert n_hi == pytest.approx(n_th + shift, rel=1e-12)
        assert n_lo == pytest.approx(n_th - shift, rel=1e-12)
        assert n_lo >= 0.0

    def test_floors_with_lower_noise_bound(self):
        n_th = 1e-9
        tau_lo, _, n_hi, n_lo, floored = worst_case_bounds(0.5, n_th, 20.0, 2.0 * n_th + 2,
                                                           2 * 10, 6.34)
        assert tau_lo == TAU_FLOOR
        assert floored is True
        assert n_lo == 0.0
        assert n_hi > n_th

    def test_large_samples_converge(self):
        tau_lo, _, n_hi, _, _ = worst_case_bounds(0.3, 0.05, 9.0, 2.1, 1e12, 6.34)
        assert tau_lo == pytest.approx(0.3, abs=1e-5)
        assert n_hi == pytest.approx(0.05, abs=1e-5)

    def test_tau_floor_and_warning(self):
        tau_lo, _, _, _, floored = worst_case_bounds(0.3, 0.05, 9.0, 2.1, 10, 6.34)
        assert tau_lo == TAU_FLOOR
        assert floored

    def test_tau_floor_below_tau_floor_is_tau(self):
        # a tau below TAU_FLOOR is its own floor: the worst case never lies
        # above the estimate
        tau_lo, _, _, _, floored = worst_case_bounds(1e-13, 0.05, 9.0, 2.1, 1e6, 6.34)
        assert tau_lo == 1e-13
        assert floored is True

    def test_tau_upper_cap(self):
        _, tau_hi, _, _, _ = worst_case_bounds(0.99, 0.05, 9.0, 2.1, 100, 6.34)
        assert tau_hi == 1.0


class TestSetupAndBackgroundBounds:
    """The fixed-link split of nbar' into trusted setup photons n_ex_bc and
    the background bound n_b' = (nbar' - n_ex_bc) / eta_eff."""

    CONFIG = (ROOT / "configs" / "fiber_fixed_loss.ini").read_text(encoding="utf-8")

    def recorded_split(self, monkeypatch, lo_kind):
        # the rate row's arguments to background_bound, and the row
        calls = []

        def recording(*args):
            calls.append(args)
            return background_bound(*args)

        monkeypatch.setattr(cli, "background_bound", recording)
        text = self.CONFIG.replace("trust = 3", "trust = 1") \
            .replace("lo = llo", f"lo = {lo_kind}")
        scenario = resolve_scenario(text)
        row = cli.evaluate_rate_point(scenario, 2.0, clamp=False)
        assert row["reason"] == ""
        assert len(calls) == 1
        return scenario, row, calls[0]

    def test_llo_split(self, monkeypatch):
        # a local LO's phase share grows with tau, so its best case is tau'
        scenario, row, args = self.recorded_split(monkeypatch, "llo")
        derived = scenario.derived
        assert args == (row["n_hi"], derived["theta_el"], derived["theta_ph"], "llo",
                        row["tau_lo"], row["tau_hi"], 0.7)
        n_ex_bc = derived["theta_el"] + derived["theta_ph"] * row["tau_lo"]
        assert background_bound(*args) == pytest.approx(
            (row["n_hi"] - n_ex_bc) / 0.7, rel=1e-12)

    def test_tlo_uses_upper_transmissivity(self, monkeypatch):
        scenario, row, args = self.recorded_split(monkeypatch, "tlo")
        derived = scenario.derived
        assert args == (row["n_hi"], derived["theta_el"], derived["theta_ph"], "tlo",
                        row["tau_lo"], row["tau_hi"], 0.7)
        n_ex_bc = derived["theta_el"] / row["tau_hi"]
        assert background_bound(*args) == pytest.approx(
            (row["n_hi"] - n_ex_bc) / 0.7, rel=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(n_hi=st.floats(0.0, 1e6), th_el=st.floats(0.0, 1e3),
           th_ph=st.floats(0.0, 1e3), lo_kind=st.sampled_from(("tlo", "llo")),
           eta_eff=st.floats(1e-6, 1.0),
           taus=st.lists(st.floats(1e-300, 1.0), min_size=2, max_size=2).map(sorted))
    def test_bound_takes_the_least_setup_noise(self, n_hi, th_el, th_ph, lo_kind,
                                               eta_eff, taus):
        # the rule itself, exactly: both LO kinds' n_ex are monotone in tau
        # under rounding, so the least of the two ends is the best case
        tau_lo, tau_hi = taus
        n_ex = functools.partial(setup_noise_from_thetas, th_el, th_ph, lo_kind)
        assert background_bound(n_hi, th_el, th_ph, lo_kind, tau_lo, tau_hi, eta_eff) \
            == (n_hi - min(n_ex(tau_lo), n_ex(tau_hi))) / eta_eff

    # Budget fixed before the run: 400 derandomized examples per path, over
    # finite inputs (tau >= 1e-300 and thetas <= 1e3 keep every noise term
    # below 1e306). The bound is exact, so it is >= 0.0 with no tolerance.
    LINK = dict(th_el=st.floats(0.0, 1e3), th_ph=st.floats(0.0, 1e3),
                lo_kind=st.sampled_from(("tlo", "llo")),
                eta_eff=st.floats(1e-6, 1.0), n_b=st.floats(0.0, 1e3),
                n_other=st.floats(0.0, 1e3), tau=st.floats(1e-300, 1.0),
                w=st.floats(0.0, 20.0), m_p=st.floats(2.0, 1e12),
                sigma_x2=st.floats(1e-3, 1e3), nu=st.sampled_from((1, 2)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(**LINK)
    def test_fixed_row_background_is_nonnegative(self, th_el, th_ph, lo_kind, eta_eff,
                                                 n_b, n_other, tau, w, m_p, sigma_x2, nu):
        # the rate row's calls: nbar = eta_eff n_b + n_ex(tau), its bounds,
        # and the background left over [tau', tau'']
        nbar = eta_eff * n_b + setup_noise_from_thetas(th_el, th_ph, lo_kind, tau,
                                                       n_other=n_other)
        tau_lo, tau_hi, n_hi, _, _ = worst_case_bounds(tau, nbar, sigma_x2,
                                                       2.0 * nbar + nu, m_p, w)
        assert background_bound(n_hi, th_el, th_ph, lo_kind, tau_lo, tau_hi,
                                eta_eff) >= 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(**LINK)
    def test_window_background_is_nonnegative(self, th_el, th_ph, lo_kind, eta_eff,
                                              n_b, n_other, tau, w, m_p, sigma_x2, nu):
        # window_bounds' calls at tau_min = tau: the noise law at the worst
        # case, tau_min (TLO) or 1 (LLO), its bounds, and the background
        # left over [tau_min, 1]
        n_wc = noise_map(th_el, th_ph, lo_kind, eta_eff, n_b, n_other)(
            tau if lo_kind == "tlo" else 1.0)
        _, _, n_ub, _, _ = worst_case_bounds(tau, n_wc, sigma_x2, 2.0 * n_wc + nu, m_p, w)
        assert background_bound(n_ub, th_el, th_ph, lo_kind, tau, 1.0, eta_eff) >= 0.0

    def test_validation(self):
        for eta_eff in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                background_bound(0.05, 1e-3, 0.0, "tlo", 0.5, 0.5, eta_eff)


class TestComposableTerms:
    def test_aep_prefactors(self):
        # log2(2 sqrt(32) + 1) and the improved log2(sqrt(32) + 2)
        assert math.log2(2.0 * math.sqrt(32.0) + 1.0) == pytest.approx(
            3.6221934162022746, rel=1e-12
        )
        assert math.log2(math.sqrt(32.0) + 2.0) == pytest.approx(
            2.936751795439824, rel=1e-12
        )
        assert math.log2(math.sqrt(32.0) + 2.0) == pytest.approx(2.94, abs=0.01)

    def test_delta_aep_values(self):
        assert delta_aep(32, 0.9, 2.0**-33) == pytest.approx(169.26083501934139, rel=1e-12)
        assert delta_aep(32, 0.9, 2.0**-33, improved=True) == pytest.approx(
            137.23095484554773, rel=1e-12
        )
        assert delta_aep(32, 0.9, 2.0**-33, improved=True) < delta_aep(32, 0.9, 2.0**-33)

    def test_delta_aep_composition(self):
        d, p_ec, eps_s = 32, 0.9, 2.0**-33
        inner = math.log2(18.0) - 2.0 * math.log2(p_ec) - 4.0 * math.log2(eps_s)
        assert delta_aep(d, p_ec, eps_s) == pytest.approx(
            4.0 * math.log2(2.0 * math.sqrt(d) + 1.0) * math.sqrt(inner), rel=1e-12
        )

    def test_theta_term(self):
        theta = theta_term(0.9, 2.0**-33, 2.0**-33)
        assert theta == pytest.approx(-65.15200309344505, rel=1e-12)
        assert theta < 0.0
        # p_ec = 1 and eps_h = 1/sqrt(2) cancel both logarithms
        assert theta_term(1.0, 1e-12, 2.0**-0.5) == pytest.approx(0.0, abs=1e-12)

    def test_composable_rate_wiring(self):
        r_pe = 0.8
        n = COLLECTIVE.n
        expect = (n * 0.9 / 1e7) * (
            r_pe
            - delta_aep(32, 0.9, 2.0**-33) / math.sqrt(n)
            + theta_term(0.9, 2.0**-33, 2.0**-33) / n
        )
        assert composable_rate(r_pe, COLLECTIVE) == pytest.approx(expect, rel=1e-12)

    def test_post_selection_shrinks_block(self):
        full = composable_rate(0.8, COLLECTIVE)
        selected = composable_rate(0.8, COLLECTIVE, p_delta=0.5)
        assert selected < full

    def test_validation(self):
        with pytest.raises(ValueError):
            composable_rate(0.8, COLLECTIVE, p_delta=0.0)
        with pytest.raises(ValueError):
            delta_aep(1, 0.9, 0.5)

    def test_cached_terms_raise_on_every_invalid_call(self):
        # the values are kept per argument tuple; an exception is not, so a
        # repeated invalid call raises again, before and after valid ones
        bad_aep = [(1, 0.9, 0.5), (32, 0.0, 0.5), (32, 1.5, 0.5), (32, 0.9, 0.0),
                   (32, 0.9, 1.0), (32, math.nan, 0.5)]
        bad_theta = [(0.0, 0.5, 0.5), (1.5, 0.5, 0.5), (0.9, 0.0, 0.5),
                     (0.9, 0.5, 1.0), (0.9, 0.5, math.nan)]
        for _ in range(3):
            assert delta_aep(32, 0.9, 2.0**-33) == pytest.approx(
                169.26083501934139, rel=1e-12)
            assert theta_term(0.9, 2.0**-33, 2.0**-33) == pytest.approx(
                -65.15200309344505, rel=1e-12)
            for args in bad_aep:
                for improved in (False, True):
                    with pytest.raises(ValueError):
                        delta_aep(*args, improved=improved)
            for args in bad_theta:
                with pytest.raises(ValueError):
                    theta_term(*args)


class TestGeneralAttackExtension:
    def test_energy_test_threshold_default(self):
        d_et, c_et = energy_test_threshold(4.5, 1.5e6)
        assert c_et == pytest.approx(3.0 * math.sqrt(5.5), rel=1e-12)
        assert d_et == pytest.approx(4.5 + c_et / math.sqrt(1.5e6), rel=1e-12)

    def test_table_anchors(self):
        terms = general_attack_extension(GENERAL, 4.5, total_epsilon(GENERAL))
        assert terms.n == 7.5e6
        assert terms.m_et == pytest.approx(1.5e6)
        assert terms.d_et == pytest.approx(4.505744562646538, rel=1e-12)
        assert terms.k_cutoff == pytest.approx(68729285.26881184, rel=1e-12)
        assert terms.phi == 200.0
        assert terms.eps_prime == pytest.approx(1.4280627282095155e-13, rel=1e-12)
        assert terms.eps_prime == pytest.approx(1.4e-13, rel=0.10)

    def test_phi_matches_exact_binomial(self):
        # for integer cutoffs the generalised binomial is exact
        for k in (1, 10, 1000, 99_999):
            terms_phi = 2.0 * math.ceil(math.log2(math.comb(k + 4, 4)))
            prm = GENERAL
            eps = total_epsilon(prm)
            got = general_attack_extension(prm, 4.5, eps)
            # compare the helper directly through a tiny cutoff: K = 1 case
            assert got.k_cutoff > 1.0
            from cvqkd.finite_size import _log2_binomial

            assert _log2_binomial(float(k), 4) == pytest.approx(
                math.log2(math.comb(k + 4, 4)), rel=1e-12
            )
            assert 2.0 * math.ceil(_log2_binomial(float(k), 4)) == terms_phi

    def test_log2_binomial_large_argument_path(self):
        # against a 60-digit log2 C(k + 4, 4) within 1e-12 bits, with the
        # same ceil, for cutoffs from 1 to 1e16; a log-gamma difference is
        # off by up to 28 bits here and flips the ceil from k of about 1e13
        from cvqkd.finite_size import _log2_binomial

        for k in np.append(np.geomspace(1.0, 1e16, 241), [2e6, 3e13]):
            k = float(k)
            with mpmath.workdps(60):
                exact = mpmath.log(mpmath.binomial(mpmath.mpf(k) + 4, 4), 2)
            got = _log2_binomial(k, 4)
            assert abs(got - exact) <= 1e-12
            assert math.ceil(got) == int(mpmath.ceil(exact))

    def test_epsilon_degradation_law(self):
        terms = general_attack_extension(GENERAL, 4.5, total_epsilon(GENERAL))
        assert terms.eps_prime == pytest.approx(
            terms.k_cutoff**4 * total_epsilon(GENERAL) / 50.0, rel=1e-12
        )

    def test_rate_penalty_composition(self):
        terms = general_attack_extension(GENERAL, 4.5, total_epsilon(GENERAL))
        r_pe = 0.8
        n = GENERAL.n
        expect = (n * 0.1 / 1e7) * (
            r_pe
            - delta_aep(32, 0.1, 1e-43) / math.sqrt(n)
            + (theta_term(0.1, 1e-43, 1e-43) - terms.phi) / n
        )
        assert composable_rate(r_pe, GENERAL, terms=terms) == pytest.approx(
            expect, rel=1e-12
        )

    def test_block_mismatch_rejected(self):
        terms = general_attack_extension(GENERAL, 4.5, total_epsilon(GENERAL))
        with pytest.raises(ValueError):
            composable_rate(0.8, GENERAL, p_delta=0.5, terms=terms)

    def test_requires_heterodyne_and_energy_test(self):
        # heterodyne detection is the config rule general-requires-heterodyne
        with pytest.raises(ValueError):
            general_attack_extension(COLLECTIVE, 4.5, 1e-43)  # f_et = 0

    def test_short_block_rejected(self):
        tiny = ProtocolParams(n_total=1300.0, m=100.0, beta=0.95, p_ec=0.1,
                              eps_pe=1e-43, eps_s=1e-43, eps_h=1e-43,
                              eps_cor=1e-43, mu=10.0, d=32, f_et=0.2)
        with pytest.raises(ValueError):
            general_attack_extension(tiny, 4.5, 1e-43)


class TestComposableRateOracle:
    """composable_rate against the two formulas it merged, written out as
    they stood: collective attacks without a Phi term, general attacks with
    (Theta - Phi), each with the block length n as it stood (no energy test
    under collective attacks). The results must agree to the last bit."""

    @staticmethod
    def collective(r_pe, params, p_delta, improved):
        n_eff = (params.n_total - params.m - params.m_pl) * p_delta
        aep = delta_aep(params.d, params.p_ec, params.eps_s, improved)
        theta = theta_term(params.p_ec, params.eps_s, params.eps_h)
        return (n_eff * params.p_ec / params.n_total
                * (r_pe - aep / math.sqrt(n_eff) + theta / n_eff))

    @staticmethod
    def general(r_pe, params, terms, p_delta, improved):
        n_eff = (params.n_total - params.m - params.m_pl) / (1.0 + params.f_et) * p_delta
        aep = delta_aep(params.d, params.p_ec, params.eps_s, improved)
        theta = theta_term(params.p_ec, params.eps_s, params.eps_h)
        return (n_eff * params.p_ec / params.n_total
                * (r_pe - aep / math.sqrt(n_eff) + (theta - terms.phi) / n_eff))

    @pytest.mark.parametrize("improved", [False, True])
    @pytest.mark.parametrize("p_delta", [1.0, 0.37])
    @pytest.mark.parametrize("r_pe", [0.8, 1e-3, -1e-3, -0.8])
    def test_collective_bit_identical(self, r_pe, p_delta, improved):
        got = composable_rate(r_pe, COLLECTIVE, p_delta=p_delta,
                              improved_prefactor=improved)
        assert got.hex() == self.collective(r_pe, COLLECTIVE, p_delta, improved).hex()

    @pytest.mark.parametrize("improved", [False, True])
    @pytest.mark.parametrize("p_delta", [1.0, 0.37])
    @pytest.mark.parametrize("r_pe", [0.8, 1e-3, -1e-3, -0.8])
    def test_general_bit_identical(self, r_pe, p_delta, improved):
        terms = general_attack_extension(GENERAL, 4.5, total_epsilon(GENERAL),
                                         p_delta=p_delta)
        got = composable_rate(r_pe, GENERAL, p_delta=p_delta,
                              improved_prefactor=improved, terms=terms)
        want = self.general(r_pe, GENERAL, terms, p_delta, improved)
        assert got.hex() == want.hex()
        assert got < composable_rate(r_pe, GENERAL, p_delta=p_delta,
                                     improved_prefactor=improved)  # Phi > 0

    @pytest.mark.parametrize("attack", ["collective", "general"])
    def test_guards_hold_under_both_attacks(self, attack):
        prm = GENERAL
        terms = None
        if attack == "general":
            terms = general_attack_extension(prm, 4.5, total_epsilon(prm))
        for p_delta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="p_delta must lie"):
                composable_rate(0.8, prm, p_delta=p_delta, terms=terms)
        with pytest.raises(ValueError, match="below one pulse"):
            composable_rate(0.8, prm, p_delta=0.5 / prm.n, terms=terms)
        if terms is not None:
            with pytest.raises(ValueError, match="different block"):
                composable_rate(0.8, prm, p_delta=0.5, terms=terms)


class TestFadingLattice:
    def test_edges_and_assignment(self):
        lat = FadingLattice(tau_min=0.4, tau_max=0.8, bins=4)
        assert np.allclose(lat.edges, [0.4, 0.5, 0.6, 0.7, 0.8])
        assert np.allclose(lat.lower_edges, [0.4, 0.5, 0.6, 0.7])
        got = lat.assign(np.array([0.39, 0.4, 0.55, 0.72, 0.8, 0.81]))
        assert got.tolist() == [-1, 0, 1, 3, 3, -1]

    def test_validation(self):
        with pytest.raises(ValueError):
            FadingLattice(tau_min=0.8, tau_max=0.4, bins=4)
        with pytest.raises(ValueError):
            FadingLattice(tau_min=0.4, tau_max=0.8, bins=0)


class TestMobileWorstCase:
    BEAM = BeamConfig(wavelength=800e-9, waist=1e-3)
    TH_EL = 0.014498255714523003  # 10 mW LLO at 100 MHz bandwidth
    TH_PH = 0.0013708767942937278  # 33 MHz clock, 1.6 kHz linewidth, mu = 10

    def fading(self, z=5.0):
        return FadingModel.from_geometry(self.BEAM, z, 1e-2, 1.745e-3, 0.7)

    def params(self):
        return ProtocolParams(n_total=1e7, m=1e6, m_pl=5e5, beta=0.95, p_ec=0.9,
                              eps_pe=2.0**-33, eps_s=2.0**-33, eps_h=2.0**-33,
                              eps_cor=2.0**-33, mu=10.0, d=32)

    def traced(self, monkeypatch, lo_kind="llo", th_ph=TH_PH, z=5.0, f_th=0.8, bins=50,
               **kwargs):
        """mobile_worst_case on the reference link, with what its window
        computed on the way: (set, window_bounds' tuple, the arguments of
        worst_case_bounds, those of background_bound). Each is called once."""
        seen = {}  # name -> [(arguments, result)] of its calls
        for name in ("window_bounds", "worst_case_bounds", "background_bound"):
            def recording(*args, fn=getattr(finite_size, name), name=name):
                result = fn(*args)
                seen.setdefault(name, []).append((args, result))
                return result
            monkeypatch.setattr(finite_size, name, recording)
        fs = mobile_worst_case(self.params(), self.fading(z), self.TH_EL, th_ph, lo_kind,
                               0.7, 0.019, 9.0, 2, f_th=f_th, bins=bins, **kwargs)
        monkeypatch.undo()
        assert [len(seen[name]) for name in ("window_bounds", "worst_case_bounds",
                                             "background_bound")] == [1, 1, 1]
        ((_, window),), ((bounds_args, _),), ((background_args, _),) = (
            seen["window_bounds"], seen["worst_case_bounds"], seen["background_bound"])
        return fs, window, bounds_args, background_args

    def test_window_and_bins(self, monkeypatch):
        fad = self.fading()
        fs, window, bounds_args, _ = self.traced(monkeypatch, f_th=0.8, bins=50)
        assert fs.lattice.tau_max == pytest.approx(fad.eta)
        assert fs.lattice.tau_min == pytest.approx(0.8 * fad.eta)
        assert window[:2] == (fs.lattice.tau_min, fs.p_delta)
        assert len(fs.bin_probabilities) == 50
        assert fs.bin_probabilities.sum() == pytest.approx(fs.p_delta, rel=1e-9)
        m_delta = bounds_args[4]
        assert m_delta == pytest.approx(2.0 * 1e6 * fs.p_delta, rel=1e-12)

    def test_window_priced_in_one_call(self, monkeypatch):
        # the window is priced in one scalar call, then the bins one call
        # each, all while the record is built; reading the record prices nothing
        from cvqkd import channel, finite_size

        calls = []

        def counting(lo, hi, fad):
            calls.append((lo, hi))
            return channel.fading_probability(lo, hi, fad)

        monkeypatch.setattr(finite_size, "fading_probability", counting)
        fad = self.fading()
        fs = mobile_worst_case(self.params(), fad, self.TH_EL, self.TH_PH,
                               "llo", 0.7, 0.019, 9.0, 2, f_th=0.8, bins=50)
        assert calls[0] == (fs.lattice.tau_min, fs.lattice.tau_max)
        assert len(calls) == 51
        edges = fs.lattice.edges
        assert calls[1:] == list(zip(edges[:-1], edges[1:]))
        probabilities, _ = fs.bin_probabilities, fs.n_star
        assert len(calls) == 51
        for k in (0, 17, 49):
            assert probabilities[k] == channel.fading_probability(edges[k], edges[k + 1], fad)

    def test_bins_sum_to_window_and_n_star_matches_numpy(self):
        # Tolerances fixed before the run: rel 1e-12 for both. The bins sum
        # to p_Delta, and n_star equals the numpy computation it replaced,
        # written out here with the broadcast closed form of each bin.
        for z in (1.0, 5.0, 10.0, 30.0, 60.0):
            fad = self.fading(z)
            for lo_kind, th_ph in (("llo", self.TH_PH), ("tlo", 0.0)):
                fs = mobile_worst_case(self.params(), fad, self.TH_EL, th_ph,
                                       lo_kind, 0.7, 0.019, 9.0, 2, f_th=0.8, bins=50,
                                       n_other=0.01)
                assert math.fsum(fs.bin_probabilities) == pytest.approx(fs.p_delta,
                                                                        rel=1e-12)
                edges = np.linspace(fs.lattice.tau_min, fs.lattice.tau_max, 51)
                lower = edges[:-1]

                def weibull_cdf(tau):
                    r = fad.r0 * np.log(np.clip(fad.eta / tau, 1.0, None)) ** (1.0 / fad.gamma)
                    return np.exp(-np.square(r) / (2.0 * fad.sigma_p ** 2))

                p_k = weibull_cdf(np.minimum(edges[1:], fad.eta)) - weibull_cdf(lower)
                setup = self.TH_EL / lower if lo_kind == "tlo" \
                    else self.TH_EL + th_ph * lower
                n_k = 0.7 * 0.019 + setup + 0.01
                expect = fs.lattice.tau_min / fs.p_delta * float(np.sum(p_k / lower * n_k))
                assert fs.n_star == pytest.approx(expect, rel=1e-12)

    def test_noise_bounds(self, monkeypatch):
        fs, (tau_min, _, tau_lb, n_ub, n_b_ub, _), bounds_args, background_args = \
            self.traced(monkeypatch, f_th=0.8, bins=50)
        n_wc = bounds_args[1]
        # LLO worst case bounds the phase share at unit transmissivity, and
        # the best case over [tau_min, 1] is at tau_min
        assert background_args[1:] == (self.TH_EL, self.TH_PH, "llo", tau_min, 1.0, 0.7)
        assert n_b_ub == pytest.approx(
            (n_ub - (self.TH_EL + self.TH_PH * tau_min)) / 0.7, rel=1e-12)
        assert n_wc == pytest.approx(0.7 * 0.019 + (self.TH_EL + self.TH_PH), rel=1e-12)
        assert fs.n_star <= n_wc
        assert n_ub > n_wc
        assert tau_lb < tau_min

    def test_window_uses_the_one_estimator_law(self, monkeypatch):
        # the worst case of the window, (tau_min, n_wc), enters the fixed-link
        # estimators with m_Delta disclosed pairs
        prm = self.params()
        _, (tau_min, p_delta, tau_lb, n_ub, n_b_ub, _), bounds_args, background_args = \
            self.traced(monkeypatch)
        n_wc = bounds_args[1]
        assert bounds_args == (tau_min, n_wc, 9.0, 2.0 * n_wc + 2, 2 * prm.m * p_delta, prm.w)
        tau_lo, _, n_hi, _, _ = worst_case_bounds(*bounds_args)
        assert (tau_lb, n_ub) == (tau_lo, n_hi)
        assert background_args == (n_hi, self.TH_EL, self.TH_PH, "llo", tau_min, 1.0, 0.7)
        assert n_b_ub == background_bound(*background_args)

    def test_floors_carry_window_codes(self):
        tiny = ProtocolParams(n_total=1e4, m=20.0, beta=0.95, p_ec=0.9,
                              eps_pe=2.0**-33, eps_s=2.0**-33, eps_h=2.0**-33,
                              eps_cor=2.0**-33, mu=10.0, d=32)
        args = (self.fading(), self.TH_EL, self.TH_PH, "llo", 0.7, 0.019, 9.0, 2)
        law = noise_map(self.TH_EL, self.TH_PH, "llo", 0.7, 0.019)
        window_args = (self.fading(), law, self.TH_EL, self.TH_PH, "llo", 0.7, 9.0, 2, 0.8)
        window = window_bounds(tiny, *window_args)
        assert window[2] == TAU_FLOOR
        assert window[-1] == mobile_worst_case(tiny, *args, f_th=0.8, bins=50).warnings \
            == ("tau_lb_floored",)

    def test_untrusted_photons_credited_to_eve(self, monkeypatch):
        # n_other enters the worst case and the de-faded average, not the
        # best-case setup share, so n_b_ub carries it to Eve
        n_other = 0.05
        for lo_kind, th_ph in (("llo", self.TH_PH), ("tlo", 0.0)):
            base, (*_, base_n_ub, base_n_b_ub, _), base_bounds, base_background = \
                self.traced(monkeypatch, lo_kind, th_ph)
            fs, (*_, n_ub, n_b_ub, _), bounds_args, background_args = self.traced(
                monkeypatch, lo_kind, th_ph, n_other=n_other)
            assert bounds_args[1] == pytest.approx(base_bounds[1] + n_other, rel=1e-12)
            assert n_ub >= base_n_ub + n_other
            assert background_args[1] == base_background[1]
            assert n_b_ub >= base_n_b_ub + n_other / 0.7
            # de-fading to tau_min scales each bin's noise by tau_min / tau_k
            lower = fs.lattice.lower_edges
            shift = n_other * fs.lattice.tau_min / fs.p_delta * float(
                np.sum(fs.bin_probabilities / lower))
            assert fs.n_star == pytest.approx(base.n_star + shift, rel=1e-12)

    def test_defaded_average_uses_bin_lower_edges(self):
        fs = mobile_worst_case(self.params(), self.fading(), self.TH_EL, self.TH_PH,
                               "llo", 0.7, 0.019, 9.0, 2, f_th=0.8, bins=50)
        lower = fs.lattice.lower_edges
        n_k = 0.7 * 0.019 + self.TH_EL + self.TH_PH * lower
        expect = fs.lattice.tau_min / fs.p_delta * float(
            np.sum(fs.bin_probabilities / lower * n_k)
        )
        assert fs.n_star == pytest.approx(expect, rel=1e-12)

    def test_worst_case_dominates_across_geometry(self, monkeypatch):
        for z in (1.0, 3.0, 5.0, 8.0, 10.0):
            for f_th in (0.5, 0.8, 0.9):
                fs, _, bounds_args, _ = self.traced(monkeypatch, z=z, f_th=f_th, bins=50)
                assert fs.n_star <= bounds_args[1]  # n_wc
                assert 0.0 < fs.p_delta <= 1.0

    def test_tlo_bounds(self, monkeypatch):
        fs, _, bounds_args, background_args = self.traced(monkeypatch, "tlo", 0.0,
                                                          f_th=0.8, bins=50)
        # n_wc = eta_eff n_b + n_ex_wc, a TLO's setup photons at tau_min
        assert bounds_args[1] == pytest.approx(
            0.7 * 0.019 + self.TH_EL / fs.lattice.tau_min, rel=1e-12)
        assert background_args[1] == pytest.approx(self.TH_EL, rel=1e-12)

    def test_bin_count_insensitivity(self):
        # the de-fading analysis stabilises well below the default bin count
        results = [
            mobile_worst_case(self.params(), self.fading(), self.TH_EL, self.TH_PH,
                              "llo", 0.7, 0.019, 9.0, 2, f_th=0.8, bins=bins).n_star
            for bins in (20, 50, 200)
        ]
        assert results[1] == pytest.approx(results[2], rel=5e-3)
        assert results[0] == pytest.approx(results[2], rel=2e-2)

    def test_negligible_window_rejected(self):
        # a 0.1 rad jitter at 100 m leaves [0.8 eta, eta] about 4e-7
        fad = FadingModel.from_geometry(self.BEAM, 100.0, 1e-2, 0.1, 0.7)
        assert fading_probability(0.8 * fad.eta, fad.eta, fad) < P_DELTA_MIN
        with pytest.raises(ValueError, match="negligible probability"):
            mobile_worst_case(self.params(), fad, self.TH_EL, self.TH_PH,
                              "llo", 0.7, 0.019, 9.0, 2, f_th=0.8, bins=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            mobile_worst_case(self.params(), self.fading(), self.TH_EL, self.TH_PH,
                              "llo", 0.7, 0.019, 9.0, 2, f_th=1.0, bins=50)
        with pytest.raises(ValueError):
            mobile_worst_case(self.params(), self.fading(), self.TH_EL, self.TH_PH,
                              "plo", 0.7, 0.019, 9.0, 2, f_th=0.8, bins=50)
