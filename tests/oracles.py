"""Reference implementations that the tests compare the shipped closed forms
against. No command calls them.

* `eve_joint_cm` builds Eve's Gaussian dilation (Weedbrook et al., Rev. Mod.
  Phys. 84, 621 (2012)) as explicit covariance matrices, and
  `_chi_from_conditioning` takes chi(E:y) from their symplectic spectra
  before and after Bob's measurement: the eigenvalue path that
  `cvqkd.rates.point_holevo` replaces with invariants.
* `CovarianceMatrix` validates a matrix and checks the bona fide condition.
* `fading_probability_quadrature` integrates the fading density that
  `cvqkd.channel.fading_probability` integrates in closed form.
* `rate_row_oracle` composes a rate row from ChannelPoint and RateReport
  records, one per point and rate (`asymptotic_rate`, `microwave_los_rate`,
  `worst_case_estimators`, `composable_rate`): the composition that the
  rate plan of `cvqkd.cli` replaces with scalar kernels.
* `sufficient_statistics_oracle` draws each coverage round's (T_hat,
  sigma_z2_hat) from numpy's Philox chi-square and normal variates: the
  sampler that `cvqkd.finite_size._sufficient_statistics` replaces with
  standard-library draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from cvqkd import Record
from cvqkd.channel import FadingModel, _log_ratio_density
from cvqkd.cli import ABSCISSA, NAN, RATE_COLUMNS, _clamp, _model_point
from cvqkd.finite_size import (
    background_bound,
    composable_terms,
    general_attack_extension,
    total_epsilon,
    worst_case_estimators,
)
from cvqkd.gaussian import (
    I2,
    Z2,
    _as_matrix,
    entropic_h,
    symplectic_spectrum,
    two_mode_blocks,
)
from cvqkd.noise import setup_noise_from_thetas
from cvqkd.rates import (
    BONA_FIDE_TOL,
    ChannelPoint,
    SecurityType,
    TrustLevel,
    _member,
    bob_variance,
    holevo_standard,
    microwave_los_holevo,
    plob_thermal_bound,
    point_holevo,
)

IDENTITY_GUARD = 1e-12


# --- covariance matrices ----------------------------------------------------

class CovarianceMatrix:
    """Validated covariance matrix wrapper.

    Symmetry is enforced on construction; the bona fide condition (every
    symplectic eigenvalue >= 1 - 1e-9) is checked only where a bona fide
    state is claimed, via :meth:`require_physical`. Conditional intermediates
    produced by measurements are not states and skip that check.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = _as_matrix(entries)

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2

    def symplectic_spectrum(self) -> np.ndarray:
        return symplectic_spectrum(self.entries)

    def require_physical(self, tol: float = BONA_FIDE_TOL) -> "CovarianceMatrix":
        spectrum = self.symplectic_spectrum()
        if spectrum.min() < 1.0 - tol:
            raise ValueError(f"covariance matrix is not bona fide: min eigenvalue {spectrum.min()}")
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"CovarianceMatrix(n_modes={self.n_modes})"


def condition_on_homodyne(V_e, C, b: float) -> np.ndarray:
    """Eve's covariance matrix after Bob's homodyne of the q quadrature.

    V_e is Eve's reduced matrix, C the Bob-Eve cross block of shape
    (2, 2n_E), and b Bob's quadrature variance. The q-only projector
    Pi = diag(1, 0) makes the update V_e - (1/b) C^T Pi C.
    """
    V_e = _as_matrix(V_e)
    C = np.asarray(C, dtype=float)
    if b <= 0.0:
        raise ValueError("Bob variance must be positive")
    pi = np.diag([1.0, 0.0])
    return V_e - (C.T @ pi @ C) / b


def condition_on_heterodyne(V_e, C, b: float) -> np.ndarray:
    """Eve's covariance matrix after Bob's heterodyne: V_e - C^T C / (b + 1)."""
    V_e = _as_matrix(V_e)
    C = np.asarray(C, dtype=float)
    if b <= -1.0:
        raise ValueError("Bob variance must exceed -1")
    return V_e - (C.T @ C) / (b + 1.0)


# --- Eve's dilation ---------------------------------------------------------

@dataclass(frozen=True)
class EveState:
    """Eve's two output modes and their coupling to Bob's mode."""

    b: float
    omega: float
    gamma: float
    theta: float
    psi: float
    phi: float

    @property
    def v_eve(self):
        return two_mode_blocks(self.phi * I2, self.omega * I2, self.psi * Z2)

    @property
    def cross(self):
        return np.hstack([self.theta * I2, self.gamma * Z2])

    @property
    def joint(self):
        return two_mode_blocks(self.b * I2, self.v_eve, self.cross)


def eve_joint_cm(ch: ChannelPoint, trust: TrustLevel) -> EveState:
    """Assemble Eve's dilation for the requested trust level.

    This is the matrix path that `holevo_standard` replaces with
    invariants; it remains as the oracle of that closed form. Its entries
    grow like omega ~ 2 n_E / (1 - eta), so round-off ruins its spectra as
    eta -> 1. Raises for an identity channel (eta_ch = 1 for the passive
    level, tau = 1 otherwise), where the dilation degenerates.
    """
    trust = _member(TrustLevel, trust)
    tau = ch.tau
    mu = ch.mu
    b = bob_variance(tau, ch.nbar, mu)
    if trust is TrustLevel.PASSIVE:
        if ch.eta_ch >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: passive-Eve dilation undefined at eta_ch = 1")
        omega = 2.0 * ch.n_b / (1.0 - ch.eta_ch) + 1.0
        gamma = math.sqrt(ch.eta_eff * (1.0 - ch.eta_ch) * (omega ** 2 - 1.0))
        theta = math.sqrt(tau * (1.0 - ch.eta_ch)) * (omega - mu)
        psi = math.sqrt(ch.eta_ch * (omega ** 2 - 1.0))
        phi = ch.eta_ch * omega + (1.0 - ch.eta_ch) * mu
    else:
        if tau >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: Eve dilation undefined at tau = 1")
        if trust is TrustLevel.TRUSTED_NOISE:
            omega = 2.0 * ch.eta_eff * ch.n_b / (1.0 - tau) + 1.0
        else:
            omega = 2.0 * ch.nbar / (1.0 - tau) + 1.0
        gamma = math.sqrt((1.0 - tau) * (omega ** 2 - 1.0))
        theta = math.sqrt(tau * (1.0 - tau)) * (omega - mu)
        psi = math.sqrt(tau * (omega ** 2 - 1.0))
        phi = tau * omega + (1.0 - tau) * mu
    return EveState(b=b, omega=omega, gamma=gamma, theta=theta, psi=psi, phi=phi)


def _chi_from_conditioning(v_eve, cross, b: float, nu_det: int) -> float:
    """chi(E:y) from the spectra of Eve's matrix before and after Bob's
    measurement (the eigenvalue oracle of `holevo_standard`)."""
    nu = symplectic_spectrum(v_eve)
    if nu_det == 1:
        cond = condition_on_homodyne(v_eve, cross, b)
    else:
        cond = condition_on_heterodyne(v_eve, cross, b)
    nu_cond = symplectic_spectrum(cond)
    return float(sum(map(entropic_h, nu)) - sum(map(entropic_h, nu_cond)))


# --- pointing-error fading --------------------------------------------------

def fading_probability_quadrature(tau_lo: float, tau_hi: float,
                                  fading: FadingModel) -> float:
    """Consistency path for `fading_probability`: integrate the pdf.

    Integrates the density of s = ln(eta/tau) over t = ln s. At short range
    nearly all the mass sits within an ulp of tau = eta (s ~ 1e-20), on an
    integrable spike of the density in s; in t it is a smooth bump.
    """
    if not 0.0 < tau_lo <= tau_hi <= fading.eta * (1.0 + 1e-12):
        raise ValueError("need 0 < tau_lo <= tau_hi <= eta")
    s_lo = math.log(fading.eta / min(tau_hi, fading.eta))
    s_hi = math.log(fading.eta / tau_lo)
    if s_hi <= s_lo:
        return 0.0

    def integrand(t: float) -> float:
        s = math.exp(t)
        return _log_ratio_density(s, fading) * s if s > 0.0 else 0.0

    val, _ = quad(integrand, math.log(s_lo) if s_lo > 0.0 else -math.inf,
                  math.log(s_hi), limit=400)
    return val


# --- the rate-row composition -----------------------------------------------

class RateReport(Record):
    def __init__(self, rate: float, mutual_information: float, holevo: float):
        self.__dict__.update(rate=rate, mutual_information=mutual_information,
                             holevo=holevo)


def mutual_information(ch: ChannelPoint) -> float:
    """Alice-Bob mutual information I = (nu_det/2) log2(1 + sigma_x^2/chi_n),
    with equivalent noise chi_n = (2 nbar + nu_det) / tau."""
    chi_noise = (2.0 * ch.nbar + ch.nu_det) / ch.tau
    return ch.nu_det / 2.0 * math.log2(1.0 + ch.sigma_x2 / chi_noise)


def holevo_los(ch: ChannelPoint, trust: TrustLevel) -> float:
    """Line-of-sight :func:`cvqkd.rates.point_holevo` of a ChannelPoint."""
    return point_holevo(ch.eta_ch, ch.eta_eff, ch.n_b, ch.n_ex, ch.nu_det, ch.mu,
                        _member(TrustLevel, trust), los=True)


def holevo(ch: ChannelPoint, trust: TrustLevel, security: SecurityType) -> float:
    if _member(SecurityType, security) is SecurityType.LOS:
        return holevo_los(ch, trust)
    return holevo_standard(ch, trust)


def _report(ch: ChannelPoint, beta: float, chi: float) -> RateReport:
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    mi = mutual_information(ch)
    return RateReport(rate=beta * mi - chi, mutual_information=mi, holevo=chi)


def asymptotic_rate(ch: ChannelPoint, trust: TrustLevel, security: SecurityType,
                    beta: float) -> RateReport:
    """R = beta * I(x:y) - chi(E:y), not clamped at zero."""
    return _report(ch, beta, holevo(ch, trust, security))


def microwave_los_rate(ch: ChannelPoint, n_th: float, beta: float) -> RateReport:
    """Line-of-sight rate of a thermal-modulated microwave link: I(x:y) of
    the point, and chi of the leakage mode at n_th thermal photons."""
    chi = microwave_los_holevo(ch.tau, ch.sigma_x2, n_th, ch.nu_det)
    return _report(ch, beta, chi)


def composable_rate(r_pe: float, params, p_delta: float = 1.0,
                    improved_prefactor: bool = False, terms=None) -> float:
    """R = (n p_Delta p_ec / N) [R_pe - Delta_aep / sqrt(n p_Delta)
    + (Theta - Phi) / (n p_Delta)] from the composable_terms."""
    prefactor, aep, tail = composable_terms(params, p_delta, improved_prefactor, terms)
    return prefactor * (r_pe - aep + tail)


def _finite_rate(scenario, r_pe: float, p_delta: float) -> tuple:
    """Composable rate and the epsilon column for the configured attack."""
    prm = scenario.params
    terms = None
    if scenario.attack == "general":
        terms = general_attack_extension(prm, (prm.mu - 1.0) / 2.0,
                                         total_epsilon(prm), p_delta=p_delta)
    rate = composable_rate(r_pe, prm, p_delta=p_delta,
                           improved_prefactor=scenario.improved_aep, terms=terms)
    return rate, total_epsilon(prm) if terms is None else terms.eps_prime


def _rate_row(scenario, x: float) -> dict:
    """Rate row at abscissa x: model rate, worst-case rate, composable rate."""
    p = scenario.physics
    prm = scenario.params
    nu, sx2 = scenario.nu_det, scenario.sigma_x2
    trust, security = scenario.trust_level, scenario.security_type
    los_microwave = scenario.channel == "microwave" and security is SecurityType.LOS
    pt = _model_point(scenario, x)
    eta_ch, tau, warnings = pt["eta_ch"], pt["tau"], pt["warnings"]
    eta_eff = p["eta_eff"]
    asym, plob, p_delta, n_b_hi = NAN, NAN, 1.0, 0.0

    if scenario.channel == "optical-mobile":
        fs = pt["fs"]
        tau_lo, tau_hi, n_hi, n_b_hi = fs.tau_lb, NAN, fs.n_ub, fs.n_b_ub
        p_delta = fs.p_delta
    else:
        nbar = pt["nbar"]
        if scenario.channel == "microwave":
            model = ChannelPoint.from_estimates(tau, eta_eff, nbar, 0.0, nu, prm.mu)
        else:
            model = ChannelPoint(eta_ch=eta_ch, eta_eff=eta_eff, n_b=p["n_b"],
                                 n_ex=pt["n_ex"], nu_det=nu, mu=prm.mu)
        asym = (microwave_los_rate(model, nbar, prm.beta) if los_microwave
                else asymptotic_rate(model, trust, security, prm.beta)).rate
        est = worst_case_estimators(tau, nbar, sx2, 2.0 * nbar + nu, nu * prm.m,
                                    prm.w)
        warnings.extend(est.warnings)
        tau_lo, tau_hi, n_hi = est.tau_lo, est.tau_hi, est.n_hi
        if scenario.channel != "microwave" and scenario.trust != 3:
            # the best-case setup share sits at the bound that minimises it
            n_ex_bc = setup_noise_from_thetas(
                scenario.derived["theta_el"], scenario.derived["theta_ph"],
                scenario.lo_kind, est.tau_hi if scenario.lo_kind == "tlo" else tau_lo)
            n_b_hi, floored = background_bound(n_hi, n_ex_bc, eta_eff)
            if floored:
                warnings.append("n_b_hi_floored")

    wc = ChannelPoint.from_estimates(tau_lo, eta_eff, n_hi,
                                     0.0 if scenario.trust == 3 else n_b_hi, nu,
                                     prm.mu)
    rep = microwave_los_rate(wc, est.n_lo, prm.beta) if los_microwave \
        else asymptotic_rate(wc, trust, security, prm.beta)
    mi, chi, r_pe = rep.mutual_information, rep.holevo, rep.rate
    if scenario.channel == "microwave":
        tau_hi, plob = NAN, plob_thermal_bound(tau, nbar) if tau < 1.0 else NAN

    rate_raw, epsilon = _finite_rate(scenario, r_pe, p_delta)
    return {"eta_ch": eta_ch, "tau": tau, "mi": mi, "chi": chi, "r_pe": r_pe,
            "rate_asym_raw": asym, "rate_raw": rate_raw, "plob": plob,
            "epsilon": epsilon, "p_delta": p_delta, "tau_lo": tau_lo,
            "tau_hi": tau_hi, "n_hi": n_hi, "warnings": ";".join(warnings),
            "reason": ""}


def rate_row_oracle(scenario, x: float, clamp: bool = False) -> dict:
    """The rate row at abscissa x as `cvqkd.cli.evaluate_rate_point` gives
    it, composed from one record per point, estimate and rate."""
    try:
        row = _rate_row(scenario, x)
    except Exception as exc:
        row = {col: NAN for col in RATE_COLUMNS}
        row["warnings"] = ""
        row["reason"] = f"{type(exc).__name__}: {exc}"
    row[ABSCISSA[scenario.channel]] = x
    row["rate_asym"] = _clamp(row["rate_asym_raw"]) if clamp else row["rate_asym_raw"]
    row["rate"] = _clamp(row["rate_raw"]) if clamp else row["rate_raw"]
    return row


def sufficient_statistics_oracle(tau: float, nbar: float, nu_det: int,
                                 sigma_x2: float, pulses: int, rounds: int,
                                 seed: int) -> np.ndarray:
    """(rounds, 2) array of (T_hat, sigma_z2_hat) from the law of
    `_sufficient_statistics`, Sxx ~ sigma_x^2 chi^2(m), T_hat = sqrt(tau) +
    sigma_z N(0, 1) / sqrt(Sxx), RSS ~ sigma_z^2 chi^2(m - 1), with numpy's
    Philox stream (seed, 6 << 40) in place of the standard library."""
    from cvqkd.simulate import stream_rng

    m, sigma_z2 = nu_det * pulses, 2.0 * nbar + nu_det
    rng = stream_rng(seed, 6 << 40)
    sxx = sigma_x2 * rng.chisquare(m, rounds)
    t_hat = math.sqrt(tau) + np.sqrt(sigma_z2 / sxx) * rng.standard_normal(rounds)
    return np.column_stack((t_hat, sigma_z2 * rng.chisquare(m - 1, rounds) / m))
