"""Asymptotic secret-key rates for Gaussian-modulated coherent-state QKD
with reverse reconciliation.

Trust levels grade how much of the loss/noise budget is conceded to the
eavesdropper:

* ``PASSIVE`` - channel loss and background are genuine; Eve only collects
  the light that misses the receiver.
* ``TRUSTED_NOISE`` - Eve supplies the loss (beamsplitter attack) but the
  thermal background is genuine.
* ``UNTRUSTED`` - every photon of loss and noise is Eve's.

Line-of-sight security additionally restricts Eve to the leakage modes,
never the direct link.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

IDENTITY_GUARD = 1e-12
# Bona fide symplectic eigenvalues may sit a hair below 1 through rounding.
BONA_FIDE_TOL = 1e-9


def entropic_h(x: float) -> float:
    """Bosonic entropy h(x) = ((x+1)/2)log2((x+1)/2) - ((x-1)/2)log2((x-1)/2).

    Values inside [1 - BONA_FIDE_TOL, 1) are clamped to 1 (spectral
    round-off); anything lower is a domain error.
    """
    if x < 1.0 - BONA_FIDE_TOL:
        raise ValueError(f"entropic_h domain error: symplectic value below 1: {float(x)}")
    if x <= 1.0:
        return 0.0
    plus = (x + 1.0) / 2.0
    minus = (x - 1.0) / 2.0
    return plus * math.log2(plus) - minus * math.log2(minus)


class TrustLevel(enum.IntEnum):
    PASSIVE = 1
    TRUSTED_NOISE = 2
    UNTRUSTED = 3


class SecurityType(enum.Enum):
    STANDARD = "standard"
    LOS = "los"


@dataclass(frozen=True)
class ChannelPoint:
    """One operating point of the link.

    eta_ch is the external channel transmissivity, eta_eff the receiver
    efficiency, tau = eta_ch * eta_eff the total transmissivity. n_b are
    background photons injected by the channel (eta_eff * n_b reach the
    detector), n_ex setup photons added after the channel; the total noise
    photon number is nbar = eta_eff * n_b + n_ex. mu = sigma_x^2 + 1 is the
    modulation variance, nu_det the quadrature duty (1 hom / 2 het).
    """

    eta_ch: float
    eta_eff: float
    n_b: float
    n_ex: float
    nu_det: int
    mu: float

    def __post_init__(self):
        if not 0.0 < self.eta_ch <= 1.0:
            raise ValueError("eta_ch must lie in (0, 1]")
        if not 0.0 < self.eta_eff <= 1.0:
            raise ValueError("eta_eff must lie in (0, 1]")
        if self.n_b < 0.0 or self.n_ex < 0.0:
            raise ValueError("photon numbers must be non-negative")
        if self.nu_det not in (1, 2):
            raise ValueError("nu_det must be 1 (homodyne) or 2 (heterodyne)")
        if self.mu < 1.0:
            raise ValueError("mu must be >= 1")

    @property
    def tau(self) -> float:
        return self.eta_ch * self.eta_eff

    @property
    def nbar(self) -> float:
        return self.eta_eff * self.n_b + self.n_ex

    @property
    def sigma_x2(self) -> float:
        return self.mu - 1.0

    @classmethod
    def from_estimates(cls, tau: float, eta_eff: float, nbar: float, n_b: float,
                       nu_det: int, mu: float) -> "ChannelPoint":
        """Build a point from (tau, nbar, n_b) worst-case estimates.

        The setup share is the remainder n_ex = nbar - eta_eff * n_b, which
        must be non-negative; eta_ch = tau / eta_eff.
        """
        n_ex = nbar - eta_eff * n_b
        if n_ex < -1e-12:
            raise ValueError("nbar smaller than the channel share eta_eff * n_b")
        eta_ch = tau / eta_eff
        if eta_ch > 1.0 + 1e-12:
            raise ValueError("tau exceeds eta_eff: channel transmissivity above 1")
        return cls(eta_ch=min(eta_ch, 1.0), eta_eff=eta_eff, n_b=n_b,
                   n_ex=max(n_ex, 0.0), nu_det=nu_det, mu=mu)


def mutual_information(ch: ChannelPoint) -> float:
    """Alice-Bob mutual information I = (nu_det/2) log2(1 + sigma_x^2/chi_n),
    with equivalent noise chi_n = (2 nbar + nu_det) / tau."""
    chi_noise = (2.0 * ch.nbar + ch.nu_det) / ch.tau
    return ch.nu_det / 2.0 * math.log2(1.0 + ch.sigma_x2 / chi_noise)


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
        from .gaussian import I2, Z2, two_mode_blocks

        return two_mode_blocks(self.phi * I2, self.omega * I2, self.psi * Z2)

    @property
    def cross(self):
        import numpy as np

        from .gaussian import I2, Z2

        return np.hstack([self.theta * I2, self.gamma * Z2])

    @property
    def joint(self):
        from .gaussian import I2, two_mode_blocks

        return two_mode_blocks(self.b * I2, self.v_eve, self.cross)


def bob_variance(ch: ChannelPoint) -> float:
    """Bob's quadrature variance b = tau (mu - 1) + 2 nbar + 1."""
    return ch.tau * (ch.mu - 1.0) + 2.0 * ch.nbar + 1.0


def eve_joint_cm(ch: ChannelPoint, trust: TrustLevel) -> EveState:
    """Assemble Eve's dilation for the requested trust level.

    This is the matrix path that :func:`holevo_standard` replaces with
    invariants; it remains as the oracle of that closed form. Its entries
    grow like omega ~ 2 n_E / (1 - eta), so round-off ruins its spectra as
    eta -> 1. Raises for an identity channel (eta_ch = 1 for the passive
    level, tau = 1 otherwise), where the dilation degenerates.
    """
    trust = TrustLevel(trust)
    tau = ch.tau
    mu = ch.mu
    b = bob_variance(ch)
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
    measurement (the eigenvalue oracle of :func:`holevo_standard`)."""
    from .gaussian import (condition_on_heterodyne, condition_on_homodyne,
                           symplectic_spectrum)

    nu = symplectic_spectrum(v_eve)
    if nu_det == 1:
        cond = condition_on_homodyne(v_eve, cross, b)
    else:
        cond = condition_on_heterodyne(v_eve, cross, b)
    nu_cond = symplectic_spectrum(cond)
    return float(sum(map(entropic_h, nu)) - sum(map(entropic_h, nu_cond)))


def _two_mode_entropy(delta: float, root_det: float, split: float) -> float:
    """h(nu+) + h(nu-) of a two-mode state from its invariants.

    delta = nu+^2 + nu-^2, root_det = nu+ nu- and split = nu+^2 - nu-^2
    >= 0, which callers supply free of cancellation; nu- = root_det / nu+.
    """
    nu_plus = math.sqrt(max((delta + split) / 2.0, 0.0))
    return entropic_h(nu_plus) + entropic_h(root_det / nu_plus)


def holevo_standard(ch: ChannelPoint, trust: TrustLevel) -> float:
    """Holevo bound chi(E:y) from the symplectic invariants of Eve's state.

    Eve's two modes and her state conditioned on Bob's outcome are both
    two-mode states, so chi = h(nu+) + h(nu-) - h(nu+') - h(nu-') follows
    from Delta = nu+^2 + nu-^2 and sqrt(det) = nu+ nu- (Weedbrook et al.,
    Rev. Mod. Phys. 84, 621 (2012)). The dilation of :func:`eve_joint_cm`
    has omega = 2 n_E / eps + 1 with eps = 1 - eta, and its entries diverge
    as eta -> 1; here every quantity is written in s = eps * omega
    = 2 n_E + eps, which stays O(1):

    * eta = eta_ch, kappa = eta_eff, n_E = n_b (passive Eve); otherwise
      eta = tau, kappa = 1 and n_E = eta_eff n_b (trusted noise) or nbar;
    * Eve: sqrt(det) = mu s + eta, Delta = s^2 + 2 eta mu s + eps^2 mu^2
      + 2 eta and nu+ - nu- = |s - eps mu|;
    * the dilation's g = phi gamma^2 + omega theta^2 - 2 psi theta gamma and
      t = theta^2 - gamma^2 are polynomials in s, and Bob's measurement
      (k = 1/(b+1) heterodyne, 1/b homodyne) leaves
      sqrt(det') = sqrt(det) - k g (heterodyne) or
      det' = (sqrt(det) - k g) sqrt(det) (homodyne);
    * heterodyne: nu+' - nu-' = |s - eps mu + k t|;
    * homodyne: in Eve's Williamson frame the conditional matrix is
      diag(nu1^2, nu2^2) - k b b^T with b_i = sqrt(nu_i) a_i, where a is
      Bob's q-correlation with Eve's normal modes; nu+'^2 - nu-'^2 is then
      the root of a sum of squares, exact to round-off even when both
      conditional eigenvalues approach 1.

    Returns the identity-channel limit 0 when 1 - eta < IDENTITY_GUARD.
    Each eigenvalue passes the domain check of :func:`entropic_h`.
    """
    trust = TrustLevel(trust)
    if trust is TrustLevel.PASSIVE:
        eta, kappa, n_e = ch.eta_ch, ch.eta_eff, ch.n_b
    else:
        eta, kappa = ch.tau, 1.0
        n_e = ch.eta_eff * ch.n_b if trust is TrustLevel.TRUSTED_NOISE else ch.nbar
    if eta >= 1.0 - IDENTITY_GUARD:
        return 0.0
    mu = ch.mu
    eps = 1.0 - eta
    s = 2.0 * n_e + eps
    lag = s - eps * mu                       # nu1 - nu2 = phi - omega = -lag
    root_det = mu * s + eta
    delta = s * s + 2.0 * eta * mu * s + (eps * mu) ** 2 + 2.0 * eta
    sigma = math.sqrt(delta + 2.0 * root_det)    # nu+ + nu-
    g = kappa * (eta * (mu * mu + 1.0) * s - 2.0 * eta * mu * eps
                 + mu * (s * s - eps * eps))
    t = kappa * (-s * s - 2.0 * eta * mu * s + eps * (eta * mu * mu + 1.0))
    b = bob_variance(ch)
    if ch.nu_det == 2:
        k = 1.0 / (b + 1.0)
        root_det_c = root_det - k * g
        delta_c = (lag + k * t) ** 2 + 2.0 * root_det_c
        split_c = abs(lag + k * t) * math.sqrt(delta_c + 2.0 * root_det_c)
    else:
        k = 1.0 / b
        # The two-mode squeezer (cosh r, sinh r) that brings Eve's state to
        # Williamson form maps Bob's q-correlations (theta, gamma) to
        # a = (cosh r theta - sinh r gamma, cosh r gamma - sinh r theta).
        # With x^ = sqrt(eps) x for x in (cosh r, sinh r, theta, gamma),
        # every hatted value is O(1): sinh^2 = 2 eta (s^2 - eps^2)
        # / (sigma ((1 + eta) s + eps^2 mu + eps sigma)), cosh^2 = sinh^2
        # + eps, theta^ = sqrt(kappa eta) lag, gamma^ = sqrt(kappa (s^2 -
        # eps^2)), and a = (...)^ / eps, rationalised with theta^2 - gamma^2
        # = eps t where its two terms would cancel (theta^ > 0).
        q = 4.0 * n_e * (n_e + eps)          # s^2 - eps^2
        theta_h = math.sqrt(kappa * eta) * lag
        gamma_h = math.sqrt(kappa * q)
        sinh2_h = 2.0 * eta * q / (sigma * ((1.0 + eta) * s + eps * eps * mu
                                            + eps * sigma))
        sinh_h, cosh_h = math.sqrt(sinh2_h), math.sqrt(sinh2_h + eps)
        if theta_h > 0.0:
            a1 = (sinh2_h * t + theta_h ** 2) / (cosh_h * theta_h + sinh_h * gamma_h)
            den = cosh_h * gamma_h + sinh_h * theta_h   # 0 only when n_E = 0
            a2 = (gamma_h ** 2 - sinh2_h * t) / den if den > 0.0 else 0.0
        else:
            a1 = (cosh_h * theta_h - sinh_h * gamma_h) / eps
            a2 = (cosh_h * gamma_h - sinh_h * theta_h) / eps
        nu1 = (sigma - lag) / 2.0
        nu2 = (sigma + lag) / 2.0
        b1, b2 = math.sqrt(nu1) * a1, math.sqrt(nu2) * a2
        root_det_c = math.sqrt(max((root_det - k * g) * root_det, 0.0))
        delta_c = delta - k * (b1 * b1 + b2 * b2)
        split_c = math.hypot(-sigma * lag - k * (b1 * b1 - b2 * b2), 2.0 * k * b1 * b2)
    return (_two_mode_entropy(delta, root_det, abs(lag) * sigma)
            - _two_mode_entropy(delta_c, root_det_c, split_c))


def holevo_untrusted_closed_form(ch: ChannelPoint) -> float:
    """chi(E:y) for the fully untrusted level from the purified Alice-Bob state.

    Independent of the dilation path: uses the two-mode spectrum of
    V_AB = [[mu I, c Z], [c Z, b I]] with c = sqrt(tau (mu^2 - 1)) and the
    post-measurement entropy in closed form.
    """
    tau = ch.tau
    if tau >= 1.0 - IDENTITY_GUARD:
        return 0.0
    from .gaussian import I2, Z2, two_mode_blocks, two_mode_symplectic_spectrum

    mu = ch.mu
    b = bob_variance(ch)
    c2 = tau * (mu * mu - 1.0)
    v_ab = two_mode_blocks(mu * I2, b * I2, math.sqrt(c2) * Z2)
    total = float(sum(map(entropic_h, two_mode_symplectic_spectrum(v_ab))))
    if ch.nu_det == 1:
        cond_arg = math.sqrt(mu * (mu - c2 / b))
    else:
        cond_arg = mu - c2 / (b + 1.0)
    return total - entropic_h(cond_arg)


def los_coefficients(ch: ChannelPoint, trust: TrustLevel) -> tuple:
    """(b, theta, phi) of the restricted Bob-Eve state for line-of-sight security."""
    trust = TrustLevel(trust)
    if trust is TrustLevel.UNTRUSTED:
        raise ValueError("line-of-sight security requires a trusted noise source")
    tau = ch.tau
    mu = ch.mu
    b = bob_variance(ch)
    if trust is TrustLevel.PASSIVE:
        if ch.eta_ch >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: no leakage mode at eta_ch = 1")
        omega = 2.0 * ch.n_b / (1.0 - ch.eta_ch) + 1.0
        theta = math.sqrt(tau * (1.0 - ch.eta_ch)) * (omega - mu)
        phi = ch.eta_ch * omega + (1.0 - ch.eta_ch) * mu
    else:
        if tau >= 1.0 - IDENTITY_GUARD:
            raise ValueError("identity channel: no leakage mode at tau = 1")
        omega = 2.0 * ch.eta_eff * ch.n_b / (1.0 - tau) + 1.0
        theta = math.sqrt(tau * (1.0 - tau)) * (omega - mu)
        phi = tau * omega + (1.0 - tau) * mu
    return b, theta, phi


def holevo_los_from_coefficients(b: float, theta: float, phi: float,
                                 nu_det: int) -> float:
    """chi(E:y) for a single leakage mode with V_BE = [[b I, theta I], [theta I, phi I]]."""
    if nu_det == 1:
        cond_arg = math.sqrt(phi * (phi - theta * theta / b))
    elif nu_det == 2:
        cond_arg = phi - theta * theta / (b + 1.0)
    else:
        raise ValueError("nu_det must be 1 or 2")
    return entropic_h(phi) - entropic_h(cond_arg)


def holevo_los(ch: ChannelPoint, trust: TrustLevel) -> float:
    """Line-of-sight Holevo bound; zero in the identity-channel limit."""
    trust = TrustLevel(trust)
    if trust is TrustLevel.UNTRUSTED:
        raise ValueError("line-of-sight security requires a trusted noise source")
    if trust is TrustLevel.PASSIVE and ch.eta_ch >= 1.0 - IDENTITY_GUARD:
        return 0.0
    if ch.tau >= 1.0 - IDENTITY_GUARD:
        return 0.0
    b, theta, phi = los_coefficients(ch, trust)
    return holevo_los_from_coefficients(b, theta, phi, ch.nu_det)


def microwave_los_cm(tau: float, sigma_x2: float, n_th: float) -> tuple:
    """(b, theta, phi) for a thermal-modulated microwave link under
    line-of-sight security.

    Bob holds n_R = tau * sigma_x^2 / 2 + n_th photons, Eve's leakage mode
    carries the reflected modulation: theta = -sqrt(tau (1 - tau)) sigma_x^2,
    phi = (1 - tau) sigma_x^2 + 2 n_th + 1.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1) for a leakage mode to exist")
    if sigma_x2 < 0.0 or n_th < 0.0:
        raise ValueError("sigma_x2 and n_th must be non-negative")
    b = tau * sigma_x2 + 2.0 * n_th + 1.0
    theta = -math.sqrt(tau * (1.0 - tau)) * sigma_x2
    phi = (1.0 - tau) * sigma_x2 + 2.0 * n_th + 1.0
    return b, theta, phi


def holevo(ch: ChannelPoint, trust: TrustLevel, security: SecurityType) -> float:
    security = SecurityType(security)
    if security is SecurityType.LOS:
        return holevo_los(ch, trust)
    return holevo_standard(ch, trust)


@dataclass(frozen=True)
class RateReport:
    rate: float
    mutual_information: float
    holevo: float


def asymptotic_rate(ch: ChannelPoint, trust: TrustLevel, security: SecurityType,
                    beta: float) -> RateReport:
    """R = beta * I(x:y) - chi(E:y), not clamped at zero."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    mi = mutual_information(ch)
    chi = holevo(ch, trust, security)
    return RateReport(rate=beta * mi - chi, mutual_information=mi, holevo=chi)


def plob_thermal_bound(tau: float, n_th: float) -> float:
    """Repeaterless key-capacity ceiling of the thermal-loss channel.

    -log2[(1 - tau) tau^(n_th/(1-tau))] - h(n_th/(1-tau)) for n_th < tau,
    zero otherwise; h(x) = entropic_h(2x + 1).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if n_th < 0.0:
        raise ValueError("n_th must be non-negative")
    if n_th >= tau:
        return 0.0
    expo = n_th / (1.0 - tau)
    return -math.log2((1.0 - tau) * tau ** expo) - entropic_h(2.0 * expo + 1.0)
