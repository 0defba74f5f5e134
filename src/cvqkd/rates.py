"""Asymptotic secret-key rates for Gaussian-modulated coherent-state QKD
with reverse reconciliation.

Trust levels, the config's trust = 1|2|3 (``TrustLevel`` to library
callers; its members equal the ints), grade how much of the loss/noise
budget is conceded to the eavesdropper:

* 1, passive - channel loss and background are genuine; Eve only collects
  the light that misses the receiver.
* 2, trusted noise - Eve supplies the loss (beamsplitter attack) but the
  thermal background is genuine.
* 3, untrusted - every photon of loss and noise is Eve's.

Line-of-sight security (security = los) additionally restricts Eve to the
leakage modes, never the direct link.
"""

from __future__ import annotations

import enum
import math

from . import Record

LN2 = math.log(2.0)
# Bona fide symplectic eigenvalues may sit a hair below 1 through rounding.
BONA_FIDE_TOL = 1e-9


def entropic_h(x: float) -> float:
    """Bosonic entropy h(x) = ((x+1)/2)log2((x+1)/2) - ((x-1)/2)log2((x-1)/2).

    Values inside [1 - BONA_FIDE_TOL, 1) are clamped to 1 (spectral
    round-off); anything lower, or not finite, is a domain error.
    """
    if not math.isfinite(x):
        raise ValueError(f"entropic_h domain error: symplectic value not finite: {float(x)}")
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


def check_point(eta_ch: float, eta_eff: float, n_b: float, n_ex: float,
                nu_det: int, mu: float) -> None:
    """The domain of an operating point's fields (see ChannelPoint)."""
    if not 0.0 < eta_ch <= 1.0:
        raise ValueError("eta_ch must lie in (0, 1]")
    if not 0.0 < eta_eff <= 1.0:
        raise ValueError("eta_eff must lie in (0, 1]")
    if n_b < 0.0 or n_ex < 0.0:
        raise ValueError("photon numbers must be non-negative")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 (homodyne) or 2 (heterodyne)")
    if mu < 1.0:
        raise ValueError("mu must be >= 1")


def estimated_point(tau: float, eta_eff: float, nbar: float, n_b: float,
                    nu_det: int, mu: float) -> tuple:
    """The checked fields (eta_ch, eta_eff, n_b, n_ex, nu_det, mu) of the
    point with (tau, nbar, n_b) worst-case estimates.

    The setup share is the remainder n_ex = nbar - eta_eff * n_b, which
    must be non-negative; eta_ch = tau / eta_eff.
    """
    n_ex = nbar - eta_eff * n_b
    if n_ex < -1e-12:
        raise ValueError("nbar smaller than the channel share eta_eff * n_b")
    eta_ch = tau / eta_eff
    if eta_ch > 1.0 + 1e-12:
        raise ValueError("tau exceeds eta_eff: channel transmissivity above 1")
    # min(eta_ch, 1) and max(n_ex, 0), value for value, without the builtins' calls
    point = (1.0 if eta_ch > 1.0 else eta_ch, eta_eff, n_b,
             0.0 if n_ex < 0.0 else n_ex, nu_det, mu)
    check_point(*point)
    return point


class ChannelPoint(Record):
    """One operating point of the link.

    eta_ch is the external channel transmissivity, eta_eff the receiver
    efficiency, tau = eta_ch * eta_eff the total transmissivity. n_b are
    background photons injected by the channel (eta_eff * n_b reach the
    detector), n_ex setup photons added after the channel; the total noise
    photon number is nbar = eta_eff * n_b + n_ex. mu = sigma_x^2 + 1 is the
    modulation variance, nu_det the quadrature duty (1 hom / 2 het). The
    rate kernels take these six fields as scalars, in this order.
    """

    def __init__(self, eta_ch: float, eta_eff: float, n_b: float, n_ex: float,
                 nu_det: int, mu: float):
        check_point(eta_ch, eta_eff, n_b, n_ex, nu_det, mu)
        self.__dict__.update(eta_ch=eta_ch, eta_eff=eta_eff, n_b=n_b, n_ex=n_ex,
                             nu_det=nu_det, mu=mu)

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
        """The point of :func:`estimated_point`."""
        return cls(*estimated_point(tau, eta_eff, nbar, n_b, nu_det, mu))


def point_mutual_information(eta_ch: float, eta_eff: float, n_b: float,
                             n_ex: float, nu_det: int, mu: float) -> float:
    """Alice-Bob mutual information I = (nu_det/2) log2(1 + sigma_x^2/chi_n),
    with equivalent noise chi_n = (2 nbar + nu_det) / tau."""
    chi_noise = (2.0 * (eta_eff * n_b + n_ex) + nu_det) / (eta_ch * eta_eff)
    return nu_det / 2.0 * math.log2(1.0 + (mu - 1.0) / chi_noise)


def bob_variance(tau: float, nbar: float, mu: float) -> float:
    """Bob's quadrature variance b = tau (mu - 1) + 2 nbar + 1."""
    return tau * (mu - 1.0) + 2.0 * nbar + 1.0


def _two_mode_entropy(delta: float, root_det: float, split: float) -> float:
    """h(nu+) + h(nu-) of a two-mode state from its invariants.

    delta = nu+^2 + nu-^2, root_det = nu+ nu- and split = nu+^2 - nu-^2
    >= 0, which callers supply free of cancellation; nu- = root_det / nu+.
    """
    square = (delta + split) / 2.0
    nu_plus = math.sqrt(0.0 if square < 0.0 else square)
    return entropic_h(nu_plus) + entropic_h(root_det / nu_plus)


def point_holevo(eta_ch: float, eta_eff: float, n_b: float, n_ex: float,
                 nu_det: int, mu: float, trust: int,
                 los: bool = False) -> float:
    """Holevo bound chi(E:y) of the point with ChannelPoint's fields, from
    the symplectic invariants of Eve's state.

    Eve's dilation: eta = eta_ch, kappa = eta_eff, n_E = n_b (trust 1);
    otherwise eta = tau, kappa = 1 and n_E = eta_eff n_b (2) or nbar (3),
    no other. Line-of-sight security (los) gives Eve only the leakage mode of
    the dilation (the test oracle `eve_joint_cm` in tests/oracles.py), whose
    eps phi = eta s + eps^2 mu and eps theta^2 = kappa eta (s - eps mu)^2.

    Otherwise Eve's two modes and her state conditioned on Bob's outcome are
    both two-mode states, so chi = h(nu+) + h(nu-) - h(nu+') - h(nu-')
    follows from Delta = nu+^2 + nu-^2 and sqrt(det) = nu+ nu- (Weedbrook et
    al., Rev. Mod. Phys. 84, 621 (2012)). The dilation has omega = 2 n_E /
    eps + 1 with eps = 1 - eta, and its entries diverge as eta -> 1; here
    every quantity is written in s = eps * omega = 2 n_E + eps, which stays
    O(1) and holds at eps = 0 too, the bright environment limit (omega ->
    inf at fixed s):

    * lag = s - eps mu;
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

    Each eigenvalue passes the domain check of :func:`entropic_h`.
    """
    if los and trust == 3:
        raise ValueError("line-of-sight security requires a trusted noise source")
    tau = eta_ch * eta_eff
    nbar = eta_eff * n_b + n_ex
    if trust == 1:
        eta, kappa, n_e = eta_ch, eta_eff, n_b
    elif trust == 2 or trust == 3:
        eta, kappa, n_e = tau, 1.0, eta_eff * n_b if trust == 2 else nbar
    else:
        raise ValueError(f"trust must be 1, 2 or 3, not {trust!r}")
    eps = 1.0 - eta
    s = 2.0 * n_e + eps
    lag = s - eps * mu           # nu1 - nu2 = phi - omega = -lag
    b = bob_variance(tau, nbar, mu)
    if los:
        return holevo_los_from_coefficients(b, kappa * eta * lag * lag,
                                            eta * s + eps * eps * mu, eps, nu_det)
    if s == 0.0:        # the identity channel into a vacuum environment
        return 0.0
    root_det = mu * s + eta
    delta = s * s + 2.0 * eta * mu * s + (eps * mu) ** 2 + 2.0 * eta
    sigma = math.sqrt(delta + 2.0 * root_det)    # nu+ + nu-
    g = kappa * (eta * (mu * mu + 1.0) * s - 2.0 * eta * mu * eps
                 + mu * (s * s - eps * eps))
    t = kappa * (-s * s - 2.0 * eta * mu * s + eps * (eta * mu * mu + 1.0))
    if nu_det == 2:
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
            # den = 0 when n_E = 0, or when O(sqrt n_E) underflows at eps = 0
            den = cosh_h * theta_h + sinh_h * gamma_h
            a1 = (sinh2_h * t + theta_h ** 2) / den if den > 0.0 else 0.0
            den = cosh_h * gamma_h + sinh_h * theta_h
            a2 = (gamma_h ** 2 - sinh2_h * t) / den if den > 0.0 else 0.0
        else:
            a1 = (cosh_h * theta_h - sinh_h * gamma_h) / eps
            a2 = (cosh_h * gamma_h - sinh_h * theta_h) / eps
        nu1 = (sigma - lag) / 2.0
        nu2 = (sigma + lag) / 2.0
        b1, b2 = math.sqrt(nu1) * a1, math.sqrt(nu2) * a2
        det_c = (root_det - k * g) * root_det
        root_det_c = math.sqrt(0.0 if det_c < 0.0 else det_c)
        delta_c = delta - k * (b1 * b1 + b2 * b2)
        split_c = math.hypot(-sigma * lag - k * (b1 * b1 - b2 * b2), 2.0 * k * b1 * b2)
    return (_two_mode_entropy(delta, root_det, abs(lag) * sigma)
            - _two_mode_entropy(delta_c, root_det_c, split_c))


def holevo_standard(ch: ChannelPoint, trust: int) -> float:
    """Standard-security :func:`point_holevo` of a ChannelPoint."""
    return point_holevo(ch.eta_ch, ch.eta_eff, ch.n_b, ch.n_ex, ch.nu_det, ch.mu,
                        TrustLevel(trust))


def holevo_untrusted_closed_form(ch: ChannelPoint) -> float:
    """chi(E:y) for the fully untrusted level from the purified Alice-Bob state.

    Independent of the dilation path: uses the two-mode spectrum of
    V_AB = [[mu I, c Z], [c Z, b I]] with c = sqrt(tau (mu^2 - 1)) and the
    post-measurement entropy in closed form.
    """
    from .gaussian import I2, Z2, two_mode_blocks, two_mode_symplectic_spectrum

    mu = ch.mu
    b = bob_variance(ch.tau, ch.nbar, mu)
    c2 = ch.tau * (mu * mu - 1.0)
    v_ab = two_mode_blocks(mu * I2, b * I2, math.sqrt(c2) * Z2)
    total = float(sum(map(entropic_h, two_mode_symplectic_spectrum(v_ab))))
    if ch.nu_det == 1:
        cond_arg = math.sqrt(mu * (mu - c2 / b))
    else:
        cond_arg = mu - c2 / (b + 1.0)
    return total - entropic_h(cond_arg)


def _g(n: float) -> float:
    """g = n log2(1 + 1/n) of a thermal state with n >= 0 photons: its
    entropy less log2(n + 1), bounded by 1/ln 2."""
    return n * math.log1p(1.0 / n) / LN2 if n > 0.0 else 0.0


def holevo_los_from_coefficients(b: float, eps_theta2: float, eps_phi: float,
                                 eps: float, nu_det: int) -> float:
    """chi(E:y) = h(phi) - h(phi') of a leakage mode with V_BE = [[b I,
    theta I], [theta I, phi I]], from eps theta^2 and eps phi, which stay
    O(1) as the leakage eps -> 0. Bob's measurement leaves eps phi' =
    eps phi - eps theta^2 / (b + 1) (heterodyne) or sqrt(eps phi (eps phi -
    eps theta^2 / b)) (homodyne), and eps (phi - phi') is formed without
    that difference. With h(x) = log2((x + 1)/2) + g((x - 1)/2), chi =
    log2(1 + eps (phi - phi') / (eps phi' + eps)) + g - g', whose g terms
    are both 1/ln 2 at eps = 0."""
    if eps_phi == 0.0:      # no leakage out of a vacuum environment
        return 0.0
    if nu_det == 1:
        eps_phi_c = math.sqrt(eps_phi) * math.sqrt(eps_phi - eps_theta2 / b)
        drop = eps_phi * (eps_theta2 / b) / (eps_phi + eps_phi_c)
    else:
        drop = eps_theta2 / (b + 1.0)
        eps_phi_c = eps_phi - drop
    chi = math.log1p(drop / (eps_phi_c + eps)) / LN2
    if eps > 0.0:
        chi += _g((eps_phi - eps) / (2.0 * eps)) - _g((eps_phi_c - eps) / (2.0 * eps))
    return chi


def microwave_los_holevo(tau: float, sigma_x2: float, n_th: float,
                         nu_det: int) -> float:
    """Line-of-sight Holevo bound of a thermal-modulated microwave link: chi
    of the leakage mode at n_th thermal photons, with b = tau sigma_x^2 +
    2 n_th + 1, phi = eps sigma_x^2 + 2 n_th + 1 and the reflected
    modulation theta^2 = tau eps sigma_x^4 (eps = 1 - tau)."""
    if n_th < 0.0:
        raise ValueError("n_th must be non-negative")
    eps = 1.0 - tau
    return holevo_los_from_coefficients(
        tau * sigma_x2 + 2.0 * n_th + 1.0, tau * (eps * sigma_x2) ** 2,
        eps * (eps * sigma_x2 + 2.0 * n_th + 1.0), eps, nu_det)


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
