"""Reference implementations that the tests compare the shipped closed forms
against. No command calls them.

* `eve_joint_cm` builds Eve's Gaussian dilation (Weedbrook et al., Rev. Mod.
  Phys. 84, 621 (2012)) as explicit covariance matrices, and
  `_chi_from_conditioning` takes chi(E:y) from their symplectic spectra
  before and after Bob's measurement: the eigenvalue path that
  `cvqkd.rates.holevo_standard` and `holevo_los` replace with invariants.
* `CovarianceMatrix` validates a matrix and checks the bona fide condition.
* `fading_probability_quadrature` integrates the fading density that
  `cvqkd.channel.fading_probability` integrates in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from cvqkd.channel import FadingModel, _log_ratio_density
from cvqkd.gaussian import (
    I2,
    Z2,
    _as_matrix,
    entropic_h,
    symplectic_spectrum,
    two_mode_blocks,
)
from cvqkd.rates import BONA_FIDE_TOL, ChannelPoint, TrustLevel, _member, bob_variance

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
