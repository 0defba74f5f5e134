"""Free-space channel models: Gaussian-beam diffraction, pointing fading,
and short-range microwave broadcast.

Transmissivities are pure numbers in [0, 1]. The fading model folds the
receiver efficiency eta_eff into the instantaneous transmissivity tau(r),
matching the convention tau(0) = eta = eta_d * eta_atm * eta_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BeamConfig:
    """Collimated Gaussian beam leaving Alice's telescope."""

    wavelength: float
    waist: float

    def __post_init__(self):
        if self.wavelength <= 0.0 or self.waist <= 0.0:
            raise ValueError("wavelength and waist must be positive")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist ** 2 / self.wavelength


def spot_size(beam: BeamConfig, z: float) -> float:
    """Beam-spot radius w_z = w0 sqrt(1 + (z/z_R)^2) at distance z."""
    if z < 0.0:
        raise ValueError("distance must be non-negative")
    return beam.waist * math.sqrt(1.0 + (z / beam.rayleigh_range) ** 2)


def diffraction_transmissivity(beam: BeamConfig, z: float, aperture_radius: float,
                               eta_atm: float = 1.0) -> float:
    """Aperture-clipped channel transmissivity eta_ch = eta_d * eta_atm.

    eta_d = 1 - exp(-2 a_R^2 / w_z^2) for a centred circular aperture.
    """
    if aperture_radius <= 0.0:
        raise ValueError("aperture radius must be positive")
    if not 0.0 <= eta_atm <= 1.0:
        raise ValueError("eta_atm must lie in [0, 1]")
    wz = spot_size(beam, z)
    if wz == 0.0:
        return eta_atm
    eta_d = -math.expm1(-2.0 * aperture_radius ** 2 / wz ** 2)
    return eta_d * eta_atm


def microwave_transmissivity(gain: float, aperture_radius: float, z: float) -> float:
    """Broadcast link transmissivity eta_ch = min{g a_R^2 / (4 pi z^2), 1}."""
    if gain <= 0.0 or aperture_radius <= 0.0:
        raise ValueError("gain and aperture radius must be positive")
    if z < 0.0:
        raise ValueError("distance must be non-negative")
    if z == 0.0:
        return 1.0
    return min(gain * aperture_radius ** 2 / (4.0 * math.pi * z * z), 1.0)


def microwave_best_range(gain: float, aperture_radius: float) -> float:
    """Largest z with eta_ch = 1: z_best = sqrt(g / pi) * a_R / 2."""
    if gain <= 0.0 or aperture_radius <= 0.0:
        raise ValueError("gain and aperture radius must be positive")
    return math.sqrt(gain / math.pi) * aperture_radius / 2.0


# --- pointing-error fading -------------------------------------------------

def sample_deflections(sigma_p: float, size: int, rng):
    """Inverse-CDF draws r = sigma_p * sqrt(-2 ln u) of the deflection radius,
    from a numpy Generator."""
    import numpy as np

    if sigma_p <= 0.0:
        raise ValueError("sigma_p must be positive")
    u = rng.random(size)
    u = np.clip(u, np.finfo(float).tiny, 1.0)
    return sigma_p * np.sqrt(-2.0 * np.log(u))


def pointing_tau_exact(r: float, w_z: float, aperture_radius: float, eta: float) -> float:
    """Instantaneous transmissivity of a beam deflected by r, by quadrature.

    Integrates the Gaussian intensity profile over the displaced circular
    aperture (polar coordinates about the aperture centre; the angular
    integral is 2*pi*I0(4 rho r / w_z^2)), then rescales so tau(0) = eta.
    """
    if w_z <= 0.0 or aperture_radius <= 0.0:
        raise ValueError("spot size and aperture radius must be positive")
    if r < 0.0:
        raise ValueError("deflection must be non-negative")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    from scipy.integrate import quad  # oracle only; kept off the import path
    from scipy.special import i0e

    def overlap(displacement: float) -> float:
        def integrand(rho: float) -> float:
            # exp(-2(rho - d)^2 / w^2) * i0e(4 rho d / w^2) stays bounded.
            expo = -2.0 * (rho - displacement) ** 2 / w_z ** 2
            return rho * math.exp(expo) * i0e(4.0 * rho * displacement / w_z ** 2)

        val, _ = quad(integrand, 0.0, aperture_radius, limit=200)
        return 4.0 / w_z ** 2 * val

    reference = -math.expm1(-2.0 * aperture_radius ** 2 / w_z ** 2)
    return eta * overlap(r) / reference


def _scaled_bessel_i01(x: float) -> tuple:
    """(exp(-x) I0(x), exp(-x) I1(x)) for x >= 0, in bounded time: the
    power series below x = 25, the Hankel expansion (2 pi x)^-1/2 sum_k
    prod_{j<=k} ((2j - 1)^2 - 4 nu^2) / (j 8x) from 25 up, where its smallest
    term, about exp(-2x), is far below round-off."""
    if x < 25.0:
        q = 0.25 * x * x
        t0, t1, s0, s1, k = 1.0, 0.5 * x, 1.0, 0.5 * x, 0
        while t0 > 1.1e-16 * s0:
            k += 1
            t0 *= q / (k * k)
            t1 *= q / (k * (k + 1))
            s0 += t0
            s1 += t1
        scale = math.exp(-x)
    else:
        t0, t1, s0, s1, k = 1.0, 1.0, 1.0, 1.0, 0
        while abs(t1) > 1.1e-16 * s1:
            k += 1
            odd2 = (2 * k - 1) ** 2
            t0 *= odd2 / (8.0 * k * x)
            t1 *= (odd2 - 4) / (8.0 * k * x)
            s0 += t0
            s1 += t1
        scale = 1.0 / math.sqrt(2.0 * math.pi * x)
    return s0 * scale, s1 * scale


@dataclass(frozen=True)
class FadingModel:
    """Weibull-shaped fading of a wandering Gaussian beam on an aperture.

    The instantaneous transmissivity is approximated by
    tau(r) = eta * exp[-(r / r0)^gamma], with shape gamma and scale r0 from
    the far-field parameter of the beam/aperture pair, and the deflection
    radius r Weibull-distributed with scale sigma_p.
    """

    sigma_p: float
    w_z: float
    aperture_radius: float
    eta: float        # tau at r = 0, receiver efficiency included
    eta_d: float      # diffraction-only part, tau(0) = eta_d * eta_atm * eta_eff
    gamma: float
    r0: float

    @classmethod
    def from_geometry(cls, beam: BeamConfig, z: float, aperture_radius: float,
                      pointing_error: float, eta_eff: float,
                      eta_atm: float = 1.0) -> "FadingModel":
        """Build the model at distance z with angular jitter sigma~_P (rad).

        sigma_p = pointing_error * z; gamma and r0 follow the log-Bessel
        fit of the aperture-overlap integral.
        """
        if pointing_error <= 0.0:
            raise ValueError("pointing error must be positive")
        if z <= 0.0:
            raise ValueError("distance must be positive")
        if not 0.0 < eta_eff <= 1.0:
            raise ValueError("eta_eff must lie in (0, 1]")
        wz = spot_size(beam, z)
        eta_d = -math.expm1(-2.0 * aperture_radius ** 2 / wz ** 2)
        eta_far = 2.0 * aperture_radius ** 2 / wz ** 2
        lam0, lam1 = _scaled_bessel_i01(2.0 * eta_far)  # exp(-2x) I_n(2x)
        log_term = math.log(2.0 * eta_d / (1.0 - lam0))
        if log_term <= 0.0:
            raise ValueError("fading fit undefined: ln(2 eta_d / (1 - Lambda_0)) <= 0")
        gamma = 4.0 * eta_far * lam1 / (1.0 - lam0) / log_term
        r0 = aperture_radius * log_term ** (-1.0 / gamma)
        return cls(sigma_p=pointing_error * z, w_z=wz, aperture_radius=aperture_radius,
                   eta=eta_d * eta_atm * eta_eff, eta_d=eta_d, gamma=gamma, r0=r0)


def pointing_tau_approx(r, fading: FadingModel):
    """Approximate instantaneous transmissivity tau(r) = eta exp[-(r/r0)^gamma],
    element-wise over an array of deflections."""
    import numpy as np

    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("deflection must be non-negative")
    out = fading.eta * np.exp(-((arr / fading.r0) ** fading.gamma))
    return float(out) if arr.ndim == 0 else out


def deflection_for_tau(tau: float, fading: FadingModel) -> float:
    """Inverse of the tau(r) approximation: r = r0 * ln(eta/tau)^(1/gamma)."""
    if not 0.0 < tau <= fading.eta * (1.0 + 1e-12):
        raise ValueError("tau must lie in (0, eta]")
    return fading.r0 * math.log(max(fading.eta / tau, 1.0)) ** (1.0 / fading.gamma)


def fading_pdf(tau: float, fading: FadingModel) -> float:
    """Density of the instantaneous transmissivity under beam wandering.

    P(tau) = r0^2 / (gamma sigma_p^2 tau) * ln(eta/tau)^(2/gamma - 1)
             * exp[-(r0^2 / 2 sigma_p^2) ln(eta/tau)^(2/gamma)] on (0, eta).
    """
    if not 0.0 < tau < fading.eta:
        raise ValueError("fading pdf is supported on (0, eta)")
    log_ratio = math.log(fading.eta / tau)
    power = 2.0 / fading.gamma
    return (fading.r0 ** 2 / (fading.gamma * fading.sigma_p ** 2 * tau)
            * log_ratio ** (power - 1.0)
            * math.exp(-fading.r0 ** 2 / (2.0 * fading.sigma_p ** 2) * log_ratio ** power))


def fading_probability(tau_lo: float, tau_hi: float, fading: FadingModel) -> float:
    """P(tau_lo <= tau <= tau_hi), exact in deflection space.

    tau(r) decreases with r, so the event maps to r(tau_hi) <= r <= r(tau_lo)
    and the Weibull CDF gives exp(-r(tau_hi)^2/2sp^2) - exp(-r(tau_lo)^2/2sp^2).
    """
    if not 0.0 < tau_lo <= tau_hi <= fading.eta * (1.0 + 1e-12):
        raise ValueError("need 0 < tau_lo <= tau_hi <= eta")
    two_sp2 = 2.0 * fading.sigma_p ** 2
    r_hi = deflection_for_tau(min(tau_hi, fading.eta), fading)
    r_lo = deflection_for_tau(tau_lo, fading)
    return math.exp(-r_hi * r_hi / two_sp2) - math.exp(-r_lo * r_lo / two_sp2)


def fading_probability_quadrature(tau_lo: float, tau_hi: float,
                                  fading: FadingModel) -> float:
    """Consistency path for :func:`fading_probability`: integrate the pdf.

    Integrates in s = ln(eta/tau); the substitution spreads the mass that
    piles up against tau = eta over a well-conditioned interval.
    """
    if not 0.0 < tau_lo <= tau_hi <= fading.eta * (1.0 + 1e-12):
        raise ValueError("need 0 < tau_lo <= tau_hi <= eta")
    from scipy.integrate import quad  # oracle only; kept off the import path

    s_lo = math.log(fading.eta / min(tau_hi, fading.eta))
    s_hi = math.log(fading.eta / tau_lo)

    def integrand(s: float) -> float:
        tau = fading.eta * math.exp(-s)
        return fading_pdf(tau, fading) * tau

    val, _ = quad(integrand, s_lo, s_hi, limit=400)
    return val
