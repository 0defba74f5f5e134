"""Receiver setup-noise and background-photon budgets.

All photon numbers are mean photon counts referred to Bob's detection
input; excess-noise figures are in shot-noise units with the convention
xi = 2*nbar/tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Exact by definition in the 2019 SI (speed of light in m/s, Planck constant
# in J s, Boltzmann constant in J/K).
SPEED_OF_LIGHT = 299792458.0
PLANCK = 6.62607015e-34
BOLTZMANN = 1.380649e-23

LO_KINDS = ("tlo", "llo")


@dataclass(frozen=True)
class SetupConfig:
    """Detection-chain parameters for an optical receiver.

    Parameters
    ----------
    wavelength : float
        Carrier wavelength in metres.
    detector_bandwidth : float
        Detector electronic bandwidth W in Hz.
    nep : float
        Noise-equivalent power in W / sqrt(Hz).
    lo_power : float
        Local-oscillator power in W.
    lo_pulse_duration : float
        LO integration window per pulse, in seconds.
    linewidth : float
        Combined laser linewidth l_W in Hz (LLO phase-noise source).
    clock : float
        System clock C in Hz.
    nu_det : int
        Quadrature duty: 1 for homodyne, 2 for heterodyne.
    sigma_x2 : float
        Modulation variance sigma_x^2 = mu - 1 in shot-noise units.
    lo_kind : str
        "tlo" (transmitted LO) or "llo" (local LO regenerated at Bob).
    """

    wavelength: float
    detector_bandwidth: float
    nep: float
    lo_power: float
    lo_pulse_duration: float
    linewidth: float
    clock: float
    nu_det: int
    sigma_x2: float
    lo_kind: str = "llo"

    def __post_init__(self):
        for name in ("wavelength", "detector_bandwidth", "nep", "lo_power",
                     "lo_pulse_duration", "clock"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.linewidth < 0.0:
            raise ValueError("linewidth must be non-negative")
        if self.nu_det not in (1, 2):
            raise ValueError("nu_det must be 1 (homodyne) or 2 (heterodyne)")
        if self.sigma_x2 < 0.0:
            raise ValueError("sigma_x2 must be non-negative")
        if self.lo_kind not in LO_KINDS:
            raise ValueError(f"lo_kind must be one of {LO_KINDS}")

    @property
    def carrier_frequency(self) -> float:
        return SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class ReceiverOptics:
    """Collection optics of the receiver telescope."""

    aperture_radius: float
    fov: float
    spectral_filter: float
    eta_eff: float = 1.0

    def __post_init__(self):
        if self.aperture_radius <= 0.0 or self.fov <= 0.0 or self.spectral_filter <= 0.0:
            raise ValueError("aperture, field of view and filter width must be positive")
        if not 0.0 < self.eta_eff <= 1.0:
            raise ValueError("eta_eff must lie in (0, 1]")


def theta_el(cfg: SetupConfig) -> float:
    """Electronic setup-noise coefficient Theta_el (photons).

    Theta_el = nu_det * NEP^2 * W * Dt_LO / (2 h nu P_LO); referred to one
    pulse at the detection input.
    """
    return (cfg.nu_det * cfg.nep ** 2 * cfg.detector_bandwidth * cfg.lo_pulse_duration
            / (2.0 * PLANCK * cfg.carrier_frequency * cfg.lo_power))


def theta_ph(cfg: SetupConfig) -> float:
    """LLO phase-noise coefficient Theta_ph = pi * sigma_x^2 * l_W / C (photons)."""
    return math.pi * cfg.sigma_x2 * cfg.linewidth / cfg.clock


def setup_noise_from_thetas(th_el: float, th_ph: float, lo_kind: str, tau,
                            n_other: float = 0.0):
    """Setup photons n_ex at channel transmissivity tau.

    TLO: the electronic contribution is referred back through the channel,
    n_ex = Theta_el / tau. LLO: the LO never crosses the channel but the
    regenerated phase reference adds photons proportionally to tau,
    n_ex = Theta_el + Theta_ph * tau. Both add the untrusted n_other.

    A float tau must lie in (0, 1]. An array of pulse transmissivities may
    also hold 0, where a deflected pulse's tau underflows; its TLO noise is
    then infinite and post-selection discards the pulse.
    """
    if lo_kind not in LO_KINDS:
        raise ValueError(f"lo_kind must be one of {LO_KINDS}")
    if isinstance(tau, (float, int)):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
    else:
        import numpy as np

        tau = np.asarray(tau, dtype=float)
        if not np.all((0.0 <= tau) & (tau <= 1.0)):
            raise ValueError("tau must lie in [0, 1]")
    if lo_kind == "tlo":
        return th_el / tau + n_other
    return th_el + th_ph * tau + n_other


def xi_from_photons(nbar: float, tau: float) -> float:
    """Excess noise xi = 2*nbar/tau (shot-noise units, at Alice's output)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if nbar < 0.0:
        raise ValueError("nbar must be non-negative")
    return 2.0 * nbar / tau


def optical_etendue(optics: ReceiverOptics, detector_bandwidth: float) -> float:
    """Receiver acceptance Gamma_R = Delta_lambda * W^-1 * Omega_fov * a_R^2."""
    if detector_bandwidth <= 0.0:
        raise ValueError("detector bandwidth must be positive")
    return (optics.spectral_filter / detector_bandwidth
            * optics.fov * optics.aperture_radius ** 2)


def sky_background_photons(optics: ReceiverOptics, wavelength: float,
                           detector_bandwidth: float, sky_brightness: float) -> float:
    """Background photons per pulse from diffuse sky radiance.

    `sky_brightness` is the spectral radiance B in W m^-2 nm^-1 sr^-1
    (converted internally to per-metre). n_B = pi * lambda * Gamma_R / (h c) * B.
    """
    if sky_brightness < 0.0:
        raise ValueError("sky brightness must be non-negative")
    gamma_r = optical_etendue(optics, detector_bandwidth)
    radiance_si = sky_brightness * 1e9  # per nm -> per m
    return math.pi * wavelength * gamma_r / (PLANCK * SPEED_OF_LIGHT) * radiance_si


def microwave_etendue(wavelength: float, fov: float, aperture_radius: float) -> float:
    """Microwave acceptance Gamma_R ~ (lambda^2 / c) * Omega_fov * a_R^2."""
    if wavelength <= 0.0 or fov <= 0.0 or aperture_radius <= 0.0:
        raise ValueError("wavelength, fov and aperture must be positive")
    return wavelength ** 2 / SPEED_OF_LIGHT * fov * aperture_radius ** 2


def blackbody_mode_photons(wavelength: float, temperature: float) -> float:
    """Planck occupation scaled to the collected mode density.

    n_body = (2c / lambda^4) / (exp(h c / (lambda k_B T)) - 1), in photons
    per unit etendue; multiply by Gamma_R for the per-pulse count.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    x = PLANCK * SPEED_OF_LIGHT / (wavelength * BOLTZMANN * temperature)
    return 2.0 * SPEED_OF_LIGHT / wavelength ** 4 / math.expm1(x)


def microwave_thermal_photons(wavelength: float, temperature: float,
                              fov: float, aperture_radius: float) -> float:
    """Thermal background photons n_th = Gamma_R * n_body at the receiver."""
    gamma_r = microwave_etendue(wavelength, fov, aperture_radius)
    return gamma_r * blackbody_mode_photons(wavelength, temperature)
