"""Composable finite-size secret-key rates for Gaussian-modulated
coherent-state quantum key distribution."""

import importlib

from .noise import (
    ReceiverOptics,
    SetupConfig,
    microwave_thermal_photons,
    sky_background_photons,
    theta_el,
    theta_ph,
)
from .channel import (
    BeamConfig,
    FadingModel,
    diffraction_transmissivity,
    fading_pdf,
    fading_probability,
    microwave_best_range,
    microwave_transmissivity,
    pointing_tau_approx,
    pointing_tau_exact,
    spot_size,
)
from .rates import (
    ChannelPoint,
    RateReport,
    SecurityType,
    TrustLevel,
    asymptotic_rate,
    entropic_h,
    holevo,
    holevo_los,
    holevo_standard,
    holevo_untrusted_closed_form,
    microwave_los_cm,
    mutual_information,
    plob_thermal_bound,
)
from .finite_size import (
    EstimatorSet,
    FadingLattice,
    GeneralAttackTerms,
    ProtocolParams,
    background_bound,
    composable_rate,
    composable_rate_general,
    confidence_w,
    delta_aep,
    empirical_estimators,
    general_attack_extension,
    mobile_worst_case,
    theta_term,
    total_epsilon,
    worst_case_estimators,
)

# the array-backed modules load numpy on first use of one of their names
_LAZY = {**dict.fromkeys(("CovarianceMatrix", "condition_on_heterodyne",
                          "condition_on_homodyne", "symplectic_form",
                          "symplectic_spectrum", "two_mode_symplectic_spectrum"),
                         "gaussian"),
         **dict.fromkeys(("CoverageReport", "SimBlock", "defade_block",
                          "estimator_coverage_experiment", "simulate_block",
                          "simulate_fading_block", "stream_rng",
                          "sufficient_statistics_coverage"), "simulate")}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__version__ = "0.1.0"
