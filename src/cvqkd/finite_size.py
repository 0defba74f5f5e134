"""Finite-size parameter estimation and composable key-rate corrections.

The estimators follow the Gaussian-limit confidence intervals of the
maximum-likelihood channel estimates; composable terms collect the
asymptotic-equipartition penalty, the error-correction/hashing overheads
and, for fully general attacks, the energy-test dimension cutoff.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

from .channel import FadingModel, fading_probability
from .noise import setup_noise_from_thetas

# Below this the Gaussian tail bound w = sqrt(2 ln(1/eps)) replaces the
# normal quantile.
ERFINV_FLOOR = 1e-17

# Worst-case transmissivities are floored here instead of zero so downstream
# channel points stay constructible.
TAU_FLOOR = 1e-12


def confidence_w(eps_pe: float) -> float:
    """Confidence parameter w with 1 - erf(w/sqrt(2)) = 2 * eps_pe.

    w = sqrt(2) erfcinv(2 eps) is the upper eps-quantile of the standard
    normal, -Phi^-1(eps), taken from the lower tail (Wichura's AS241), so it
    stays accurate when 1 - 2 eps is no longer representable.
    """
    if not 0.0 < eps_pe <= 0.5:
        raise ValueError("eps_pe must lie in (0, 0.5]")
    if eps_pe > ERFINV_FLOOR:
        return 0.0 - NormalDist().inv_cdf(eps_pe)  # +0.0, not -0.0, at 1/2
    return math.sqrt(2.0 * math.log(1.0 / eps_pe))


@dataclass(frozen=True)
class ProtocolParams:
    """Block bookkeeping and epsilon budget of one protocol run.

    n_total is the number of transmitted pulses N; m of them are disclosed
    for parameter estimation and m_pl serve as pilots. With energy tests
    active (f_et > 0) the key-generation pulses shrink to
    n = (N - m - m_pl) / (1 + f_et); otherwise n = N - m - m_pl.
    """

    n_total: float
    m: float
    beta: float
    p_ec: float
    eps_pe: float
    eps_s: float
    eps_h: float
    eps_cor: float
    mu: float
    d: int = 32
    m_pl: float = 0.0
    f_et: float = 0.0

    def __post_init__(self):
        if self.n_total <= 0 or self.m <= 0 or self.m_pl < 0:
            raise ValueError("pulse counts must be positive (m_pl non-negative)")
        if self.m + self.m_pl >= self.n_total:
            raise ValueError("disclosed pulses exhaust the block")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not 0.0 < self.p_ec <= 1.0:
            raise ValueError("p_ec must lie in (0, 1]")
        for name in ("eps_pe", "eps_s", "eps_h", "eps_cor"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.mu < 1.0:
            raise ValueError("mu must be >= 1")
        if self.d < 2 or self.d & (self.d - 1):
            raise ValueError("digitalisation d must be a power of two >= 2")
        if self.f_et < 0.0:
            raise ValueError("f_et must be non-negative")

    @property
    def n(self) -> float:
        """Key-generation pulses surviving sacrifice and energy tests."""
        remaining = self.n_total - self.m - self.m_pl
        if self.f_et > 0.0:
            return remaining / (1.0 + self.f_et)
        return remaining

    @property
    def w(self) -> float:
        return confidence_w(self.eps_pe)


def total_epsilon(params: ProtocolParams) -> float:
    """Overall security parameter eps = 2 p_ec eps_pe + eps_cor + eps_s + eps_h."""
    return (2.0 * params.p_ec * params.eps_pe + params.eps_cor
            + params.eps_s + params.eps_h)


# --- empirical and worst-case channel estimators ---------------------------

@dataclass(frozen=True)
class EstimatorSnapshot:
    """Point estimates from m_p disclosed pairs."""

    t_hat: float
    sigma_z2_hat: float
    tau_hat: float
    n_hat: float
    m_p: int


def empirical_estimators(x, y, nu_det: int) -> EstimatorSnapshot:
    """Maximum-likelihood estimates from disclosed quadrature pairs (arrays).

    T_hat = sum(xy)/sum(x^2), sigma_z2_hat the mean squared residual,
    tau_hat = T_hat^2 and n_hat = (sigma_z2_hat - nu_det)/2.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be equal-length 1-d arrays with >= 2 entries")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    t_hat = float(x @ y / (x @ x))
    residual = y - t_hat * x
    sigma_z2_hat = float(residual @ residual / x.size)
    return EstimatorSnapshot(t_hat=t_hat, sigma_z2_hat=sigma_z2_hat,
                             tau_hat=t_hat * t_hat,
                             n_hat=(sigma_z2_hat - nu_det) / 2.0,
                             m_p=x.size)


@dataclass(frozen=True)
class EstimatorSet:
    """Worst-case channel estimates at confidence w."""

    tau_lo: float
    tau_hi: float
    n_hi: float
    n_lo: float
    warnings: tuple = ()


def worst_case_estimators(tau: float, nbar: float, sigma_x2: float, sigma_z2: float,
                          m_p: float, w: float) -> EstimatorSet:
    """Confidence bounds around (tau, nbar) after m_p disclosed pairs.

    tau' = tau - 2w sqrt((2 tau^2 + tau sigma_z^2 / sigma_x^2) / m_p),
    tau'' its mirror image upward (capped at 1), nbar' = nbar + shift and
    nbar'' = max(nbar - shift, 0) with shift = w sigma_z^2 / sqrt(2 m_p).
    sigma_z2 may be the measured residual variance or the model value
    2 nbar + nu_det. tau' is floored at TAU_FLOOR with a warning.

    This is the one estimation law of every channel: the constant links
    pass the model point with m_p = nu_det m, and the mobile window its
    worst case (tau_min, n_wc) with m_p = nu_det m p_Delta.
    """
    if tau <= 0.0 or sigma_x2 <= 0.0 or m_p <= 0 or w < 0.0 or nbar < 0.0:
        raise ValueError("tau, sigma_x2, m_p must be positive; w, nbar non-negative")
    margin = 2.0 * w * math.sqrt((2.0 * tau * tau + tau * sigma_z2 / sigma_x2) / m_p)
    tau_lo = tau - margin
    warnings = ()
    if tau_lo <= TAU_FLOOR:
        warnings = ("tau_lo_floored",)
        tau_lo = TAU_FLOOR
    shift = w * sigma_z2 / math.sqrt(2.0 * m_p)
    return EstimatorSet(tau_lo=tau_lo, tau_hi=min(tau + margin, 1.0),
                        n_hi=nbar + shift, n_lo=max(nbar - shift, 0.0),
                        warnings=warnings)


def background_bound(n_hi: float, n_ex_bc: float, eta_eff: float) -> tuple:
    """(n_b', floored): the background bound n_b' = (n_hi - n_ex_bc) / eta_eff
    left once the best-case setup photons n_ex_bc are trusted, floored at 0."""
    if not 0.0 < eta_eff <= 1.0:
        raise ValueError("eta_eff must lie in (0, 1]")
    n_b = (n_hi - n_ex_bc) / eta_eff
    return (0.0, True) if n_b < 0.0 else (n_b, False)


# --- composable corrections -------------------------------------------------

def delta_aep(d: int, p_ec: float, eps_s: float, improved: bool = False) -> float:
    """Asymptotic-equipartition penalty.

    4 log2(2 sqrt(d) + 1) sqrt(log2(18 / (p_ec^2 eps_s^4))); the improved
    variant replaces the prefactor argument by sqrt(d) + 2.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 < p_ec <= 1.0 or not 0.0 < eps_s < 1.0:
        raise ValueError("p_ec in (0,1], eps_s in (0,1) required")
    if improved:
        prefactor = math.log2(math.sqrt(d) + 2.0)
    else:
        prefactor = math.log2(2.0 * math.sqrt(d) + 1.0)
    inner = math.log2(18.0) - 2.0 * math.log2(p_ec) - 4.0 * math.log2(eps_s)
    return 4.0 * prefactor * math.sqrt(inner)


def theta_term(p_ec: float, eps_s: float, eps_h: float) -> float:
    """Correction Theta = log2[p_ec (1 - eps_s^2/3)] + 2 log2(sqrt(2) eps_h)."""
    if not 0.0 < p_ec <= 1.0:
        raise ValueError("p_ec must lie in (0, 1]")
    if not 0.0 < eps_s < 1.0 or not 0.0 < eps_h < 1.0:
        raise ValueError("eps_s and eps_h must lie in (0, 1)")
    return (math.log2(p_ec * (1.0 - eps_s * eps_s / 3.0))
            + 2.0 * math.log2(math.sqrt(2.0) * eps_h))


def composable_rate(r_pe: float, params: ProtocolParams, p_delta: float = 1.0,
                    improved_prefactor: bool = False) -> float:
    """Composable rate against collective attacks, not clamped at zero.

    R = (n p_Delta p_ec / N) [R_pe - Delta_aep / sqrt(n p_Delta)
        + Theta / (n p_Delta)], where p_Delta < 1 only under post-selected
    fading lattices.
    """
    if not 0.0 < p_delta <= 1.0:
        raise ValueError("p_delta must lie in (0, 1]")
    n_eff = params.n * p_delta
    if n_eff < 1.0:
        raise ValueError("effective block length below one pulse")
    aep = delta_aep(params.d, params.p_ec, params.eps_s, improved_prefactor)
    theta = theta_term(params.p_ec, params.eps_s, params.eps_h)
    return (n_eff * params.p_ec / params.n_total
            * (r_pe - aep / math.sqrt(n_eff) + theta / n_eff))


@dataclass(frozen=True)
class GeneralAttackTerms:
    """Dimension-cutoff bookkeeping for reduction to general attacks."""

    n: float
    n_eff: float
    m_et: float
    d_et: float
    c_et: float
    theta_test: float
    k_cutoff: float
    phi: float
    eps_prime: float
    c_et_defaulted: bool


def energy_test_threshold(n_transmit: float, m_et: float, c_et: float = None) -> tuple:
    """Energy-test threshold d_et = n_T + c_et / sqrt(m_et).

    c_et defaults to 3 sqrt(n_T + 1) (flagged by the second return value),
    keeping the test-pass probability near one for honest states.
    """
    if n_transmit < 0.0 or m_et <= 0.0:
        raise ValueError("n_transmit must be non-negative and m_et positive")
    defaulted = c_et is None
    if defaulted:
        c_et = 3.0 * math.sqrt(n_transmit + 1.0)
    if c_et <= 0.0:
        raise ValueError("c_et must be positive")
    return n_transmit + c_et / math.sqrt(m_et), c_et, defaulted


def _log2_binomial(k: float, r: int) -> float:
    """log2 of the generalised binomial C(k + r, r) for real k >= 0, as a
    sum of r log-ratios: no log-gamma difference cancels, at any k."""
    return sum(math.log2((k + j) / j) for j in range(1, r + 1))


def general_attack_extension(params: ProtocolParams, n_transmit: float, eps: float,
                             c_et: float = None, p_delta: float = 1.0,
                             nu_det: int = 2) -> GeneralAttackTerms:
    """Energy-test and dimension-cutoff terms for fully general attacks.

    Valid for heterodyne detection only. With n_eff = n * p_delta pulses,
    theta = ln(8/eps) / (2 n_eff), and the cutoff

    K = max{1, 2 n_eff d_et (1 + 2 sqrt(theta) + 2 theta)
                 / (1 - 2 sqrt(theta / f_et))},

    the extra rate correction is Phi = 2 ceil(log2 C(K+4, 4)) and the
    security parameter degrades to eps' = K^4 eps / 50.
    """
    if nu_det != 2:
        raise ValueError("the general-attack reduction requires heterodyne detection")
    if params.f_et <= 0.0:
        raise ValueError("general attacks require an active energy test (f_et > 0)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < p_delta <= 1.0:
        raise ValueError("p_delta must lie in (0, 1]")
    n = params.n
    n_eff = n * p_delta
    m_et = params.f_et * n
    d_et, c_et_val, defaulted = energy_test_threshold(n_transmit, m_et, c_et)
    theta = math.log(8.0 / eps) / (2.0 * n_eff)
    denom = 1.0 - 2.0 * math.sqrt(theta / params.f_et)
    if denom <= 0.0:
        raise ValueError("energy-test failure probability too large: block too short")
    k_cutoff = max(1.0, 2.0 * n_eff * d_et * (1.0 + 2.0 * math.sqrt(theta) + 2.0 * theta) / denom)
    phi = 2.0 * math.ceil(_log2_binomial(k_cutoff, 4))
    eps_prime = k_cutoff ** 4 * eps / 50.0
    return GeneralAttackTerms(n=n, n_eff=n_eff, m_et=m_et, d_et=d_et, c_et=c_et_val,
                              theta_test=theta, k_cutoff=k_cutoff, phi=phi,
                              eps_prime=eps_prime, c_et_defaulted=defaulted)


def composable_rate_general(r_pe: float, params: ProtocolParams,
                            terms: GeneralAttackTerms, p_delta: float = 1.0,
                            improved_prefactor: bool = False) -> float:
    """Composable rate against general attacks (heterodyne protocols).

    R = (n p_Delta p_ec / N) [R_pe - Delta_aep / sqrt(n p_Delta)
        + (Theta - Phi) / (n p_Delta)] with Phi evaluated at n p_Delta.
    """
    if not 0.0 < p_delta <= 1.0:
        raise ValueError("p_delta must lie in (0, 1]")
    n_eff = params.n * p_delta
    if abs(n_eff - terms.n_eff) > 1e-6 * max(1.0, n_eff):
        raise ValueError("general-attack terms were computed for a different block")
    aep = delta_aep(params.d, params.p_ec, params.eps_s, improved_prefactor)
    theta = theta_term(params.p_ec, params.eps_s, params.eps_h)
    return (n_eff * params.p_ec / params.n_total
            * (r_pe - aep / math.sqrt(n_eff) + (theta - terms.phi) / n_eff))


# --- mobile fading worst case ------------------------------------------------

@dataclass(frozen=True)
class FadingLattice:
    """Post-selection window [tau_min, tau_max] split into M left-closed bins."""

    tau_min: float
    tau_max: float
    bins: int

    def __post_init__(self):
        if not 0.0 < self.tau_min < self.tau_max <= 1.0:
            raise ValueError("need 0 < tau_min < tau_max <= 1")
        if self.bins < 1:
            raise ValueError("at least one bin required")

    @property
    def edges(self):
        import numpy as np

        return np.linspace(self.tau_min, self.tau_max, self.bins + 1)

    @property
    def lower_edges(self):
        return self.edges[:-1]

    def assign(self, tau):
        """Bin index per sample; -1 marks post-selected (out-of-window) pulses."""
        import numpy as np

        tau = np.asarray(tau, dtype=float)
        idx = np.floor((tau - self.tau_min) / (self.tau_max - self.tau_min)
                       * self.bins).astype(int)
        idx = np.where(tau >= self.tau_max, self.bins - 1, idx)
        idx[(tau < self.tau_min) | (tau > self.tau_max)] = -1
        return idx


@dataclass(frozen=True)
class FadingEstimatorSet:
    """Worst-case bounds for a post-selected fading channel.

    The per-bin figures, which only the simulator reads, are computed on
    first access: bin_probabilities p_k, and n_star = tau_min / p_Delta
    * sum_k p_k n(tau_k) / tau_k over the bin lower edges tau_k, with n(tau)
    the noise photons of the link at transmissivity tau.
    """

    lattice: FadingLattice
    fading: FadingModel
    noise: Callable
    p_delta: float
    n_ex_wc: float
    n_wc: float
    m_delta: float
    tau_lb: float
    n_ub: float
    n_ex_bc: float
    n_b_ub: float
    warnings: tuple = ()

    @cached_property
    def bin_probabilities(self):
        import numpy as np

        edges = self.lattice.edges
        return np.array([fading_probability(lo, hi, self.fading)
                         for lo, hi in zip(edges[:-1], edges[1:])])

    @cached_property
    def n_star(self) -> float:
        import numpy as np

        lower = self.lattice.lower_edges
        return self.lattice.tau_min / self.p_delta * float(
            np.sum(self.bin_probabilities / lower * self.noise(lower)))


def mobile_worst_case(params: ProtocolParams, fading: FadingModel, th_el: float,
                      th_ph: float, lo_kind: str, eta_eff: float, n_b: float,
                      sigma_x2: float, nu_det: int, f_th: float = 0.8,
                      bins: int = 50, p_delta_min: float = 1e-6,
                      n_other: float = 0.0) -> FadingEstimatorSet:
    """Worst-case estimates over the fading window [f_th * eta, eta].

    The setup noise is bounded over the whole window (TLO at tau_min; LLO at
    unit transmissivity, since its phase share grows with tau) and its best
    case taken at the other end; the disclosed pairs shrink to
    m_Delta = nu_det * m * p_Delta, and the surviving-signal noise average
    n_star uses the bin lower edges. The untrusted n_other photons enter the
    worst case and n_star but not the best-case setup share, so Eve is
    credited with them through n_b_ub.
    """
    if not 0.0 < f_th < 1.0:
        raise ValueError("f_th must lie in (0, 1)")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    tau_max = fading.eta
    tau_min = f_th * tau_max
    lattice = FadingLattice(tau_min=tau_min, tau_max=tau_max, bins=bins)
    p_delta = fading_probability(tau_min, tau_max, fading)
    if p_delta < p_delta_min:
        raise ValueError("post-selection window has negligible probability; "
                         "reduce the range or lower f_th")

    tau_wc, tau_bc = (tau_min, 1.0) if lo_kind == "tlo" else (1.0, tau_min)
    n_ex_wc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_wc, n_other)
    n_ex_bc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_bc)

    n_wc = eta_eff * n_b + n_ex_wc
    m_delta = nu_det * params.m * p_delta
    est = worst_case_estimators(tau_min, n_wc, sigma_x2, 2.0 * n_wc + nu_det,
                                m_delta, params.w)
    warnings = ("tau_lb_floored",) if est.warnings else ()
    n_b_ub, floored = background_bound(est.n_hi, n_ex_bc, eta_eff)
    if floored:
        warnings = warnings + ("n_b_ub_floored",)

    def noise(tau):
        return eta_eff * n_b + setup_noise_from_thetas(th_el, th_ph, lo_kind,
                                                       tau, n_other)

    return FadingEstimatorSet(lattice=lattice, fading=fading, noise=noise,
                              p_delta=p_delta, n_ex_wc=n_ex_wc, n_wc=n_wc,
                              m_delta=m_delta, tau_lb=est.tau_lo, n_ub=est.n_hi,
                              n_ex_bc=n_ex_bc, n_b_ub=n_b_ub, warnings=warnings)
