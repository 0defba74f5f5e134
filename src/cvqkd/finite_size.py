"""Finite-size parameter estimation and composable key-rate corrections.

The estimators follow the Gaussian-limit confidence intervals of the
maximum-likelihood channel estimates; composable terms collect the
asymptotic-equipartition penalty, the error-correction/hashing overheads
and, for fully general attacks, the energy-test dimension cutoff. The
coverage experiment checks the bounds against rounds drawn from the exact
law of the estimators' sufficient statistics, on the standard library;
simulate owns the chunk law that draws and reduces pairs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property, lru_cache

from . import Record
from .channel import FadingModel, fading_probability
from .noise import noise_map, setup_noise_from_thetas

try:  # the C kernel of statistics.NormalDist.inv_cdf, without statistics
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    from statistics import _normal_dist_inv_cdf

# Below this the Gaussian tail bound w = sqrt(2 ln(1/eps)) replaces the
# normal quantile.
ERFINV_FLOOR = 1e-17

# Worst-case transmissivities are floored here (or at tau, if tau is lower)
# instead of zero so downstream channel points stay constructible.
TAU_FLOOR = 1e-12

# window_bounds rejects a post-selection window less likely than this.
P_DELTA_MIN = 1e-6


def confidence_w(eps_pe: float) -> float:
    """Confidence parameter w with 1 - erf(w/sqrt(2)) = 2 * eps_pe.

    w = sqrt(2) erfcinv(2 eps) is the upper eps-quantile of the standard
    normal, -Phi^-1(eps), taken from the lower tail (Wichura's AS241), so it
    stays accurate when 1 - 2 eps is no longer representable.
    """
    if not 0.0 < eps_pe <= 0.5:
        raise ValueError("eps_pe must lie in (0, 0.5]")
    if eps_pe > ERFINV_FLOOR:
        return 0.0 - _normal_dist_inv_cdf(eps_pe, 0.0, 1.0)  # +0.0, not -0.0, at 1/2
    inverse = 1.0 / eps_pe  # inf below 1 / DBL_MAX, where -log(eps_pe) is still finite
    return math.sqrt(2.0 * (math.log(inverse) if inverse < math.inf else -math.log(eps_pe)))


class ProtocolParams(Record):
    """Block bookkeeping and epsilon budget of one protocol run.

    n_total is the number of transmitted pulses N; m of them are disclosed
    for parameter estimation and m_pl serve as pilots. The key-generation
    pulses are n = (N - m - m_pl) / (1 + f_et), with f_et = 0 when no
    energy test runs.
    """

    def __init__(self, n_total: float, m: float, beta: float, p_ec: float,
                 eps_pe: float, eps_s: float, eps_h: float, eps_cor: float,
                 mu: float, d: int = 32, m_pl: float = 0.0, f_et: float = 0.0):
        self.__dict__.update(n_total=n_total, m=m, beta=beta, p_ec=p_ec,
                             eps_pe=eps_pe, eps_s=eps_s, eps_h=eps_h,
                             eps_cor=eps_cor, mu=mu, d=d, m_pl=m_pl, f_et=f_et)
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
        return (self.n_total - self.m - self.m_pl) / (1.0 + self.f_et)

    @cached_property
    def w(self) -> float:
        return confidence_w(self.eps_pe)


def total_epsilon(params: ProtocolParams) -> float:
    """Overall security parameter eps = 2 p_ec eps_pe + eps_cor + eps_s + eps_h."""
    return (2.0 * params.p_ec * params.eps_pe + params.eps_cor
            + params.eps_s + params.eps_h)


# --- worst-case channel estimators -----------------------------------------

def worst_case_bounds(tau: float, nbar: float, sigma_x2: float, sigma_z2: float,
                      m_p: float, w: float) -> tuple:
    """(tau', tau'', nbar', nbar'', floored): confidence bounds around
    (tau, nbar) after m_p disclosed pairs.

    tau' = tau - 2w sqrt((2 tau^2 + tau sigma_z^2 / sigma_x^2) / m_p),
    tau'' its mirror image upward (capped at 1), nbar' = nbar + shift and
    nbar'' = max(nbar - shift, 0) with shift = w sigma_z^2 / sqrt(2 m_p).
    sigma_z2 may be the measured residual variance or the model value
    2 nbar + nu_det. tau' is floored at min(TAU_FLOOR, tau), and floored
    says so.

    This is the one estimation law of every channel: the constant links
    pass the model point with m_p = nu_det m, and the mobile window its
    worst case (tau_min, n_wc) with m_p = nu_det m p_Delta.
    """
    if tau <= 0.0 or sigma_x2 <= 0.0 or m_p <= 0 or w < 0.0 or nbar < 0.0:
        raise ValueError("tau, sigma_x2, m_p must be positive; w, nbar non-negative")
    margin = 2.0 * w * math.sqrt((2.0 * tau * tau + tau * sigma_z2 / sigma_x2) / m_p)
    tau_lo = tau - margin
    # min and max as conditional expressions, value for value, without the
    # builtins' calls: this runs on every rate row
    floor = tau if tau < TAU_FLOOR else TAU_FLOOR
    floored = tau_lo <= floor
    if floored:
        tau_lo = floor
    shift = w * sigma_z2 / math.sqrt(2.0 * m_p)
    tau_hi, n_lo = tau + margin, nbar - shift
    return (tau_lo, 1.0 if tau_hi > 1.0 else tau_hi, nbar + shift,
            0.0 if n_lo < 0.0 else n_lo, floored)


def background_bound(n_hi: float, th_el: float, th_ph: float, lo_kind: str,
                     tau_lo: float, tau_hi: float, eta_eff: float) -> float:
    """The background bound n_b' = (n_hi - n_ex_bc) / eta_eff left once the
    best-case setup photons are trusted: n_ex_bc, the least n_ex over
    [tau_lo, tau_hi], at tau_hi for a TLO (Theta_el / tau falls) and at
    tau_lo for an LLO (Theta_el + Theta_ph tau rises). So n_b' >= 0 for any
    n_hi >= eta_eff n_b + n_ex(tau) with tau in the range."""
    if not 0.0 < eta_eff <= 1.0:
        raise ValueError("eta_eff must lie in (0, 1]")
    n_ex_bc = setup_noise_from_thetas(th_el, th_ph, lo_kind,
                                      tau_hi if lo_kind == "tlo" else tau_lo)
    return (n_hi - n_ex_bc) / eta_eff


# --- coverage of the worst-case bounds --------------------------------------
# numpy-free, so that `cvqkd coverage` runs on the standard library alone.

_MASK64 = (1 << 64) - 1


def _check_block(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                 pulses: int) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if nbar < 0.0 or sigma_x2 <= 0.0 or pulses < 1:
        raise ValueError("nbar must be >= 0, sigma_x2 > 0, pulses >= 1")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")


class CoverageReport(Record):
    """Observed failure rates of the worst-case estimator bounds."""

    def __init__(self, rounds: int, eps_pe: float, w: float, tau_low_failures: int,
                 tau_high_failures: int, n_failures: int):
        self.__dict__.update(rounds=rounds, eps_pe=eps_pe, w=w,
                             tau_low_failures=tau_low_failures,
                             tau_high_failures=tau_high_failures,
                             n_failures=n_failures)

    @property
    def tau_low_rate(self) -> float:
        return self.tau_low_failures / self.rounds

    @property
    def tau_high_rate(self) -> float:
        return self.tau_high_failures / self.rounds

    @property
    def n_rate(self) -> float:
        return self.n_failures / self.rounds


def _coverage_report(stats, tau: float, nbar: float, nu_det: int,
                     sigma_x2: float, pulses: int, rounds: int,
                     eps_pe: float) -> CoverageReport:
    """Count failures of the bounds at eps_pe from each (T_hat, sigma_z2_hat)."""
    w = confidence_w(eps_pe)
    m_p = nu_det * pulses
    tau_low = tau_high = n_low = 0
    for t_hat, sigma_z2_hat in stats:
        n_hat = (sigma_z2_hat - nu_det) / 2.0
        tau_lo, tau_hi, n_hi, _, _ = worst_case_bounds(
            t_hat * t_hat, n_hat if n_hat > 0.0 else 0.0, sigma_x2,
            sigma_z2_hat, m_p, w)
        tau_low += tau_lo > tau
        tau_high += tau_hi < tau
        n_low += n_hi < nbar
    return CoverageReport(rounds, eps_pe, w, tau_low, tau_high, n_low)


def _normal_draw(random: Callable[[], float]) -> Callable[[], float]:
    """A function that draws N(0, 1) by inverse transform of u = random(),
    a uniform k / 2**53. u = 0, where inv_cdf is undefined, is drawn again,
    which leaves the 2**53 - 1 values of u symmetric about 1/2."""
    inv_cdf = _normal_dist_inv_cdf

    def draw() -> float:
        u = random()
        while not u:
            u = random()
        return inv_cdf(u, 0.0, 1.0)

    return draw


def _gamma_draw(a: float, random: Callable[[], float]) -> Callable[[], float]:
    """A function that draws Gamma(a, 1), a > 0, from the uniform stream
    random, exact in law: Marsaglia & Tsang (ACM TOMS 26, 363, 2000) with
    its squeeze, and Gamma(a) = Gamma(a + 1) U^(1/a) for a < 1."""
    boost = 1.0 / a if a < 1.0 else 0.0
    d = (a + 1.0 if boost else a) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    normal, log = _normal_draw(random), math.log

    def draw() -> float:
        while True:
            x = normal()
            v = 1.0 + c * x
            if v > 0.0:
                v = v * v * v
                u = 1.0 - random()  # in (0, 1], so log(u) is finite
                x2 = x * x
                if u < 1.0 - 0.0331 * x2 * x2 or \
                        log(u) < 0.5 * x2 + d * (1.0 - v + log(v)):
                    return d * v * (1.0 - random()) ** boost if boost else d * v

    return draw


def _sufficient_statistics(tau: float, nbar: float, nu_det: int,
                           sigma_x2: float, pulses: int, rounds: int, seed: int):
    """Yield each round's (T_hat, sigma_z2_hat) from their exact law: with
    m = nu_det pulses and sigma_z^2 = 2 nbar + nu_det, Sxx ~ sigma_x^2 chi^2(m),
    T_hat | Sxx ~ sqrt(tau) + sigma_z N(0, 1) / sqrt(Sxx) and the residual sum
    of squares RSS ~ sigma_z^2 chi^2(m - 1), independent of both (Cochran);
    sigma_z2_hat = RSS / m, and chi^2(k) = 2 Gamma(k / 2). Every round comes
    from one random.Random stream per 64-bit seed, in that order of draws."""
    import random

    m, sigma_z2 = nu_det * pulses, 2.0 * nbar + nu_det
    uniform = random.Random(seed & _MASK64).random
    chi2_m, normal = _gamma_draw(m / 2.0, uniform), _normal_draw(uniform)
    chi2_rest = _gamma_draw((m - 1) / 2.0, uniform)
    root_tau, sxx_scale, rss_scale = math.sqrt(tau), 2.0 * sigma_x2, 2.0 * sigma_z2 / m
    for _ in range(rounds):
        t_hat = root_tau + math.sqrt(sigma_z2 / (sxx_scale * chi2_m())) * normal()
        yield t_hat, rss_scale * chi2_rest()


def sufficient_statistics_coverage(tau: float, nbar: float, nu_det: int,
                                   sigma_x2: float, pulses: int, rounds: int,
                                   eps_pe: float, seed: int) -> CoverageReport:
    """The per-pulse coverage experiment (simulate.estimator_coverage_experiment)
    at O(1) cost per round, exact in law."""
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    if rounds < 1 or nu_det * pulses < 2:
        raise ValueError("at least one round and two disclosed pairs required")
    return _coverage_report(
        _sufficient_statistics(tau, nbar, nu_det, sigma_x2, pulses, rounds, seed),
        tau, nbar, nu_det, sigma_x2, pulses, rounds, eps_pe)


# --- composable corrections -------------------------------------------------
# delta_aep and theta_term are cached per argument tuple (errors are not).

@lru_cache(maxsize=64)
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


@lru_cache(maxsize=64)
def theta_term(p_ec: float, eps_s: float, eps_h: float) -> float:
    """Correction Theta = log2[p_ec (1 - eps_s^2/3)] + 2 log2(sqrt(2) eps_h)."""
    if not 0.0 < p_ec <= 1.0:
        raise ValueError("p_ec must lie in (0, 1]")
    if not 0.0 < eps_s < 1.0 or not 0.0 < eps_h < 1.0:
        raise ValueError("eps_s and eps_h must lie in (0, 1)")
    return (math.log2(p_ec * (1.0 - eps_s * eps_s / 3.0))
            + 2.0 * math.log2(math.sqrt(2.0) * eps_h))


class GeneralAttackTerms(Record):
    """Dimension-cutoff bookkeeping for reduction to general attacks."""

    def __init__(self, n: float, n_eff: float, m_et: float, d_et: float,
                 k_cutoff: float, phi: float, eps_prime: float):
        self.__dict__.update(n=n, n_eff=n_eff, m_et=m_et, d_et=d_et,
                             k_cutoff=k_cutoff, phi=phi, eps_prime=eps_prime)


def energy_test_threshold(n_transmit: float, m_et: float) -> tuple:
    """(d_et, c_et): the energy-test threshold d_et = n_T + c_et / sqrt(m_et)
    with c_et = 3 sqrt(n_T + 1), which keeps the test-pass probability near
    one for honest states.
    """
    if n_transmit < 0.0 or m_et <= 0.0:
        raise ValueError("n_transmit must be non-negative and m_et positive")
    c_et = 3.0 * math.sqrt(n_transmit + 1.0)
    return n_transmit + c_et / math.sqrt(m_et), c_et


def _log2_binomial(k: float, r: int) -> float:
    """log2 of the generalised binomial C(k + r, r) for real k >= 0, as a
    sum of r log-ratios: no log-gamma difference cancels, at any k."""
    return sum(math.log2((k + j) / j) for j in range(1, r + 1))


def general_attack_extension(params: ProtocolParams, n_transmit: float, eps: float,
                             p_delta: float = 1.0) -> GeneralAttackTerms:
    """Energy-test and dimension-cutoff terms for fully general attacks.

    Valid for heterodyne detection only (config rule
    general-requires-heterodyne). With n_eff = n * p_delta pulses,
    theta = ln(8/eps) / (2 n_eff), and the cutoff

    K = max{1, 2 n_eff d_et (1 + 2 sqrt(theta) + 2 theta)
                 / (1 - 2 sqrt(theta / f_et))},

    the extra rate correction is Phi = 2 ceil(log2 C(K+4, 4)) and the
    security parameter degrades to eps' = K^4 eps / 50.
    """
    if params.f_et <= 0.0:
        raise ValueError("general attacks require an active energy test (f_et > 0)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < p_delta <= 1.0:
        raise ValueError("p_delta must lie in (0, 1]")
    n = params.n
    n_eff = n * p_delta
    m_et = params.f_et * n
    d_et, _ = energy_test_threshold(n_transmit, m_et)
    ratio = 8.0 / eps  # inf below 8 / DBL_MAX, where log(8) - log(eps) is still finite
    theta = (math.log(ratio) if ratio < math.inf else math.log(8.0) - math.log(eps)) / (2.0 * n_eff)
    denom = 1.0 - 2.0 * math.sqrt(theta / params.f_et)
    if denom <= 0.0:
        raise ValueError("energy-test failure probability too large: block too short")
    k_cutoff = max(1.0, 2.0 * n_eff * d_et * (1.0 + 2.0 * math.sqrt(theta) + 2.0 * theta) / denom)
    phi = 2.0 * math.ceil(_log2_binomial(k_cutoff, 4))
    eps_prime = k_cutoff ** 4 * eps / 50.0
    return GeneralAttackTerms(n=n, n_eff=n_eff, m_et=m_et, d_et=d_et,
                              k_cutoff=k_cutoff, phi=phi, eps_prime=eps_prime)


def composable_terms(params: ProtocolParams, p_delta: float = 1.0,
                     improved_prefactor: bool = False,
                     terms: GeneralAttackTerms | None = None) -> tuple:
    """(n p_Delta p_ec / N, Delta_aep / sqrt(n p_Delta), (Theta - Phi) /
    (n p_Delta)): the three terms of the composable rate, which is not
    clamped at zero,

    R = (n p_Delta p_ec / N) [R_pe - Delta_aep / sqrt(n p_Delta)
        + (Theta - Phi) / (n p_Delta)],

    where p_Delta < 1 only under post-selected fading lattices. Against
    collective attacks Phi = 0; against general attacks (heterodyne
    protocols) Phi = terms.phi, the dimension cutoff that
    general_attack_extension evaluates at n p_Delta.
    """
    if not 0.0 < p_delta <= 1.0:
        raise ValueError("p_delta must lie in (0, 1]")
    n_eff = params.n * p_delta
    if n_eff < 1.0:
        raise ValueError("effective block length below one pulse")
    if terms is not None and abs(n_eff - terms.n_eff) > 1e-6 * max(1.0, n_eff):
        raise ValueError("general-attack terms were computed for a different block")
    phi = 0.0 if terms is None else terms.phi
    aep = delta_aep(params.d, params.p_ec, params.eps_s, improved_prefactor)
    theta = theta_term(params.p_ec, params.eps_s, params.eps_h)
    return (n_eff * params.p_ec / params.n_total, aep / math.sqrt(n_eff),
            (theta - phi) / n_eff)


# --- mobile fading worst case ------------------------------------------------

class FadingLattice(Record):
    """Post-selection window [tau_min, tau_max] split into M left-closed bins,
    with its M + 1 edges and M lower edges computed once."""

    def __init__(self, tau_min: float, tau_max: float, bins: int):
        if not 0.0 < tau_min < tau_max <= 1.0:
            raise ValueError("need 0 < tau_min < tau_max <= 1")
        if bins < 1:
            raise ValueError("at least one bin required")
        import numpy as np

        edges = np.linspace(tau_min, tau_max, bins + 1)
        self.__dict__.update(tau_min=tau_min, tau_max=tau_max, bins=bins,
                             edges=edges, lower_edges=edges[:-1])

    def assign(self, tau):
        """Bin index per sample; -1 marks post-selected (out-of-window) pulses."""
        import numpy as np

        tau = np.asarray(tau, dtype=float)
        idx = np.floor((tau - self.tau_min) / (self.tau_max - self.tau_min)
                       * self.bins).astype(int)
        idx = np.where(tau >= self.tau_max, self.bins - 1, idx)
        idx[(tau < self.tau_min) | (tau > self.tau_max)] = -1
        return idx


class FadingEstimatorSet(Record):
    """A post-selected fading window as the simulator reads it: its lattice,
    the link's noise law noise(tau), p_Delta, the window's warnings, the bin
    probabilities p_k and the de-faded noise n_star (see mobile_worst_case)."""

    def __init__(self, lattice: FadingLattice, noise: Callable, p_delta: float,
                 warnings: tuple, bin_probabilities, n_star: float):
        self.__dict__.update(lattice=lattice, noise=noise, p_delta=p_delta,
                             warnings=warnings, bin_probabilities=bin_probabilities,
                             n_star=n_star)


def window_bounds(params: ProtocolParams, fading: FadingModel, noise: Callable,
                  th_el: float, th_ph: float, lo_kind: str, eta_eff: float,
                  sigma_x2: float, nu_det: int, f_th: float) -> tuple:
    """(tau_min, p_Delta, tau_lb, n_ub, n_b_ub, warnings): the worst case of
    the fading window [tau_min, tau_max] = [f_th * eta, eta] of a link whose
    noise photons at transmissivity tau are noise(tau) (noise.noise_map).

    The setup noise is bounded over the whole window (TLO at tau_min; LLO at
    unit transmissivity, since its phase share grows with tau) and
    background_bound takes its best case over [tau_min, 1]; the disclosed
    pairs shrink to m_Delta = nu_det * m * p_Delta. The untrusted photons of noise enter the
    worst case but not the best-case setup share, so Eve is credited with
    them through n_b_ub. A floored tau_lb warns tau_lb_floored.
    """
    if not 0.0 < f_th < 1.0:
        raise ValueError("f_th must lie in (0, 1)")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    tau_max = fading.eta
    tau_min = f_th * tau_max
    if not 0.0 < tau_min < tau_max <= 1.0:
        raise ValueError("need 0 < tau_min < tau_max <= 1")
    p_delta = fading_probability(tau_min, tau_max, fading)
    if p_delta < P_DELTA_MIN:
        raise ValueError("post-selection window has negligible probability; "
                         "reduce the range or lower f_th")

    n_wc = noise(tau_min if lo_kind == "tlo" else 1.0)
    tau_lb, _, n_ub, _, floored = worst_case_bounds(
        tau_min, n_wc, sigma_x2, 2.0 * n_wc + nu_det, nu_det * params.m * p_delta,
        params.w)
    return (tau_min, p_delta, tau_lb, n_ub,
            background_bound(n_ub, th_el, th_ph, lo_kind, tau_min, 1.0, eta_eff),
            ("tau_lb_floored",) if floored else ())


def mobile_worst_case(params: ProtocolParams, fading: FadingModel, th_el: float,
                      th_ph: float, lo_kind: str, eta_eff: float, n_b: float,
                      sigma_x2: float, nu_det: int, f_th: float, bins: int,
                      n_other: float = 0.0) -> FadingEstimatorSet:
    """The window of window_bounds as a FadingEstimatorSet over bins bins.

    One noise law, noise_map at these arguments, serves the window's bounds
    and the record. The bins are priced here, one fading_probability call
    each, and n_star = tau_min / p_Delta * sum_k p_k n(tau_k) / tau_k over
    the bin lower edges tau_k, so the untrusted n_other photons enter it.
    """
    import numpy as np

    noise = noise_map(th_el, th_ph, lo_kind, eta_eff, n_b, n_other)
    tau_min, p_delta, *_, warnings = window_bounds(
        params, fading, noise, th_el, th_ph, lo_kind, eta_eff, sigma_x2, nu_det, f_th)
    lattice = FadingLattice(tau_min, fading.eta, bins)
    edges, lower = lattice.edges, lattice.lower_edges
    probabilities = np.array([fading_probability(lo, hi, fading)
                              for lo, hi in zip(lower, edges[1:])])
    n_star = tau_min / p_delta * float(np.sum(probabilities / lower * noise(lower)))
    return FadingEstimatorSet(lattice, noise, p_delta, warnings, probabilities, n_star)
