"""Finite-size parameter estimation and composable key-rate corrections.

The estimators follow the Gaussian-limit confidence intervals of the
maximum-likelihood channel estimates; composable terms collect the
asymptotic-equipartition penalty, the error-correction/hashing overheads
and, for fully general attacks, the energy-test dimension cutoff. The
coverage experiment checks the bounds against rounds drawn from the exact
law of the estimators' sufficient statistics, on the standard library.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from functools import cached_property, lru_cache

from . import Record
from .channel import FadingModel, fading_probability
from .noise import setup_noise_from_thetas

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

# mobile_worst_case rejects a post-selection window less likely than this.
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
    return math.sqrt(2.0 * math.log(1.0 / eps_pe))


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


# --- empirical and worst-case channel estimators ---------------------------

class EstimatorSnapshot(Record):
    """Point estimates from m_p disclosed pairs."""

    def __init__(self, t_hat: float, sigma_z2_hat: float, tau_hat: float,
                 n_hat: float, m_p: int):
        self.__dict__.update(t_hat=t_hat, sigma_z2_hat=sigma_z2_hat,
                             tau_hat=tau_hat, n_hat=n_hat, m_p=m_p)


CHUNK = 1 << 18  # pairs per Monte Carlo chunk


def _workers() -> int:
    """CPUs this process may run on (1 where the OS cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_chunks(fn: Callable, count: int) -> list:
    """fn(start, stop) over the CHUNK-sized ranges of range(count), in order;
    inline for one chunk or CPU, else on a thread pool closed before return."""
    starts = range(0, count, CHUNK)
    stops = [min(start + CHUNK, count) for start in starts]
    workers = min(len(starts), _workers())
    if workers <= 1:
        return list(map(fn, starts, stops))
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, starts, stops))


def empirical_estimators(x, y, nu_det: int) -> EstimatorSnapshot:
    """Maximum-likelihood estimates from disclosed quadrature pairs (arrays).

    T_hat = sum(xy)/sum(x^2), sigma_z2_hat the mean squared residual,
    tau_hat = T_hat^2 and n_hat = (sigma_z2_hat - nu_det)/2, each sum an fsum
    of per-chunk np.add.reduce sums, so that no BLAS or thread count enters.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be equal-length 1-d arrays with >= 2 entries")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")

    def moments(start, stop):
        xs = x[start:stop]
        return np.add.reduce(xs * xs), np.add.reduce(xs * y[start:stop])

    sxx, sxy = map(math.fsum, zip(*map_chunks(moments, x.size)))
    t_hat = sxy / sxx

    def residual_sum(start, stop):
        residual = y[start:stop] - t_hat * x[start:stop]
        return np.add.reduce(residual * residual)

    sigma_z2_hat = math.fsum(map_chunks(residual_sum, x.size)) / x.size
    return EstimatorSnapshot(t_hat=t_hat, sigma_z2_hat=sigma_z2_hat,
                             tau_hat=t_hat * t_hat,
                             n_hat=(sigma_z2_hat - nu_det) / 2.0,
                             m_p=x.size)


class EstimatorSet(Record):
    """Worst-case channel estimates at confidence w."""

    def __init__(self, tau_lo: float, tau_hi: float, n_hi: float, n_lo: float,
                 warnings: tuple = ()):
        self.__dict__.update(tau_lo=tau_lo, tau_hi=tau_hi, n_hi=n_hi, n_lo=n_lo,
                             warnings=warnings)


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


def worst_case_estimators(tau: float, nbar: float, sigma_x2: float, sigma_z2: float,
                          m_p: float, w: float) -> EstimatorSet:
    """The :func:`worst_case_bounds` as a record, a floored tau' warned as
    tau_lo_floored."""
    tau_lo, tau_hi, n_hi, n_lo, floored = worst_case_bounds(tau, nbar, sigma_x2,
                                                            sigma_z2, m_p, w)
    return EstimatorSet(tau_lo=tau_lo, tau_hi=tau_hi, n_hi=n_hi, n_lo=n_lo,
                        warnings=("tau_lo_floored",) if floored else ())


def background_bound(n_hi: float, n_ex_bc: float, eta_eff: float) -> tuple:
    """(n_b', floored): the background bound n_b' = (n_hi - n_ex_bc) / eta_eff
    left once the best-case setup photons n_ex_bc are trusted, floored at 0."""
    if not 0.0 < eta_eff <= 1.0:
        raise ValueError("eta_eff must lie in (0, 1]")
    n_b = (n_hi - n_ex_bc) / eta_eff
    return (0.0, True) if n_b < 0.0 else (n_b, False)


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

    def __eq__(self, other):  # the reproducibility tests compare whole reports
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

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
                 c_et: float, theta_test: float, k_cutoff: float, phi: float,
                 eps_prime: float):
        self.__dict__.update(n=n, n_eff=n_eff, m_et=m_et, d_et=d_et, c_et=c_et,
                             theta_test=theta_test, k_cutoff=k_cutoff, phi=phi,
                             eps_prime=eps_prime)


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
    d_et, c_et = energy_test_threshold(n_transmit, m_et)
    theta = math.log(8.0 / eps) / (2.0 * n_eff)
    denom = 1.0 - 2.0 * math.sqrt(theta / params.f_et)
    if denom <= 0.0:
        raise ValueError("energy-test failure probability too large: block too short")
    k_cutoff = max(1.0, 2.0 * n_eff * d_et * (1.0 + 2.0 * math.sqrt(theta) + 2.0 * theta) / denom)
    phi = 2.0 * math.ceil(_log2_binomial(k_cutoff, 4))
    eps_prime = k_cutoff ** 4 * eps / 50.0
    return GeneralAttackTerms(n=n, n_eff=n_eff, m_et=m_et, d_et=d_et, c_et=c_et,
                              theta_test=theta, k_cutoff=k_cutoff, phi=phi,
                              eps_prime=eps_prime)


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
    """Post-selection window [tau_min, tau_max] split into M left-closed bins."""

    def __init__(self, tau_min: float, tau_max: float, bins: int):
        if not 0.0 < tau_min < tau_max <= 1.0:
            raise ValueError("need 0 < tau_min < tau_max <= 1")
        if bins < 1:
            raise ValueError("at least one bin required")
        self.__dict__.update(tau_min=tau_min, tau_max=tau_max, bins=bins)

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


class FadingEstimatorSet(Record):
    """Worst-case bounds for a post-selected fading channel.

    The per-bin figures, which only the simulator reads, are computed on
    first access: bin_probabilities p_k, and n_star = tau_min / p_Delta
    * sum_k p_k n(tau_k) / tau_k over the bin lower edges tau_k, with n(tau)
    the noise photons of the link at transmissivity tau.
    """

    def __init__(self, lattice: FadingLattice, fading: FadingModel,
                 noise: Callable, p_delta: float, n_ex_wc: float, n_wc: float,
                 m_delta: float, tau_lb: float, n_ub: float, n_ex_bc: float,
                 n_b_ub: float, warnings: tuple = ()):
        self.__dict__.update(lattice=lattice, fading=fading, noise=noise,
                             p_delta=p_delta, n_ex_wc=n_ex_wc, n_wc=n_wc,
                             m_delta=m_delta, tau_lb=tau_lb, n_ub=n_ub,
                             n_ex_bc=n_ex_bc, n_b_ub=n_b_ub, warnings=warnings)

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
                      bins: int = 50, n_other: float = 0.0) -> FadingEstimatorSet:
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
    if p_delta < P_DELTA_MIN:
        raise ValueError("post-selection window has negligible probability; "
                         "reduce the range or lower f_th")

    def noise(tau):
        return eta_eff * n_b + setup_noise_from_thetas(th_el, th_ph, lo_kind,
                                                       tau, n_other)

    tau_wc, tau_bc = (tau_min, 1.0) if lo_kind == "tlo" else (1.0, tau_min)
    n_ex_wc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_wc, n_other)
    n_ex_bc = setup_noise_from_thetas(th_el, th_ph, lo_kind, tau_bc)

    n_wc = noise(tau_wc)
    m_delta = nu_det * params.m * p_delta
    tau_lb, _, n_ub, _, floored = worst_case_bounds(
        tau_min, n_wc, sigma_x2, 2.0 * n_wc + nu_det, m_delta, params.w)
    warnings = ("tau_lb_floored",) if floored else ()
    n_b_ub, floored = background_bound(n_ub, n_ex_bc, eta_eff)
    if floored:
        warnings = warnings + ("n_b_ub_floored",)

    return FadingEstimatorSet(lattice=lattice, fading=fading, noise=noise,
                              p_delta=p_delta, n_ex_wc=n_ex_wc, n_wc=n_wc,
                              m_delta=m_delta, tau_lb=tau_lb, n_ub=n_ub,
                              n_ex_bc=n_ex_bc, n_b_ub=n_b_ub, warnings=warnings)
