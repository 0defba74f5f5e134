"""Monte Carlo simulation of the Gaussian pulse-by-pulse channel model.

Randomness uses the counter-based Philox generator keyed by (seed, stream)
so that independent streams are reproducible and order-stable: blocks are
generated in fixed-size chunks keyed by their pulse-index range, which
keeps the output bit-identical however the chunks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import FadingModel, pointing_tau_approx, sample_deflections
from .finite_size import (
    EstimatorSnapshot,
    FadingLattice,
    confidence_w,
    empirical_estimators,
    map_chunks,
    worst_case_estimators,
)

_MASK64 = (1 << 64) - 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for an explicitly keyed stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunked_normals(seed: int, stream_base: int, scale, count: int,
                     gain=0.0, base=None) -> np.ndarray:
    """scale N(0, 1) (+ gain base), drawn in place in pulse-index-keyed chunks
    (see map_chunks); scale and gain are scalars or arrays of length count."""
    out = np.empty(count)
    scale, gain = np.broadcast_to(scale, count), np.broadcast_to(gain, count)

    def fill(start, stop):
        chunk = out[start:stop]
        stream_rng(seed, stream_base + start).standard_normal(out=chunk)
        chunk *= scale[start:stop]
        if base is not None:
            chunk += gain[start:stop] * base[start:stop]

    map_chunks(fill, count)
    return out


@dataclass(frozen=True)
class SimBlock:
    """Disclosed-variable view of one simulated block.

    x holds Alice's quadrature amplitudes and y Bob's outcomes, one row per
    disclosed pair (nu_det pairs per pulse). tau_samples / bins are per-pair
    fading metadata when applicable; pilot_mask marks pilot pairs.
    """

    x: np.ndarray
    y: np.ndarray
    nu_det: int
    sigma_x2: float
    seed: int
    tau_samples: np.ndarray = None
    bins: np.ndarray = None
    pilot_mask: np.ndarray = None

    @property
    def pairs(self) -> int:
        return self.x.size

    def estimators(self) -> EstimatorSnapshot:
        keep = slice(None) if self.pilot_mask is None else ~self.pilot_mask
        return empirical_estimators(self.x[keep], self.y[keep], self.nu_det)


def _check_block(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                 pulses: int) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if nbar < 0.0 or sigma_x2 <= 0.0 or pulses < 1:
        raise ValueError("nbar must be >= 0, sigma_x2 > 0, pulses >= 1")
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")


def simulate_block(tau: float, nbar: float, nu_det: int, sigma_x2: float,
                   pulses: int, seed: int) -> SimBlock:
    """Simulate y = sqrt(tau) x + z with var x = sigma_x2, var z = 2 nbar + nu_det.

    Produces nu_det disclosed pairs per pulse (heterodyne reveals both
    quadratures of each pulse).
    """
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    pairs = nu_det * pulses
    x = _chunked_normals(seed, 0, math.sqrt(sigma_x2), pairs)
    y = _chunked_normals(seed, 1 << 40, math.sqrt(2.0 * nbar + nu_det), pairs,
                         math.sqrt(tau), x)
    return SimBlock(x=x, y=y, nu_det=nu_det, sigma_x2=sigma_x2, seed=seed)


def simulate_fading_block(fading: FadingModel, n_of_tau, nu_det: int,
                          sigma_x2: float, pulses: int, seed: int,
                          pilot_rate: float = 0.0) -> SimBlock:
    """Simulate a beam-wandering block with per-pulse transmissivity.

    The deflection radius is drawn from the Weibull law, mapped through the
    tau(r) approximation, and the noise photons follow the per-tau model
    n_of_tau (e.g. a local-LO setup-noise curve plus background).
    """
    if nu_det not in (1, 2):
        raise ValueError("nu_det must be 1 or 2")
    if sigma_x2 <= 0.0 or pulses < 1:
        raise ValueError("sigma_x2 must be positive and pulses >= 1")
    if not 0.0 <= pilot_rate < 1.0:
        raise ValueError("pilot_rate must lie in [0, 1)")
    rng = stream_rng(seed, 2 << 40)
    r = sample_deflections(fading.sigma_p, pulses, rng)
    tau_pulse = pointing_tau_approx(r, fading)
    # a far-deflected pulse's tau underflows, so its TLO noise Theta_el / tau
    # is infinite; post-selection discards the pulse
    with np.errstate(divide="ignore", over="ignore"):
        n_pulse = np.asarray(n_of_tau(tau_pulse), dtype=float)
        sigma_z = np.sqrt(2.0 * np.repeat(n_pulse, nu_det) + nu_det)
    if n_pulse.shape != tau_pulse.shape or np.any(n_pulse < 0.0):
        raise ValueError("n_of_tau must map tau samples to non-negative photons")

    tau_pair = np.repeat(tau_pulse, nu_det)
    pairs = nu_det * pulses
    x = _chunked_normals(seed, 0, math.sqrt(sigma_x2), pairs)
    y = _chunked_normals(seed, 1 << 40, sigma_z, pairs, np.sqrt(tau_pair), x)
    pilot_mask = None
    if pilot_rate > 0.0:
        pilot_pulse = stream_rng(seed, 3 << 40).random(pulses) < pilot_rate
        pilot_mask = np.repeat(pilot_pulse, nu_det)
    return SimBlock(x=x, y=y, nu_det=nu_det, sigma_x2=sigma_x2, seed=seed,
                    tau_samples=tau_pair, pilot_mask=pilot_mask)


def defade_block(block: SimBlock, lattice: FadingLattice, seed: int) -> SimBlock:
    """Map a fading block onto the constant-transmissivity tau_min channel.

    Pairs outside [tau_min, tau_max] are post-selected away. Each kept pair
    in bin k (nominal transmissivity tau_k, the bin lower edge) becomes
    y~ = sqrt(tau_min / tau_k) y + sqrt(1 - tau_min / tau_k) xi with
    xi ~ N(0, nu_det), so every surviving pair looks like a tau_min pulse.
    Bins are assigned from the true sampled tau (ideal bright pilots).
    """
    if block.tau_samples is None:
        raise ValueError("block carries no fading metadata")
    bins = lattice.assign(block.tau_samples)
    keep = bins >= 0
    if not np.any(keep):
        raise ValueError("post-selection removed every pair")
    ratio = lattice.tau_min / lattice.lower_edges[bins[keep]]
    xi = _chunked_normals(seed, 4 << 40, math.sqrt(block.nu_det), ratio.size)
    y_tilde = np.sqrt(ratio) * block.y[keep] + np.sqrt(1.0 - ratio) * xi
    pilot = None if block.pilot_mask is None else block.pilot_mask[keep]
    return SimBlock(x=block.x[keep], y=y_tilde, nu_det=block.nu_det,
                    sigma_x2=block.sigma_x2, seed=block.seed,
                    tau_samples=np.full(int(keep.sum()), lattice.tau_min),
                    bins=bins[keep], pilot_mask=pilot)


@dataclass(frozen=True)
class CoverageReport:
    """Observed failure rates of the worst-case estimator bounds."""

    rounds: int
    eps_pe: float
    w: float
    tau_low_failures: int
    tau_high_failures: int
    n_failures: int

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
    failures = [0, 0, 0]
    for t_hat, sigma_z2_hat in stats:
        est = worst_case_estimators(t_hat * t_hat,
                                    max((sigma_z2_hat - nu_det) / 2.0, 0.0),
                                    sigma_x2, sigma_z2_hat, nu_det * pulses, w)
        failures[0] += est.tau_lo > tau
        failures[1] += est.tau_hi < tau
        failures[2] += est.n_hi < nbar
    return CoverageReport(rounds, eps_pe, w, *failures)


def estimator_coverage_experiment(tau: float, nbar: float, nu_det: int,
                                  sigma_x2: float, pulses: int, rounds: int,
                                  eps_pe: float, seed: int) -> CoverageReport:
    """Count how often the worst-case bounds exclude the true channel.

    Each round simulates a fresh block, forms the empirical estimators and
    the confidence bounds at eps_pe, and records one-sided failures
    tau' > tau, tau'' < tau and nbar' < nbar.
    """
    if rounds < 1:
        raise ValueError("at least one round required")
    snaps = (simulate_block(tau, nbar, nu_det, sigma_x2, pulses,
                            seed=(seed + 977 * k) & _MASK64).estimators()
             for k in range(rounds))
    return _coverage_report(((s.t_hat, s.sigma_z2_hat) for s in snaps), tau,
                            nbar, nu_det, sigma_x2, pulses, rounds, eps_pe)


def _sufficient_statistics(tau: float, nbar: float, nu_det: int,
                           sigma_x2: float, pulses: int, rounds: int, seed: int):
    """Yield each round's (T_hat, sigma_z2_hat) from their exact law: with
    m = nu_det pulses and sigma_z^2 = 2 nbar + nu_det, Sxx ~ sigma_x^2 chi^2(m),
    T_hat | Sxx ~ sqrt(tau) + sigma_z N(0, 1) / sqrt(Sxx) and the residual sum
    of squares RSS ~ sigma_z^2 chi^2(m - 1), independent of both (Cochran);
    sigma_z2_hat = RSS / m. One stream, 65,536 rounds at a time."""
    m, sigma_z2 = nu_det * pulses, 2.0 * nbar + nu_det
    rng = stream_rng(seed, 6 << 40)
    for start in range(0, rounds, 1 << 16):
        count = min(1 << 16, rounds - start)
        sxx = sigma_x2 * rng.chisquare(m, count)
        t_hat = math.sqrt(tau) + np.sqrt(sigma_z2 / sxx) * rng.standard_normal(count)
        sigma_z2_hat = sigma_z2 * rng.chisquare(m - 1, count) / m
        yield from zip(t_hat.tolist(), sigma_z2_hat.tolist())


def sufficient_statistics_coverage(tau: float, nbar: float, nu_det: int,
                                   sigma_x2: float, pulses: int, rounds: int,
                                   eps_pe: float, seed: int) -> CoverageReport:
    """estimator_coverage_experiment at O(1) cost per round, exact in law."""
    _check_block(tau, nbar, nu_det, sigma_x2, pulses)
    if rounds < 1 or nu_det * pulses < 2:
        raise ValueError("at least one round and two disclosed pairs required")
    return _coverage_report(
        _sufficient_statistics(tau, nbar, nu_det, sigma_x2, pulses, rounds, seed),
        tau, nbar, nu_det, sigma_x2, pulses, rounds, eps_pe)
