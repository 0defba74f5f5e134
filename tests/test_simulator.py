"""Monte Carlo simulator: reproducibility, estimator consistency, fading
statistics, de-fading, and confidence-bound coverage."""

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import cvqkd.finite_size
from cvqkd.channel import BeamConfig, FadingModel, fading_probability
from cvqkd.cli import main
from cvqkd.finite_size import (
    CHUNK,
    FadingLattice,
    _gamma_draw,
    _sufficient_statistics,
    empirical_estimators,
    sufficient_statistics_coverage,
)
from cvqkd.rates import ChannelPoint
from cvqkd.simulate import (
    _chunked_normals,
    defade_block,
    estimator_coverage_experiment,
    simulate_block,
    simulate_fading_block,
    stream_rng,
)
from oracles import mutual_information, sufficient_statistics_oracle

BEAM = BeamConfig(wavelength=800e-9, waist=1e-3)


def fading_at(z):
    return FadingModel.from_geometry(BEAM, z, 1e-2, 1.745e-3, 0.7)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = simulate_block(0.3, 0.02, 2, 9.0, 5000, seed=11)
        b = simulate_block(0.3, 0.02, 2, 9.0, 5000, seed=11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = simulate_block(0.3, 0.02, 2, 9.0, 5000, seed=11)
        b = simulate_block(0.3, 0.02, 2, 9.0, 5000, seed=12)
        assert not np.array_equal(a.y, b.y)

    def test_block_prefix_stable_across_lengths(self):
        # chunked pulse-index keying: a longer block extends, never reshuffles
        short = simulate_block(0.3, 0.02, 1, 9.0, (1 << 18) + 100, seed=7)
        long = simulate_block(0.3, 0.02, 1, 9.0, (1 << 18) + 5000, seed=7)
        n = short.pairs
        assert np.array_equal(long.x[:n], short.x)
        assert np.array_equal(long.y[:n], short.y)

    def test_fading_and_defade_reproducible(self):
        fad = fading_at(5.0)
        lat = FadingLattice(tau_min=0.8 * fad.eta, tau_max=fad.eta, bins=50)
        blocks = [
            defade_block(
                simulate_fading_block(fad, lambda t: 0.02 + 0.0 * t, 2, 9.0,
                                      20000, seed=3),
                lat, seed=9)
            for _ in range(2)
        ]
        assert np.array_equal(blocks[0].y, blocks[1].y)
        assert np.array_equal(blocks[0].bins, blocks[1].bins)

    def test_stream_rng_keyed_independently(self):
        a = stream_rng(5, 0).standard_normal(16)
        b = stream_rng(5, 1).standard_normal(16)
        assert not np.array_equal(a, b)


def serial_normals(seed, stream_base, scale, count):
    """The chunked draw as a plain serial loop over the pulse-index chunks."""
    out = np.empty(count)
    for start in range(0, count, CHUNK):
        stop = min(start + CHUNK, count)
        out[start:stop] = stream_rng(seed, stream_base + start).standard_normal(
            stop - start)
    return out * scale


EDGE_SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestChunkedThreads:
    """Blocks of several chunks are drawn and reduced on threads; neither
    the pool size nor the BLAS may change a pair or a row."""

    @pytest.fixture(autouse=True)
    def several_workers(self, monkeypatch):
        # a pool even on a one-CPU machine
        monkeypatch.setattr(cvqkd.finite_size, "_workers", lambda: 3)

    @pytest.mark.parametrize("count", EDGE_SIZES)
    def test_threaded_draw_equals_serial_loop(self, count):
        assert np.array_equal(_chunked_normals(7, 1 << 40, 1.5, count),
                              serial_normals(7, 1 << 40, 1.5, count))
        block = simulate_block(0.3, 0.02, 1, 9.0, count, seed=7)
        x = serial_normals(7, 0, 3.0, count)
        noise = serial_normals(7, 1 << 40, math.sqrt(2.0 * 0.02 + 1), count)
        y = np.sqrt(0.3) * x + noise
        assert np.array_equal(block.x, x)
        assert np.array_equal(block.y, y)

    def test_defade_equals_serial_loop(self):
        fad = fading_at(5.0)
        lat = FadingLattice(tau_min=0.8 * fad.eta, tau_max=fad.eta, bins=50)
        block = simulate_fading_block(fad, lambda t: 0.02 + 0.01 * t, 2, 9.0,
                                      400_000, seed=3)
        faded = defade_block(block, lat, seed=4)
        keep = lat.assign(block.tau_samples) >= 0
        assert faded.pairs > CHUNK
        tau_k = lat.lower_edges[faded.bins]
        xi = serial_normals(4, 4 << 40, math.sqrt(2.0), faded.pairs)
        y = (np.sqrt(lat.tau_min / tau_k) * block.y[keep]
             + np.sqrt(1.0 - lat.tau_min / tau_k) * xi)
        assert np.array_equal(faded.y, y)

    @pytest.mark.parametrize("count", EDGE_SIZES)
    def test_estimators_match_exact_sums(self, count):
        # per-chunk pairwise sums combined by fsum stay within a few ulp of
        # the correctly rounded sums over the whole block
        block = simulate_block(0.3, 0.02, 1, 9.0, count, seed=count)
        x, y = block.x, block.y
        snap = empirical_estimators(x, y, 1)
        t_hat = math.fsum(x * y) / math.fsum(x * x)
        residual = y - t_hat * x
        sigma_z2_hat = math.fsum(residual * residual) / count
        assert abs(snap.t_hat - t_hat) <= 8 * math.ulp(t_hat)
        assert abs(snap.sigma_z2_hat - sigma_z2_hat) <= 8 * math.ulp(sigma_z2_hat)

    @pytest.mark.parametrize("config", ["coverage.ini", "mobile.ini"])
    def test_rows_do_not_depend_on_pool_size(self, config, monkeypatch):
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(cvqkd.finite_size, "_workers", lambda: workers)
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["simulate", "--config", str(CONFIGS / config),
                             "--seed", "5"]) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("config", ["coverage.ini", "mobile.ini"])
    def test_rows_do_not_depend_on_blas_threads(self, config):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [subprocess.run(
            [sys.executable, "-m", "cvqkd.cli", "simulate", "--config",
             str(CONFIGS / config), "--seed", "5"],
            check=True, capture_output=True,
            env={**os.environ, "PYTHONPATH": path,
                 "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
        assert outputs[0] == outputs[1]


class TestEstimatorConsistency:
    def test_tau_and_noise_within_five_se(self):
        tau, nbar, sx2, nu = 0.3, 0.05, 9.0, 2
        block = simulate_block(tau, nbar, nu, sx2, 200_000, seed=21)
        snap = block.estimators()
        sz2 = 2.0 * nbar + nu
        se_tau = math.sqrt((2.0 * tau**2 + tau * sz2 / sx2) / snap.m_p)
        assert abs(snap.tau_hat - tau) < 5.0 * se_tau
        se_n = sz2 / math.sqrt(2.0 * snap.m_p)
        assert abs(snap.n_hat - nbar) < 5.0 * se_n
        assert snap.m_p == nu * 200_000

    def test_vacuum_noise_floor(self):
        block = simulate_block(0.3, 0.0, 2, 9.0, 200_000, seed=23)
        snap = block.estimators()
        se_n = 2.0 / math.sqrt(2.0 * snap.m_p)
        assert abs(snap.n_hat) < 5.0 * se_n

    def test_photon_bookkeeping(self):
        tau, nbar, sx2, nu = 0.25, 0.04, 9.0, 2
        block = simulate_block(tau, nbar, nu, sx2, 400_000, seed=29)
        var_y = float(np.mean(block.y**2))
        expect = tau * sx2 + 2.0 * nbar + nu
        se = expect * math.sqrt(2.0 / block.pairs)
        assert abs(var_y - expect) < 4.0 * se

    def test_mutual_information_matches_rate_formula(self):
        tau, nbar, sx2, nu = 0.3, 0.05, 9.0, 2
        block = simulate_block(tau, nbar, nu, sx2, 1_000_000, seed=31)
        rho = float(np.corrcoef(block.x, block.y)[0, 1])
        i_hat = -(nu / 2.0) * math.log2(1.0 - rho * rho)
        point = ChannelPoint(eta_ch=tau / 0.7, eta_eff=0.7, n_b=nbar / 0.7,
                             n_ex=0.0, nu_det=nu, mu=sx2 + 1.0)
        assert i_hat == pytest.approx(mutual_information(point), rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_block(0.0, 0.05, 2, 9.0, 100, seed=1)
        with pytest.raises(ValueError):
            simulate_block(0.3, -0.1, 2, 9.0, 100, seed=1)
        with pytest.raises(ValueError):
            simulate_block(0.3, 0.05, 3, 9.0, 100, seed=1)


class TestFadingBlocks:
    def test_tau_repeated_per_quadrature(self):
        block = simulate_fading_block(fading_at(5.0), lambda t: 0.02 + 0.0 * t,
                                      2, 9.0, 1000, seed=41)
        assert block.tau_samples.size == 2000
        assert np.array_equal(block.tau_samples[::2], block.tau_samples[1::2])

    def test_bin_occupancy_matches_fading_law(self):
        fad = fading_at(5.0)
        pulses = 200_000
        block = simulate_fading_block(fad, lambda t: 0.02 + 0.0 * t, 1, 9.0,
                                      pulses, seed=43)
        lat = FadingLattice(tau_min=0.8 * fad.eta, tau_max=fad.eta, bins=10)
        bins = lat.assign(block.tau_samples)
        for k in range(10):
            lo, hi = lat.edges[k], lat.edges[k + 1]
            p_k = fading_probability(lo, hi, fad)
            count = int(np.sum(bins == k))
            sigma = math.sqrt(pulses * p_k * (1.0 - p_k))
            assert abs(count - pulses * p_k) < 3.5 * sigma
        p_window = fading_probability(lat.tau_min, lat.tau_max, fad)
        kept = int(np.sum(bins >= 0))
        sigma_w = math.sqrt(pulses * p_window * (1.0 - p_window))
        assert abs(kept - pulses * p_window) < 3.5 * sigma_w

    def test_pilot_mask(self):
        block = simulate_fading_block(fading_at(5.0), lambda t: 0.02 + 0.0 * t,
                                      2, 9.0, 50_000, seed=47, pilot_rate=0.2)
        frac = float(block.pilot_mask.mean())
        assert abs(frac - 0.2) < 4.0 * math.sqrt(0.2 * 0.8 / 50_000)
        # pilots are excluded from the disclosed-pair estimators
        snap = block.estimators()
        assert snap.m_p == int((~block.pilot_mask).sum())

    def test_noise_map_validation(self):
        with pytest.raises(ValueError):
            simulate_fading_block(fading_at(5.0), lambda t: t - 1.0, 2, 9.0,
                                  1000, seed=1)


class TestDefade:
    N_CONST = 0.03

    def run(self, pulses=1_000_000, seed=51, z=5.0, bins=50):
        fad = fading_at(z)
        lat = FadingLattice(tau_min=0.8 * fad.eta, tau_max=fad.eta, bins=bins)
        block = simulate_fading_block(fad, lambda t: self.N_CONST + 0.0 * t,
                                      2, 9.0, pulses, seed=seed)
        return fad, lat, block, defade_block(block, lat, seed=seed + 1)

    def test_defade_variance(self):
        # residual after removing the known signal part carries exactly the
        # vacuum unit plus the de-faded excess 2 n_star computed from the bins
        fad, lat, block, faded = self.run()
        bins = lat.assign(block.tau_samples)
        keep = bins >= 0
        tau_k = lat.lower_edges[bins[keep]]
        signal = np.sqrt(lat.tau_min * block.tau_samples[keep] / tau_k) * block.x[keep]
        residual = faded.y - signal
        n_star_emp = self.N_CONST * lat.tau_min * float(np.mean(1.0 / tau_k))
        expect = 2.0 + 2.0 * n_star_emp
        var_res = float(np.mean(residual**2))
        se = expect * math.sqrt(2.0 / residual.size)
        assert abs(var_res - expect) < 3.0 * se

    def test_defade_slope(self):
        fad, lat, block, faded = self.run()
        slope = float(np.mean(faded.x * faded.y) / np.mean(faded.x**2))
        assert slope == pytest.approx(math.sqrt(lat.tau_min), rel=0.01)

    def test_empirical_excess_matches_model_average(self):
        # tau_min E[1/tau_k] over simulated pairs agrees with the bin-probability
        # weighted model average used by the worst-case analysis
        fad, lat, block, faded = self.run(pulses=400_000)
        bins = lat.assign(block.tau_samples)
        keep = bins >= 0
        tau_k = lat.lower_edges[bins[keep]]
        emp = float(np.mean(1.0 / tau_k))
        p_k = np.array([
            fading_probability(lat.edges[k], lat.edges[k + 1], fad)
            for k in range(lat.bins)
        ])
        model = float(np.sum(p_k / lat.lower_edges) / np.sum(p_k))
        assert emp == pytest.approx(model, rel=2e-3)

    def test_post_selection_drops_out_of_window_pairs(self):
        fad, lat, block, faded = self.run(pulses=50_000)
        bins = lat.assign(block.tau_samples)
        assert faded.pairs == int(np.sum(bins >= 0))
        assert np.all(faded.tau_samples == lat.tau_min)
        assert np.all(faded.bins >= 0)

    def test_requires_fading_metadata(self):
        plain = simulate_block(0.3, 0.02, 2, 9.0, 1000, seed=1)
        lat = FadingLattice(tau_min=0.2, tau_max=0.3, bins=10)
        with pytest.raises(ValueError):
            defade_block(plain, lat, seed=2)


class TestCoverage:
    def test_bounds_hold_at_design_rate(self):
        report = estimator_coverage_experiment(
            tau=0.3, nbar=0.02, nu_det=2, sigma_x2=9.0, pulses=10_000,
            rounds=400, eps_pe=0.01, seed=61)
        assert report.rounds == 400
        assert report.w == pytest.approx(2.3263478740408408, rel=1e-12)
        # each one-sided bound is designed to fail with probability <= eps_pe
        assert report.tau_low_rate <= 0.03
        assert report.tau_high_rate <= 0.03
        assert report.n_rate <= 0.03

    def test_report_rates(self):
        report = estimator_coverage_experiment(
            tau=0.3, nbar=0.02, nu_det=1, sigma_x2=9.0, pulses=2_000,
            rounds=50, eps_pe=0.05, seed=67)
        assert report.tau_low_rate == report.tau_low_failures / 50
        assert report.n_rate == report.n_failures / 50

    def test_validation(self):
        with pytest.raises(ValueError):
            estimator_coverage_experiment(0.3, 0.02, 2, 9.0, 100, 0, 0.01, 1)


class TestDistributionSpotChecks:
    def test_identity_channel_difference_variance(self):
        # tau = 1, nbar = 0, nu = 1: y - x is the detector vacuum, variance 1
        block = simulate_block(1.0, 0.0, 1, 9.0, 200_000, seed=21)
        var = float(np.mean((block.y - block.x) ** 2))
        se = math.sqrt(2.0 / block.pairs)
        assert abs(var - 1.0) <= 5 * se

    def test_histogram_mutual_information(self):
        # 64x64 equal-mass binning on 1e6 pairs reproduces the Gaussian value
        tau, nbar, nu_det, sigma_x2 = 0.5, 0.01, 2, 9.0
        block = simulate_block(tau, nbar, nu_det, sigma_x2, 500_000, seed=23)
        grid = np.linspace(0.0, 1.0, 65)
        edges_x = np.quantile(block.x, grid)
        edges_y = np.quantile(block.y, grid)
        edges_x[0] -= 1.0
        edges_x[-1] += 1.0
        edges_y[0] -= 1.0
        edges_y[-1] += 1.0
        counts, _, _ = np.histogram2d(block.x, block.y,
                                      bins=(edges_x, edges_y))
        p = counts / counts.sum()
        px = p.sum(axis=1, keepdims=True)
        py = p.sum(axis=0, keepdims=True)
        mask = p > 0
        mi_pair = float(np.sum(p[mask] * np.log2(p[mask] / (px @ py)[mask])))
        ch = ChannelPoint.from_estimates(tau, 1.0, nbar, 0.0, nu_det,
                                         sigma_x2 + 1.0)
        assert mi_pair == pytest.approx(mutual_information(ch) / nu_det,
                                        rel=0.02)

    def test_degenerate_pointing_error_pins_transmissivity(self):
        # sigma_P -> 0 concentrates the fading distribution at eta
        fad = FadingModel.from_geometry(BEAM, 5.0, 1e-2, 1e-9, 0.7)
        block = simulate_fading_block(fad, lambda t: 0.0 * t, 1, 9.0, 2000,
                                      seed=31)
        assert np.allclose(block.tau_samples, fad.eta, rtol=1e-3)


class TestSingleBinLattice:
    def test_defade_is_identity_on_kept_pairs(self):
        fad = fading_at(5.0)
        lat = FadingLattice(tau_min=0.8 * fad.eta, tau_max=fad.eta, bins=1)
        block = simulate_fading_block(fad, lambda t: 0.02 + 0.0 * t, 2, 9.0,
                                      20_000, seed=33)
        faded = defade_block(block, lat, seed=34)
        keep = lat.assign(block.tau_samples) >= 0
        assert np.array_equal(faded.y, block.y[keep])
        assert np.array_equal(faded.x, block.x[keep])


class TestZeroMarginCoverage:
    def test_w_zero_fails_half_the_time(self):
        # eps_pe = 0.5 gives w = 0: each one-sided bound is the bare
        # estimator, which undershoots or overshoots with probability 1/2
        report = estimator_coverage_experiment(
            tau=0.3, nbar=0.05, nu_det=2, sigma_x2=9.0, pulses=2_000,
            rounds=200, eps_pe=0.5, seed=71)
        assert report.w == pytest.approx(0.0, abs=1e-12)
        for rate in (report.tau_low_rate, report.tau_high_rate,
                     report.n_rate):
            assert 0.38 <= rate <= 0.62


def noise_failure_probability(nbar, nu_det, pulses, w):
    """Exact P(nbar' < nbar) per round for nbar' = max(n_hat, 0) + w s /
    sqrt(2m), with s = RSS / m and RSS / sigma_z^2 ~ chi^2(m - 1): nbar'
    grows with s, so the round fails iff s is below one threshold."""
    from scipy.special import gammainc

    m = nu_det * pulses
    slope = w / math.sqrt(2.0 * m)
    if slope * nu_det >= nbar:
        threshold = nbar / slope
    else:
        threshold = (nbar + nu_det / 2.0) / (0.5 + slope)
    sigma_z2 = 2.0 * nbar + nu_det
    return float(gammainc((m - 1) / 2.0, m * threshold / (2.0 * sigma_z2)))


class TestSufficientStatisticsSampler:
    """The O(1)-per-round sampler against the per-pulse path, the numpy
    oracle and the exact law. Every p-value threshold was fixed before the
    first run: at these settings the per-pulse path itself reads p from 0.03
    to 0.72 against the exact law, so 1e-3 is as tight as stays reliable."""

    TAU, NBAR, NU, SX2, PULSES = 0.3, 0.05, 2, 9.0, 2_000

    def sampled(self, rounds, seed, pulses=PULSES, nu=NU):
        return np.array(list(_sufficient_statistics(
            self.TAU, self.NBAR, nu, self.SX2, pulses, rounds, seed)))

    def test_matches_per_pulse_path(self):
        from scipy.stats import ks_2samp

        per_pulse = np.array([
            (snap.t_hat, snap.sigma_z2_hat) for snap in (
                simulate_block(self.TAU, self.NBAR, self.NU, self.SX2,
                               self.PULSES, seed=50_000 + k).estimators()
                for k in range(3_000))])
        sampled = self.sampled(3_000, seed=23)
        for col in (0, 1):  # T_hat, sigma_z2_hat
            assert ks_2samp(sampled[:, col], per_pulse[:, col]).pvalue > 1e-3

    def test_residual_follows_chi_square(self):
        from scipy.stats import chi2, kstest

        m = self.NU * self.PULSES
        rss = m * self.sampled(20_000, seed=29)[:, 1] / (2.0 * self.NBAR + self.NU)
        assert kstest(rss, chi2(m - 1).cdf).pvalue > 1e-3

    def test_paper_scale_block(self):
        # m = 2e9 disclosed pairs per round, out of reach pulse by pulse
        start = time.monotonic()
        rounds, pulses, eps_pe = 20_000, 10**9, 0.01
        report = sufficient_statistics_coverage(
            self.TAU, self.NBAR, self.NU, self.SX2, pulses, rounds, eps_pe,
            seed=31)
        assert time.monotonic() - start < 1.0
        p_n = noise_failure_probability(self.NBAR, self.NU, pulses, report.w)
        band = 5.0 * math.sqrt(p_n * (1.0 - p_n) / rounds) + 0.5 / rounds
        assert abs(report.n_rate - p_n) <= band
        limit = eps_pe + 3.0 * math.sqrt(eps_pe * (1.0 - eps_pe) / rounds)
        assert report.tau_low_rate <= limit
        assert report.tau_high_rate <= limit

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 1e3, 1e9])
    def test_gamma_draw_follows_gamma_law(self, a):
        # a = 0.5 takes the U^(1/a) boost: chi^2(1) of RSS at m = 2
        import random

        from scipy.stats import gamma, kstest

        draw = _gamma_draw(a, random.Random(47).random)
        assert kstest([draw() for _ in range(20_000)], gamma(a).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("nu, pulses", [(1, 2), (2, 2_000), (2, 10**9)])
    def test_matches_numpy_oracle(self, nu, pulses):
        from scipy.stats import ks_2samp

        sampled = self.sampled(20_000, seed=43, pulses=pulses, nu=nu)
        oracle = sufficient_statistics_oracle(self.TAU, self.NBAR, nu, self.SX2,
                                              pulses, 20_000, seed=43)
        for col in (0, 1):  # T_hat, sigma_z2_hat
            assert ks_2samp(sampled[:, col], oracle[:, col]).pvalue > 1e-3

    def test_rounds_distinct_and_reproducible(self):
        stats = self.sampled(70_000, seed=37)
        assert stats.shape == (70_000, 2)
        assert len(np.unique(stats[:, 0])) == len(np.unique(stats[:, 1])) == 70_000
        assert np.array_equal(stats, self.sampled(70_000, seed=37))

    def test_reproducible_and_seed_keyed(self):
        a = sufficient_statistics_coverage(0.3, 0.05, 2, 9.0, 2_000, 400,
                                           0.5, seed=41)
        assert a == sufficient_statistics_coverage(0.3, 0.05, 2, 9.0, 2_000,
                                                   400, 0.5, seed=41)
        assert self.sampled(50, seed=41).tolist() != \
            self.sampled(50, seed=42).tolist()

    def test_validation(self):
        for args in ((0.3, 0.05, 1, 9.0, 1, 10),   # one disclosed pair
                     (0.3, 0.05, 2, 9.0, 100, 0),  # no rounds
                     (1.5, 0.05, 2, 9.0, 100, 10),
                     (0.3, -0.1, 2, 9.0, 100, 10),
                     (0.3, 0.05, 3, 9.0, 100, 10),
                     (0.3, 0.05, 2, 0.0, 100, 10)):
            with pytest.raises(ValueError):
                sufficient_statistics_coverage(*args, 0.01, 1)
