"""Oracle tests for the Gaussian-state linear algebra kernel."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvqkd.gaussian import (
    entropic_h,
    symplectic_form,
    symplectic_spectrum,
    two_mode_blocks,
    two_mode_symplectic_spectrum,
)
from oracles import CovarianceMatrix, condition_on_heterodyne, condition_on_homodyne


def thermal_entropy_fock(nbar: float, cutoff: int = 200) -> float:
    """Von Neumann entropy of a thermal state by direct Fock-basis summation."""
    n = np.arange(cutoff + 1)
    p = nbar**n / (nbar + 1.0) ** (n + 1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.3) -> np.ndarray:
    """exp(Omega A) with A symmetric is symplectic."""
    omega = symplectic_form(n_modes)
    a = rng.normal(scale=scale, size=(2 * n_modes, 2 * n_modes))
    a = 0.5 * (a + a.T)
    return expm(omega @ a)


def williamson_cm(nu: np.ndarray, s: np.ndarray) -> np.ndarray:
    diag = np.repeat(np.asarray(nu, dtype=float), 2)
    return s @ np.diag(diag) @ s.T


def entropy_sum(spectrum) -> float:
    """Sum of h over a symplectic spectrum, one eigenvalue at a time."""
    return sum(entropic_h(float(nu)) for nu in spectrum)


class TestEntropicH:
    def test_matches_fock_space_sum(self):
        for nbar in (0.05, 0.3, 1.0, 2.5):
            assert entropic_h(1.0 + 2.0 * nbar) == pytest.approx(
                thermal_entropy_fock(nbar), abs=1e-8
            )

    def test_matches_photon_number_identity(self):
        # h(2 nbar + 1) = (nbar+1) log2(nbar+1) - nbar log2(nbar)
        for nbar in np.linspace(0.01, 20.0, 37):
            expect = (nbar + 1.0) * math.log2(nbar + 1.0) - nbar * math.log2(nbar)
            assert entropic_h(2.0 * nbar + 1.0) == pytest.approx(expect, rel=1e-12)

    def test_vacuum_is_zero(self):
        assert entropic_h(1.0) == 0.0

    def test_clamps_spectral_roundoff(self):
        assert entropic_h(1.0 - 5e-10) == 0.0

    def test_rejects_unphysical_argument(self):
        with pytest.raises(ValueError):
            entropic_h(0.9)
        with pytest.raises(ValueError):
            entropic_h(np.float64(0.2))

    def test_monotone(self):
        hs = [entropic_h(float(x)) for x in np.linspace(1.0, 25.0, 101)]
        assert all(a < b for a, b in zip(hs, hs[1:]))

    def test_scalar_returns_float(self):
        assert isinstance(entropic_h(3.0), float)

    def test_scalar_path_matches_array_path(self):
        # the scalar math kernel against the array formula it replaced,
        # written out in numpy: clamp at 1, then h element by element
        xs = [1.0 - 5e-10, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.5, 3, 40.0, 1e6]
        arr = np.maximum(np.array(xs, dtype=float), 1.0)
        plus, minus = (arr + 1.0) / 2.0, (arr - 1.0) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            arr = plus * np.log2(plus) - np.where(
                minus > 0.0, minus * np.log2(np.where(minus > 0.0, minus, 1.0)), 0.0)
        for x, expect in zip(xs, arr):
            assert entropic_h(x) == pytest.approx(expect, rel=1e-14, abs=1e-300)
            assert entropic_h(np.float64(x)) == pytest.approx(expect, rel=1e-14,
                                                              abs=1e-300)

    def test_scalar_path_domain_error_matches(self):
        for bad in (0.9, 1.0 - 2e-9, -1.0):
            with pytest.raises(ValueError, match="entropic_h domain error"):
                entropic_h(bad)
            with pytest.raises(ValueError, match="entropic_h domain error"):
                entropic_h(np.float64(bad))


class TestSymplecticForm:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = symplectic_form(n)
            assert np.array_equal(omega, -omega.T)
            assert np.allclose(omega @ omega, -np.eye(2 * n))


class TestSymplecticSpectrum:
    def test_planted_spectrum_recovered(self):
        # Williamson construction: the spectrum is known by construction.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            nu = np.sort(rng.uniform(1.0, 6.0, size=2))[::-1]
            s = random_symplectic(2, rng)
            v = williamson_cm(nu, s)
            got = symplectic_spectrum(v)
            assert np.allclose(got, nu, atol=1e-9, rtol=1e-9)

    def test_determinant_shortcut_agrees(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            nu = np.sort(rng.uniform(1.0, 6.0, size=2))[::-1]
            v = williamson_cm(nu, random_symplectic(2, rng))
            assert np.allclose(
                two_mode_symplectic_spectrum(v), symplectic_spectrum(v), atol=1e-9
            )

    def test_invariant_under_symplectic_conjugation(self):
        rng = np.random.default_rng(13)
        nu = np.array([3.0, 1.2])
        v = williamson_cm(nu, random_symplectic(2, rng))
        s = random_symplectic(2, rng)
        assert np.allclose(
            symplectic_spectrum(s @ v @ s.T), symplectic_spectrum(v), atol=1e-9
        )

    def test_shortcut_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            two_mode_symplectic_spectrum(np.eye(6))

    def test_rejects_asymmetric_input(self):
        v = np.eye(4)
        v[0, 1] = 1e-6
        with pytest.raises(ValueError):
            symplectic_spectrum(v)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            symplectic_spectrum(np.eye(3))


def tmsv(mu: float) -> np.ndarray:
    """Two-mode squeezed vacuum with local variance mu >= 1."""
    c = math.sqrt(mu * mu - 1.0)
    return two_mode_blocks(mu * np.eye(2), mu * np.eye(2), c * np.diag([1.0, -1.0]))


class TestCovarianceMatrix:
    def test_vacuum_and_thermal(self):
        assert np.allclose(CovarianceMatrix(np.eye(4)).symplectic_spectrum(), 1.0)
        th = CovarianceMatrix(3.0 * np.eye(2))
        assert th.symplectic_spectrum() == pytest.approx(3.0)

    def test_tmsv_is_pure_with_correct_blocks(self):
        mu = 4.0
        cm = CovarianceMatrix(tmsv(mu))
        assert np.allclose(cm.symplectic_spectrum(), 1.0, atol=1e-12)
        # each half alone is thermal with variance mu
        assert np.allclose(symplectic_spectrum(cm.entries[:2, :2]), mu)
        assert np.allclose(symplectic_spectrum(cm.entries[2:, 2:]), mu)

    def test_require_physical(self):
        squeezed_below_vacuum = CovarianceMatrix(np.diag([0.3, 0.3]))
        with pytest.raises(ValueError):
            squeezed_below_vacuum.require_physical()
        CovarianceMatrix(tmsv(10.0)).require_physical()

    def test_symmetry_enforced_on_construction(self):
        bad = np.eye(4)
        bad[2, 0] = 1e-3
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)


class TestConditioning:
    @staticmethod
    def joint_state(rng):
        """TMSV(B,E1) tensor thermal(E2), stirred by a symplectic on Eve only.

        Bob's reduced block stays mu * I; Eve gains cross-correlations.
        """
        mu, omega = 5.0, 2.4
        v = np.zeros((6, 6))
        v[:4, :4] = tmsv(mu)
        v[4:, 4:] = omega * np.eye(2)
        s_eve = np.eye(6)
        s_eve[2:, 2:] = random_symplectic(2, rng)
        v = s_eve @ v @ s_eve.T
        b = v[0, 0]
        cross = v[:2, 2:]  # Bob rows x Eve columns
        v_eve = v[2:, 2:]
        return b, cross, v_eve

    def test_homodyne_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(19)
        pi = np.diag([1.0, 0.0])
        for _ in range(50):
            b, cross, v_eve = self.joint_state(rng)
            oracle = v_eve - cross.T @ np.linalg.pinv(pi * b) @ cross
            got = condition_on_homodyne(v_eve, cross, b)
            assert np.allclose(got, oracle, atol=1e-10)
            CovarianceMatrix(got).require_physical()

    def test_heterodyne_matches_solve_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            b, cross, v_eve = self.joint_state(rng)
            oracle = v_eve - cross.T @ np.linalg.inv(b * np.eye(2) + np.eye(2)) @ cross
            got = condition_on_heterodyne(v_eve, cross, b)
            assert np.allclose(got, oracle, atol=1e-10)
            CovarianceMatrix(got).require_physical()

    def test_measurement_never_increases_entropy_sum(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            b, cross, v_eve = self.joint_state(rng)
            before = entropy_sum(symplectic_spectrum(v_eve))
            hom = entropy_sum(symplectic_spectrum(condition_on_homodyne(v_eve, cross, b)))
            het = entropy_sum(symplectic_spectrum(condition_on_heterodyne(v_eve, cross, b)))
            assert hom <= before + 1e-12
            assert het <= before + 1e-12


class TestTwoModeBlocks:
    def test_layout(self):
        a = 2.0 * np.eye(2)
        b = 3.0 * np.eye(2)
        c = 0.5 * np.diag([1.0, -1.0])
        v = two_mode_blocks(a, b, c)
        assert v.shape == (4, 4)
        assert np.allclose(v[:2, :2], a)
        assert np.allclose(v[2:, 2:], b)
        assert np.allclose(v[:2, 2:], c)
        assert np.allclose(v, v.T)
