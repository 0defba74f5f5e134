"""Gaussian-state linear algebra in shot-noise units.

Covariance matrices are real symmetric 2n x 2n arrays ordered as
(q1, p1, q2, p2, ...), with the vacuum normalised to the identity.
"""

from __future__ import annotations

import numpy as np

# entropic_h is the scalar kernel of the rate path, re-exported here
from .rates import BONA_FIDE_TOL, entropic_h  # noqa: F401

# Symmetry is relative to the matrix scale.
SYMMETRY_RTOL = 1e-12

Z2 = np.diag([1.0, -1.0])
I2 = np.eye(2)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = diag([[0,1],[-1,0]], ...)."""
    omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = omega1
    return out


def _as_matrix(V) -> np.ndarray:
    entries = V.entries if isinstance(V, CovarianceMatrix) else np.asarray(V, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
        raise ValueError(f"covariance matrix must be square with even size, got {entries.shape}")
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(entries - entries.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("covariance matrix is not symmetric within 1e-12 relative tolerance")
    return 0.5 * (entries + entries.T)


def symplectic_spectrum(V) -> np.ndarray:
    """Symplectic eigenvalues of a covariance matrix, sorted descending.

    Computed as the moduli of the eigenvalues of i*Omega*V, which come in
    +/- pairs; each adjacent pair is averaged to suppress round-off asymmetry.
    """
    mat = _as_matrix(V)
    n = mat.shape[0] // 2
    omega = symplectic_form(n)
    eig = np.linalg.eigvals(1j * omega @ mat)
    mods = np.sort(np.abs(eig))[::-1]
    return mods.reshape(n, 2).mean(axis=1)


def two_mode_symplectic_spectrum(V) -> np.ndarray:
    """Two-mode spectrum from the determinant shortcut (cross-check path).

    For V = [[A, C], [C^T, B]] the invariants Delta = det A + det B + 2 det C
    and det V give nu+-^2 = (Delta +- sqrt(Delta^2 - 4 det V)) / 2.
    """
    mat = _as_matrix(V)
    if mat.shape != (4, 4):
        raise ValueError("determinant shortcut is defined for two-mode matrices only")
    a = np.linalg.det(mat[:2, :2])
    b = np.linalg.det(mat[2:, 2:])
    c = np.linalg.det(mat[:2, 2:])
    delta = a + b + 2.0 * c
    disc = delta * delta - 4.0 * np.linalg.det(mat)
    disc = max(disc, 0.0)
    root = np.sqrt(disc)
    nu_plus = np.sqrt(max((delta + root) / 2.0, 0.0))
    nu_minus = np.sqrt(max((delta - root) / 2.0, 0.0))
    return np.array([nu_plus, nu_minus])


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


def two_mode_blocks(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Assemble [[A, C], [C^T, B]] from 2x2 blocks."""
    top = np.hstack([a, c])
    bottom = np.hstack([c.T, b])
    return np.vstack([top, bottom])


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
