"""Dense complex linear algebra for the spin-correlation modules.

Everything operates on plain numpy arrays of complex dtype. The matrices
involved are tiny (2x2 single-particle operators up to 16x16 two-particle
products), so the emphasis is on reproducibility: a fixed eigenvalue
ordering and a fixed eigenvector phase convention, not speed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)

#: The largest entry of |a - a^H| that herm_eig accepts by default.
HERMITICITY_TOL = 1e-10


def max_abs(a) -> float:
    """Largest entry magnitude; the norm used in all residual checks."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def is_hermitian(a, tol: float = 1e-12) -> bool:
    """True when a equals its conjugate transpose within tol (entrywise)."""
    a = np.asarray(a, dtype=complex)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and max_abs(a - dagger(a)) <= tol


def pauli_dot(v) -> np.ndarray:
    """The 2x2 matrix v . sigma for a real 3-vector v."""
    v = np.asarray(v, dtype=float)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def kron(a, b) -> np.ndarray:
    """Kronecker product, promoting both operands to complex arrays.

    Works for matrices (observable products) and vectors (state products)
    alike; the result dimension is the product of the operand dimensions.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator(a, b) -> np.ndarray:
    """a b - b a for two equal-sized square matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"commutator needs square matrices, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator operands differ in size: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def phase_fixed(v, threshold: float = 1e-12) -> np.ndarray:
    """Rescale a complex vector so its first component of non-negligible
    magnitude is real and positive.

    The vector keeps its norm. A vector with no component above the
    threshold is returned unchanged.
    """
    v = np.asarray(v, dtype=complex)
    for x in v.flat:
        if abs(x) > threshold:
            return v * (abs(x) / x)
    return v


def hermitian_deviation(a) -> np.ndarray:
    """Largest entry of |a - a^H| for each matrix of an (..., n, n) stack."""
    a = np.asarray(a)
    return np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1))


def herm_eig(a, hermiticity_tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix with fixed conventions.

    Returns (w, v): eigenvalues w ascending, eigenvectors as the columns
    of v, each unit-normalized with its first non-negligible component
    real positive. Raises NonHermitianInput when a deviates from its
    conjugate transpose by more than hermiticity_tol in any entry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"herm_eig needs a square matrix, got shape {a.shape}")
    deviation = float(hermitian_deviation(a))
    if deviation > hermiticity_tol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {deviation:.3e}")
    # Symmetrize before calling LAPACK; a bitwise no-op for exactly
    # Hermitian input, and it halves the error for almost-Hermitian input.
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    v = v.copy()
    for k in range(v.shape[1]):
        v[:, k] = phase_fixed(v[:, k])
    return w, v
