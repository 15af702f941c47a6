"""Tests for the dense complex matrix kernel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relbell.errors import DimensionMismatch, NonHermitianInput
from relbell.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    dagger,
    herm_eig,
    is_hermitian,
    kron,
    max_abs,
    pauli_dot,
    phase_fixed,
)

# Entries whose pairwise products are exact in binary floating point, so the
# Kronecker associativity check below can demand bitwise equality.
_EXACT_ENTRIES = [0.0, 1.0, -1.0, 0.5, 2.0, 1j, -1j]

exact_matrix = st.lists(
    st.sampled_from(_EXACT_ENTRIES), min_size=4, max_size=4
).map(lambda entries: np.array(entries, dtype=complex).reshape(2, 2))


class TestKron:
    def test_identity_blocks(self):
        assert np.array_equal(kron(ID2, ID2), np.eye(4, dtype=complex))

    def test_sigma_z_with_identity(self):
        assert np.array_equal(kron(SIGMA_Z, ID2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_flip_both_spins(self):
        # sigma_x tensor sigma_x maps |00> to |11>.
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        e3 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.array_equal(kron(SIGMA_X, SIGMA_X) @ e0, e3)

    def test_vector_kron_shape(self):
        up = np.array([1, 0], dtype=complex)
        down = np.array([0, 1], dtype=complex)
        out = kron(up, down)
        assert out.shape == (4,)
        assert np.array_equal(out, np.array([0, 1, 0, 0], dtype=complex))

    @given(a=exact_matrix, b=exact_matrix, c=exact_matrix)
    def test_associativity(self, a, b, c):
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    @given(a=exact_matrix, b=exact_matrix)
    def test_mixed_product_with_vectors(self, a, b):
        u = np.array([1, 0], dtype=complex)
        v = np.array([0.5, -1j], dtype=complex)
        left = kron(a, b) @ kron(u, v)
        right = kron(a @ u, b @ v)
        assert_allclose(left, right, atol=1e-15)


class TestHermEig:
    def test_sigma_z(self):
        w, v = herm_eig(SIGMA_Z)
        assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        assert_allclose(v[:, 0], [0, 1], atol=1e-15)
        assert_allclose(v[:, 1], [1, 0], atol=1e-15)

    def test_sigma_x_phase_convention(self):
        w, v = herm_eig(SIGMA_X)
        assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        s = np.sqrt(0.5)
        # Leading nonzero component of each column is real and positive.
        assert_allclose(v[:, 0], [s, -s], atol=1e-15)
        assert_allclose(v[:, 1], [s, s], atol=1e-15)

    def test_ascending_order_and_residual(self, rng):
        for _ in range(25):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = raw + dagger(raw)
            w, v = herm_eig(a)
            assert np.all(np.diff(w) >= 0)
            assert max_abs(a @ v - v * w) < 1e-10
            assert max_abs(dagger(v) @ v - np.eye(4)) < 1e-12
            assert abs(np.sum(w) - np.trace(a).real) < 1e-10

    def test_reconstruction(self, rng):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = raw + dagger(raw)
        w, v = herm_eig(a)
        assert max_abs(v @ np.diag(w) @ dagger(v) - a) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            herm_eig(np.zeros((2, 3), dtype=complex))

    def test_hermiticity_tolerance_is_fixed(self):
        # The tolerance is fixed at 1e-10: a 1e-6 deviation is rejected,
        # a 1e-11 one is symmetrized away.
        with pytest.raises(NonHermitianInput):
            herm_eig(np.array([[1.0, 1e-6], [0.0, -1.0]], dtype=complex))
        w, _ = herm_eig(np.array([[1.0, 1e-11], [0.0, -1.0]], dtype=complex))
        assert_allclose(w, [-1.0, 1.0], atol=1e-15)


class TestPhaseFixed:
    def test_rotates_leading_component_positive(self):
        v = np.array([-1j, 2.0], dtype=complex)
        out = phase_fixed(v)
        assert out[0].real > 0
        assert abs(out[0].imag) < 1e-15
        assert_allclose(np.abs(out), np.abs(v), atol=1e-15)

    def test_skips_negligible_leading_entries(self):
        v = np.array([1e-15, -2.0], dtype=complex)
        out = phase_fixed(v)
        assert out[1].real > 0

    def test_zero_vector_unchanged(self):
        v = np.zeros(3, dtype=complex)
        assert np.array_equal(phase_fixed(v), v)


class TestCommutator:
    def test_pauli_algebra(self):
        assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15)
        assert_allclose(commutator(SIGMA_Y, SIGMA_Z), 2j * SIGMA_X, atol=1e-15)
        assert_allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y, atol=1e-15)

    def test_identity_commutes(self):
        assert max_abs(commutator(ID2, SIGMA_Y)) == 0.0

    def test_antisymmetry(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert max_abs(commutator(a, b) + commutator(b, a)) < 1e-12

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            commutator(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            commutator(np.zeros((2, 3), dtype=complex), np.zeros((2, 3), dtype=complex))


class TestHelpers:
    def test_pauli_dot_unit_z(self):
        assert np.array_equal(pauli_dot(np.array([0.0, 0.0, 1.0])), SIGMA_Z)

    def test_pauli_dot_general(self):
        v = np.array([0.3, -0.4, 1.2])
        expected = 0.3 * SIGMA_X - 0.4 * SIGMA_Y + 1.2 * SIGMA_Z
        assert_allclose(pauli_dot(v), expected, atol=1e-15)

    def test_is_hermitian(self):
        assert is_hermitian(SIGMA_Y)
        assert not is_hermitian(SIGMA_Y + 1e-6 * np.array([[0, 1], [0, 0]]))

    def test_max_abs(self):
        assert max_abs(np.zeros((2, 2), dtype=complex)) == 0.0
        assert max_abs(np.array([[1.0, -3.0j], [0.0, 2.0]])) == 3.0
        assert max_abs(np.zeros((0, 3))) == 0.0
