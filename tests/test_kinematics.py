"""Tests for velocity handling and the velocity-deformed spin direction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_beta, random_direction, unit
from relbell.errors import GammaInconsistent
from relbell.kinematics import (
    BeamVelocity,
    alpha_norm,
    alpha_vector,
    check_unit,
    decompose,
    lengths_and_directions,
    orthonormal_triad,
    spin_eigenvalues,
    spin_structure_constants,
    unit_vector,
    w_projection_eigenvalues,
)
from relbell.linalg import herm_eig, max_abs, pauli_dot

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

# A speed of 1.0 times a unit direction can round to |beta| = 1 + 2^-52,
# which BeamVelocity rightly rejects as superluminal; such draws are not
# velocities and are dropped.
beta_vectors = st.builds(
    lambda mag, seed: mag * random_direction(np.random.default_rng(seed)),
    mag=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
).filter(lambda beta: np.linalg.norm(beta) <= 1.0)
directions = st.builds(
    lambda seed: random_direction(np.random.default_rng(seed)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestBeamVelocity:
    def test_rest_defaults_to_z_axis(self):
        v = BeamVelocity.of([0.0, 0.0, 0.0])
        assert v.magnitude == 0.0
        assert np.array_equal(v.direction, Z)
        assert v.gamma == 1.0

    def test_direction_and_gamma(self):
        v = BeamVelocity.of([0.6, 0.0, 0.0])
        assert_allclose(v.magnitude, 0.6, atol=1e-15)
        assert_allclose(v.direction, X, atol=1e-15)
        assert_allclose(v.gamma, 1.25, atol=1e-15)

    def test_luminal_gamma_is_infinite(self):
        v = BeamVelocity.of(Z)
        assert v.magnitude == 1.0
        assert math.isinf(v.gamma)

    def test_rejects_superluminal(self):
        with pytest.raises(ValueError):
            BeamVelocity.of([1.0 + 1e-9, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BeamVelocity.of([math.nan, 0.0, 0.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            BeamVelocity.of([0.1, 0.2])

    def test_direction_is_unit_where_the_squares_underflow(self):
        beta = [1.00489977e-157, -1.05584915e-157, 5.11858302e-157]
        v = BeamVelocity.of(beta)
        assert abs(np.linalg.norm(v.direction) - 1.0) < 1e-15
        assert_allclose(v.direction * v.magnitude, beta, rtol=1e-15)
        assert check_unit(v.direction) is not None

    def test_other_velocities_keep_their_bits(self, rng):
        # Only inputs whose squared norm loses bits take the rescaled route.
        for scale in (1.0, 1e-3, 1e-100, 1e-140):
            for _ in range(50):
                beta = scale * random_beta(rng)
                v = BeamVelocity.of(beta)
                norm = np.linalg.norm(beta)
                assert v.magnitude == norm
                assert np.array_equal(v.direction, beta / norm)


class TestLengthsAndDirections:
    def test_rows(self, rng):
        v = np.array([random_beta(rng) for _ in range(20)] + [np.zeros(3), [0.0, 3e-170, -4e-170]])
        length, direction = lengths_and_directions(v)
        assert np.array_equal(length[:20], np.sqrt(np.einsum("ij,ij->i", v[:20], v[:20])))
        assert np.array_equal(direction[:20], v[:20] / length[:20, None])
        assert length[20] == 0.0 and np.array_equal(direction[20], np.zeros(3))
        assert_allclose(length[21], 5e-170, rtol=1e-15)
        assert_allclose(direction[21], [0.0, 0.6, -0.8], atol=1e-15)


class TestDecompose:
    def test_perpendicular_case(self):
        par, perp = decompose(X, Z)
        assert np.array_equal(par, np.zeros(3))
        assert np.array_equal(perp, X)

    def test_parallel_case(self):
        par, perp = decompose(Z, Z)
        assert np.array_equal(par, Z)
        assert np.array_equal(perp, np.zeros(3))

    def test_components_recombine(self, rng):
        for _ in range(50):
            a = random_direction(rng)
            n = random_direction(rng)
            par, perp = decompose(a, n)
            assert_allclose(par + perp, a, atol=1e-15)
            assert abs(np.dot(perp, n)) < 1e-14
            assert max_abs(np.cross(par, n)) < 1e-14


class TestAlphaVector:
    def test_rest_is_identity(self, rng):
        a = random_direction(rng)
        assert np.array_equal(alpha_vector(a, np.zeros(3)), a)

    def test_hand_worked_case(self):
        # beta = 0.8 along x, a at 45 degrees in the x-y plane: the
        # transverse component shrinks by sqrt(1 - 0.64) = 0.6.
        a = unit([1.0, 1.0, 0.0])
        beta = np.array([0.8, 0.0, 0.0])
        expected = np.array([1.0 / math.sqrt(2.0), 0.6 / math.sqrt(2.0), 0.0])
        assert_allclose(alpha_vector(a, beta), expected, atol=1e-15)
        assert_allclose(alpha_norm(a, beta), math.sqrt(0.68), atol=1e-15)

    def test_transverse_collapse_at_light_speed(self):
        assert_allclose(alpha_vector(X, Z), np.zeros(3), atol=1e-15)
        assert alpha_norm(X, Z) == 0.0

    def test_longitudinal_component_is_preserved(self, rng):
        beta = random_beta(rng)
        n = beta / np.linalg.norm(beta)
        assert_allclose(alpha_vector(n, beta), n, atol=1e-15)
        assert_allclose(alpha_norm(n, beta), 1.0, atol=1e-14)

    def test_norm_matches_vector(self, rng):
        for _ in range(100):
            a = random_direction(rng)
            beta = random_beta(rng)
            assert_allclose(
                alpha_norm(a, beta), np.linalg.norm(alpha_vector(a, beta)), atol=1e-14
            )

    @settings(max_examples=200, deadline=None)
    @given(a=directions, beta=beta_vectors)
    def test_norm_bounds(self, a, beta):
        b = np.linalg.norm(beta)
        value = alpha_norm(a, beta)
        assert math.sqrt(max(1.0 - b * b, 0.0)) - 1e-12 <= value <= 1.0 + 1e-12


class TestAlphaVectorPrecision:
    """alpha_vector against a 50-digit mpmath evaluation of the same float
    speed, direction and axis."""

    @staticmethod
    def reference(a, bv):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m = mpmath.mpf(bv.magnitude)
            n = [mpmath.mpf(x) for x in bv.direction]
            av = [mpmath.mpf(x) for x in a]
            na = sum(x * y for x, y in zip(n, av))
            factor = mpmath.sqrt(1 - m * m)
            return factor, [factor * (x - na * y) + na * y for x, y in zip(av, n)]

    def test_transverse_factor_near_light_speed(self):
        # With the axis orthogonal to the motion, alpha is the transverse
        # factor times the axis: within 2 ulp relative at every gap to 1.
        for k in range(1, 16):
            speed = 1.0 - 10.0**-k
            bv = BeamVelocity(beta=speed * X, magnitude=speed, direction=X)
            factor, _ = self.reference(Y, bv)
            got = alpha_vector(Y, bv)
            assert got[0] == 0.0 and got[2] == 0.0
            assert abs(got[1] - factor) <= 2 * np.finfo(float).eps * factor, k

    @settings(max_examples=200, deadline=None)
    @given(a=directions, n=directions, exponent=st.floats(min_value=-12.0, max_value=0.0))
    def test_matches_the_reference(self, a, n, exponent):
        speed = 1.0 - 10.0**exponent
        bv = BeamVelocity(beta=speed * n, magnitude=speed, direction=n)
        _, ref = self.reference(a, bv)
        got = alpha_vector(a, bv)
        assert max(abs(float(r - g)) for r, g in zip(ref, got)) <= 4e-15


class TestSpinEigenvalues:
    def test_transverse_compression(self):
        spectrum = spin_eigenvalues(X, np.array([0.0, 0.0, 0.6]))
        assert spectrum.j == 0.5
        assert_allclose(spectrum.eigenvalues, [-0.4, 0.4], atol=1e-15)

    def test_matches_matrix_spectrum(self, rng):
        # Independent route: diagonalize (alpha . sigma) / 2 directly.
        for _ in range(25):
            a = random_direction(rng)
            beta = random_beta(rng)
            spectrum = spin_eigenvalues(a, beta)
            w, _ = herm_eig(pauli_dot(alpha_vector(a, beta)) / 2.0)
            assert_allclose(spectrum.eigenvalues, w, atol=1e-13)

    def test_longitudinal_axis_undistorted(self, rng):
        beta = random_beta(rng)
        n = beta / np.linalg.norm(beta)
        assert_allclose(spin_eigenvalues(n, beta).eigenvalues, [-0.5, 0.5], atol=1e-14)

    def test_higher_spin_ladder(self):
        spectrum = spin_eigenvalues(X, np.zeros(3), j=1.5)
        assert_allclose(spectrum.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-15)

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            spin_eigenvalues(X, np.zeros(3), j=0.3)
        with pytest.raises(ValueError):
            spin_eigenvalues(X, np.zeros(3), j=-0.5)


class TestWProjection:
    def test_transverse_values_are_velocity_independent(self):
        # gamma sqrt(1 - beta^2) = 1 on transverse axes: always +-1/2.
        for mag in [0.0, 0.3, 0.6, 0.9, 0.999]:
            gamma = 1.0 / math.sqrt(1.0 - mag * mag)
            vals = w_projection_eigenvalues(X, np.array([0.0, 0.0, mag]), gamma)
            assert_allclose(vals, [-0.5, 0.5], atol=1e-12)

    def test_longitudinal_values_grow_with_gamma(self):
        beta = np.array([0.0, 0.0, 0.99])
        gamma = 1.0 / math.sqrt(1.0 - 0.99**2)
        vals = w_projection_eigenvalues(Z, beta, gamma)
        assert_allclose(vals, [-gamma / 2.0, gamma / 2.0], atol=1e-12)
        assert_allclose(vals[1], 3.544, atol=1e-3)

    def test_rejects_inconsistent_gamma(self):
        with pytest.raises(GammaInconsistent):
            w_projection_eigenvalues(X, np.array([0.0, 0.0, 0.6]), 1.2)


class TestStructureConstants:
    # c is a (3, 3, 3) array, indices zero-based: c[0, 1, 2] multiplies
    # S_3 in [S_1, S_2] = i c_{12m} S_m.

    def test_rest_recovers_rotation_algebra(self):
        c = spin_structure_constants(np.zeros(3))
        assert c[0, 1, 2] == 1.0
        assert c[1, 2, 0] == 1.0
        assert c[2, 0, 1] == 1.0
        assert c[1, 0, 2] == -1.0

    def test_deformation_at_eight_tenths(self):
        c = spin_structure_constants(np.array([0.0, 0.0, 0.8]))
        assert_allclose(c[0, 1, 2], 1.0 - 0.64, atol=1e-12)
        assert_allclose(c[1, 2, 0], 1.0, atol=1e-12)
        assert_allclose(c[2, 0, 1], 1.0, atol=1e-12)
        assert_allclose(c[1, 0, 2], -(1.0 - 0.64), atol=1e-12)
        assert_allclose(c[0, 2, 1], -1.0, atol=1e-12)

    def test_luminal_contraction(self):
        # At |beta| = 1 the bracket [S1, S2] vanishes while the other two
        # keep unit constants: the algebra contracts to the Euclidean
        # group of the plane.
        c = spin_structure_constants(Z)
        assert c[0, 1, 2] == 0.0
        assert c[1, 2, 0] == 1.0
        assert c[2, 0, 1] == 1.0

    def test_recontraction_against_matrices(self, rng):
        # Rebuild i c_{klm} S_m from the returned constants and compare
        # with the commutators of the deformed spin matrices themselves.
        for mag in [0.0, 0.35, 0.8, 0.99]:
            beta = mag * random_direction(rng)
            triad = orthonormal_triad(beta / mag if mag > 0 else Z)
            c = spin_structure_constants(beta)
            s = [pauli_dot(alpha_vector(e, beta)) / 2.0 for e in triad]
            for k in range(3):
                for l in range(3):
                    lhs = s[k] @ s[l] - s[l] @ s[k]
                    rhs = sum(1j * c[k, l, m] * s[m] for m in range(3))
                    assert max_abs(lhs - rhs) < 1e-12


class TestTriad:
    def test_orthonormal_and_right_handed(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            e1, e2, e3 = orthonormal_triad(n)
            assert np.array_equal(e3, n)
            g = np.array([e1, e2, e3])
            assert max_abs(g @ g.T - np.eye(3)) < 1e-16 * 100
            assert_allclose(np.cross(e1, e2), e3, atol=1e-14)

    def test_axis_aligned_inputs(self):
        for n in (X, Y, Z, -Z):
            e1, e2, e3 = orthonormal_triad(n)
            assert np.array_equal(e3, n)
            assert abs(np.dot(e1, e2)) < 1e-15


class TestUnitHelpers:
    def test_unit_vector_normalizes(self):
        assert_allclose(unit_vector([0.0, 0.0, 2.5]), Z, atol=1e-15)

    def test_unit_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_vector([0.0, 0.0, 0.0])

    def test_check_unit_names_the_offender(self):
        with pytest.raises(ValueError, match="analyzer_a"):
            check_unit(np.array([0.0, 0.0, 1.1]), "analyzer_a")
