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
    alpha_lengths,
    alpha_norm,
    alpha_vector,
    check_unit,
    lengths_and_directions,
    orthonormal_triad,
    spin_eigenvalues,
    spin_structure_constants,
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
        # Only inputs whose squared norm loses bits take the rescaled route;
        # the others get the einsum length of lengths_and_directions.
        for scale in (1.0, 1e-3, 1e-100, 1e-140):
            for _ in range(50):
                beta = scale * random_beta(rng)
                v = BeamVelocity.of(beta)
                norm = np.sqrt(np.einsum("j,j->", beta, beta))
                assert v.magnitude == norm == lengths_and_directions(beta)[0]
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

    @pytest.mark.filterwarnings("error")
    def test_huge_and_non_finite_rows(self):
        v = np.array([[1e200, 1e200, 0.0], [3e307, 4e307, 0.0], [math.inf, 0.0, 0.0],
                      [math.nan, 1.0, 0.0], [0.6, 0.8, 0.0]])
        length, direction = lengths_and_directions(v)
        assert_allclose(length[:2], [math.sqrt(2.0) * 1e200, 5e307], rtol=1e-15)
        assert_allclose(direction[:2], [[math.sqrt(0.5), math.sqrt(0.5), 0.0], [0.6, 0.8, 0.0]],
                        atol=1e-15)
        assert length[2] == math.inf and math.isnan(length[3])
        assert np.array_equal(direction[2:4], v[2:4], equal_nan=True)
        assert length[4] == np.sqrt(np.einsum("j,j->", v[4], v[4]))
        assert np.array_equal(direction[4], v[4] / length[4])

    def test_single_vector(self):
        # One (3,) vector, as orthonormal_triad passes it, on the plain
        # and on the rescaled path.
        for v, scale in (([0.0, 0.0, 2.5], 2.5), ([0.0, 0.0, 2.5e-300], 2.5e-300)):
            length, direction = lengths_and_directions(np.array(v))
            assert direction.shape == (3,) and length.shape == ()
            assert length == scale and np.array_equal(direction, Z)


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


class TestAlphaLengths:
    def test_batch_rows_are_the_scalar_norms(self, rng):
        # (6, 4, 3) axes against (6,) speeds and (6, 3) directions; one of
        # them at light speed.
        axes = np.array([[random_direction(rng) for _ in range(4)] for _ in range(6)])
        direction = np.array([random_direction(rng) for _ in range(6)])
        speed = np.append(rng.uniform(0.0, 1.0, 5), 1.0)
        n_dot, len2 = alpha_lengths(axes, speed, direction)
        assert n_dot.shape == len2.shape == (6, 4)
        for k in range(6):
            bv = BeamVelocity(beta=speed[k] * direction[k], magnitude=float(speed[k]),
                              direction=direction[k])
            for j in range(4):
                assert_allclose(n_dot[k, j], direction[k] @ axes[k, j], rtol=0.0, atol=1e-15)
                assert math.sqrt(len2[k, j]) == alpha_norm(axes[k, j], bv)
                assert_allclose(alpha_norm(axes[k, j], bv),
                                np.linalg.norm(alpha_vector(axes[k, j], bv)), atol=1e-14)
        assert_allclose(np.sqrt(len2[5]), np.abs(n_dot[5]), rtol=1e-15, atol=0.0)

    def test_scalar_speed_broadcasts(self):
        n_dot, len2 = alpha_lengths(np.array([X, Y, Z]), 0.6, Z)
        assert n_dot.tolist() == [0.0, 0.0, 1.0]
        assert_allclose(len2, [0.64, 0.64, 1.0], rtol=1e-15, atol=0.0)


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
        assert_allclose(spectrum, [-0.4, 0.4], atol=1e-15)

    def test_matches_matrix_spectrum(self, rng):
        # Independent route: diagonalize (alpha . sigma) / 2 directly.
        for _ in range(25):
            a = random_direction(rng)
            beta = random_beta(rng)
            spectrum = spin_eigenvalues(a, beta)
            w, _ = herm_eig(pauli_dot(alpha_vector(a, beta)) / 2.0)
            assert_allclose(spectrum, w, atol=1e-13)

    def test_longitudinal_axis_undistorted(self, rng):
        beta = random_beta(rng)
        n = beta / np.linalg.norm(beta)
        assert_allclose(spin_eigenvalues(n, beta), [-0.5, 0.5], atol=1e-14)

    def test_higher_spin_ladder(self):
        spectrum = spin_eigenvalues(X, np.zeros(3), j=1.5)
        assert_allclose(spectrum, [-1.5, -0.5, 0.5, 1.5], atol=1e-15)

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

    def test_reference_switch_keeps_e1_unit(self):
        # ref x n has length >= sqrt(1 - 0.9^2) on both sides of the switch
        # at |n_z| = 0.9, so e1 is never the direction of a zero vector.
        for nz in (0.9, np.nextafter(0.9, 1.0), -0.9, 1.0, -1.0):
            for phi in (0.0, 1.0, math.pi / 2):
                rho = math.sqrt(1.0 - nz * nz)
                n = np.array([rho * math.cos(phi), rho * math.sin(phi), nz])
                n = n / np.linalg.norm(n)
                e1, e2, e3 = orthonormal_triad(n)
                g = np.array([e1, e2, e3])
                assert max_abs(g @ g.T - np.eye(3)) < 1e-15
                assert_allclose(np.cross(e1, e2), e3, atol=1e-15)


class TestUnitHelpers:
    def test_check_unit_names_the_offender(self):
        with pytest.raises(ValueError, match="analyzer_a"):
            check_unit(np.array([0.0, 0.0, 1.1]), "analyzer_a")

    def test_single_vector_entry_points_reject_batches(self):
        # Without labels check_unit takes one 3-vector, as every
        # single-axis entry point expects; a (1, 3) array is reshaped.
        pair = np.array([Z, Z])
        for call in (lambda v: check_unit(v), orthonormal_triad,
                     lambda v: alpha_vector(v, [0.5, 0.0, 0.0])):
            with pytest.raises(ValueError):
                call(pair)
        assert check_unit(Z[None]).shape == (3,)
        assert check_unit(pair, "axis", "row") is not None
