"""Tests for the pair observables and the singlet correlation routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_beta, random_direction, unit
from relbell.errors import DegenerateObservable
from relbell.kinematics import alpha_vector
from relbell.linalg import ID2, dagger, herm_eig, kron, max_abs, pauli_dot
from relbell.observables import (
    eprb_closed_form,
    eprb_oracle,
    helicity_basis,
    singlet_state,
    spin_observable,
    total_helicity_residual,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

directions = st.builds(
    lambda seed: random_direction(np.random.default_rng(seed)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
betas = st.builds(
    lambda mag, seed: mag * random_direction(np.random.default_rng(seed)),
    mag=st.floats(min_value=0.0, max_value=0.999),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def rotation_about(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    k = np.asarray(axis, dtype=float)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return math.cos(angle) * np.eye(3) + math.sin(angle) * kx + (
        1.0 - math.cos(angle)
    ) * np.outer(k, k)


class TestHelicityBasis:
    def test_z_axis(self):
        plus, minus = helicity_basis(Z)
        assert_allclose(plus, [1.0, 0.0], atol=1e-15)
        assert_allclose(minus, [0.0, 1.0], atol=1e-15)

    def test_x_axis(self):
        plus, minus = helicity_basis(X)
        s = math.sqrt(0.5)
        assert_allclose(plus, [s, s], atol=1e-15)
        assert_allclose(minus, [s, -s], atol=1e-15)

    def test_eigenvector_property(self, rng):
        for _ in range(50):
            n = random_direction(rng)
            plus, minus = helicity_basis(n)
            h = pauli_dot(n)
            assert max_abs(h @ plus - plus) < 1e-12
            assert max_abs(h @ minus + minus) < 1e-12
            assert abs(np.vdot(plus, minus)) < 1e-12
            assert abs(np.linalg.norm(plus) - 1.0) < 1e-12
            assert abs(np.linalg.norm(minus) - 1.0) < 1e-12

    def test_antipodal_axis(self):
        plus, minus = helicity_basis(-Z)
        h = pauli_dot(-Z)
        assert max_abs(h @ plus - plus) < 1e-12
        assert max_abs(h @ minus + minus) < 1e-12


class TestSingletState:
    def test_z_axis_amplitudes(self):
        psi = singlet_state(Z)
        s = math.sqrt(0.5)
        assert_allclose(psi.amplitudes, [0.0, s, -s, 0.0], atol=1e-15)
        assert abs(psi.norm - 1.0) < 1e-14

    def test_rotation_invariance_up_to_phase(self, rng):
        # The singlet is the same ray for every construction axis.
        reference = singlet_state(Z).amplitudes
        for _ in range(20):
            n = random_direction(rng)
            psi = singlet_state(n).amplitudes
            assert abs(abs(np.vdot(reference, psi)) - 1.0) < 1e-12
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_zero_total_helicity(self, rng):
        assert total_helicity_residual(Z) < 1e-14
        for _ in range(20):
            assert total_helicity_residual(random_direction(rng)) < 1e-13


class TestSpinObservable:
    def test_rest_frame_is_pauli_projection(self, rng):
        a = random_direction(rng)
        obs = spin_observable(a, np.zeros(3))
        assert max_abs(obs.matrix - pauli_dot(a)) < 1e-15
        assert obs.alpha_length == 1.0

    def test_axis_along_motion_is_undeformed(self):
        obs = spin_observable(Z, np.array([0.0, 0.0, 0.97]))
        assert max_abs(obs.matrix - pauli_dot(Z)) < 1e-14
        assert abs(obs.alpha_length - 1.0) < 1e-14

    def test_involution_with_unit_spectrum(self, rng):
        for _ in range(30):
            obs = spin_observable(random_direction(rng), random_beta(rng))
            assert max_abs(obs.matrix @ obs.matrix - ID2) < 1e-13
            assert max_abs(obs.matrix - dagger(obs.matrix)) < 1e-14
            w, _ = herm_eig(obs.matrix)
            assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_degenerate_axis_raises(self):
        with pytest.raises(DegenerateObservable):
            spin_observable(X, Z)

    def test_records_alpha_length(self):
        obs = spin_observable(X, np.array([0.0, 0.0, 0.8]))
        assert_allclose(obs.alpha_length, 0.6, atol=1e-15)


class TestClosedForm:
    def test_rest_frame_minus_cosine(self, rng):
        for _ in range(20):
            a = random_direction(rng)
            b = random_direction(rng)
            assert_allclose(eprb_closed_form(a, b, np.zeros(3)), -np.dot(a, b), atol=1e-14)

    def test_symmetric_diagonal_settings(self):
        # a . b = 0 with both axes at 45 degrees to the motion: the
        # correlation is -beta^2 / (2 - beta^2), a pure motion artifact.
        n = unit([1.0, 1.0, 0.0])
        value = eprb_closed_form(X, Y, 0.8 * n)
        assert_allclose(value, -0.64 / 1.36, atol=1e-12)
        assert_allclose(value, -(0.8**2) / (2.0 - 0.8**2), atol=1e-12)

    def test_symmetric_diagonal_settings_scan(self):
        n = unit([1.0, 1.0, 0.0])
        for mag in np.linspace(0.0, 1.0, 21):
            expected = -mag * mag / (2.0 - mag * mag)
            assert_allclose(eprb_closed_form(X, Y, mag * n), expected, atol=1e-12)

    def test_luminal_limit_is_sign_correlation(self, rng):
        for _ in range(20):
            a = random_direction(rng)
            b = random_direction(rng)
            if abs(a[2]) < 0.1 or abs(b[2]) < 0.1:
                continue
            expected = -math.copysign(1.0, a[2]) * math.copysign(1.0, b[2])
            assert_allclose(eprb_closed_form(a, b, Z), expected, atol=1e-12)

    def test_perfect_anticorrelation_on_equal_axes(self, rng):
        for _ in range(30):
            a = random_direction(rng)
            beta = random_beta(rng)
            assert abs(eprb_closed_form(a, a, beta) + 1.0) < 1e-12
            assert abs(eprb_closed_form(a, -a, beta) - 1.0) < 1e-12

    def test_equals_minus_the_dot_product_of_deformed_axes(self, rng):
        # E(a, b, beta) = -alpha_hat(a) . alpha_hat(b): the identity behind
        # the closed-form CHSH calibration.
        for _ in range(500):
            a = random_direction(rng)
            b = random_direction(rng)
            beta = random_beta(rng)
            expected = -np.dot(unit(alpha_vector(a, beta)), unit(alpha_vector(b, beta)))
            assert abs(eprb_closed_form(a, b, beta) - expected) <= 1e-14

    @settings(max_examples=150, deadline=None)
    @given(a=directions, b=directions, beta=betas)
    def test_bounds_exchange_and_parity(self, a, b, beta):
        value = eprb_closed_form(a, b, beta)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        assert eprb_closed_form(b, a, beta) == value
        assert eprb_closed_form(-a, b, beta) == -value
        assert eprb_closed_form(a, -b, beta) == -value

    def test_rotation_about_motion_axis_invariance(self, rng):
        for _ in range(20):
            beta = random_beta(rng)
            n = beta / np.linalg.norm(beta)
            a = random_direction(rng)
            b = random_direction(rng)
            base = eprb_closed_form(a, b, beta)
            r = rotation_about(n, rng.uniform(0.0, 2.0 * math.pi))
            assert_allclose(eprb_closed_form(r @ a, r @ b, beta), base, atol=1e-12)

    def test_quadratic_onset_in_speed(self, rng):
        # Small speeds perturb the rest-frame value only at second order.
        for _ in range(10):
            a = random_direction(rng)
            b = random_direction(rng)
            n = random_direction(rng)
            rest = eprb_closed_form(a, b, np.zeros(3))
            for eps in (1e-2, 1e-3, 1e-4):
                moving = eprb_closed_form(a, b, eps * n)
                assert abs(moving - rest) <= 4.0 * eps * eps + 1e-14

    def test_degenerate_axis_raises(self):
        with pytest.raises(DegenerateObservable):
            eprb_closed_form(X, Z, Z)
        with pytest.raises(DegenerateObservable):
            eprb_closed_form(Z, Y, Z)

    def test_rejects_non_unit_axes(self):
        with pytest.raises(ValueError):
            eprb_closed_form([2.0, 0.0, 0.0], Y, np.zeros(3))


class TestOracleAgreement:
    def test_rest_frame(self, rng):
        a = random_direction(rng)
        b = random_direction(rng)
        assert_allclose(eprb_oracle(a, b, np.zeros(3)), -np.dot(a, b), atol=1e-13)

    def test_matches_closed_form_everywhere(self, rng):
        worst = 0.0
        for _ in range(500):
            a = random_direction(rng)
            b = random_direction(rng)
            beta = random_beta(rng)
            diff = abs(eprb_oracle(a, b, beta) - eprb_closed_form(a, b, beta))
            worst = max(worst, diff)
        assert worst < 1e-12

    def test_matches_closed_form_near_luminal(self, rng):
        for _ in range(50):
            a = random_direction(rng)
            b = random_direction(rng)
            beta = 0.9999 * random_direction(rng)
            diff = abs(eprb_oracle(a, b, beta) - eprb_closed_form(a, b, beta))
            assert diff < 1e-11

    def test_degenerate_axis_raises(self):
        with pytest.raises(DegenerateObservable):
            eprb_oracle(X, Y, Z)
