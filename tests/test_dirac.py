"""Tests for the 4x4 free-particle operator family and its identity checks."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_direction, unit
from relbell import dirac
from relbell.dirac import (
    ALPHA,
    GAMMA,
    GAMMA0,
    GAMMA5,
    ID4,
    SPIN,
    build_context,
    dirac_battery,
    casimir_check,
    com_uncertainty_bound,
    eigenstate_check,
    eigenstates,
    evenness_check,
    hamiltonian_identity_check,
    kinetic_quantities,
    massless_even_velocity_check,
    precession_check,
    precession_frequency,
    projected_spin,
    spin_form_agreement_check,
    spin_spectrum_check,
)
from relbell.errors import (
    CheckFailed,
    EigenstateResidual,
    NonHermitianInput,
    NullContext,
    SpectrumMismatch,
    ZeroHelicity,
)
from relbell.kinematics import alpha_norm, spin_eigenvalues
from relbell.linalg import commutator, dagger, max_abs

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_context(rng):
    return build_context(
        rng.uniform(0.3, 4.0) * random_direction(rng), rng.uniform(0.2, 3.0)
    )


class TestGammaMatrices:
    def test_chirality_sign_convention(self):
        # gamma5 = -i gamma0 gamma1 gamma2 gamma3; this sign makes the
        # free precession frequency come out as -2 gamma5 p below.
        product = GAMMA0 @ GAMMA[0] @ GAMMA[1] @ GAMMA[2]
        assert np.array_equal(GAMMA5, -1.0j * product)

    def test_clifford_relations(self):
        gammas = (GAMMA0,) + GAMMA
        metric = np.diag([1.0, -1.0, -1.0, -1.0])
        for mu in range(4):
            for nu in range(4):
                anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
                assert max_abs(anti - 2.0 * metric[mu, nu] * ID4) == 0.0

    def test_gamma5_properties(self):
        assert np.array_equal(GAMMA5 @ GAMMA5, ID4)
        for g in (GAMMA0,) + GAMMA:
            assert max_abs(GAMMA5 @ g + g @ GAMMA5) == 0.0


class TestBuildContext:
    def test_rest_spin_is_undeformed(self):
        ops = build_context(np.zeros(3), 1.3)
        for k in range(3):
            assert np.array_equal(ops.S[k], SPIN[k])
        assert ops.Omega is None
        assert ops.ctx.p0 == 1.3

    def test_energy_and_projectors(self, rng):
        for _ in range(10):
            ops = random_context(rng)
            p2m2 = ops.ctx.p0**2
            assert max_abs(ops.H @ ops.H - p2m2 * ID4) < 1e-12 * p2m2
            assert max_abs(ops.Lambda @ ops.Lambda - ID4) < 1e-14
            assert max_abs(ops.Pi_plus @ ops.Pi_plus - ops.Pi_plus) < 1e-14
            assert max_abs(ops.Pi_plus + ops.Pi_minus - ID4) < 1e-15
            assert max_abs(ops.Pi_plus @ ops.Pi_minus) < 1e-14
            assert max_abs(ops.H - dagger(ops.H)) == 0.0

    def test_helicity_is_undistorted(self, rng):
        # p . S == p . s: the longitudinal spin component survives the
        # dressing exactly.
        for _ in range(10):
            ops = random_context(rng)
            lhs = sum(ops.ctx.p[k] * ops.S[k] for k in range(3))
            rhs = sum(ops.ctx.p[k] * ops.s[k] for k in range(3))
            assert max_abs(lhs - rhs) < 1e-13 * max(1.0, ops.ctx.p_mag)

    def test_rejects_null_context(self):
        with pytest.raises(NullContext):
            build_context(np.zeros(3), 0.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            build_context(Z, -1.0)


class TestSpinSpectrum:
    def test_transverse_compression_three_four_five(self):
        # |p| = 3, m = 4: beta = 0.6, and a transverse analyzer reads
        # +-0.4 instead of +-1/2.
        ops = build_context(3.0 * Z, 4.0)
        report = spin_spectrum_check(ops, X)
        assert report.passed
        w = np.sort(np.linalg.eigvalsh(projected_spin(ops, X)))
        assert_allclose(w, [-0.4, -0.4, 0.4, 0.4], atol=1e-12)

    def test_agrees_with_two_spinor_kinematics(self):
        # Same deformation law as the two-component route.
        ops = build_context(3.0 * Z, 4.0)
        spectrum = spin_eigenvalues(X, np.array([0.0, 0.0, 0.6]))
        w = np.sort(np.linalg.eigvalsh(projected_spin(ops, X)))
        assert_allclose(w[2:], [spectrum.eigenvalues[1]] * 2, atol=1e-12)

    def test_longitudinal_axis_keeps_half(self, rng):
        ops = random_context(rng)
        n = ops.ctx.n
        report = spin_spectrum_check(ops, n)
        assert report.passed
        w = np.sort(np.linalg.eigvalsh(projected_spin(ops, n)))
        assert_allclose(w, [-0.5, -0.5, 0.5, 0.5], atol=1e-12)

    def test_random_axes(self, rng):
        for _ in range(20):
            ops = random_context(rng)
            report = spin_spectrum_check(ops, random_direction(rng))
            assert report.passed
            assert report.max_residual < 1e-12

    def test_failure_carries_report(self):
        ops = build_context(np.array([1.0, 2.0, 2.0]), 1.7)
        with pytest.raises(SpectrumMismatch) as exc:
            spin_spectrum_check(ops, unit([1.0, 2.0, 3.0]), eig_tol=0.0)
        report = exc.value.report
        assert report is not None
        assert not report.passed
        dicts = report.as_dicts()
        assert {"check", "max_residual", "tolerance", "pass"} <= set(dicts[0])


class TestEigenstates:
    def test_residuals_random(self, rng):
        for _ in range(15):
            ops = random_context(rng)
            report = eigenstate_check(ops, random_direction(rng))
            assert report.passed

    def test_orthonormal_pair(self, rng):
        ops = build_context(np.array([0.3, -1.2, 0.7]), 0.9)
        psi_plus, psi_minus = eigenstates(ops, random_direction(rng))
        assert abs(np.linalg.norm(psi_plus) - 1.0) < 1e-12
        assert abs(np.linalg.norm(psi_minus) - 1.0) < 1e-12
        assert abs(np.vdot(psi_plus, psi_minus)) < 1e-12

    def test_axis_along_motion(self):
        ops = build_context(2.0 * Z, 1.5)
        assert eigenstate_check(ops, Z).passed

    def test_axis_against_motion(self):
        # The closed-form coefficients collapse at a = -n; the swapped
        # construction must still deliver valid eigenstates.
        ops = build_context(2.0 * Z, 1.5)
        assert eigenstate_check(ops, -Z).passed

    def test_ultrarelativistic_conditioning(self):
        # |p| / m = 100 stresses the sqrt(p0 - m) branch; the residuals
        # stay below a slightly relaxed tolerance.
        ops = build_context(100.0 * X, 1.0)
        assert eigenstate_check(ops, Y, tol=1e-9).passed
        assert eigenstate_check(ops, unit([1.0, 1.0, 0.0]), tol=1e-9).passed

    def test_requires_massive_moving_particle(self):
        with pytest.raises(ValueError):
            eigenstates(build_context(Z, 0.0), X)
        with pytest.raises(ValueError):
            eigenstates(build_context(np.zeros(3), 1.0), X)

    def test_failure_carries_report(self):
        ops = build_context(np.array([0.4, 0.1, 1.0]), 1.1)
        with pytest.raises(EigenstateResidual) as exc:
            eigenstate_check(ops, unit([2.0, -1.0, 0.5]), tol=0.0)
        assert not exc.value.report.passed


class TestPrecession:
    def test_unit_momentum(self):
        ops = build_context(Z, 1.0)
        report = precession_check(ops)
        assert report.passed
        assert report.max_residual == 0.0

    def test_at_rest_is_static(self):
        # p = 0: the frequency vanishes and [H, s] = 0.
        ops = build_context(np.zeros(3), 2.0)
        omega = precession_frequency(ops)
        assert all(max_abs(o) == 0.0 for o in omega)
        assert precession_check(ops).passed

    def test_massless_frequency_is_conserved(self):
        ops = build_context(np.array([1.0, 1.0, 1.0]), 0.0)
        report = precession_check(ops)
        assert report.passed
        names = [r.check for r in report.records]
        assert "precession.omega_commutes_with_hamiltonian" in names

    def test_massive_frequency_not_conserved(self):
        # With m > 0 omega has an odd part and does not commute with H.
        ops = build_context(Z, 1.0)
        omega = precession_frequency(ops)
        assert max(max_abs(commutator(o, ops.H)) for o in omega) > 0.1

    def test_frequency_magnitude_matches_rotator(self, rng):
        # |omega| = 2 |p| for every direction, the spin-1/2 angular
        # velocity of the kinetic reading.
        p = rng.uniform(0.3, 4.0) * random_direction(rng)
        ops = build_context(p, 0.0)
        omega = precession_frequency(ops)
        norm2 = sum(o @ dagger(o) for o in omega)
        expected = 4.0 * float(np.dot(p, p)) * ID4
        assert max_abs(norm2 - expected) < 1e-12 * max(1.0, float(np.dot(p, p)))

    def test_random_contexts(self, rng):
        for _ in range(10):
            assert precession_check(random_context(rng)).passed


class TestHamiltonianIdentity:
    def test_three_four_five(self):
        report = hamiltonian_identity_check(build_context(3.0 * Z, 4.0))
        assert report.passed
        names = {r.check for r in report.records}
        assert names == {
            "hamiltonian_identity.full_space",
            "hamiltonian_identity.positive_subspace",
            "hamiltonian_identity.negative_subspace",
            "hamiltonian_identity.omega_even",
        }

    def test_random_contexts(self, rng):
        for _ in range(10):
            assert hamiltonian_identity_check(random_context(rng)).passed

    def test_rejects_massless_or_rest(self):
        with pytest.raises(ValueError):
            hamiltonian_identity_check(build_context(Z, 0.0))
        with pytest.raises(ValueError):
            hamiltonian_identity_check(build_context(np.zeros(3), 1.0))

    def test_near_massless_limit(self):
        # As m -> 0 the full frequency itself rebuilds H: omega . S ~ H.
        ops = build_context(X, 1e-8)
        omega = precession_frequency(ops)
        rebuilt = sum(omega[k] @ ops.S[k] for k in range(3))
        assert max_abs(rebuilt - ops.H) < 1e-6


class TestSpinForms:
    def test_rest_frame(self):
        assert spin_form_agreement_check(build_context(np.zeros(3), 1.0)).passed

    def test_massless(self):
        assert spin_form_agreement_check(build_context(2.0 * Y, 0.0)).passed

    def test_random_contexts(self, rng):
        for _ in range(10):
            report = spin_form_agreement_check(random_context(rng))
            assert report.passed
            assert report.max_residual < 1e-12


class TestCasimirAndEvenness:
    def test_casimir_scales_with_mass_squared(self, rng):
        for m in (0.0, 0.5, 2.0):
            p = rng.uniform(0.3, 4.0) * random_direction(rng)
            assert casimir_check(build_context(p, m)).passed

    def test_evenness(self, rng):
        for _ in range(10):
            assert evenness_check(random_context(rng)).passed

    def test_massless_even_velocity(self, rng):
        assert massless_even_velocity_check(np.array([1.0, 1.0, 1.0])).passed
        assert massless_even_velocity_check(rng.uniform(0.3, 2.0) * random_direction(rng)).passed

    def test_massless_check_rejects_zero_momentum(self):
        with pytest.raises(NullContext):
            massless_even_velocity_check(np.zeros(3))


class TestSpinLength:
    """|lambda_a| = hypot(m, p . a) / (2 p0), the one spectrum length of
    the spectrum check and the eigenstates."""

    def test_matches_alpha_norm_at_moderate_speeds(self, rng):
        p = rng.uniform(0.0, 4.0, (200, 1)) * np.array([random_direction(rng) for _ in range(200)])
        m = rng.uniform(0.5, 3.0, 200)
        a = np.array([random_direction(rng) for _ in range(200)])
        lam = dirac._spin_length(dirac._context(p, m), a)
        p0 = np.hypot(np.linalg.norm(p, axis=1), m)
        for k in range(200):
            assert abs(lam[k] - 0.5 * alpha_norm(a[k], p[k] / p0[k])) <= 1e-14

    def test_against_fifty_digit_reference(self):
        # Relative error bound (4 + 3 kappa) eps with kappa = |p| |p.a| /
        # (m^2 + (p.a)^2), the conditioning of the rounded p . a; it holds
        # up to |p| / m = 1e6, half the axes orthogonal to p to rounding.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(5)
        count = 300
        m = rng.uniform(0.2, 3.0, count)
        n = np.array([random_direction(rng) for _ in range(count)])
        p = (10.0 ** rng.uniform(-2.0, 6.0, count) * m)[:, None] * n
        a = np.array([random_direction(rng) for _ in range(count)])
        orthogonal = a - np.sum(a * n, axis=1)[:, None] * n
        a[::2] = (orthogonal / np.linalg.norm(orthogonal, axis=1)[:, None])[::2]
        lam = dirac._spin_length(dirac._context(p, m), a)
        eps = np.finfo(float).eps
        for k in range(count):
            P = [mpmath.mpf(x) for x in p[k]]
            M = mpmath.mpf(m[k])
            pa = sum(x * mpmath.mpf(y) for x, y in zip(P, a[k]))
            ref = mpmath.sqrt(M * M + pa * pa) / (2 * mpmath.sqrt(sum(x * x for x in P) + M * M))
            kappa = float(mpmath.sqrt(sum(x * x for x in P)) * abs(pa) / (M * M + pa * pa))
            assert float(abs(lam[k] - ref) / ref) <= (4.0 + 3.0 * kappa) * eps

    def test_tiny_momentum_keeps_a_unit_direction(self):
        # The squares of p underflow; the battery still passes everywhere.
        ops = build_context(np.array([1e-160, 0.0, 1e-160]), 1.0)
        assert abs(np.linalg.norm(ops.ctx.n) - 1.0) < 1e-15
        records = dirac_battery(np.array([[1e-160, 0.0, 1e-160]]), np.array([1.0]),
                                np.array([unit([1.0, 2.0, 3.0])]))
        assert all(r.passed for r in records)
        assert "hamiltonian_identity.full_space" in {r.check for r in records}


def _trials(rng, count):
    p = np.array([rng.uniform(0.3, 4.0) * random_direction(rng) for _ in range(count)])
    m = rng.uniform(0.2, 3.0, count)
    a = np.array([random_direction(rng) for _ in range(count)])
    return p, m, a


def _add(field, delta):
    """A fault that adds delta to the operator field of the hit trials."""
    def perturb(ops, hit):
        value = getattr(ops, field).copy()
        value[hit] = value[hit] + delta
        return dataclasses.replace(ops, **{field: value})
    return perturb


def _massless_fault(ctx, H, hit):
    H = H.copy()
    H[hit] = H[hit] + 1e-6 * ID4
    return ctx, H


# kernel function, planted fault, the one-context check it backs
PLANTED = {
    "_spin_spectrum": (_add("S", 1e-6 * GAMMA0), lambda ops, p, a: spin_spectrum_check(ops, a)),
    "_eigenstate": (_add("H", 1e-6 * ID4), lambda ops, p, a: eigenstate_check(ops, a)),
    "_precession": (_add("H", 1e-6 * ALPHA[0]), lambda ops, p, a: precession_check(ops)),
    "_hamiltonian_identity": (_add("S", 1e-6 * ID4),
                              lambda ops, p, a: hamiltonian_identity_check(ops)),
    "_spin_forms": (_add("S", 1e-6 * ID4), lambda ops, p, a: spin_form_agreement_check(ops)),
    "_casimir": (_add("W", 1e-6 * ID4), lambda ops, p, a: casimir_check(ops)),
    "_evenness": (_add("S", 1e-6 * GAMMA5), lambda ops, p, a: evenness_check(ops)),
    "_massless_velocity": (None, lambda ops, p, a: massless_even_velocity_check(p)),
}


class TestBattery:
    @pytest.mark.parametrize("trial", [7, 49])
    @pytest.mark.parametrize("kernel", sorted(PLANTED))
    def test_planted_fault_matches_the_single_context_check(self, monkeypatch, kernel, trial):
        # Blocks of 16 over 50 trials: trial 49 sits in the partial last block.
        monkeypatch.setattr(dirac, "_BLOCK", 16)
        p, m, a = _trials(np.random.default_rng(40 + trial), 50)
        perturb, single = PLANTED[kernel]
        original = getattr(dirac, kernel)

        def planted(first, *rest):
            hit = np.all(first.p == p[trial], axis=1) if kernel == "_massless_velocity" \
                else np.all(first.ctx.p == p[trial], axis=1)
            if kernel == "_massless_velocity":
                return original(*_massless_fault(first, rest[0], hit))
            return original(perturb(first, hit), *rest)

        monkeypatch.setattr(dirac, kernel, planted)
        records = {r.check: r for r in dirac_battery(p, m, a)}
        with pytest.raises(CheckFailed) as exc:
            single(build_context(p[trial], m[trial]), p[trial], a[trial])
        report = exc.value.report
        failing = [r for r in report.records if not r.passed]
        assert failing
        for record in failing:
            assert not records[record.check].passed
            assert records[record.check].max_residual == record.max_residual
        names = {r.check for r in report.records}
        assert all(r.passed for name, r in records.items() if name not in names)

    def test_operators_match_the_scalar_formulas(self, rng):
        # The per-trial matrix formulas the battery replaced, as reference.
        p, m, _ = _trials(rng, 30)
        p[4] = 0.0
        ops = dirac._operators(p, m)
        for k in range(30):
            p0 = math.hypot(np.linalg.norm(p[k]), m[k])
            H = sum(p[k][j] * ALPHA[j] for j in range(3)) + m[k] * GAMMA0
            W = [(SPIN[j] @ H + H @ SPIN[j]) / 2.0 for j in range(3)]
            S = [W[j] @ H / (p0 * p0) for j in range(3)]
            tol = 8.0 * np.finfo(float).eps * p0
            assert np.array_equal(ops.H[k], H)
            assert_allclose(ops.W[k], W, rtol=0.0, atol=tol * p0)
            assert_allclose(ops.S[k], S, rtol=0.0, atol=tol)
            if k == 4:
                assert max_abs(ops.Omega[k]) == 0.0
                continue
            n = p[k] / np.linalg.norm(p[k])
            even = (np.dot(p[k], p[k]) / p0**2) * (ID4 + m[k] / np.linalg.norm(p[k])
                                                   * sum(n[j] * GAMMA[j] for j in range(3)))
            assert_allclose(ops.Omega[k], [even @ (-2.0 * p[k][j] * GAMMA5) for j in range(3)],
                            rtol=0.0, atol=tol * p0)

    def test_mixed_batch_matches_per_context_checks(self, rng):
        p, m, a = _trials(rng, 24)
        p[3] = 0.0                      # at rest
        m[5] = m[9] = 0.0               # massless
        a[7] = -p[7] / np.linalg.norm(p[7])   # axis against the motion
        a[9] = -p[9] / np.linalg.norm(p[9])   # ... of a massless particle
        a[11] = p[11] / np.linalg.norm(p[11])  # axis along the motion
        merged = {}
        for k in range(24):
            ops = build_context(p[k], m[k])
            reports = [spin_spectrum_check(ops, a[k]), precession_check(ops),
                       spin_form_agreement_check(ops), casimir_check(ops), evenness_check(ops)]
            if m[k] > 0.0 and ops.ctx.p_mag > 0.0:
                reports += [eigenstate_check(ops, a[k]), hamiltonian_identity_check(ops)]
            if ops.ctx.p_mag > 0.0:
                reports.append(massless_even_velocity_check(p[k]))
            for record in (r for report in reports for r in report.records):
                seen = merged.get(record.check)
                merged[record.check] = record if seen is None or \
                    record.max_residual > seen.max_residual else seen
        battery = {r.check: r for r in dirac_battery(p, m, a)}
        assert battery == merged

    def test_rest_and_massless_record_sets(self):
        rest = {r.check for r in dirac_battery(np.zeros((2, 3)), np.ones(2), np.eye(3)[:2])}
        assert "evenness.omega" not in rest and "eigenstate.energy" not in rest
        assert "massless_velocity.even" not in rest
        assert "precession.omega_commutes_with_hamiltonian" not in rest
        massless = {r.check for r in dirac_battery(np.ones((1, 3)), np.zeros(1), np.eye(3)[:1])}
        assert "precession.omega_commutes_with_hamiltonian" in massless
        assert "hamiltonian_identity.full_space" not in massless

    def test_validation_names_the_first_bad_trial(self, rng):
        p, m, a = _trials(rng, 12)
        with pytest.raises(ValueError, match=r"mass must be finite and non-negative, "
                                             r"got -1.0 \(trial 4\)"):
            dirac_battery(p, np.where(np.arange(12) >= 4, -1.0, m), a)
        with pytest.raises(ValueError, match=r"got nan \(trial 2\)"):
            dirac_battery(p, np.where(np.arange(12) == 2, np.nan, m), a)
        with pytest.raises(ValueError, match=r"momentum must be finite.*\(trial 8\)"):
            dirac_battery(np.where(np.arange(12)[:, None] == 8, np.inf, p), m, a)
        p[6] = p[9] = 0.0
        m[6] = m[9] = 0.0
        with pytest.raises(NullContext, match=r"\(trial 6\)"):
            dirac_battery(p, m, a)
        p, m, a = _trials(rng, 12)
        a[10] *= 1.001
        with pytest.raises(ValueError, match=r"analyzer axis must be a unit vector.*\(trial 10\)"):
            dirac_battery(p, m, a)
        with pytest.raises(ValueError, match="need p"):
            dirac_battery(p[:5], m, a)

    def test_non_hermitian_spin_names_the_trial(self, monkeypatch, rng):
        monkeypatch.setattr(dirac, "_BLOCK", 8)
        p, m, a = _trials(rng, 20)
        original = dirac._operators

        def skewed(p_block, m_block):
            ops = original(p_block, m_block)
            S = ops.S.copy()
            S[np.all(p_block == p[13], axis=1)] += 1e-6j * ID4
            return dataclasses.replace(ops, S=S)

        monkeypatch.setattr(dirac, "_operators", skewed)
        with pytest.raises(NonHermitianInput, match=r"\(trial 13\)"):
            dirac_battery(p, m, a)

    def test_block_holds_a_bounded_working_set(self, monkeypatch):
        # Each block builds its operators from a slice of at most _BLOCK trials.
        sizes = []
        original = dirac._operators

        def counted(p_block, m_block):
            sizes.append(len(p_block))
            return original(p_block, m_block)

        monkeypatch.setattr(dirac, "_operators", counted)
        p, m, a = _trials(np.random.default_rng(2), 2 * dirac._BLOCK + 5)
        dirac_battery(p, m, a)
        assert sizes == [dirac._BLOCK, dirac._BLOCK, 5]


class TestKineticQuantities:
    def test_half_helicity_unit_momentum(self):
        q = kinetic_quantities(0.5, 1.0)
        assert q.kinetic_mass == 1.0
        assert q.moment_of_inertia == 0.25
        assert q.gyration_radius == 0.5
        assert q.angular_velocity == 2.0

    def test_angular_velocity_matches_precession(self):
        # omega = 2 p for helicity 1/2, bitwise, for a spread of momenta.
        for p in (0.5, 1.0, 2.0, 3.7):
            assert kinetic_quantities(0.5, p).angular_velocity == 2.0 * p
            assert kinetic_quantities(-0.5, p).angular_velocity == 2.0 * p

    def test_moment_equals_mass_radius_squared(self):
        for lam in (0.5, 1.0, 1.5, -2.0):
            for p in (0.5, 1.0, 2.0):
                q = kinetic_quantities(lam, p)
                assert abs(q.moment_of_inertia - q.kinetic_mass * q.gyration_radius**2) <= 1e-14

    def test_unit_radius(self):
        assert kinetic_quantities(1.0, 1.0).gyration_radius == 1.0

    def test_rejects_zero_helicity(self):
        with pytest.raises(ZeroHelicity):
            kinetic_quantities(0.0, 1.0)

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            kinetic_quantities(0.3, 1.0)

    def test_rejects_non_positive_momentum(self):
        with pytest.raises(ValueError):
            kinetic_quantities(0.5, 0.0)


class TestComBound:
    def test_half_helicity_unit_spread(self):
        assert com_uncertainty_bound(0.5, 1.0) == 0.25

    def test_zero_helicity_vanishes(self):
        assert com_uncertainty_bound(0.0, 3.0) == 0.0

    def test_matches_radius_form(self):
        # |lambda| / (2 <p^2>) == <r^2> / (2 |lambda|) with
        # <r^2> = lambda^2 / <p^2>.
        for lam in (0.5, 1.5):
            for p2 in (0.7, 2.0):
                r2 = lam * lam / p2
                assert_allclose(com_uncertainty_bound(lam, p2), r2 / (2.0 * abs(lam)), atol=1e-16)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            com_uncertainty_bound(0.4, 1.0)
        with pytest.raises(ValueError):
            com_uncertainty_bound(0.5, 0.0)
