"""Acceptance suite: twelve go/no-go criteria for the whole package.

Each test prints exactly one ``criterion NN <name>: PASS/FAIL`` line
(visible with ``pytest -s`` or in the captured output) and then asserts,
so a red run names the failed criterion directly. Tolerances and sample
counts are part of the contract and must not be loosened.
"""

import math
import time

import numpy as np

from relbell.audit import FALSE_ALARM_RISK, NO_ALARM, VelocityDistribution, audit
from relbell.bell import STANDARD_SETTINGS, ChshSettings, chsh_value, proper_time_comparison, scan_beta_phi
from relbell.cli import main as cli_main
from relbell.dirac import (
    build_context,
    casimir_check,
    eigenstate_check,
    evenness_check,
    hamiltonian_identity_check,
    kinetic_quantities,
    precession_check,
    spin_form_agreement_check,
    spin_spectrum_check,
)
from relbell.kinematics import alpha_vector, orthonormal_triad, spin_structure_constants
from relbell.kinematics import random_direction as _random_direction
from relbell.linalg import max_abs, pauli_dot
from relbell.observables import eprb_closed_form, eprb_oracle

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a = _random_direction(rng)
        b = _random_direction(rng)
        beta = rng.uniform(0.0, 0.999) * _random_direction(rng)
        worst = max(worst, abs(eprb_closed_form(a, b, beta) - eprb_oracle(a, b, beta)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert _verdict(1, "oracle-equivalence", ok,
                    f"max|closed-oracle|={worst:.3e} over 1e4 draws in {elapsed:.2f}s")


def test_criterion_02_symmetric_diagonal_closed_form():
    # a . b = 0 with both axes at 45 degrees to the in-plane motion:
    # E = -beta^2 / (2 - beta^2) across the whole speed range.
    n = np.array([1.0, 1.0, 0.0]) / np.linalg.norm([1.0, 1.0, 0.0])
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for mag in grid:
        value = eprb_closed_form(X, Y, mag * n)
        worst = max(worst, abs(value + mag * mag / (2.0 - mag * mag)))
    end_low = abs(eprb_closed_form(X, Y, 0.0 * n))
    end_high = abs(eprb_closed_form(X, Y, 1.0 * n) + 1.0)
    ok = worst < 1e-12 and end_low < 1e-12 and end_high < 1e-12
    assert _verdict(2, "diagonal-settings-closed-form", ok,
                    f"max deviation {worst:.3e} on 1001-point grid, endpoints 0/-1")


def test_criterion_03_correlation_beats_proper_time():
    table = proper_time_comparison(np.linspace(0.0, 1.0, 1001))
    corr = np.abs(table.values[:, 0])
    tau = np.abs(table.values[:, 1])
    ok = bool(np.all(corr >= tau) and np.all(corr[1:-1] > tau[1:-1]))
    margin = float(np.min((corr - tau)[1:-1]))
    assert _verdict(3, "correlation-defect-dominates", ok,
                    f"|E| >= |dtau/t| on [0,1], strict inside, min margin {margin:.3e}")


def test_criterion_04_rest_frame_chsh():
    value = chsh_value(STANDARD_SETTINGS, np.zeros(3))
    diff = abs(value + TWO_SQRT_TWO)
    ok = diff < 1e-12
    assert _verdict(4, "rest-frame-quantum-bound", ok, f"c={value!r}, |c+2sqrt2|={diff:.3e}")


def test_criterion_05_normal_motion_preserves_bound():
    value = chsh_value(STANDARD_SETTINGS, np.array([0.0, 0.0, 0.99]))
    diff = abs(value + TWO_SQRT_TWO)
    ok = diff < 1e-10
    assert _verdict(5, "normal-motion-preserves-bound", ok,
                    f"beta=0.99 z-hat: |c+2sqrt2|={diff:.3e}")


def test_criterion_06_in_plane_suppression():
    table = scan_beta_phi(STANDARD_SETTINGS, [0.999], np.linspace(0.0, 2.0 * math.pi, 721))
    peak = float(np.max(np.abs(table.values)))
    reg_09 = chsh_value(
        STANDARD_SETTINGS, 0.9 * np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0])
    )
    reg_099 = chsh_value(
        STANDARD_SETTINGS, 0.99 * np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0])
    )
    # Regression values fixed by the oracle at first implementation.
    ok = (
        peak < TWO_SQRT_TWO - 0.5
        and abs(peak - 2.08733510576956) < 1e-9
        and abs(reg_09 - (-2.6325562161047413)) < 1e-12
        and abs(reg_099 - (-2.2597608606534427)) < 1e-12
        and abs(reg_09) < TWO_SQRT_TWO
        and abs(reg_099) < TWO_SQRT_TWO
    )
    assert _verdict(6, "in-plane-suppression", ok,
                    f"max|c|={peak!r} at beta=0.999 (< {TWO_SQRT_TWO - 0.5!r}), "
                    f"pinned c(0.9)={reg_09!r}, c(0.99)={reg_099!r}")


def test_criterion_07_tsirelson_bound_sweep():
    rng = np.random.default_rng(107)
    bound = TWO_SQRT_TWO + 1e-9
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        settings = ChshSettings(
            a=_random_direction(rng), a_prime=_random_direction(rng),
            b=_random_direction(rng), b_prime=_random_direction(rng),
        )
        beta = rng.uniform(0.0, 0.999) * _random_direction(rng)
        worst = max(worst, abs(chsh_value(settings, beta)))
    elapsed = time.perf_counter() - start
    ok = worst <= bound and elapsed < 30.0
    assert _verdict(7, "tsirelson-bound", ok,
                    f"max|c|={worst!r} <= {bound!r} over 1e5 draws in {elapsed:.1f}s")


def test_criterion_08_dirac_identity_battery():
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.3, 4.0) * _random_direction(rng)
        m = float(rng.uniform(0.2, 3.0))
        a = _random_direction(rng)
        ops = build_context(p, m)
        for report in (
            spin_spectrum_check(ops, a),
            eigenstate_check(ops, a),
            precession_check(ops),
            hamiltonian_identity_check(ops),
            spin_form_agreement_check(ops),
            casimir_check(ops),
            evenness_check(ops),
        ):
            worst = max(worst, report.max_residual)
            assert report.passed
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert _verdict(8, "dirac-identity-battery", ok,
                    f"100 contexts, worst residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_09_structure_constants():
    worst = 0.0
    recontraction = 0.0
    for mag in (0.0, 0.8, 1.0):
        beta = mag * Z
        c = spin_structure_constants(beta)
        worst = max(
            worst,
            abs(c[0, 1, 2] - (1.0 - mag * mag)),
            abs(c[1, 2, 0] - 1.0),
            abs(c[2, 0, 1] - 1.0),
        )
        s = [pauli_dot(alpha_vector(e, beta)) / 2.0 for e in orthonormal_triad(Z)]
        for k in range(3):
            for l in range(3):
                lhs = s[k] @ s[l] - s[l] @ s[k]
                rhs = sum(1j * c[k, l, mm] * s[mm] for mm in range(3))
                recontraction = max(recontraction, max_abs(lhs - rhs))
    ok = worst < 1e-12 and recontraction <= 1e-12
    assert _verdict(9, "spin-algebra-contraction", ok,
                    f"constants off by {worst:.3e}, recontraction residual {recontraction:.3e}")


def test_criterion_10_kinetic_consistency():
    moment_worst = 0.0
    omega_worst = 0.0
    for lam in (0.5, 1.0, 1.5):
        for p in (0.5, 1.0, 2.0):
            q = kinetic_quantities(lam, p)
            moment_worst = max(
                moment_worst,
                abs(q.moment_of_inertia - q.kinetic_mass * q.gyration_radius**2),
            )
    for p in (0.5, 1.0, 2.0):
        for lam in (0.5, -0.5):
            omega_worst = max(omega_worst, abs(kinetic_quantities(lam, p).angular_velocity - 2.0 * p))
    ok = moment_worst <= 1e-14 and omega_worst <= 1e-12
    assert _verdict(10, "kinetic-rotator-consistency", ok,
                    f"|I - m r^2| <= {moment_worst:.3e}, |omega - 2p| <= {omega_worst:.3e}")


def test_criterion_11_false_alarm_verdicts():
    rest = VelocityDistribution.from_samples([np.zeros(3)], [1.0])
    fast = VelocityDistribution.from_samples([np.array([0.99, 0.0, 0.0])], [1.0])
    quiet = audit(rest, STANDARD_SETTINGS, threshold=2.7)
    alarmed = audit(fast, STANDARD_SETTINGS, threshold=2.7)
    rest_diff = abs(quiet.expected_chsh + TWO_SQRT_TWO)
    ok = (
        quiet.verdict == NO_ALARM
        and rest_diff < 1e-12
        and alarmed.verdict == FALSE_ALARM_RISK
    )
    assert _verdict(11, "false-alarm-verdicts", ok,
                    f"rest: {quiet.verdict} (|c| off bound by {rest_diff:.3e}), "
                    f"0.99 x-hat: {alarmed.verdict} at threshold 2.7")


def test_criterion_12_reproducible_tables(tmp_path):
    sizes = {}
    ok = True
    for name in ("fig1", "fig2", "fig3"):
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        assert cli_main([name, "--out", str(first)]) == 0
        assert cli_main([name, "--out", str(second)]) == 0
        data = first.read_bytes()
        ok = ok and data == second.read_bytes() and len(data) > 0
        sizes[name] = len(data)
    assert _verdict(12, "byte-identical-tables", ok,
                    "default grids, two runs each: "
                    + ", ".join(f"{k}={v}B" for k, v in sizes.items()))
