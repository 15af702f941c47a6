"""Independent reference for every output the benchmark checks.

Nothing here imports relbell. Correlations come from the deformed-axis
picture, E(a, b) = -alpha_hat(a) . alpha_hat(b) with
alpha(a) = sqrt(1 - beta^2) a_perp + a_par, evaluated with numpy over
whole grids at once. relbell's closed form and matrix oracle are
different formulas, so agreement to 1e-12 is a real cross-check.

Each ``check_*`` function takes the inputs the benchmark generated, the
exit code and the output text of one op, and returns None when the
output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

VALUE_TOL = 1e-12
GAP_TOL = 1e-12
CALIBRATION_TOL = 1e-9
TSIRELSON = 2.0 * math.sqrt(2.0)
AUDIT_THRESHOLD = 2.7

_H = math.sqrt(0.5)
#: The coplanar rest-frame optimum, (a, a', b, b').
STANDARD_AXES = np.array([[_H, _H, 0.0], [-_H, _H, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def deformed_axes(axes, betas):
    """alpha(axis, beta) for every axis and velocity: shape (N, K, 3).

    axes is (K, 3), betas is (N, 3).
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    betas = np.asarray(betas, dtype=float).reshape(-1, 3)
    speed2 = np.einsum("ij,ij->i", betas, betas)
    speed = np.sqrt(speed2)
    with np.errstate(invalid="ignore", divide="ignore"):
        n = np.where(speed[:, None] > 0.0, betas / speed[:, None], 0.0)
    shrink = np.sqrt(np.clip(1.0 - speed2, 0.0, None))
    along = n @ axes.T  # (N, K): n . axis
    return (shrink[:, None, None] * axes[None, :, :]
            + ((1.0 - shrink)[:, None] * along)[:, :, None] * n[:, None, :])


def chsh(axes, betas):
    """CHSH combination per velocity and the mask of degenerate velocities.

    Returns (values, gaps): values has NaN where gaps is True, i.e. where
    some deformed axis is no longer than GAP_TOL.
    """
    alpha = deformed_axes(axes, betas)
    length = np.linalg.norm(alpha, axis=-1)
    gaps = np.any(length <= GAP_TOL, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = alpha / length[:, :, None]

    def corr(i, j):
        return -np.einsum("ij,ij->i", unit[:, i], unit[:, j])

    values = corr(0, 2) + corr(0, 3) + corr(1, 2) - corr(1, 3)
    return np.where(gaps, np.nan, values), gaps


def correlations(a, b, betas):
    """Singlet correlation of one analyzer pair at each velocity."""
    alpha = deformed_axes(np.array([a, b]), betas)
    unit = alpha / np.linalg.norm(alpha, axis=-1)[:, :, None]
    return -np.einsum("ij,ij->i", unit[:, 0], unit[:, 1])


def correlation(a, b, beta) -> float:
    """Singlet correlation of one analyzer pair at one velocity."""
    return float(correlations(a, b, np.array([beta]))[0])


# --- CSV tables -------------------------------------------------------------

def _csv_body(text: str, header: str):
    lines = text.split("\n")
    if lines[-1] != "":
        return None, "output does not end in a newline"
    lines = [line for line in lines[:-1] if not line.startswith("#")]
    if not lines or lines[0] != header:
        return None, f"header is not {header!r}"
    return [line.split(",") for line in lines[1:]], None


def _check_table(text, header, coords, expected, gaps):
    """Compare a CSV table cell by cell.

    coords: list of 1-d arrays, one per coordinate column; expected:
    (rows, columns) array; gaps: (rows,) mask of rows written as
    'degenerate'.
    """
    rows, err = _csv_body(text, header)
    if err:
        return err
    if len(rows) != expected.shape[0]:
        return f"{len(rows)} data rows, expected {expected.shape[0]}"
    width = len(coords) + expected.shape[1]
    for r, cells in enumerate(rows):
        if len(cells) != width:
            return f"row {r} has {len(cells)} cells, expected {width}"
        for d, column in enumerate(coords):
            if float(cells[d]) != column[r]:
                return f"row {r} coordinate {d} is {cells[d]}, expected {column[r]!r}"
        values = cells[len(coords):]
        if gaps[r]:
            if any(v != "degenerate" for v in values):
                return f"row {r} should be a degenerate gap"
            continue
        if "degenerate" in values:
            return f"row {r} is marked degenerate but is not a gap"
        got = np.array([float(v) for v in values])
        worst = float(np.max(np.abs(got - expected[r])))
        if not worst <= VALUE_TOL:
            return f"row {r} misses the reference by {worst:.3e}"
    return None


def _grid(a_values, b_values):
    a, b = np.meshgrid(a_values, b_values, indexing="ij")
    return a.reshape(-1), b.reshape(-1)


def check_fig3(text, grid, axes):
    """Table of CHSH over speed and in-plane motion azimuth."""
    speeds, phis = _grid(np.linspace(0.0, 0.999, grid), np.linspace(0.0, 2.0 * math.pi, grid))
    betas = np.stack([speeds * np.cos(phis), speeds * np.sin(phis), np.zeros_like(speeds)], -1)
    values, gaps = chsh(axes, betas)
    return _check_table(text, "beta,phi,chsh", [speeds, phis], values[:, None], gaps)


def check_fig2(text, grid, speeds, axes):
    """Table of CHSH over motion directions, one column per speed."""
    thetas, phis = _grid(np.linspace(0.0, math.pi, grid), np.linspace(0.0, 2.0 * math.pi, grid))
    direction = np.stack(
        [np.cos(phis) * np.sin(thetas), np.sin(phis) * np.sin(thetas), np.cos(thetas)], -1)
    columns, gaps = [], np.zeros(thetas.shape, dtype=bool)
    for speed in speeds:
        values, speed_gaps = chsh(axes, speed * direction)
        columns.append(values)
        gaps |= speed_gaps
    header = "theta,phi," + ",".join(f"chsh_beta_{s!r}" for s in speeds)
    return _check_table(text, header, [thetas, phis], np.stack(columns, -1), gaps)


def check_fig1(text, grid):
    """Correlation of orthogonal axes tilted 45 degrees to the beam, next
    to the proper-time defect."""
    speeds = np.linspace(0.0, 1.0, grid)
    betas = np.stack([np.zeros_like(speeds), np.zeros_like(speeds), speeds], -1)
    corr = correlations([_H, 0.0, _H], [-_H, 0.0, _H], betas)
    proper = np.array([math.sqrt(1.0 - s * s) - 1.0 for s in speeds.tolist()])
    return _check_table(text, "beta,correlation,proper_time", [speeds],
                        np.stack([corr, proper], -1), np.zeros(grid, dtype=bool))


def check_chsh(text, beta, axes):
    """One CHSH value printed with repr."""
    value, gap = chsh(axes, np.array([beta]))
    if gap[0]:
        return "reference velocity is degenerate"
    got = float(text)
    if not abs(got - value[0]) <= VALUE_TOL:
        return f"chsh {got!r} misses the reference {value[0]!r}"
    return None


# --- audit ------------------------------------------------------------------

def audit_expectation(betas, weights):
    """(expected_chsh, verdict, exit code) for the standard settings."""
    values, gaps = chsh(STANDARD_AXES, betas)
    if gaps.any():
        raise ValueError("audit input has a degenerate sample")
    total = math.fsum(weights)
    expected = math.fsum(w * v for w, v in zip(weights.tolist(), values.tolist())) / total
    verdict = "FalseAlarmRisk" if abs(expected) < AUDIT_THRESHOLD else "NoAlarm"
    return expected, verdict, 3 if verdict == "FalseAlarmRisk" else 0


def check_audit(rc, text, betas, weights):
    """A crypto-audit JSON report for the standard settings."""
    expected, verdict, code = audit_expectation(betas, weights)
    if rc != code:
        return f"exit code {rc}, expected {code}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if report.get("verdict") != verdict:
        return f"verdict {report.get('verdict')!r}, expected {verdict!r}"
    ideal = chsh(STANDARD_AXES, np.zeros((1, 3)))[0][0]
    for key, want in (("expected_chsh", expected), ("ideal_chsh", ideal),
                      ("degradation", abs(ideal) - abs(expected))):
        if not abs(report.get(key, math.nan) - want) <= VALUE_TOL:
            return f"{key} {report.get(key)!r} misses the reference {want!r}"
    if report.get("alarm_threshold") != AUDIT_THRESHOLD:
        return "alarm threshold is not the default"
    samples = report.get("samples", [])
    if len(samples) != len(betas):
        return f"{len(samples)} samples in the report, {len(betas)} in the input"
    got = np.array([[s["beta_x"], s["beta_y"], s["beta_z"], s["weight"], s["chsh"]]
                    for s in samples])
    if not np.array_equal(got[:, :3], betas):
        return "sample velocities do not round-trip"
    if not np.max(np.abs(got[:, 3] - weights / math.fsum(weights))) <= VALUE_TOL:
        return "sample weights are not the normalized input weights"
    per_sample = chsh(STANDARD_AXES, betas)[0]
    worst = float(np.max(np.abs(got[:, 4] - per_sample)))
    if not worst <= VALUE_TOL:
        return f"a per-sample chsh misses the reference by {worst:.3e}"
    return None


# --- cross-checks -------------------------------------------------------------

def check_correlate(text, a, b, beta):
    """closed_form=, oracle= and difference= lines for one setting."""
    fields = dict(line.split("=", 1) for line in text.splitlines())
    if set(fields) != {"closed_form", "oracle", "difference"}:
        return "correlate output lines are not closed_form, oracle, difference"
    want = correlation(a, b, beta)
    closed, oracle, diff = (float(fields[k]) for k in ("closed_form", "oracle", "difference"))
    for name, got in (("closed_form", closed), ("oracle", oracle)):
        if not abs(got - want) <= VALUE_TOL:
            return f"{name} {got!r} misses the reference {want!r}"
    if diff != closed - oracle or not abs(diff) <= VALUE_TOL:
        return f"difference {diff!r} is wrong or too large"
    return None


def check_selftest(text, samples):
    """Both sweep lines read PASS, over the requested sample counts."""
    lines = text.splitlines()
    prefixes = (f"oracle_equivalence samples={samples} ", f"chsh_bound samples={10 * samples} ")
    if len(lines) != 2 or not all(l.startswith(p) for l, p in zip(lines, prefixes)):
        return "selftest lines are not the two expected sweeps"
    if not all(line.endswith(" PASS") for line in lines):
        return "a selftest line does not read PASS"
    return None


def check_dirac(text):
    """Every identity record passes and lies within its tolerance."""
    try:
        records = json.loads(text)
    except ValueError as exc:
        return f"dirac-check output is not JSON: {exc}"
    if not records:
        return "dirac-check printed no records"
    for rec in records:
        if rec.get("pass") is not True or not rec["max_residual"] <= rec["tolerance"]:
            return f"dirac-check record {rec.get('check')!r} does not pass"
    return None


def check_calibration(value, chsh_value, axes, beta):
    """maximize_chsh result: |c| at 2 sqrt(2), and the settings it returns
    really reach that value at beta."""
    if not abs(value - TSIRELSON) <= CALIBRATION_TOL:
        return f"|c| = {value!r} is not 2*sqrt(2) within {CALIBRATION_TOL}"
    if abs(chsh_value) != value:
        return "chsh_value at the returned settings differs from the search value"
    want = chsh(axes, np.array([beta]))[0][0]
    if not abs(chsh_value - want) <= VALUE_TOL:
        return f"chsh {chsh_value!r} misses the reference {want!r}"
    return None
