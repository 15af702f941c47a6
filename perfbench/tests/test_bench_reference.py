"""The reference check accepts relbell's outputs and flags planted faults."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

# The benchmark's modules import each other by bare name, and relbell
# comes from the source tree, as when perfbench/run.py starts them.
_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src")]

import reference
import workloads
from worker import Runner


def _distinct_first_cycle(name, seed, scratch):
    cycle = next(workloads.WORKLOADS[name](np.random.default_rng(seed), scratch))
    return list({op.key: op for op in cycle}.values())


def _output(argv, scratch):
    op = workloads.Op(key=0, items=1, check=lambda rc, text: None, argv=tuple(argv))
    _, rc, text = Runner(scratch).call(op)
    return rc, text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_accepts_every_output_of_a_cycle(name, tmp_path):
    runner = Runner(tmp_path)
    ops = _distinct_first_cycle(name, 20240, tmp_path)
    for op in ops:
        runner.run(op)
    assert runner.failures == []
    assert runner.failed == 0


def test_flags_a_csv_cell_off_by_1e_9(tmp_path):
    rc, text = _output(["fig3", "--grid", "11"], tmp_path)
    axes = reference.STANDARD_AXES
    assert rc == 0 and reference.check_fig3(text, 11, axes) is None
    lines = text.splitlines(keepends=True)
    row = len(lines) - 5
    cells = lines[row].rstrip("\n").split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-9)
    lines[row] = ",".join(cells) + "\n"
    assert "misses the reference" in reference.check_fig3("".join(lines), 11, axes)


@pytest.mark.parametrize("shape", ["rest", "beam"])
def test_flags_a_flipped_verdict_or_exit_code(shape, tmp_path):
    betas, weights = workloads.distribution(np.random.default_rng(5), shape, 40)
    path = tmp_path / "dist.csv"
    path.write_text(workloads.distribution_csv(betas, weights))
    rc, text = _output(["crypto-audit", "--dist", str(path)], tmp_path)
    assert rc == (3 if shape == "beam" else 0)
    assert reference.check_audit(rc, text, betas, weights) is None
    assert "exit code" in reference.check_audit(3 - rc, text, betas, weights)
    report = json.loads(text)
    report["verdict"] = {"NoAlarm": "FalseAlarmRisk", "FalseAlarmRisk": "NoAlarm"}[report["verdict"]]
    assert "verdict" in reference.check_audit(rc, json.dumps(report), betas, weights)


def test_flags_a_missing_gap(tmp_path):
    # At speed 1 the motion axis of every grid point of a 3x3 direction
    # grid lies in a coordinate plane, so every row is a degenerate gap.
    argv = ["fig2", "--grid", "3", "--beta-mag", "1.0,0.5"]
    rc, text = _output(argv, tmp_path)
    axes = reference.STANDARD_AXES
    assert rc == 0 and text.count("degenerate") == 18
    assert reference.check_fig2(text, 3, [1.0, 0.5], axes) is None
    planted = text.replace("degenerate,degenerate", "-2.0,-2.0", 1)
    assert "should be a degenerate gap" in reference.check_fig2(planted, 3, [1.0, 0.5], axes)


def test_flags_a_rerun_that_is_not_byte_identical(tmp_path):
    runner = Runner(tmp_path)
    op = _distinct_first_cycle("audit_crosscheck", 3, tmp_path)[0]
    assert runner.run(op)[1] is False
    honest = runner.call

    def one_bit_off(op, tracer=None):
        elapsed, rc, text = honest(op, tracer)
        return elapsed, rc, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    runner.call = one_bit_off
    assert runner.run(op)[1] is True
    assert "not byte-identical" in runner.failures[0]


def test_flags_a_calibration_short_of_tsirelson():
    beta = (0.3, 0.1, 0.2)
    value, _ = reference.chsh(reference.STANDARD_AXES, np.array([beta]))
    assert "not 2*sqrt(2)" in reference.check_calibration(
        abs(value[0]), value[0], reference.STANDARD_AXES, beta)


def test_reference_matches_the_rest_frame_bound():
    value, gaps = reference.chsh(reference.STANDARD_AXES, np.zeros((1, 3)))
    assert not gaps[0] and abs(value[0] + 2.0 * math.sqrt(2.0)) < 1e-15


@pytest.mark.xfail(strict=True, reason=(
    "at speed exactly 1 relbell decides degeneracy from 1 + (beta.a)^2 - |beta|^2, "
    "which cancels, so rows with |alpha| ~ 1e-17 are printed as values; the figures "
    "workload keeps speeds below 1"))
def test_unit_speed_fig2_matches_the_reference(tmp_path):
    rc, text = _output(["fig2", "--grid", "21", "--beta-mag", "1.0"], tmp_path)
    assert rc == 0
    assert reference.check_fig2(text, 21, [1.0], reference.STANDARD_AXES) is None
