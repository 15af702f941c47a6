"""Tests for velocity-distribution loading and the false-alarm audit."""

import csv
import io
import json
import math
import os
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import relbell.audit as audit_module
from conftest import plain_csv, random_beta, random_direction
from relbell.audit import (
    FALSE_ALARM_RISK,
    NO_ALARM,
    VelocityDistribution,
    audit,
    expected_chsh,
    load_distribution,
    per_sample_chsh,
    render_json,
)
from relbell.bell import STANDARD_SETTINGS, chsh_batch, chsh_value
from relbell.errors import EmptyDistribution, ParseError, SuperluminalSample
from relbell.format17 import format_17g
from relbell.kinematics import BeamVelocity, speeds

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)

HEADER = "beta_x,beta_y,beta_z,weight\n"


def test_relbell_audit_is_the_module():
    # relbell exports the audit module under its name, not the audit() function.
    import relbell
    assert relbell.audit is sys.modules["relbell.audit"]
    assert audit_module is sys.modules["relbell.audit"]


def rest_distribution():
    return load_distribution(HEADER + "0.0,0.0,0.0,1.0\n")


class TestLoadDistribution:
    def test_single_rest_sample(self):
        dist = rest_distribution()
        assert len(dist) == 1
        assert np.array_equal(dist.betas, np.zeros((1, 3)))
        assert dist.weights[0] == 1.0

    def test_weights_normalized(self):
        dist = load_distribution(HEADER + "0.1,0,0,2\n0.2,0,0,6\n")
        assert_allclose(dist.weights, [0.25, 0.75], atol=1e-15)

    @pytest.mark.parametrize("count", [2, 4])
    def test_weights_summing_past_float_max(self, count):
        dist = VelocityDistribution.from_samples(np.zeros((count, 3)), [1e308] * count)
        assert dist.weights.tolist() == [1.0 / count] * count

    def test_blank_lines_ignored(self):
        dist = load_distribution(HEADER + "\n0.1,0,0,1\n\n0.2,0,0,1\n\n")
        assert len(dist) == 2

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_distribution("bx,by,bz,w\n0,0,0,1\n")

    def test_bad_float_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_distribution(HEADER + "0,0,0,1\n0,zero,0,1\n")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_distribution(HEADER + "0,0,1\n")

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ParseError, match="weight"):
            load_distribution(HEADER + "0,0,0,0\n")
        with pytest.raises(ParseError, match="weight"):
            load_distribution(HEADER + "0,0,0,-1\n")

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            load_distribution(HEADER + "0,0,inf,1\n")

    def test_superluminal_sample_rejected(self):
        with pytest.raises(SuperluminalSample, match="line 2"):
            load_distribution(HEADER + "1.0,0,0,1\n")
        with pytest.raises(SuperluminalSample):
            load_distribution(HEADER + "0.8,0.8,0,1\n")

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyDistribution):
            load_distribution("")
        with pytest.raises(EmptyDistribution):
            load_distribution(HEADER)


def rowwise_load_distribution(text):
    """load_distribution as first written, one row at a time: the oracle
    for the batch loader. One change: the speed check is
    ``kinematics.speeds``, the predicate every check now shares, where
    it was math.hypot; a record the CSV reader rejects is a ParseError too."""
    rows = []
    try:
        for row in csv.reader(io.StringIO(text)):
            rows.append(row)
    except csv.Error as exc:
        raise ParseError(f"line {len(rows) + 1}: {exc}") from exc
    rows = [(k + 1, row) for k, row in enumerate(rows) if row]
    if not rows:
        raise EmptyDistribution("distribution text is empty")
    line, header = rows[0]
    if tuple(cell.strip() for cell in header) != ("beta_x", "beta_y", "beta_z", "weight"):
        raise ParseError(f"line {line}: header must be 'beta_x,beta_y,beta_z,weight'")
    betas, weights = [], []
    for line, row in rows[1:]:
        if len(row) != 4:
            raise ParseError(f"line {line}: expected 4 fields, got {len(row)}")
        try:
            vals = [float(cell) for cell in row]
        except ValueError as exc:
            raise ParseError(f"line {line}: {exc}") from exc
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(f"line {line}: non-finite value")
        if vals[3] <= 0.0:
            raise ParseError(f"line {line}: weight must be positive, got {vals[3]!r}")
        if speeds(vals[:3]) >= 1.0:
            raise SuperluminalSample(f"line {line}: |beta| >= 1 in sample {tuple(vals[:3])}")
        betas.append(vals[:3])
        weights.append(vals[3])
    if not betas:
        raise EmptyDistribution("distribution has a header but no samples")
    return VelocityDistribution.from_samples(betas, weights)


def outcome(load, text):
    """(betas, weights) on success, (error class, message) on failure."""
    try:
        dist = load(text)
    except Exception as exc:  # any error: its class and message are the outcome
        return type(exc), str(exc)
    return dist.betas.tolist(), dist.weights.tolist()


# Cells of every kind the loader must tell apart: good speeds, zero and
# negative weights, unparsable, non-finite, quoted and padded cells.
hostile_cells = st.one_of(
    st.floats(min_value=-0.5, max_value=0.5).map(repr),
    st.sampled_from(["0", "1", "0.9", "-0.9", "2.5", "-1", "0.0", "-0.0", "1e-300", "1_0",
                     " 0.25 ", '"0.5"', '"0,5"', "zero", "", "nan", "inf", "-inf", "1e999",
                     "0x1p-2", "+.5", "--1"]),
)
hostile_rows = st.one_of(
    st.lists(hostile_cells, min_size=4, max_size=4).map(",".join),
    st.lists(hostile_cells, min_size=1, max_size=6).map(",".join),
    st.sampled_from(["", "0.8,0.8,0,1", "0.6,0.8,0,1", '"0.1,0.1",0,0,1', "0,0,0,1,"]),
)


class TestBatchLoaderMatchesRowLoader:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(hostile_rows, min_size=0, max_size=12),
           newline=st.sampled_from(["\n", "\r\n"]), blank_head=st.booleans())
    def test_hostile_csv(self, rows, newline, blank_head):
        text = ("\n" if blank_head else "") + newline.join([HEADER.strip()] + rows) + newline
        assert outcome(load_distribution, text) == outcome(rowwise_load_distribution, text)

    @pytest.mark.parametrize("text", [
        "", "\n\n", HEADER, HEADER + "\n\n", "bx,by,bz,w\n0,0,0,1\n",
        " beta_x , beta_y,beta_z ,weight\n0.1,0.2,0.3,1\n",
        '"beta_x","beta_y","beta_z","weight"\n"0.1","0.2","0.3","2"\n',
        HEADER + '0.1,0.2,"0.3\n",1\n0,0,0,0\n',
        HEADER + "0.1,0,0,1\n0.2,0,0\n0,zero,0,1\n",
        HEADER + "0.1,0,0,1\n0,zero,0,1\n0.2,0,0\n",
        HEADER + "0.1,0,0,1\n\n0.9,0.9,0,1\n0,0,nan,1\n",
        HEADER + "0.1,0,0,1\n0,0,inf,1\n0,0,0,-1\n",
        HEADER + "0.1,0,0,1\n0.2,0,0,inf\n", HEADER + "0.1,0,0,1e999\n",
        HEADER + "0.1,0,0,1\n0,0,0.5,0\n0.9,0.9,0,1\n",
        HEADER + "0.1,0,0,1\r0.2,0,0,1\n",
    ])
    def test_fixed_hostile_inputs(self, text):
        assert outcome(load_distribution, text) == outcome(rowwise_load_distribution, text)

    @pytest.mark.parametrize("text", [
        HEADER + "0.1,0,0," + "1" * 200_000 + "\n",
        HEADER + "0.1,0,0,1\n\n0," + "0" * 140_000 + ",0,1\n0,0,0,0\n",
        HEADER + '0.1,0,0,1\n"0.1\n' + "2" * 140_000 + '",0,0,1\n',
        HEADER + "0.1,0,0,1\n0,0,0,0\n0," + "0" * 140_000 + ",0,1\n",
    ], ids=["weight", "after_blank", "quoted_newline", "after_bad_weight"])
    def test_field_beyond_the_csv_limit(self, text):
        # csv.reader rejects a field longer than csv.field_size_limit().
        assert outcome(load_distribution, text) == outcome(rowwise_load_distribution, text)

    def test_field_beyond_the_csv_limit_names_its_record(self):
        text = HEADER + "0.1,0,0,1\n\n0,0,0," + "1" * 200_000 + "\n"
        with pytest.raises(ParseError, match=r"^line 4: field larger than field limit"):
            load_distribution(text)

    def test_large_valid_input(self, rng):
        betas = np.array([random_beta(rng, 0.999) for _ in range(3000)])
        lines = [f"{x!r},{y!r},{z!r},{w!r}" for (x, y, z), w in
                 zip(betas.tolist(), rng.uniform(0.1, 2.0, size=3000).tolist())]
        text = HEADER + "\n".join(lines) + "\n"
        assert outcome(load_distribution, text) == outcome(rowwise_load_distribution, text)
        bad = HEADER + "\n".join(lines[:2500] + ["0,0,0,0"] + lines[2500:]) + "\n"
        assert outcome(load_distribution, bad) == (
            ParseError, "line 2502: weight must be positive, got 0.0")


class _Unseekable(io.StringIO):
    """A text stream that cannot seek back, like a pipe."""

    def seekable(self):
        return False


def parametrized(test):
    """The values a test with one ``pytest.mark.parametrize`` runs with."""
    mark, = (mark for mark in test.pytestmark if mark.name == "parametrize")
    return mark.args[1]


# Characters read at a time: 1 makes every line its own block, and the
# larger sizes put a few, about 7 and about 64 short lines in a block.
BLOCK_CHARS = (1, 7, 64, 200, 1600)


class TestBlockLoaderMatchesRowLoader:
    """The hostile-CSV oracle with blocks of a few characters, each case fed
    as a str, a text file and a stream that cannot seek back."""

    @staticmethod
    def check(chars, text):
        want = outcome(rowwise_load_distribution, text)
        with mock.patch.object(audit_module, "_BLOCK_CHARS", chars):
            for source in (text, io.StringIO(text), _Unseekable(text)):
                assert outcome(load_distribution, source) == want

    @pytest.mark.parametrize("chars", BLOCK_CHARS)
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(hostile_rows, min_size=0, max_size=12),
           newline=st.sampled_from(["\n", "\r\n"]), blank_head=st.booleans())
    def test_hostile_csv(self, chars, rows, newline, blank_head):
        self.check(chars, ("\n" if blank_head else "") + newline.join([HEADER.strip()] + rows)
                   + newline)

    @pytest.mark.parametrize("chars", BLOCK_CHARS)
    def test_fixed_hostile_inputs(self, chars):
        for text in parametrized(TestBatchLoaderMatchesRowLoader.test_fixed_hostile_inputs):
            self.check(chars, text)
        self.check(chars, HEADER + "0.1,0,0,1\n0.2,0,0,1")  # no final newline
        # 3 + 5 fields: 6 commas on 2 lines, and every cell a number.
        self.check(chars, HEADER + "0.1,0,0,1\n0.2,0,0\n0.3,0,0,0.5,2\n0.4,0,0,1\n")

    @pytest.mark.parametrize("chars", [1, 7, 64])
    def test_field_beyond_the_csv_limit(self, chars):
        for text in parametrized(TestBatchLoaderMatchesRowLoader.test_field_beyond_the_csv_limit):
            self.check(chars, text)

    @pytest.mark.parametrize("chars", BLOCK_CHARS)
    def test_a_bad_sample_in_the_last_block_names_its_line(self, chars, rng):
        text = plain_csv(rng, 300)
        self.check(chars, text)
        self.check(chars, text + "0.9,0.9,0,1\n")
        self.check(chars, text + "0,0,0,-1\n")

    def test_plain_text_never_reaches_the_csv_reader(self, rng):
        plain = plain_csv(rng, 3000)
        middle = plain.index("\n", len(plain) // 2) + 1
        # Blank lines, which the CSV reader skips: trailing, inner and leading.
        for text in (plain, plain + "\n", plain[:middle] + "\n\n" + plain[middle:], "\n" + plain):
            want = outcome(rowwise_load_distribution, text)
            with mock.patch.object(audit_module, "_load_text", side_effect=AssertionError):
                for chars in (*BLOCK_CHARS, audit_module._BLOCK_CHARS):
                    with mock.patch.object(audit_module, "_BLOCK_CHARS", chars):
                        assert outcome(load_distribution, text) == want
                        assert outcome(load_distribution, io.StringIO(text)) == want


class TestStreamedAuditMemory:
    def test_peak_of_a_200000_sample_audit(self, tmp_path):
        # Load, score and write the report of a 200 000-sample file the
        # way crypto-audit does. Reading and parsing the whole file and
        # joining the report into one string peaked at ~150 MB; blocks
        # of lines, samples and report text keep it near 16 MB.
        path = tmp_path / "dist.csv"
        path.write_text(plain_csv(np.random.default_rng(200_000), 200_000))
        tracemalloc.start()
        try:
            with path.open() as fh, open(os.devnull, "w") as sink:
                report = audit(load_distribution(fh), STANDARD_SETTINGS)
                sink.writelines(report.json_pieces())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.columns.shape == (5, 200_000)
        assert peak < 60e6


# Velocities whose speed is 1 or just below it in the last bit: math.hypot,
# np.linalg.norm and the einsum norm disagreed on each of them.
HYPOT_BELOW_NORM_AT_ONE = "0.8973731978166793,0.3244144631609724,-0.29912639457634765"
HYPOT_AT_ONE_NORM_BELOW = "-0.26393279250813356,0.8965104512066986,0.3558208705458691"
EINSUM_AT_ONE = "-0.11836822717154125,-0.6946164165137589,-0.7095752227254348"


class TestOneSuperluminalPredicate:
    @pytest.mark.parametrize("row", [HYPOT_BELOW_NORM_AT_ONE, EINSUM_AT_ONE])
    def test_speed_one_is_rejected_by_every_route_with_the_line(self, row):
        beta = [float(x) for x in row.split(",")]
        assert speeds(beta) == 1.0
        with pytest.raises(SuperluminalSample, match=r"^line 3: \|beta\| >= 1 in sample "
                           + re.escape(repr(tuple(beta)))):
            load_distribution(HEADER + "0.1,0,0,1\n" + row + ",1\n")
        with pytest.raises(SuperluminalSample) as excinfo:
            VelocityDistribution.from_samples([[0.1, 0.0, 0.0], beta], [1.0, 1.0])
        assert str(excinfo.value) == f"sample 1 has |beta| = 1.0 >= 1: {tuple(beta)!r}"
        assert "np.float64" not in str(excinfo.value)

    def test_speed_below_one_is_accepted_by_every_route(self):
        beta = [float(x) for x in HYPOT_AT_ONE_NORM_BELOW.split(",")]
        assert speeds(beta) < 1.0
        dist = load_distribution(HEADER + "0.1,0,0,1\n" + HYPOT_AT_ONE_NORM_BELOW + ",1\n")
        assert dist.betas[1].tolist() == beta
        direct = VelocityDistribution.from_samples([[0.1, 0.0, 0.0], beta], [1.0, 1.0])
        assert np.array_equal(direct.betas, dist.betas)
        # The kernel sees the checked speed, below light speed.
        speed = speeds(beta)
        expected, _ = chsh_batch(STANDARD_SETTINGS.axes, speed, np.array(beta) / speed)
        assert per_sample_chsh(dist, STANDARD_SETTINGS)[1] == expected


    def test_kernel_runs_at_the_checked_speeds(self, rng):
        dist = VelocityDistribution.from_samples([random_beta(rng, 0.999) for _ in range(500)],
                                                 np.ones(500))
        speed = speeds(dist.betas)
        expected, _ = chsh_batch(STANDARD_SETTINGS.axes, speed, dist.betas / speed[:, None])
        assert np.array_equal(per_sample_chsh(dist, STANDARD_SETTINGS), expected)


def _route_velocities(rng, n=800):
    """Velocities at uniform speeds below 1, at 1 - |beta| down to 1e-12,
    and with components near 1e-160 and near 1e200."""
    direction = np.array([random_direction(rng) for _ in range(4 * n)])
    speed = np.concatenate([rng.uniform(0.0, 1.0, n), 1.0 - 10.0 ** rng.uniform(-12.0, -1.0, n),
                            10.0 ** rng.uniform(-161.0, -159.0, n),
                            10.0 ** rng.uniform(199.0, 201.0, n)])
    return speed[:, None] * direction


class TestRoutesAgree:
    def test_chsh_and_a_one_sample_audit_agree_on_every_velocity(self, rng):
        accepted = 0
        for beta in _route_velocities(rng):
            try:
                bv = BeamVelocity.of(beta)
            except ValueError:
                bv = None
            try:
                dist = VelocityDistribution.from_samples([beta], [1.0])
            except SuperluminalSample:
                dist = None
            if bv is not None:
                assert bv.magnitude == speeds(beta)
            # Both routes take |beta| = 1; only audit samples must stay below it.
            assert (bv is not None and bv.magnitude < 1.0) == (dist is not None)
            if dist is not None:
                accepted += 1
                want = per_sample_chsh(dist, STANDARD_SETTINGS)[0]
                assert chsh_value(STANDARD_SETTINGS, beta) == want
        assert 1600 <= accepted < 3200


class TestPerSampleDirections:
    def test_tiny_and_zero_velocities_get_unit_directions(self):
        betas = [[1e-160, 0.0, 0.0], [0.0, 3e-170, -4e-170], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
        dist = VelocityDistribution.from_samples(betas, np.ones(4))
        with mock.patch.object(audit_module, "chsh_batch", wraps=chsh_batch) as kernel:
            values = per_sample_chsh(dist, STANDARD_SETTINGS)
        _, speed, direction = kernel.call_args.args
        assert_allclose(speeds(direction), 1.0, rtol=0, atol=1e-15)
        assert direction.tolist()[:3] == [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.0, 1.0]]
        assert speed[2] == 0.0
        assert values.tolist() == [chsh_value(STANDARD_SETTINGS, beta) for beta in betas]


class TestFromSamples:
    def test_superluminal_names_sample_index(self):
        betas = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(SuperluminalSample, match="sample 1"):
            VelocityDistribution.from_samples(betas, [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_names_sample(self, bad):
        betas = [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]
        with pytest.raises(ValueError) as excinfo:
            VelocityDistribution.from_samples(betas, [1.0, 1.0])
        assert str(excinfo.value) == f"sample 1 has a non-finite component: {(bad, 0.0, 0.0)!r}"

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            VelocityDistribution.from_samples([[0.0, 0.0, 0.0]], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyDistribution):
            VelocityDistribution.from_samples(np.zeros((0, 3)), [])


class TestExpectedChsh:
    def test_rest_delta_gives_quantum_bound(self):
        value = expected_chsh(rest_distribution(), STANDARD_SETTINGS)
        assert abs(value + TWO_SQRT_TWO) < 1e-12

    def test_moving_delta_matches_direct_evaluation(self):
        beta = np.array([0.99, 0.0, 0.0])
        dist = VelocityDistribution.from_samples([beta], [3.0])
        value = expected_chsh(dist, STANDARD_SETTINGS)
        assert_allclose(value, chsh_value(STANDARD_SETTINGS, beta), atol=1e-15)

    def test_mixture_is_linear(self):
        rest = np.zeros(3)
        fast = np.array([0.99, 0.0, 0.0])
        dist = VelocityDistribution.from_samples([rest, fast], [1.0, 1.0])
        value = expected_chsh(dist, STANDARD_SETTINGS)
        halves = 0.5 * (
            chsh_value(STANDARD_SETTINGS, rest) + chsh_value(STANDARD_SETTINGS, fast)
        )
        assert_allclose(value, halves, atol=1e-14)

    def test_permutation_invariance(self, rng):
        betas = [random_beta(rng, 0.98) for _ in range(40)]
        weights = rng.uniform(0.1, 2.0, size=40)
        dist = VelocityDistribution.from_samples(betas, weights)
        base = expected_chsh(dist, STANDARD_SETTINGS)
        for _ in range(5):
            order = rng.permutation(40)
            shuffled = VelocityDistribution.from_samples(
                [betas[i] for i in order], weights[order]
            )
            assert expected_chsh(shuffled, STANDARD_SETTINGS) == base

    def test_never_exceeds_quantum_bound(self, rng):
        for _ in range(10):
            count = int(rng.integers(1, 30))
            dist = VelocityDistribution.from_samples(
                [random_beta(rng, 0.995) for _ in range(count)],
                rng.uniform(0.05, 1.0, size=count),
            )
            assert abs(expected_chsh(dist, STANDARD_SETTINGS)) <= TWO_SQRT_TWO + 1e-9

    def test_per_sample_values(self, rng):
        betas = [np.zeros(3), random_beta(rng, 0.9)]
        dist = VelocityDistribution.from_samples(betas, [1.0, 1.0])
        values = per_sample_chsh(dist, STANDARD_SETTINGS)
        assert values.shape == (2,)
        assert abs(values[0] + TWO_SQRT_TWO) < 1e-12


class TestAudit:
    def test_rest_delta_is_quiet(self):
        report = audit(rest_distribution(), STANDARD_SETTINGS, threshold=2.7)
        assert report.verdict == NO_ALARM
        assert abs(report.expected_chsh + TWO_SQRT_TWO) < 1e-12
        assert abs(report.degradation) < 1e-12

    def test_fast_beam_trips_false_alarm(self):
        dist = load_distribution(HEADER + "0.99,0.0,0.0,1.0\n")
        report = audit(dist, STANDARD_SETTINGS, threshold=2.7)
        assert report.verdict == FALSE_ALARM_RISK
        assert abs(report.expected_chsh) < 2.3
        assert report.degradation > 0.5

    def test_degradation_non_negative_for_rest_optimal_settings(self, rng):
        for _ in range(10):
            count = int(rng.integers(1, 20))
            dist = VelocityDistribution.from_samples(
                [random_beta(rng, 0.99) for _ in range(count)],
                rng.uniform(0.1, 1.0, size=count),
            )
            report = audit(dist, STANDARD_SETTINGS)
            assert report.degradation >= -1e-9

    def test_threshold_at_quantum_bound(self):
        quiet = audit(rest_distribution(), STANDARD_SETTINGS, threshold=TWO_SQRT_TWO)
        assert quiet.verdict == NO_ALARM  # |expected| == threshold: no alarm
        dist = load_distribution(HEADER + "0.5,0.5,0.0,1.0\n")
        assert audit(dist, STANDARD_SETTINGS, threshold=TWO_SQRT_TWO).verdict == FALSE_ALARM_RISK

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            audit(rest_distribution(), STANDARD_SETTINGS, threshold=0.0)
        with pytest.raises(ValueError):
            audit(rest_distribution(), STANDARD_SETTINGS, threshold=3.0)
        with pytest.raises(ValueError):
            audit(rest_distribution(), STANDARD_SETTINGS, threshold=-1.0)

    def test_samples_recorded(self):
        dist = load_distribution(HEADER + "0,0,0,1\n0.5,0,0,3\n")
        report = audit(dist, STANDARD_SETTINGS)
        assert len(report.samples) == 2
        beta, weight, value = report.samples[1]
        assert beta == (0.5, 0.0, 0.0)
        assert_allclose(weight, 0.75, atol=1e-15)
        assert_allclose(value, chsh_value(STANDARD_SETTINGS, np.array([0.5, 0, 0])), atol=1e-15)


class TestJsonRendering:
    def test_report_round_trips_bit_exactly(self, rng):
        betas = [random_beta(rng, 0.97) for _ in range(5)]
        dist = VelocityDistribution.from_samples(betas, rng.uniform(0.2, 1.0, size=5))
        report = audit(dist, STANDARD_SETTINGS)
        text = report.to_json()
        parsed = json.loads(text)
        assert parsed["expected_chsh"] == report.expected_chsh
        assert parsed["ideal_chsh"] == report.ideal_chsh
        assert parsed["degradation"] == report.degradation
        assert parsed["verdict"] == report.verdict
        for entry, (beta, weight, value) in zip(parsed["samples"], report.samples):
            assert (entry["beta_x"], entry["beta_y"], entry["beta_z"]) == beta
            assert entry["weight"] == weight
            assert entry["chsh"] == value

    def test_expected_keys(self):
        report = audit(rest_distribution(), STANDARD_SETTINGS)
        parsed = json.loads(report.to_json())
        assert set(parsed) == {
            "expected_chsh", "ideal_chsh", "degradation", "alarm_threshold",
            "verdict", "samples", "metadata",
        }
        assert "threshold_semantics" in parsed["metadata"]

    def test_render_json_scalars(self):
        assert render_json(True) == "true"
        assert render_json(False) == "false"
        assert render_json(3) == "3"
        assert render_json(0.1) == format(0.1, ".17g")
        assert render_json("x") == '"x"'
        assert render_json({}) == "{}"
        assert render_json([]) == "[]"

    def test_render_json_structure(self):
        text = render_json({"a": [1.0, 2.0], "b": {"c": True}})
        parsed = json.loads(text)
        assert parsed == {"a": [1.0, 2.0], "b": {"c": True}}
        assert text.startswith("{\n  ")

    def test_report_bytes_match_the_recursive_renderer(self):
        # A seeded 1000-sample report, with every sample a numpy scalar
        # read cell by cell and every value rendered by one recursive call
        # each, as the report was first built, must give the same bytes.
        rng = np.random.default_rng(1000)
        betas = [random_beta(rng, 0.999) for _ in range(1000)]
        dist = VelocityDistribution.from_samples(betas, rng.uniform(0.1, 1.0, size=1000))
        report = audit(dist, STANDARD_SETTINGS)
        values = per_sample_chsh(dist, STANDARD_SETTINGS)
        assert report.samples == tuple(
            (tuple(float(x) for x in dist.betas[k]), float(dist.weights[k]), float(values[k]))
            for k in range(len(dist)))
        doc = report.to_json_dict()
        doc["nested"] = [[1, True, None, "s"], {"k": (), "z": {}}, np.float64(0.1)]
        assert render_json(doc) == recursive_render_json(doc)
        assert report.to_json() == recursive_render_json(report.to_json_dict()) + "\n"

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_report_bytes_match_across_sample_blocks(self, block):
        rng = np.random.default_rng(block)
        betas = [random_beta(rng, 0.999) for _ in range(50)]
        report = audit(VelocityDistribution.from_samples(betas, rng.uniform(0.1, 1.0, size=50)),
                       STANDARD_SETTINGS)
        with mock.patch.object(audit_module, "_JSON_BLOCK_SAMPLES", block):
            assert report.to_json() == recursive_render_json(report.to_json_dict()) + "\n"


    @pytest.mark.parametrize("crossover", [1, audit_module._KERNEL_MIN_SAMPLES, 4096])
    @pytest.mark.parametrize("block", [1, audit_module._KERNEL_MIN_SAMPLES, 4096])
    def test_kernel_report_bytes_match_the_template(self, block, crossover):
        # Beam samples (beta_z = 0.0 in every one) and near-rest samples
        # (|beta| down to ~1e-7, in the e-XX form), weights near 1e-3 (the
        # 0.000 prefix), rendered through the kernel and the template.
        rng = np.random.default_rng(block + crossover)
        count = 700
        speed = 0.99 + rng.uniform(-0.003, 0.003, size=count // 2)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=count // 2)
        beam = np.stack([speed * np.cos(phi), -speed * np.sin(phi), np.zeros(count // 2)], -1)
        rest = rng.normal(0.0, 0.02, size=(count - count // 2, 3)) * 10.0 ** rng.integers(
            -4, 1, size=(count - count // 2, 1))
        dist = VelocityDistribution.from_samples(np.vstack([beam, rest]),
                                                 rng.uniform(0.5, 2.0, size=count))
        report = audit(dist, STANDARD_SETTINGS)
        with mock.patch.object(audit_module, "_JSON_BLOCK_SAMPLES", block), \
                mock.patch.object(audit_module, "_KERNEL_MIN_SAMPLES", crossover):
            assert report.to_json() == recursive_render_json(report.to_json_dict()) + "\n"


def g17(values):
    """The text format_17g writes for each value, its NUL bytes dropped."""
    planes = np.ascontiguousarray(format_17g(np.array(values, dtype=float)).T)
    return [row.tobytes().replace(b"\0", b"").decode() for row in planes]


def _neighbours(values):
    return [y for v in values for y in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))]


POWERS_OF_TEN = [float(f"1e{j}") for j in range(-323, 309)]
#: Doubles within 5e-18 below a power of ten: their 17-digit integer
#: carries to 1e17, and the exponent moves up.
CARRIES = [x for j, x in zip(range(-323, 309), POWERS_OF_TEN)
           if 10 ** j * (1 - Fraction(5, 10 ** 18)) <= Fraction(x) < 10 ** j]
#: Exact ties at the 17th digit, which Python rounds half to even: up for
#: 3 * 2**-25 = 8.94069671630859375e-08, down for 2**-25.
TIES = [2.0 ** -25, 3 * 2.0 ** -25, -3 * 2.0 ** -25, 5 * 2.0 ** -26]


class TestFormat17g:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_matches_percent_format_on_every_double(self, values):
        assert g17(values) == ["%.17g" % v for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(10 ** 15, 10 ** 17),
                              st.integers(-300, 290)), min_size=1, max_size=64))
    def test_matches_percent_format_near_halfway(self, values):
        assert g17(values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("values", [
        pytest.param([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                      2.2250738585072014e-308, -1.5e-315], id="zeros-subnormals"),
        pytest.param(_neighbours(POWERS_OF_TEN), id="powers-of-ten"),
        pytest.param([0.5, -0.5, 123.0, 1e16, -1e16, 0.25, 100.0, 1e-4, 1e15, 12345.0, 0.1,
                      2.0, 1.5e-7, -2.5e20], id="short-decimals"),
        pytest.param(_neighbours([1e-5, 1e-4, 1e16, 1e17, 99999999999999984.0]),
                     id="fixed-exponent-switch"),
        pytest.param(CARRIES + [-x for x in CARRIES], id="carries"),
        pytest.param(TIES, id="ties"),
    ])
    def test_targeted_values(self, values):
        assert g17(values) == ["%.17g" % v for v in values]

    def test_the_targets_exist(self):
        # 1e98, 1e129, 1e153 and 1e220, all inside the kernel's table.
        assert CARRIES and all(1e-280 < x < 1e280 for x in CARRIES)
        assert ["%.17g" % x for x in TIES[:2]] == ["2.9802322387695312e-08", "8.9406967163085938e-08"]

    def test_beyond_the_table_and_non_finite_values(self):
        values = [1e300, -1e-300, math.nan, math.inf, -math.inf, 1.7976931348623157e308]
        assert g17(values) == ["%.17g" % v for v in values]


def recursive_render_json(obj, indent=0):
    """The report renderer as first written: one recursive call per value."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}{json.dumps(key)}: {recursive_render_json(val, indent + 1)}'
                 for key, val in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{recursive_render_json(val, indent + 1)}" for val in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)
