"""Tests for velocity-distribution loading and the false-alarm audit."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_beta
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
from relbell.bell import STANDARD_SETTINGS, chsh_value
from relbell.errors import EmptyDistribution, ParseError, SuperluminalSample

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)

HEADER = "beta_x,beta_y,beta_z,weight\n"


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


class TestFromSamples:
    def test_superluminal_names_sample_index(self):
        betas = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(SuperluminalSample, match="sample 1"):
            VelocityDistribution.from_samples(betas, [1.0, 1.0])

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
