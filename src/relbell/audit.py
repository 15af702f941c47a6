"""False-alarm audit for entanglement-monitored key distribution.

A key-distribution link that monitors the CHSH combination will alarm
when |c| drops below a chosen margin. For particle pairs with
relativistic source velocities the correlation is suppressed even though
nothing was tampered with, so an operator who calibrated the alarm at
rest can be tripped by kinematics alone. Given a discrete distribution
of pair velocities, this module computes the velocity-averaged CHSH
value and reports whether the chosen alarm margin would misfire.

Velocity distributions arrive as CSV text with the exact header
``beta_x,beta_y,beta_z,weight``; weights are positive and are normalized
on load, and samples must stay strictly below light speed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .bell import ChshSettings, chsh_batch, chsh_value
from .errors import DegenerateObservable, EmptyDistribution, ParseError, SuperluminalSample
from .kinematics import Z_AXIS, speeds

NO_ALARM = "NoAlarm"
FALSE_ALARM_RISK = "FalseAlarmRisk"

_HEADER = ("beta_x", "beta_y", "beta_z", "weight")
_MAX_CHSH = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class VelocityDistribution:
    """Discrete pair-velocity distribution with normalized weights."""

    betas: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.betas.shape[0]

    @classmethod
    def from_samples(cls, betas, weights) -> "VelocityDistribution":
        betas = np.asarray(betas, dtype=float).reshape(-1, 3)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if betas.shape[0] == 0:
            raise EmptyDistribution("no velocity samples")
        if betas.shape[0] != weights.shape[0]:
            raise ValueError("one weight per velocity sample required")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        mags = speeds(betas)
        bad = np.flatnonzero(mags >= 1.0)
        if bad.size:
            k = int(bad[0])
            raise SuperluminalSample(
                f"sample {k} has |beta| = {float(mags[k])!r} >= 1: {tuple(betas[k].tolist())}"
            )
        return cls(betas=betas, weights=weights / math.fsum(weights.tolist()))


def load_distribution(text: str) -> VelocityDistribution:
    """Parse CSV text into a velocity distribution.

    Errors carry 1-based line numbers: ParseError for a bad header, a
    malformed number, a wrong column count, or a non-positive weight;
    SuperluminalSample for |beta| >= 1; EmptyDistribution when no data
    rows remain. Line numbers count CSV records, blank ones included.
    """
    records = list(csv.reader(io.StringIO(text)))
    first = next((k for k, row in enumerate(records) if row), None)
    if first is None:
        raise EmptyDistribution("distribution text is empty")
    if tuple(cell.strip() for cell in records[first]) != _HEADER:
        raise ParseError(f"line {first + 1}: header must be {','.join(_HEADER)!r}")
    body = records[first + 1:]
    fields = set(map(len, body)) - {0}
    if not fields:
        raise EmptyDistribution("distribution has a header but no samples")
    # All cells go through one map(float) into an (n, 4) array and are
    # checked at once; only input that fails walks the rows, to name the
    # first offending line.
    if fields == {4}:
        try:
            cells = np.fromiter(map(float, chain.from_iterable(body)), dtype=float).reshape(-1, 4)
        except ValueError:  # a cell is not a number
            cells = None
        if cells is not None:
            betas = np.ascontiguousarray(cells[:, :3])
            weights = cells[:, 3]
            if np.isfinite(cells).all() and (weights > 0.0).all() and (speeds(betas) < 1.0).all():
                return VelocityDistribution.from_samples(betas, weights)
    for line, row in enumerate(body, first + 2):
        if row:
            _check_row(line, row)
    raise AssertionError("the batch check failed but every row passes")


def _check_row(line: int, row: list) -> None:
    """Raise the error for one CSV data row at a 1-based line."""
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


def per_sample_chsh(dist: VelocityDistribution, settings: ChshSettings) -> np.ndarray:
    """CHSH value at each velocity sample, in one ``chsh_batch`` call.

    A degenerate sample (only possible at |beta| = 1, which the loader
    already rejects) is reported with its index.
    """
    speed = speeds(dist.betas)
    moving = speed > 0.0
    direction = np.tile(Z_AXIS, (len(dist), 1))
    direction[moving] = dist.betas[moving] / speed[moving, None]
    values, degenerate = chsh_batch(settings.axes, speed, direction)
    if degenerate.any():
        k, axis = (int(i) for i in np.argwhere(degenerate)[0])
        raise DegenerateObservable(
            f"sample {k}: setting {settings.labeled()[axis][0]} degenerate at "
            f"|beta| = {float(speed[k])!r}")
    return values


def _weighted_sum(dist: VelocityDistribution, values) -> float:
    """Correctly rounded sum of weight * value, so exactly independent of
    the sample order."""
    return math.fsum((dist.weights * values).tolist())


def expected_chsh(dist: VelocityDistribution, settings: ChshSettings) -> float:
    """Velocity-averaged CHSH value, correctly rounded sum."""
    return _weighted_sum(dist, per_sample_chsh(dist, settings))


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Outcome of one false-alarm audit.

    ``degradation`` is |ideal| - |expected|, how much of the rest-frame
    correlation the velocity spread eats. For settings that are optimal
    at rest it cannot be negative beyond rounding; for deliberately
    suboptimal settings motion can improve the correlation, which shows
    up as a negative value.
    """

    expected_chsh: float
    ideal_chsh: float
    degradation: float
    alarm_threshold: float
    verdict: str
    samples: tuple

    def to_json_dict(self) -> dict:
        return self._document([
            {
                "beta_x": beta[0], "beta_y": beta[1], "beta_z": beta[2],
                "weight": weight, "chsh": value,
            }
            for beta, weight, value in self.samples
        ])

    def to_json(self) -> str:
        """``render_json(self.to_json_dict())`` and a newline, byte for byte.

        ``render_json`` lays out the report with an empty sample list; the
        samples, five floats each at one depth, fill one fixed template
        block by block, and the pieces are joined once.
        """
        text = render_json(self._document([])) + "\n"
        if not self.samples:
            return text
        head, _, tail = text.partition('"samples": []')
        sep = ",\n    "
        parts = [head, '"samples": [\n    ']
        for start in range(0, len(self.samples), _JSON_BLOCK_SAMPLES):
            if start:
                parts.append(sep)
            parts.append(sep.join([
                _SAMPLE_JSON % (beta[0], beta[1], beta[2], weight, value)
                for beta, weight, value in self.samples[start:start + _JSON_BLOCK_SAMPLES]]))
        parts += ["\n  ]", tail]
        return "".join(parts)

    def _document(self, samples) -> dict:
        return {
            "expected_chsh": self.expected_chsh,
            "ideal_chsh": self.ideal_chsh,
            "degradation": self.degradation,
            "alarm_threshold": self.alarm_threshold,
            "verdict": self.verdict,
            "samples": samples,
            "metadata": {
                "threshold_semantics":
                    "alarm_threshold is an operator-chosen margin on |expected_chsh|,"
                    " not a physical constant",
            },
        }


# One audit sample as render_json lays it out in a report, an item of the
# "samples" list two levels down; AuditReport.to_json fills it in blocks of
# samples, which bounds the memory of the per-sample strings.
_SAMPLE_JSON = ('{\n      "beta_x": %.17g,\n      "beta_y": %.17g,\n      "beta_z": %.17g,\n'
                '      "weight": %.17g,\n      "chsh": %.17g\n    }')
_JSON_BLOCK_SAMPLES = 1 << 12


# Dict keys repeat across records (every audit sample has the same five),
# so their JSON quoting is cached.
_json_key = lru_cache(maxsize=256)(json.dumps)


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (full double
    precision), so reports round-trip bit-exactly."""
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        pad = "  " * indent
        sep = ",\n" + pad + "  "
        # Floats, nearly every value in a report, are formatted in place
        # rather than through a recursive call each; the result is one
        # f-string, so no partial copies of a large body pile up.
        if isinstance(obj, dict):
            body = sep.join([
                f"{_json_key(key)}: {val:.17g}" if type(val) is float
                else f"{_json_key(key)}: {render_json(val, indent + 1)}"
                for key, val in obj.items()])
            return f"{{\n{pad}  {body}\n{pad}}}"
        body = sep.join([f"{val:.17g}" if type(val) is float else render_json(val, indent + 1)
                         for val in obj])
        return f"[\n{pad}  {body}\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def audit(dist: VelocityDistribution, settings: ChshSettings,
          threshold: float = 2.7) -> AuditReport:
    """Audit a velocity distribution against an alarm margin.

    The verdict is FalseAlarmRisk exactly when |expected_chsh| falls
    below ``threshold``, which must lie in (0, 2 sqrt(2)]. The ideal
    value is the CHSH combination of the same settings at rest.
    """
    threshold = float(threshold)
    if not (0.0 < threshold <= _MAX_CHSH + 1e-12):
        raise ValueError(f"threshold must lie in (0, 2*sqrt(2)], got {threshold!r}")
    values = per_sample_chsh(dist, settings)
    expected = _weighted_sum(dist, values)
    ideal = chsh_value(settings, np.zeros(3))
    return AuditReport(
        expected_chsh=expected,
        ideal_chsh=ideal,
        degradation=abs(ideal) - abs(expected),
        alarm_threshold=threshold,
        verdict=FALSE_ALARM_RISK if abs(expected) < threshold else NO_ALARM,
        samples=tuple(zip(zip(*dist.betas.T.tolist()), dist.weights.tolist(), values.tolist())),
    )
