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
from functools import cache
from itertools import chain

import numpy as np

from .bell import ChshSettings, chsh_batch, chsh_value
from .errors import DegenerateObservable, EmptyDistribution, ParseError, SuperluminalSample
from .kinematics import Z_AXIS, lengths_and_directions, speeds

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
        finite = np.isfinite(betas).all(axis=1)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"sample {k} has a non-finite component: {tuple(betas[k].tolist())}")
        mags = speeds(betas)
        bad = np.flatnonzero(mags >= 1.0)
        if bad.size:
            k = int(bad[0])
            raise SuperluminalSample(
                f"sample {k} has |beta| = {float(mags[k])!r} >= 1: {tuple(betas[k].tolist())}"
            )
        # A power-of-two rescale that brings the largest weight into
        # [0.5, 1) is exact, so the quotients are those of the unscaled
        # weights, and no sum of n weights can overflow.
        weights = np.ldexp(weights, -math.frexp(float(weights.max()))[1])
        return cls(betas=betas, weights=weights / math.fsum(memoryview(weights)))


def load_distribution(source) -> VelocityDistribution:
    """Parse CSV, a str or a text file open for reading, into a velocity
    distribution.

    Errors carry 1-based line numbers: ParseError for a record the CSV
    reader rejects, a bad header, a malformed number, a wrong column
    count, or a non-positive weight;
    SuperluminalSample for |beta| >= 1; EmptyDistribution when no data
    rows remain. Line numbers count CSV records, blank ones included.
    Plain CSV is parsed a block at a time (``_plain_distribution``); other text,
    and text with a bad sample, is read whole and parsed by the CSV reader.
    """
    if not isinstance(source, str) and not source.seekable():
        source = source.read()
    start = None if isinstance(source, str) else source.tell()
    dist = _plain_distribution(_line_blocks(source))
    if dist is None and start is not None:
        source.seek(start)
        source = source.read()
    return _load_text(source) if dist is None else dist


# Characters read at a time; a plain file's blocks stay below csv.field_size_limit().
_BLOCK_CHARS = 1 << 16


def _line_blocks(source):
    """``source`` (a str or a text file) in blocks of whole lines, about
    ``_BLOCK_CHARS`` characters each, each ending in a newline."""
    if isinstance(source, str):
        pieces = (source[k:k + _BLOCK_CHARS] for k in range(0, len(source), _BLOCK_CHARS))
    else:
        pieces = iter(lambda: source.read(_BLOCK_CHARS), "")
    tail = ""
    for piece in pieces:
        lines, newline, rest = piece.rpartition("\n")
        if newline:
            yield tail + lines + newline
            tail = ""
        tail += rest
    if tail:
        yield tail + "\n"


def _plain_distribution(blocks):
    """The distribution of blocks that hold the exact header line, then
    lines of four fields, each a float, with no quote or carriage return;
    lines that are only a newline are dropped, as the CSV reader skips
    them. None for any other text, a block longer than
    csv.field_size_limit() or a bad sample, which the CSV path reports."""
    header, _, rest = next(filter(None, (b.lstrip("\n") for b in blocks)), "").partition("\n")
    if header != ",".join(_HEADER):
        return None
    limit, parts = csv.field_size_limit(), []
    for block in filter(None, chain([rest], blocks)):
        if '"' in block or "\r" in block or len(block) > limit:
            return None
        try:  # each line's commas and newline, in order, must read ",,,\n"
            while True:
                raw = np.frombuffer(block.encode(), np.uint8)
                seps = raw[(raw == ord(",")) | (raw == ord("\n"))]
                if not seps.size % 4 and (seps.reshape(-1, 4) == list(b",,,\n")).all():
                    break
                # Blank lines misalign the separators: look for them only then.
                unblank = block.replace("\n\n", "\n").lstrip("\n")
                if unblank == block:
                    return None
                block = unblank
            parts.append(np.fromiter(map(float, block[:-1].replace("\n", ",").split(",")),
                                     float, seps.size))
        except ValueError:  # a cell is not a number
            return None
    try:  # concatenate raises ValueError without parts: a header but no samples
        cells = np.concatenate(parts).reshape(-1, 4)
        del parts  # the blocks' arrays, a second copy of the cells
        return VelocityDistribution.from_samples(np.ascontiguousarray(cells[:, :3]), cells[:, 3])
    except (ValueError, EmptyDistribution, SuperluminalSample):  # only blank lines, or a bad sample
        return None


def _load_text(text: str) -> VelocityDistribution:
    """``load_distribution`` of CSV text through the CSV reader."""
    records = []
    try:
        # extend keeps the records read before a failing one.
        records.extend(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"line {len(records) + 1}: {exc}") from exc
    first = next((k for k, row in enumerate(records) if row), None)
    if first is None:
        raise EmptyDistribution("distribution text is empty")
    if tuple(cell.strip() for cell in records[first]) != _HEADER:
        raise ParseError(f"line {first + 1}: header must be {','.join(_HEADER)!r}")
    body = records[first + 1:]
    fields = set(map(len, body)) - {0}
    if not fields:
        raise EmptyDistribution("distribution has a header but no samples")
    if fields == {4}:
        try:
            cells = np.fromiter(map(float, chain.from_iterable(body)), dtype=float).reshape(-1, 4)
            return VelocityDistribution.from_samples(np.ascontiguousarray(cells[:, :3]),
                                                     cells[:, 3])
        except (ValueError, SuperluminalSample):  # a cell is not a number, or a sample is bad
            pass
    for line, row in enumerate(body, first + 2):
        if not row:
            continue
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
    raise AssertionError("the batch check failed but every row passes")


# Samples per chsh_batch call in per_sample_chsh (~220 bytes of temporaries each).
_CHSH_BLOCK_SAMPLES = 1 << 14


def per_sample_chsh(dist: VelocityDistribution, settings: ChshSettings) -> np.ndarray:
    """CHSH value at each velocity sample, ``_CHSH_BLOCK_SAMPLES`` per ``chsh_batch`` call.

    A degenerate sample (only possible at |beta| = 1, which the loader
    already rejects) is reported with its index.
    """
    values = np.empty(len(dist))
    for start in range(0, len(dist), _CHSH_BLOCK_SAMPLES):
        speed, direction = lengths_and_directions(dist.betas[start:start + _CHSH_BLOCK_SAMPLES])
        direction[speed == 0.0] = Z_AXIS
        values[start:start + speed.size], degenerate = chsh_batch(settings.axes, speed, direction)
        if degenerate.any():
            k, axis = (int(i) for i in np.argwhere(degenerate)[0])
            raise DegenerateObservable(
                f"sample {start + k}: setting {settings.labeled()[axis][0]} degenerate at "
                f"|beta| = {float(speed[k])!r}")
    return values


def _weighted_sum(dist: VelocityDistribution, values) -> float:
    """Correctly rounded sum of weight * value, so exactly independent of
    the sample order."""
    return math.fsum(memoryview(dist.weights * values))


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

    ``columns`` is a read-only (5, n) array holding beta_x, beta_y,
    beta_z, weight and chsh of every sample; ``samples`` gives the same
    numbers as a tuple of ``((beta_x, beta_y, beta_z), weight, chsh)``.
    """

    expected_chsh: float
    ideal_chsh: float
    degradation: float
    alarm_threshold: float
    verdict: str
    columns: np.ndarray

    @property
    def samples(self) -> tuple:
        beta_x, beta_y, beta_z, weights, values = self.columns.tolist()
        return tuple(zip(zip(beta_x, beta_y, beta_z), weights, values))

    def to_json_dict(self) -> dict:
        return self._document([
            {
                "beta_x": beta[0], "beta_y": beta[1], "beta_z": beta[2],
                "weight": weight, "chsh": value,
            }
            for beta, weight, value in self.samples
        ])

    def to_json(self) -> str:
        """``render_json(self.to_json_dict())`` and a newline, byte for
        byte: the pieces of ``json_pieces`` joined."""
        return "".join(self.json_pieces())

    def json_pieces(self):
        """The text of ``to_json`` in pieces: ``render_json`` of the report
        with an empty sample list, filled a piece of ``_JSON_BLOCK_SAMPLES``
        samples at a time (``_samples_json``)."""
        text = render_json(self._document([])) + "\n"
        count = self.columns.shape[1]
        if not count:
            yield text
            return
        head, _, tail = text.partition('"samples": []')
        yield head + '"samples": [\n    '
        for start in range(0, count, _JSON_BLOCK_SAMPLES):
            yield ((_SAMPLE_SEP if start else "")
                   + _samples_json(self.columns[:, start:start + _JSON_BLOCK_SAMPLES]))
        yield "\n  ]" + tail

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
# samples, which bounds the memory of the per-sample text.
_SAMPLE_JSON = ('{\n      "beta_x": %.17g,\n      "beta_y": %.17g,\n      "beta_z": %.17g,\n'
                '      "weight": %.17g,\n      "chsh": %.17g\n    }')
_SAMPLE_SEP = ",\n    "
_JSON_BLOCK_SAMPLES = 1 << 12
# Blocks of fewer samples fill the template one sample at a time: below
# this size the fixed cost (~0.2 ms) of the column kernel's numpy calls
# exceeds what it saves. Break-even measured at 70-80 samples with warm
# caches and at 100-130 with other commands run between calls.
_KERNEL_MIN_SAMPLES = 128


def _samples_json(block) -> str:
    """The samples of a (5, m) column block, ``_SAMPLE_JSON`` each, joined
    by ``_SAMPLE_SEP``.

    Large blocks are laid out as a (row width, m) byte array: the
    template's text in constant rows, each value's ``format_17g`` planes
    in its slot. Transposed, with its NUL bytes dropped, it is the text.
    """
    count = block.shape[1]
    if count < _KERNEL_MIN_SAMPLES:
        return _SAMPLE_SEP.join([_SAMPLE_JSON % row for row in zip(*block.tolist())])
    from .format17 import SLOT, format_17g

    planes = format_17g(block.ravel())
    row_text, row_slots, row_width = _row_layout(SLOT)
    rows = np.empty((row_width, count), np.uint8)
    for offset, text in row_text:
        rows[offset:offset + text.size] = text[:, None]
    for k, offset in enumerate(row_slots):
        rows[offset:offset + SLOT] = planes[:, k * count:(k + 1) * count]
    del planes
    rows[:len(_SAMPLE_SEP), 0] = 0  # the first sample has no separator
    return str(rows.T[rows.T != 0], "ascii")


@cache
def _row_layout(slot: int):
    """Where the template's text and the five values, ``slot`` bytes
    each, sit in a row of ``_samples_json``'s byte array (the separator,
    then ``_SAMPLE_JSON``), and the row's width."""
    text, slots, offset = [], [], 0
    for k, piece in enumerate((_SAMPLE_SEP + _SAMPLE_JSON).split("%.17g")):
        if k:
            slots.append(offset)
            offset += slot
        text.append((offset, np.frombuffer(piece.encode(), np.uint8)))
        offset += len(piece)
    return text, slots, offset


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits (full double
    precision), so reports round-trip bit-exactly.

    One recursive call per value: it lays out report headers and Dirac
    records; ``AuditReport.to_json`` renders audit samples in blocks.
    """
    if isinstance(obj, (dict, list, tuple)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        pad = "  " * indent
        sep = ",\n" + pad + "  "
        if isinstance(obj, dict):
            body = sep.join([f"{json.dumps(key)}: {render_json(val, indent + 1)}"
                             for key, val in obj.items()])
            return f"{{\n{pad}  {body}\n{pad}}}"
        body = sep.join([render_json(val, indent + 1) for val in obj])
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
    columns = np.vstack([dist.betas.T, dist.weights, values])
    columns.flags.writeable = False
    return AuditReport(
        expected_chsh=expected,
        ideal_chsh=ideal,
        degradation=abs(ideal) - abs(expected),
        alarm_threshold=threshold,
        verdict=FALSE_ALARM_RISK if abs(expected) < threshold else NO_ALARM,
        columns=columns,
    )
