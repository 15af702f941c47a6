"""Seeded inputs for the two workloads.

Four kinds of op (figures, calibrate, audit, crosscheck) are built by
their own generators; each workload interleaves two of them in one
cycle (see WORKLOADS at the end). A run is a sequence of cycles. The composition of a cycle (which kinds
of op, at which sizes, how many of each) is fixed, and chosen so that
the median and the 90th percentile of op time land inside a group of
ops of equal cost; otherwise a percentile that falls between two groups
would jump with every seed. The seed draws everything else: settings,
velocities, speed lists, distribution contents, the grids of the
mid-size scans, and the order of the ops. Most inputs are run twice in
their cycle, and the second run must reproduce the first byte for byte.

relbell receives only what is built here: CLI argument lists, the
velocity-distribution CSV files they name, and the velocities of the
library calls. Floats are passed through ``tolist()`` before ``repr``,
because ``repr(np.float64(x))`` is ``np.float64(x)`` under numpy 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference


@dataclass(frozen=True)
class Op:
    """One input of the workload.

    ``key`` is shared by every run of the same input. ``check`` takes the
    exit code and output text of the first run and returns None or the
    reason the output is wrong. A CLI op has ``argv``; a calibrate op has
    ``beta`` and no ``argv``, and starts from the settings the previous op
    returned when ``warm`` is set, else from the standard settings.
    """

    key: int
    items: int
    check: Callable[[int, str], str | None]
    argv: tuple = ()
    beta: tuple | None = None
    warm: bool = False


def _fmt(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _unit(rng) -> list:
    v = rng.normal(size=3)
    return (v / np.linalg.norm(v)).tolist()


def _velocity(rng, max_speed) -> list:
    return (rng.uniform(0.0, max_speed) * np.array(_unit(rng))).tolist()


def _settings(rng):
    """Standard settings half of the time (no flag), random axes otherwise.

    Returns (extra argv, axes for the reference).
    """
    if rng.random() < 0.5:
        return (), reference.STANDARD_AXES
    axes = np.array([_unit(rng) for _ in range(4)])
    return (f"--settings={_fmt(axes.reshape(-1))}",), axes


def _expect(code, check):
    def run(rc, text):
        if rc != code:
            return f"exit code {rc}, expected {code}"
        return check(text)
    return run


#: Op keys, unique in the process, so that cycles merged into one never
#: share a key.
_KEYS = itertools.count()


class _Cycle:
    """Collects the ops of one cycle, each run ``runs`` times."""

    def __init__(self):
        self.next_key = next(_KEYS)
        self.ops = []

    def add(self, items, check, argv=(), beta=None, warm=False, runs=2):
        op = Op(key=self.next_key, items=items, check=check, argv=tuple(argv), beta=beta,
                warm=warm)
        self.next_key = next(_KEYS)
        self.ops.extend([op] * runs)

    def take(self, rng=None):
        """The ops collected since the last take, shuffled by rng if given."""
        ops, self.ops = self.ops, []
        if rng is not None:
            rng.shuffle(ops)
        return ops


# --- figures ----------------------------------------------------------------

_FIG2_SPEEDS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


def _fig3(cycle, rng, grid, runs=2):
    extra, axes = _settings(rng)
    cycle.add(grid * grid, _expect(0, lambda t: reference.check_fig3(t, grid, axes)),
              ("fig3", "--grid", str(grid), *extra), runs=runs)


def _fig2(cycle, rng, grid, n_speeds):
    speeds = rng.choice(_FIG2_SPEEDS, size=n_speeds, replace=False).tolist()
    extra, axes = _settings(rng)
    cycle.add(grid * grid, _expect(0, lambda t: reference.check_fig2(t, grid, speeds, axes)),
              ("fig2", "--grid", str(grid), "--beta-mag", _fmt(speeds), *extra))


def figures(rng, scratch):
    """Cycles of 56 ops: 36 single chsh calls; six fig3 --grid 61 ops; a
    two-speed fig2 --grid 61 above them; fig1 and seeded mid-size scans in
    between."""
    cycle = _Cycle()
    while True:
        for _ in range(18):
            beta = _velocity(rng, 0.99)
            extra, axes = _settings(rng)
            cycle.add(1, _expect(0, lambda t, b=beta, x=axes: reference.check_chsh(t, b, x)),
                      ("chsh", f"--beta={_fmt(beta)}", *extra))
        cycle.add(1001, _expect(0, lambda t: reference.check_fig1(t, 1001)),
                  ("fig1", "--grid", "1001"))
        for low, high in ((11, 21), (26, 36), (36, 46)):
            _fig3(cycle, rng, int(rng.integers(low, high)))
        _fig2(cycle, rng, int(rng.integers(16, 26)), 3)
        _fig2(cycle, rng, int(rng.integers(36, 46)), 1)
        for _ in range(3):
            _fig3(cycle, rng, 61)
        _fig2(cycle, rng, 61, 2)
        yield cycle.take(rng)


# --- audit ------------------------------------------------------------------

#: (samples, distinct inputs, runs of each) per cycle, log-spread from 10
#: to 20 000: 100 ops. The median falls in the middle of the 36
#: 90-sample ops (32 ops are cheaper, 32 dearer) and the 90th percentile
#: in the middle of the twelve 800-sample ops (84 cheaper, 4 dearer), so
#: that each is a typical time of a large group rather than its edge.
AUDIT_LADDER = ((10, 8, 2), (30, 8, 2), (90, 18, 2), (270, 8, 2), (800, 6, 2),
                (2400, 1, 2), (7000, 1, 1), (20000, 1, 1))
AUDIT_SHAPES = ("rest", "beam", "isotropic")


def distribution(rng, shape, size):
    """Velocity samples and positive weights of one of three shapes.

    rest: a narrow beam near rest, which keeps |c| near 2 sqrt(2);
    beam: speed 0.99 in the settings plane, which suppresses |c| below
    the 2.7 alarm margin; isotropic: directions uniform on the sphere,
    speeds uniform up to 0.999.
    """
    if shape == "rest":
        betas = rng.normal(0.0, 0.02, size=(size, 3))
    elif shape == "beam":
        speed = 0.99 + rng.uniform(-0.003, 0.003, size=size)
        phi = rng.uniform(0.0, 2.0 * math.pi) + rng.normal(0.0, 0.05, size=size)
        betas = np.stack([speed * np.cos(phi), speed * np.sin(phi), np.zeros(size)], -1)
    else:
        direction = rng.normal(size=(size, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        betas = rng.uniform(0.0, 0.999, size=size)[:, None] * direction
    return betas, rng.uniform(0.5, 2.0, size=size)


def distribution_csv(betas, weights) -> str:
    rows = ["beta_x,beta_y,beta_z,weight"]
    rows.extend(f"{_fmt(b)},{w!r}" for b, w in zip(betas.tolist(), weights.tolist()))
    return "\n".join(rows) + "\n"


def _audit(cycle, rng, scratch, shape, size, runs):
    betas, weights = distribution(rng, shape, size)
    path = Path(scratch) / f"dist{cycle.next_key}.csv"
    path.write_text(distribution_csv(betas, weights))
    cycle.add(size, lambda rc, t: reference.check_audit(rc, t, betas, weights),
              ("crypto-audit", "--dist", str(path)), runs=runs)


def audit(rng, scratch):
    """Cycles of 100 crypto-audit ops over distribution files written to
    scratch, the three shapes taken in turn. Each cycle starts one shape
    further on than the last, so that over three cycles every size meets
    every shape."""
    cycle = _Cycle()
    first = int(rng.integers(len(AUDIT_SHAPES)))
    while True:
        shape = first
        for size, distinct, runs in AUDIT_LADDER:
            for _ in range(distinct):
                _audit(cycle, rng, scratch, AUDIT_SHAPES[shape % 3], size, runs)
                shape += 1
        first += 1
        yield cycle.take(rng)


# --- crosscheck ---------------------------------------------------------------

def crosscheck(rng, scratch):
    """Cycles of 40 ops: 24 correlate calls, small selftest runs and
    dirac-check runs of 10 to 20 trials, and one of 160 trials that lies
    above an audit cycle's 800-sample group."""
    cycle = _Cycle()
    while True:
        for _ in range(12):
            _correlate(cycle, rng)
        for samples in (5, 10, 20):
            cycle.add(11 * samples, _expect(0, lambda t, n=samples: reference.check_selftest(t, n)),
                      ("selftest", "--samples", str(samples),
                       "--seed", str(int(rng.integers(2**31)))))
        for trials in (10, 20, 20, 20, 160):
            _dirac(cycle, rng, trials)
        yield cycle.take(rng)


def _correlate(cycle, rng, runs=2):
    a, b, beta = _unit(rng), _unit(rng), _velocity(rng, 0.99)
    cycle.add(1, _expect(0, lambda t: reference.check_correlate(t, a, b, beta)),
              ("correlate", f"--a={_fmt(a)}", f"--b={_fmt(b)}", f"--beta={_fmt(beta)}"),
              runs=runs)


def _dirac(cycle, rng, trials, runs=2):
    cycle.add(trials, _expect(0, reference.check_dirac),
              ("dirac-check", "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))),
              runs=runs)


# --- calibrate ----------------------------------------------------------------

#: Nominal velocities of a calibration cycle: (speed, angle from the normal
#: of the settings plane in degrees, azimuth in degrees). Speeds run from
#: 0.5 to 0.99, directions from the settings plane to 20 degrees off its
#: normal.
CALIBRATE_NOMINALS = ((0.5, 90.0, 0.0), (0.9, 90.0, 40.0), (0.99, 90.0, 110.0),
                      (0.7, 45.0, 200.0), (0.95, 20.0, 290.0), (0.8, 60.0, 330.0))
DRIFT_STEPS = 4


def _drifted(rng, speed, polar, azimuth):
    speed = min(0.99, speed + rng.uniform(-0.005, 0.005))
    polar = math.radians(polar + rng.normal(0.0, 1.0))
    azimuth = math.radians(azimuth + rng.normal(0.0, 1.0))
    return tuple((speed * np.array([math.cos(azimuth) * math.sin(polar),
                                    math.sin(azimuth) * math.sin(polar),
                                    math.cos(polar)])).tolist())


def _calibration_chains(rng):
    """Chains of four calibrations, one per nominal velocity in turn: the
    nominal drifts through four seeded steps, turned about the normal of
    the settings plane by an angle drawn afresh for each chain (search
    cost depends on the angle, so a fixed one would tie the run's figures
    to its seed).

    The first step starts from the standard settings and each later step
    from the settings the step before it returned, as a link
    recalibrating a drifting beam would. Chains stay this short because
    warm starts random-walk along the flat family of optimal settings
    into the poles of maximize_chsh's angle parametrization, where a
    search can take 100 times the usual evaluations. The last step is run
    twice. The ops of a chain must run in their order.
    """
    cycle = _Cycle()
    for speed, polar, azimuth in itertools.cycle(CALIBRATE_NOMINALS):
        turn = rng.uniform(0.0, 360.0)
        for step in range(DRIFT_STEPS):
            _calibration(cycle, _drifted(rng, speed, polar, azimuth + turn), warm=step > 0,
                         runs=2 if step == DRIFT_STEPS - 1 else 1)
        yield cycle.take()


def _calibration(cycle, beta, warm, runs):
    cycle.add(1, lambda rc, text: check_calibration_text(text, beta), beta=beta, warm=warm,
              runs=runs)


def calibration_text(value, chsh_value, settings) -> str:
    """The bytes a calibrate op is judged and compared by."""
    axes = (settings.a, settings.a_prime, settings.b, settings.b_prime)
    return (f"value={value!r}\nchsh={chsh_value!r}\n"
            + "".join(f"axis={_fmt(axis)}\n" for axis in axes))


def check_calibration_text(text, beta):
    fields = [line.split("=", 1)[1] for line in text.splitlines()]
    axes = np.array([[float(x) for x in f.split(",")] for f in fields[2:]])
    return reference.check_calibration(float(fields[0]), float(fields[1]), axes, beta)


def layer_sample(rng, scratch):
    """One small op for each group of layers, run once each: a traced run
    takes the per-call times of layers its workload leaves idle from
    these, so that every per-call time is a measurement."""
    cycle = _Cycle()
    _fig3(cycle, rng, 11, runs=1)
    _audit(cycle, rng, scratch, "isotropic", 10, runs=1)
    _correlate(cycle, rng, runs=1)
    _dirac(cycle, rng, 2, runs=1)
    _calibration(cycle, _drifted(rng, *CALIBRATE_NOMINALS[0]), warm=False, runs=1)
    return cycle.take()


# --- the workloads ------------------------------------------------------------

def figures_calibrate(rng, scratch):
    """Cycles of 61 ops: a figures cycle with one calibration chain spread
    through it in order. 36 chsh calls hold the median, the six
    fig3 --grid 61 ops the 90th percentile; the calibrations (45 to 120
    ms each) fall between the two groups."""
    figs, chains = figures(rng, scratch), _calibration_chains(rng)
    while True:
        ops, chain = next(figs), next(chains)
        size = len(ops) + len(chain)
        at = set(rng.choice(size, size=len(chain), replace=False).tolist())
        ops, chain = iter(ops), iter(chain)
        yield [next(chain) if k in at else next(ops) for k in range(size)]


def audit_crosscheck(rng, scratch):
    """Cycles of 140 ops: an audit cycle and a crosscheck cycle shuffled
    together. The 36 90-sample audits hold the median and the twelve
    800-sample audits the 90th percentile; the crosscheck ops fall below
    the median group, between the two groups, or above the second."""
    audits, checks = audit(rng, scratch), crosscheck(rng, scratch)
    while True:
        ops = next(audits) + next(checks)
        rng.shuffle(ops)
        yield ops


#: Workload name -> generator of op cycles, called with (rng, scratch dir).
WORKLOADS = {
    "figures_calibrate": figures_calibrate,
    "audit_crosscheck": audit_crosscheck,
}
