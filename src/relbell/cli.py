"""Command line front end.

Subcommands::

    correlate    closed-form vs matrix-oracle correlation at one setting
    chsh         CHSH combination at a fixed velocity
    fig1         CSV: correlation defect vs proper-time defect over speed
    fig2         CSV: CHSH over motion-direction sphere at fixed speeds
    fig3         CSV: CHSH over speed and in-plane motion azimuth
    dirac-check  JSON: four-spinor operator identity residuals
    crypto-audit JSON: false-alarm audit of a velocity distribution
    selftest     oracle-equivalence and CHSH-bound sweeps

Exit codes: 0 success, 1 usage error, 2 computation error (the error
name goes to stderr), 3 audit verdict FalseAlarmRisk. Vector flags take
comma-separated components (use ``--flag=-1,0,0`` when the first one is
negative). Direction vectors are normalized with a warning if they are
not unit length. ``--out PATH`` writes atomically (temp file, then
rename); without it, results go to stdout. Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import os
import tempfile
from pathlib import Path

import numpy as np

from .audit import FALSE_ALARM_RISK, audit, load_distribution, render_json
from .bell import (
    STANDARD_SETTINGS,
    ChshSettings,
    chsh_batch,
    chsh_value,
    proper_time_comparison,
    scan_beta_phi,
    scan_theta_phi,
)
from .dirac import dirac_battery, kinetic_records
from .errors import RelbellError
from .kinematics import BeamVelocity, lengths_and_directions, random_direction
from .observables import correlations, eprb_closed_form, eprb_oracle, oracle_correlations

_MAX_CHSH = 2.0 * math.sqrt(2.0)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _floats(text: str, count: int):
    parts = text.split(",")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated numbers, got {text!r}")
    try:
        return [float(x) for x in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _unit_arg(values, name: str):
    """The direction of a finite nonzero vector from
    ``kinematics.lengths_and_directions``, with a warning on stderr when
    the vector was not unit length."""
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"{name} components must be finite")
    norm, direction = lengths_and_directions(values)
    if norm == 0.0:
        raise argparse.ArgumentTypeError(f"{name} must be a nonzero vector")
    if abs(norm - 1.0) > 1e-12:
        sys.stderr.write(f"warning: {name} normalized from |v|={float(norm)!r}\n")
    return direction


def _direction_arg(flag: str):
    return lambda text: _unit_arg(_floats(text, 3), flag)


def _beta_arg(text: str):
    v = np.array(_floats(text, 3))
    try:
        return BeamVelocity.of(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _settings_arg(text: str):
    vals = _floats(text, 12)
    return ChshSettings(*(_unit_arg(vals[3 * k:3 * k + 3], f"settings axis {label}")
                          for k, label in enumerate(("a", "a_prime", "b", "b_prime"))))


def _mags_arg(text: str):
    mags = _floats(text, text.count(",") + 1)
    for m in mags:
        if not (0.0 <= m <= 1.0):
            raise argparse.ArgumentTypeError(f"speed must lie in [0, 1], got {m!r}")
    return tuple(mags)


def _emit(text, out) -> None:
    pieces = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
        return
    path = Path(out)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_correlate(args) -> int:
    closed = eprb_closed_form(args.a, args.b, args.beta)
    oracle = eprb_oracle(args.a, args.b, args.beta)
    text = (f"closed_form={closed!r}\n"
            f"oracle={oracle!r}\n"
            f"difference={closed - oracle!r}\n")
    _emit(text, args.out)
    return 0


def _cmd_chsh(args) -> int:
    settings = args.settings if args.settings is not None else STANDARD_SETTINGS
    _emit(f"{chsh_value(settings, args.beta)!r}\n", args.out)
    return 0


def _cmd_fig1(args) -> int:
    table = proper_time_comparison(np.linspace(0.0, 1.0, args.grid))
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_fig2(args) -> int:
    settings = args.settings if args.settings is not None else STANDARD_SETTINGS
    thetas = np.linspace(0.0, math.pi, args.grid)
    phis = np.linspace(0.0, 2.0 * math.pi, args.grid)
    _emit(scan_theta_phi(settings, args.beta_mag, thetas, phis).to_csv(), args.out)
    return 0


def _cmd_fig3(args) -> int:
    settings = args.settings if args.settings is not None else STANDARD_SETTINGS
    table = scan_beta_phi(
        settings,
        np.linspace(0.0, 0.999, args.grid),
        np.linspace(0.0, 2.0 * math.pi, args.grid),
    )
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_dirac_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    p = np.empty((args.trials, 3))
    m = np.empty(args.trials)
    a = np.empty((args.trials, 3))
    for k in range(args.trials):
        p[k] = args.p if args.p is not None else rng.uniform(0.3, 4.0) * random_direction(rng)
        m[k] = args.m if args.m is not None else rng.uniform(0.2, 3.0)
        a[k] = random_direction(rng)
    records = [*dirac_battery(p, m, a), *kinetic_records()]
    records.sort(key=lambda r: r.check)
    text = render_json([r.as_dict() for r in records]) + "\n"
    _emit(text, args.out)
    return 0 if all(r.passed for r in records) else 2


def _cmd_crypto_audit(args) -> int:
    try:
        with Path(args.dist).open() as fh:  # read_text's encoding and newlines, in blocks
            dist = load_distribution(fh)
    except UnicodeDecodeError:
        Path(args.dist).read_text()  # the error again, its position counted from the file start
        raise
    except OSError as exc:
        sys.stderr.write(f"cannot read {args.dist}: {exc}\n")
        return 1
    settings = args.settings if args.settings is not None else STANDARD_SETTINGS
    report = audit(dist, settings, threshold=args.threshold)
    _emit(report.json_pieces(), args.out)
    return 3 if report.verdict == FALSE_ALARM_RISK else 0


def _draw(rng, count: int, axes: int):
    """Rows of ``axes`` random directions, a speed in [0, 0.999) and a motion direction."""
    a = np.empty((count, axes, 3))
    speed = np.empty(count)
    direction = np.empty((count, 3))
    for k in range(count):
        a[k] = [random_direction(rng) for _ in range(axes)]
        speed[k] = rng.uniform(0.0, 0.999)
        direction[k] = random_direction(rng)
    return a, speed, direction


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    axes, speed, direction = _draw(rng, args.samples, 2)
    closed = correlations(axes[:, :1], axes[:, 1:], speed, direction)[0]
    oracle = oracle_correlations(axes[:, :1], axes[:, 1:], speed, direction)[0]
    max_diff = float(np.max(np.abs(closed - oracle)))
    count = 10 * args.samples
    max_c = float(np.max(np.abs(chsh_batch(*_draw(rng, count, 4))[0])))
    bound = _MAX_CHSH + 1e-9
    checks = ((f"oracle_equivalence samples={args.samples} max_diff={max_diff!r} limit=1e-12",
               max_diff < 1e-12),
              (f"chsh_bound samples={count} max_abs={max_c!r} limit={bound!r}", max_c <= bound))
    _emit("".join(f"{line} {'PASS' if passed else 'FAIL'}\n" for line, passed in checks), args.out)
    return 0 if all(passed for _, passed in checks) else 2


@functools.cache
def build_parser() -> _Parser:
    """The ``relbell`` argument parser: one shared parser per process.

    It is built on the first call and returned on every later one, so
    repeated ``main`` calls in one process do not rebuild it. Parsing
    leaves no state on it and every default is immutable, so each parse
    behaves as on a freshly built parser.
    """
    parser = _Parser(prog="relbell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_out(p):
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output atomically to PATH instead of stdout")

    p = sub.add_parser("correlate", help="closed-form and oracle correlation at one setting")
    p.add_argument("--a", type=_direction_arg("--a"), required=True, metavar="X,Y,Z")
    p.add_argument("--b", type=_direction_arg("--b"), required=True, metavar="X,Y,Z")
    p.add_argument("--beta", type=_beta_arg, required=True, metavar="X,Y,Z")
    add_out(p)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("chsh", help="CHSH combination at a fixed velocity")
    p.add_argument("--beta", type=_beta_arg, required=True, metavar="X,Y,Z")
    p.add_argument("--settings", type=_settings_arg, default=None, metavar="12-FLOATS",
                   help="a,a',b,b' axes flattened; default standard coplanar settings")
    add_out(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("fig1", help="correlation defect vs proper-time defect table")
    p.add_argument("--grid", type=int, default=101, metavar="N")
    add_out(p)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", help="CHSH over motion directions at fixed speeds")
    p.add_argument("--grid", type=int, default=61, metavar="N")
    p.add_argument("--beta-mag", type=_mags_arg, default=(0.99, 0.95), metavar="M1,M2,...")
    p.add_argument("--settings", type=_settings_arg, default=None, metavar="12-FLOATS")
    add_out(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="CHSH over speed and in-plane azimuth")
    p.add_argument("--grid", type=int, default=61, metavar="N")
    p.add_argument("--settings", type=_settings_arg, default=None, metavar="12-FLOATS")
    add_out(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("dirac-check", help="four-spinor operator identity residuals")
    p.add_argument("--p", type=lambda s: np.array(_floats(s, 3)), default=None, metavar="X,Y,Z")
    p.add_argument("--m", type=float, default=None, metavar="MASS")
    p.add_argument("--trials", type=int, default=10, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    add_out(p)
    p.set_defaults(func=_cmd_dirac_check)

    p = sub.add_parser("crypto-audit", help="false-alarm audit of a velocity distribution")
    p.add_argument("--dist", required=True, metavar="CSV",
                   help="CSV file with header beta_x,beta_y,beta_z,weight")
    p.add_argument("--threshold", type=float, default=2.7, metavar="T")
    p.add_argument("--settings", type=_settings_arg, default=None, metavar="12-FLOATS")
    add_out(p)
    p.set_defaults(func=_cmd_crypto_audit)

    p = sub.add_parser("selftest", help="oracle-equivalence and CHSH-bound sweeps")
    p.add_argument("--samples", type=int, default=10000, metavar="N")
    p.add_argument("--seed", type=int, default=7, metavar="S")
    add_out(p)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr in ("grid", "trials", "samples"):
        if getattr(args, attr, 1) < 1:
            parser.error(f"--{attr} must be >= 1")
    if getattr(args, "m", None) is not None and args.m < 0.0:
        parser.error("--m must be non-negative")
    if getattr(args, "threshold", None) is not None and not (0.0 < args.threshold <= _MAX_CHSH + 1e-12):
        parser.error("--threshold must lie in (0, 2*sqrt(2)]")
    try:
        return args.func(args)
    except RelbellError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
