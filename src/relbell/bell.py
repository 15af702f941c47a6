"""CHSH combinations of singlet correlations and their dependence on the
pair velocity.

For detector settings (a, a') and (b, b') the CHSH combination is

    c = E(a, b) + E(a, b') + E(a', b) - E(a', b'),

with E the singlet correlation from :mod:`relbell.observables`. At rest
the standard coplanar settings reach the quantum bound |c| = 2 sqrt(2).
For a moving pair the bound survives only when every axis stays
orthogonal to the motion; otherwise the deformation of the analyzer axes
suppresses |c|, and an apparatus calibrated at rest will underreport the
correlation. ``chsh_batch`` evaluates the combination over whole
batches of velocities; ``chsh_value`` and the scan helpers, which
tabulate the suppression over velocity grids, run through it.
``maximize_chsh`` searches for the best settings at a fixed velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DegenerateObservable, EmptyGrid
from .kinematics import _UNIT_TOL, BeamVelocity, check_unit
from .observables import DEGENERACY_THRESHOLD

# Correctly rounded 1/sqrt(2); 1.0/math.sqrt(2.0) is one ulp low and the
# rest-frame CHSH combination would then miss -2*sqrt(2) by an ulp too.
_SQ2 = math.sqrt(0.5)

_LABELS = ("a", "a_prime", "b", "b_prime")
# Signs of -E in the CHSH terms, as a (a, a') x (b, b') table.
_TERM_SIGNS = np.array([[-1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True, eq=False)
class ChshSettings:
    """The four analyzer axes of a CHSH run (all unit 3-vectors)."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    @classmethod
    def of(cls, a, a_prime, b, b_prime) -> "ChshSettings":
        return cls(
            a=check_unit(a, "a"),
            a_prime=check_unit(a_prime, "a_prime"),
            b=check_unit(b, "b"),
            b_prime=check_unit(b_prime, "b_prime"),
        )

    @property
    def axes(self) -> np.ndarray:
        """The axes a, a', b, b' as the rows of a (4, 3) array."""
        return np.array((self.a, self.a_prime, self.b, self.b_prime))

    def labeled(self):
        return tuple(zip(_LABELS, (self.a, self.a_prime, self.b, self.b_prime)))


#: Coplanar settings that reach -2 sqrt(2) for a pair at rest.
STANDARD_SETTINGS = ChshSettings(
    a=np.array([_SQ2, _SQ2, 0.0]),
    a_prime=np.array([-_SQ2, _SQ2, 0.0]),
    b=np.array([0.0, 1.0, 0.0]),
    b_prime=np.array([1.0, 0.0, 0.0]),
)


def _check_unit_rows(v, name, labels=None) -> None:
    """Raise ValueError naming the first row of v that is not a unit
    vector within 1e-12 (non-finite rows included)."""
    norm = np.sqrt(np.einsum("...j,...j->...", v, v))
    off = ~(np.abs(norm - 1.0) <= _UNIT_TOL)
    if off.any():
        idx = tuple(int(i) for i in np.argwhere(off)[0])
        if labels is not None:
            name = f"{name} {labels[idx[-1]]}"
        raise ValueError(f"{name} must be a unit vector, got |v| = {float(norm[idx])!r}")


def chsh_batch(axes, speed, direction):
    """CHSH values over a batch of velocities, validated once per batch.

    ``axes``: the settings a, a', b, b' as rows, (4, 3) or (..., 4, 3);
    ``speed``: |beta| in [0, 1], (...); ``direction``: unit motion
    directions, (..., 3), any unit vector at speed 0. Batch shapes
    broadcast; speed comes apart from direction so that 1 stays exact.
    Returns (values, degenerate): ``degenerate`` (batch + (4,)) marks the
    settings with |alpha|^2 = (1 - beta^2) + beta^2 (n.a)^2 at most
    DEGENERACY_THRESHOLD^2, and ``values`` (batch) is NaN there. Each
    value is the math.fsum of its four terms, so the standard settings
    at rest give exactly the rounding of -2 sqrt(2).
    """
    axes = np.asarray(axes, dtype=float)
    speed = np.asarray(speed, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if axes.shape[-2:] != (4, 3) or direction.shape[-1:] != (3,):
        raise ValueError(f"settings axes must have shape (..., 4, 3) and directions (..., 3), "
                         f"got {axes.shape} and {direction.shape}")
    _check_unit_rows(axes, "setting", _LABELS)
    _check_unit_rows(direction, "motion direction")
    if not (speed.min(initial=0.0) >= 0.0 and speed.max(initial=0.0) <= 1.0):
        bad = speed[~((speed >= 0.0) & (speed <= 1.0))].flat[0]
        raise ValueError(f"speed must be finite and lie in [0, 1], got {float(bad)!r}")
    return _chsh(axes, speed, direction)


def _chsh(axes, speed, direction):
    """chsh_batch without the validation, for inputs already checked."""
    n_dot = np.einsum("...j,...kj->...k", direction, axes)
    b2 = speed[..., None] * speed[..., None]
    len2 = (1.0 - b2) + b2 * (n_dot * n_dot)
    degenerate = len2 <= DEGENERACY_THRESHOLD**2
    any_degenerate = degenerate.any()
    length = np.sqrt(np.where(degenerate, 1.0, len2) if any_degenerate else len2)
    # alpha(a) . alpha(b) = (1 - beta^2) a . b + beta^2 (n.a)(n.b), which
    # is exact at rest and at light speed; built in place to keep the peak
    # memory of large batches down.
    b2 = b2[..., None]
    terms = b2 * (n_dot[..., :2, None] * n_dot[..., None, 2:])
    terms += (1.0 - b2) * np.einsum("...ij,...kj->...ik", axes[..., :2, :], axes[..., 2:, :])
    terms /= length[..., :2, None] * length[..., None, 2:]
    terms *= _TERM_SIGNS
    # Rows go to math.fsum in chunks, so that no list of all rows is built.
    flat = terms.reshape(-1, 4)
    rows = chain.from_iterable(flat[k:k + 1024].tolist() for k in range(0, len(flat), 1024))
    values = np.fromiter(map(math.fsum, rows), dtype=float, count=len(flat))
    values = values.reshape(terms.shape[:-2])
    if any_degenerate:
        values[degenerate.any(axis=-1)] = math.nan
    return values, degenerate


def chsh_value(settings: ChshSettings, beta, correlation=None) -> float:
    """The CHSH combination at velocity beta, through ``chsh_batch``.

    ``correlation`` may swap in an alternative correlation function with
    the signature of ``eprb_closed_form`` (the matrix-oracle route is the
    intended substitute). Raises DegenerateObservable naming the first
    collapsed setting when |beta| = 1 makes an axis degenerate.
    """
    bv = BeamVelocity.of(beta)
    axes = settings.axes
    _check_unit_rows(axes, "setting", _LABELS)
    value, degenerate = _chsh(axes, np.asarray(bv.magnitude), bv.direction)
    if degenerate.any():
        label = _LABELS[int(np.argmax(degenerate))]
        raise DegenerateObservable(f"setting {label} degenerate at |beta| = {bv.magnitude!r}")
    if correlation is None:
        return float(value)
    return math.fsum([
        correlation(settings.a, settings.b, bv),
        correlation(settings.a, settings.b_prime, bv),
        correlation(settings.a_prime, settings.b, bv),
        -correlation(settings.a_prime, settings.b_prime, bv),
    ])


@dataclass(frozen=True, eq=False)
class ScanTable:
    """A rectangular table of values over a coordinate grid.

    ``values`` has shape grid-shape + (len(columns),). Grid points where
    the value is undefined (a degenerate observable) are listed in
    ``gaps`` and hold NaN; every value off that list is finite. The table
    serializes to CSV with one row per grid point, leading ``#`` metadata
    lines, and shortest round-trip float formatting, so identical inputs
    reproduce identical bytes.
    """

    axes: tuple
    coords: tuple
    columns: tuple
    values: np.ndarray
    gaps: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = tuple(len(c) for c in self.coords) + (len(self.columns),)
        if tuple(self.values.shape) != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")
        unmarked = ~np.all(np.isfinite(self.values), axis=-1)
        if self.gaps:
            unmarked[tuple(np.array(self.gaps).T)] = False
        if unmarked.any():
            idx = tuple(int(i) for i in np.argwhere(unmarked)[0])
            raise ValueError(f"non-finite value at grid point {idx} not marked as a gap")

    def to_csv(self) -> str:
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.axes + self.columns))
        gapset = set(self.gaps)
        for idx in np.ndindex(*self.values.shape[:-1]):
            cells = [repr(float(self.coords[d][i])) for d, i in enumerate(idx)]
            if idx in gapset:
                cells.extend("degenerate" for _ in self.columns)
            else:
                cells.extend(repr(float(v)) for v in self.values[idx])
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _chsh_table(settings: ChshSettings, axes, coords, columns, speed, direction,
                metadata) -> ScanTable:
    """chsh_batch over a grid of batch shape coordinates + (columns,); a
    grid point is a gap when a setting degenerates in any column."""
    values, degenerate = chsh_batch(settings.axes, speed, direction)
    gaps = np.argwhere(degenerate.any(axis=(-2, -1)))
    labeled = {label: ",".join(repr(float(x)) for x in axis) for label, axis in settings.labeled()}
    return ScanTable(axes=axes, coords=coords, columns=columns, values=values,
                     gaps=tuple(map(tuple, gaps.tolist())), metadata={**labeled, **metadata})


def scan_beta_phi(settings: ChshSettings, beta_grid, phi_grid) -> ScanTable:
    """CHSH values on a grid of speeds and in-plane motion azimuths.

    The velocity is beta (cos phi, sin phi, 0): motion in the plane of
    the standard settings, the worst case for the suppression. Speeds
    must lie in [0, 1]; points that land on a degenerate axis (possible
    only at beta = 1) become gaps.
    """
    beta_grid = np.asarray(beta_grid, dtype=float).reshape(-1)
    phi_grid = np.asarray(phi_grid, dtype=float).reshape(-1)
    if beta_grid.size == 0 or phi_grid.size == 0:
        raise EmptyGrid("scan_beta_phi needs at least one speed and one azimuth")
    direction = np.stack([np.cos(phi_grid), np.sin(phi_grid), np.zeros_like(phi_grid)], -1)
    return _chsh_table(
        settings, ("beta", "phi"), (beta_grid, phi_grid), ("chsh",),
        beta_grid[:, None, None], direction[None, :, None, :],
        {"beta_parametrization": "beta*(cos(phi),sin(phi),0)"},
    )


def scan_theta_phi(settings: ChshSettings, beta_mag, theta_grid, phi_grid) -> ScanTable:
    """CHSH values over all motion directions at one or more fixed speeds.

    The velocity direction is (cos phi sin theta, sin phi sin theta,
    cos theta); theta = 0 points out of the settings plane, where the
    rest-frame value survives. ``beta_mag`` is a speed or a sequence of
    speeds in [0, 1], one column ``chsh_beta_<speed>`` each; a grid point
    that is degenerate at any of the speeds is a gap in every column.
    """
    speeds = [float(m) for m in np.asarray(beta_mag, dtype=float).reshape(-1)]
    theta_grid = np.asarray(theta_grid, dtype=float).reshape(-1)
    phi_grid = np.asarray(phi_grid, dtype=float).reshape(-1)
    if not speeds or theta_grid.size == 0 or phi_grid.size == 0:
        raise EmptyGrid("scan_theta_phi needs at least one speed, one polar and one azimuthal angle")
    th, phi = np.meshgrid(theta_grid, phi_grid, indexing="ij")
    direction = np.stack([np.cos(phi) * np.sin(th), np.sin(phi) * np.sin(th), np.cos(th)], -1)
    return _chsh_table(
        settings, ("theta", "phi"), (theta_grid, phi_grid),
        tuple(f"chsh_beta_{m!r}" for m in speeds), np.array(speeds), direction[:, :, None, :],
        {"beta_magnitude": ",".join(repr(m) for m in speeds),
         "beta_parametrization": "beta*(cos(phi)sin(theta),sin(phi)sin(theta),cos(theta))"},
    )


def proper_time_comparison(beta_grid) -> ScanTable:
    """Velocity dependence of the correlation next to that of proper time.

    For orthogonal analyzer axes both tilted 45 degrees toward the beam,
    the singlet correlation is -beta^2/(2 - beta^2): zero at rest, -1 at
    light speed. The second column holds sqrt(1 - beta^2) - 1, the
    fractional defect of proper time against lab time, for a like-by-like
    comparison of the two relativistic distortions. The correlation
    defect dominates at every intermediate speed.
    """
    beta_grid = np.asarray(beta_grid, dtype=float).reshape(-1)
    if beta_grid.size == 0:
        raise EmptyGrid("proper_time_comparison needs at least one speed")
    if np.any(beta_grid < 0.0) or np.any(beta_grid > 1.0):
        raise ValueError("speeds must lie in [0, 1]")
    b2 = beta_grid * beta_grid
    values = np.stack([-b2 / (2.0 - b2), np.sqrt(1.0 - b2) - 1.0], axis=-1)
    return ScanTable(
        axes=("beta",), coords=(beta_grid,), columns=("correlation", "proper_time"),
        values=values,
        metadata={
            "correlation": "orthogonal axes at 45 degrees to the beam",
            "proper_time": "sqrt(1-beta^2)-1",
        },
    )


def _angles_of(settings: ChshSettings) -> np.ndarray:
    out = []
    for _, axis in settings.labeled():
        out.append(math.acos(max(-1.0, min(1.0, axis[2]))))
        out.append(math.atan2(axis[1], axis[0]) % (2.0 * math.pi))
    return np.array(out)


def _settings_of(angles) -> ChshSettings:
    axes = []
    for k in range(4):
        th, phi = angles[2 * k], angles[2 * k + 1]
        axes.append(np.array([
            math.sin(th) * math.cos(phi),
            math.sin(th) * math.sin(phi),
            math.cos(th),
        ]))
    return ChshSettings(a=axes[0], a_prime=axes[1], b=axes[2], b_prime=axes[3])


def maximize_chsh(beta, restarts: int = 8, tol: float = 1e-9, seed: int = 0,
                  initial: ChshSettings | None = None, trace: list | None = None):
    """Search for settings maximizing |c| at a fixed velocity.

    Deterministic multi-start search over the eight spherical angles of
    the four axes: a cyclic 12-point per-angle grid sweep, then
    coordinate descent with step halving until the step falls below
    ``tol``. The first start is ``initial`` when given, then the standard
    settings, then seeded random angle vectors, ``restarts`` starts in
    total. Within a start every accepted value is an improvement, so the
    result is never below the best coarse-grid value. ``trace``, when
    supplied, collects (start_index, stage, value) tuples with stage in
    "coarse" or "refine" for each accepted state. Returns (settings, |c|).

    Degenerate corners score zero during the search and cannot win.
    This is an exploratory tool: it reports the best settings found, not
    a certified global optimum.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    bv = BeamVelocity.of(beta)

    def objective(angles) -> float:
        try:
            return abs(chsh_value(_settings_of(angles), bv))
        except DegenerateObservable:
            return 0.0

    starts = []
    if initial is not None:
        starts.append(_angles_of(initial))
    starts.append(_angles_of(STANDARD_SETTINGS))
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        starts.append(rng.uniform(0.0, 2.0 * math.pi, size=8))
    starts = starts[:restarts]

    theta_grid = np.linspace(0.0, math.pi, 12)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, 13)[:12]
    coarse_step = math.pi / 11.0

    best_angles, best_value = None, -1.0
    for index, start in enumerate(starts):
        angles = np.array(start, dtype=float)
        value = objective(angles)
        if trace is not None:
            trace.append((index, "coarse", value))
        # Cyclic coarse grid sweeps until a full pass stalls.
        improved = True
        while improved:
            improved = False
            for k in range(8):
                grid = theta_grid if k % 2 == 0 else phi_grid
                for candidate in grid:
                    trial = angles.copy()
                    trial[k] = candidate
                    trial_value = objective(trial)
                    if trial_value > value:
                        angles, value = trial, trial_value
                        improved = True
                        if trace is not None:
                            trace.append((index, "coarse", value))
        # Coordinate descent with step halving.
        step = coarse_step
        while step >= tol:
            moved = False
            for k in range(8):
                for sign in (1.0, -1.0):
                    trial = angles.copy()
                    trial[k] += sign * step
                    trial_value = objective(trial)
                    if trial_value > value:
                        angles, value = trial, trial_value
                        moved = True
                        if trace is not None:
                            trace.append((index, "refine", value))
            if not moved:
                step /= 2.0
        if value > best_value:
            best_angles, best_value = angles, value
    return _settings_of(best_angles), best_value
