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
Since E(a, b, beta) = -alpha_hat(a) . alpha_hat(b) with a map alpha_hat
that is invertible below light speed, the best settings at a fixed
velocity have a closed form: ``calibrated_settings`` computes them and
``maximize_chsh`` returns them with their |c|, 2 sqrt(2) at every
|beta| < 1.
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
# Rows that ScanTable.to_csv formats at once; bounds the memory its cell
# strings take on large grids.
_CSV_BLOCK_ROWS = 1 << 10


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
        shape = self.values.shape[:-1]
        rows = math.prod(shape)
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.axes + self.columns))
        parts = ["\n".join(lines), "\n"]
        # Column at a time: each grid coordinate and each value is repr'd
        # once, gap rows are overwritten, and the rows are the zipped
        # columns joined, a block of rows at a time.
        coord_text = [np.array(list(map(repr, np.asarray(c, dtype=float).tolist())), dtype=object)
                      for c in self.coords]
        strides = [math.prod(shape[d + 1:]) for d in range(len(shape))]
        values = np.asarray(self.values, dtype=float).reshape(rows, len(self.columns))
        gap = np.zeros(shape, dtype=bool)
        if self.gaps:
            gap[tuple(np.array(self.gaps).T)] = True
        gap = gap.reshape(rows)
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, rows)
            index = np.arange(start, stop)
            cols = [text[(index // stride) % len(text)].tolist()
                    for text, stride in zip(coord_text, strides)]
            cols += [list(map(repr, col)) for col in values[start:stop].T.tolist()]
            for k in np.flatnonzero(gap[start:stop]).tolist():
                for col in cols[len(shape):]:
                    col[k] = "degenerate"
            parts += ["\n".join(map(",".join, zip(*cols))), "\n"]
        return "".join(parts)


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


def calibrated_settings(beta, initial: ChshSettings | None = None) -> ChshSettings:
    """Settings that reach |c| = 2 sqrt(2) at velocity beta, in closed form.

    The correlation is E(a, b, beta) = -alpha_hat(a) . alpha_hat(b), and
    for |beta| < 1 the map a -> alpha_hat(a) is a bijection of the
    sphere. So for any orthogonal R the standard settings S turned by R,
    pulled back axis by axis through the inverse map

        s -> normalize(s_perp / sqrt((1 - beta)(1 + beta)) + s_par),

    give deformed axes R S and hence the rest-frame optimum (Tsirelson's
    bound). R is the identity or, given ``initial``, the orthogonal
    matrix that best maps S onto the deformed axes alpha_hat(initial)
    (a Procrustes fit by one 3x3 SVD), so that a recalibration keeps the
    deformed axes as close to the old ones as the bound allows. At
    |beta| = 1 there is no inverse and each outcome is the sign of n.a;
    every axis along the motion direction n then gives |c| = 2, the
    optimum at light speed, and ``initial`` is ignored.
    """
    bv = BeamVelocity.of(beta)
    n = bv.direction
    if bv.magnitude >= 1.0:
        return ChshSettings(n.copy(), n.copy(), n.copy(), n.copy())
    # (1 - |beta|)(1 + |beta|) keeps full relative precision near light
    # speed, where 1 - |beta|^2 from a rounded square does not; the forward
    # map below, like alpha_vector, uses it too, so that a warm start from
    # calibrated settings returns them to 1e-12.
    shrink = math.sqrt((1.0 - bv.magnitude) * (1.0 + bv.magnitude))
    target = STANDARD_SETTINGS.axes
    if initial is not None:
        axes = initial.axes
        par = np.outer(axes @ n, n)
        deformed = shrink * (axes - par) + par
        deformed /= np.linalg.norm(deformed, axis=1, keepdims=True)
        u, _, vt = np.linalg.svd(deformed.T @ target)
        target = target @ (u @ vt).T
    par = np.outer(target @ n, n)
    axes = (target - par) / shrink + par
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return ChshSettings(*axes)


def maximize_chsh(beta, restarts: int = 8, initial: ChshSettings | None = None,
                  trace: list | None = None):
    """The best settings at a fixed velocity and their |c|.

    The settings are ``calibrated_settings(beta, initial)``, computed
    rather than searched for: |c| is 2 sqrt(2) to rounding at every
    |beta| < 1 and exactly 2, the optimum there, at |beta| = 1.
    ``restarts`` must be at least 1; the closed form needs no search
    starts, so it has no other effect. ``trace``, when supplied, collects
    one (0, "closed_form", |c|) tuple. Returns (settings, |c|), with |c|
    exactly ``abs(chsh_value(settings, beta))``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    settings = calibrated_settings(beta, initial)
    value = abs(chsh_value(settings, beta))
    if trace is not None:
        trace.append((0, "closed_form", value))
    return settings, value
