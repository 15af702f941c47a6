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

import numpy as np

from .errors import DegenerateObservable, EmptyGrid
from .kinematics import BeamVelocity, alpha_vectors, check_unit, lengths_and_directions
from .observables import correlations

# Correctly rounded 1/sqrt(2); 1.0/math.sqrt(2.0) is one ulp low and the
# rest-frame CHSH combination would then miss -2*sqrt(2) by an ulp too.
_SQ2 = math.sqrt(0.5)

_LABELS = ("a", "a_prime", "b", "b_prime")
# Rows that ScanTable.to_csv formats at once: each distinct value of a block
# is repr'd once, and the block bounds the memory its cell strings take on
# large grids. A 61 x 61 table is one block.
_CSV_BLOCK_ROWS = 1 << 12
# Rows of CHSH terms that _row_sums takes at once, so that large batches
# build no large temporaries. Each row's value is the correctly rounded sum
# of its four terms, bit-identical to math.fsum: blocks of at least
# _VECTOR_SUM_MIN_ROWS rows compute it with error-free transforms and a
# per-row certificate, smaller ones with math.fsum: up to ~150 rows,
# numpy's fixed cost per call outweighs fsum's cost per row. The terms are
# correlations, in [-1, 1] to rounding or NaN, so no partial sum overflows;
# a non-finite row fails the certificate and goes to fsum alone.
_FSUM_BLOCK_ROWS = 1 << 14
_VECTOR_SUM_MIN_ROWS = 160


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


def chsh_batch(axes, speed, direction):
    """CHSH values over a batch of velocities, validated once per batch.

    ``axes``: the settings a, a', b, b' as rows, (4, 3) or (..., 4, 3);
    ``speed``: |beta| in [0, 1], (...); ``direction``: unit motion
    directions, (..., 3), any unit vector at speed 0. Batch shapes
    broadcast; speed comes apart from direction so that 1 stays exact.
    Returns (values, degenerate) from ``observables.correlations``:
    ``degenerate`` (batch + (4,)) marks the degenerate settings, and
    ``values`` (batch) is NaN there. Each value is the correctly rounded
    sum of its four terms, bit-identical to math.fsum (large batches use
    error-free transforms and a per-row certificate), so the standard
    settings at rest give exactly the rounding of -2 sqrt(2).
    """
    axes = np.asarray(axes, dtype=float)
    speed = np.asarray(speed, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if axes.shape[-2:] != (4, 3) or direction.shape[-1:] != (3,):
        raise ValueError(f"settings axes must have shape (..., 4, 3) and directions (..., 3), "
                         f"got {axes.shape} and {direction.shape}")
    check_unit(axes, "setting", _LABELS)
    check_unit(direction.reshape(-1, 3), "motion direction", "row")
    if not (speed.min(initial=0.0) >= 0.0 and speed.max(initial=0.0) <= 1.0):
        bad = speed[~((speed >= 0.0) & (speed <= 1.0))].flat[0]
        raise ValueError(f"speed must be finite and lie in [0, 1], got {float(bad)!r}")
    return _chsh(axes, speed, direction)


def _chsh(axes, speed, direction):
    """chsh_batch without the validation, for inputs already checked."""
    terms, degenerate = correlations(axes[..., :2, :], axes[..., 2:, :], speed, direction)
    terms[..., 1, 1] *= -1.0  # the sign of E(a', b')
    return _row_sums(terms.reshape(-1, 4)).reshape(terms.shape[:-2]), degenerate


def _two_sum(a, b):
    """Knuth's TwoSum: s = fl(a + b) and the error, a + b - s exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _certified_sums(block):
    """Sums of the rows of an (N, 4) block, and the rows they may miss.

    TwoSum over the columns splits each row's exact sum S into
    s + e1 + e2 + e3, and TwoSum over the errors into r + d + f1 + f2,
    with r = fl(s + t) and t the rounded sum of the errors. r is the
    correctly rounded S when f1 = f2 = 0 (then S = s + t exactly), or
    when fl(|d| + 2 fl(|f1| + |f2|)) < h, h half the gap from |r| down to
    its lower neighbour, the smaller of its two gaps: rounding is
    monotone and h is a power of two, so that proves |S - r| < h.
    Returns (r, doubtful), doubtful marking the rows neither test clears,
    exact zeros and non-finite sums included (so the inf - inf that their
    TwoSums make is not warned about).
    """
    with np.errstate(invalid="ignore"):
        s, e1 = _two_sum(block[:, 0], block[:, 1])
        s, e2 = _two_sum(s, block[:, 2])
        s, e3 = _two_sum(s, block[:, 3])
        u, f1 = _two_sum(e1, e2)
        t, f2 = _two_sum(u, e3)
        r, d = _two_sum(s, t)
    # Free the intermediates before the certificate's temporaries, for a
    # lower peak memory.
    del s, e1, e2, e3, u, t
    mag = np.abs(r)
    half_gap = (mag - np.nextafter(mag, 0.0)) * 0.5
    sure = np.abs(d) + 2.0 * (np.abs(f1) + np.abs(f2)) < half_gap
    sure |= (f1 == 0.0) & (f2 == 0.0)
    sure &= np.isfinite(r) & (r != 0.0)
    return r, ~sure


def _row_sums(flat):
    """The sum of each row of an (N, 4) array of CHSH terms, bit-identical
    to math.fsum of the row: certified error-free sums in blocks of
    _FSUM_BLOCK_ROWS, with math.fsum for small blocks and for the rows the
    certificate cannot clear."""
    values = np.empty(len(flat))
    for k in range(0, len(flat), _FSUM_BLOCK_ROWS):
        block = flat[k:k + _FSUM_BLOCK_ROWS]
        out = values[k:k + _FSUM_BLOCK_ROWS]
        rows = slice(None)
        if len(block) >= _VECTOR_SUM_MIN_ROWS:
            out[:], doubtful = _certified_sums(block)
            rows = np.flatnonzero(doubtful)
        out[rows] = list(map(math.fsum, block[rows].tolist()))
    return values


def chsh_value(settings: ChshSettings, beta) -> float:
    """The CHSH combination at velocity beta, through ``chsh_batch``.

    Raises DegenerateObservable naming the first collapsed setting when
    |beta| = 1 makes an axis degenerate.
    """
    bv = BeamVelocity.of(beta)
    axes = check_unit(settings.axes, "setting", _LABELS)
    value, degenerate = _chsh(axes, bv.magnitude, bv.direction)
    if np.count_nonzero(degenerate):
        label = _LABELS[int(np.argmax(degenerate))]
        raise DegenerateObservable(f"setting {label} degenerate at |beta| = {bv.magnitude!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class ScanTable:
    """A rectangular table of values over a coordinate grid.

    ``values`` has shape grid-shape + (len(columns),). A grid point with
    a non-finite value in any column (NaN where an observable degenerates)
    is a gap: its row prints ``degenerate`` in every column. The table
    serializes to CSV with one row per grid point, leading ``#`` metadata
    lines, and shortest round-trip float formatting, so identical inputs
    reproduce identical bytes.
    """

    axes: tuple
    coords: tuple
    columns: tuple
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = tuple(len(c) for c in self.coords) + (len(self.columns),)
        if tuple(self.values.shape) != expected:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expected}")

    @property
    def gaps(self) -> tuple:
        """The index tuples of the grid points with a non-finite value, in row order."""
        return tuple(map(tuple, np.argwhere(~np.isfinite(self.values).all(axis=-1)).tolist()))

    def to_csv(self) -> str:
        shape = self.values.shape[:-1]
        rows = math.prod(shape)
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.axes + self.columns))
        parts = ["\n".join(lines), "\n"]
        # Column at a time: each grid coordinate is repr'd once, and each
        # distinct value of a block of rows once (told apart by its bits, so
        # that -0.0 stays apart from 0.0); gap rows are overwritten, and the
        # rows are the zipped columns joined, a block of rows at a time.
        coord_text = [np.array(list(map(repr, np.asarray(c, dtype=float).tolist())), dtype=object)
                      for c in self.coords]
        strides = [math.prod(shape[d + 1:]) for d in range(len(shape))]
        values = np.asarray(self.values, dtype=float).reshape(rows, len(self.columns))
        gap = ~np.isfinite(values).all(axis=-1)
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, rows)
            index = np.arange(start, stop)
            cols = [text[(index // stride) % len(text)].tolist()
                    for text, stride in zip(coord_text, strides)]
            block = values[start:stop]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            distinct = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
            cols += distinct[inverse.reshape(block.shape)].T.tolist()
            for k in np.flatnonzero(gap[start:stop]).tolist():
                for col in cols[len(shape):]:
                    col[k] = "degenerate"
            parts += ["\n".join(map(",".join, zip(*cols))), "\n"]
        return "".join(parts)


def _chsh_table(settings: ChshSettings, axes, coords, columns, speed, direction,
                metadata) -> ScanTable:
    """chsh_batch over a grid of batch shape coordinates + (columns,). A
    degenerate setting makes its value NaN, so a grid point is a gap when
    a setting degenerates in any column."""
    values = chsh_batch(settings.axes, speed, direction)[0]
    labeled = {label: ",".join(repr(float(x)) for x in axis) for label, axis in settings.labeled()}
    return ScanTable(axes=axes, coords=coords, columns=columns, values=values,
                     metadata={**labeled, **metadata})


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
    # map, alpha_vectors, uses it too, so that a warm start from calibrated
    # settings returns them to 1e-12.
    shrink = math.sqrt((1.0 - bv.magnitude) * (1.0 + bv.magnitude))
    target = STANDARD_SETTINGS.axes
    if initial is not None:
        deformed = lengths_and_directions(alpha_vectors(initial.axes, bv.magnitude, n))[1]
        u, _, vt = np.linalg.svd(deformed.T @ target)
        target = target @ (u @ vt).T
    par = np.outer(target @ n, n)
    return ChshSettings(*lengths_and_directions((target - par) / shrink + par)[1])


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
