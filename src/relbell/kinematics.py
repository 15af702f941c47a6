"""Relativistic spin kinematics for a particle observed from a frame in
which it moves with velocity beta (in units of c).

The central object is the velocity-deformed analyzer axis

    alpha(a, beta) = sqrt(1 - beta^2) * a_perp + a_par,

where a_par and a_perp are the components of the unit analyzer direction a
parallel and orthogonal to the direction of motion n = beta/|beta|. Its
length

    |alpha| = sqrt((1 - beta^2) + beta^2 (n . a)^2)

sets the spectrum of the center-of-mass spin projection: for spin j the
eigenvalues are j3 * |alpha| with j3 = -j ... +j. At beta = 0 the axis is
undeformed; as |beta| -> 1 the orthogonal part is extinguished and only
the component along the motion survives.

All directions are unit 3-vectors (tolerance 1e-12); velocities satisfy
0 <= |beta| <= 1. Natural units, hbar = c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GammaInconsistent

Z_AXIS = np.array([0.0, 0.0, 1.0])

_UNIT_TOL = 1e-12


def unit_vector(v) -> np.ndarray:
    """Normalize a nonzero 3-vector to unit length."""
    v = np.asarray(v, dtype=float).reshape(3)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / norm


def random_direction(rng) -> np.ndarray:
    """A unit 3-vector uniform on the sphere, drawn from the generator rng.

    Draws ``rng.normal(size=3)`` and normalizes it, drawing again while
    its norm is at most 1e-6; the one sampler of directions that the
    command line and the tests share, so their streams stay in step.
    """
    while True:
        v = rng.normal(size=3)
        # np.linalg.norm's own arithmetic, without its dispatch cost.
        norm = math.sqrt(v.dot(v))
        if norm > 1e-6:
            return v / norm


def check_unit(v, name: str = "direction") -> np.ndarray:
    """Validate that v is a unit 3-vector within 1e-12 and return it; a
    non-finite component fails too."""
    v = np.asarray(v, dtype=float).reshape(3)
    norm = float(np.linalg.norm(v))
    if not (abs(norm - 1.0) <= _UNIT_TOL):
        raise ValueError(f"{name} must be a unit vector, got |v| = {norm!r}")
    return v


def speeds(betas) -> np.ndarray:
    """|beta| of each velocity in a (..., 3) array.

    The one speed that ``VelocityDistribution.from_samples`` checks and
    that ``lengths_and_directions`` gives ``audit.per_sample_chsh`` for
    every row above about 1e-146, so a sample accepted as slower than
    light reaches the kernel at exactly the speed that was checked. The
    result for a row does not depend on the other rows.
    """
    betas = np.asarray(betas, dtype=float)
    return np.sqrt(np.einsum("...j,...j->...", betas, betas))


#: A sum of squares of float components below this has lost bits to
#: underflow (the smallest normal number over the unit roundoff).
_SQUARES_LOSSLESS = float(np.finfo(float).tiny / np.finfo(float).eps)


def lengths_and_directions(v):
    """|v| and v / |v| for each row of a (..., 3) array.

    A zero row gets length 0 and direction 0. A nonzero row whose sum of
    squares would lose bits to underflow (|v| below about 1e-146) is
    divided by its largest component first, so its direction is a unit
    vector to rounding; every other row is divided by ``speeds(v)``.
    """
    v = np.asarray(v, dtype=float)
    length = speeds(v)
    scale = 1.0
    tiny = (length * length < _SQUARES_LOSSLESS) & np.any(v != 0.0, axis=-1)
    if np.any(tiny):
        # Other rows are divided by 1, which leaves their bits alone.
        scale = np.where(tiny, np.max(np.abs(v), axis=-1), 1.0)
        v = v / scale[..., None]
        length = speeds(v)
    return scale * length, v / np.where(length > 0.0, length, 1.0)[..., None]


@dataclass(frozen=True, eq=False)
class BeamVelocity:
    """A particle velocity in units of c, with its derived quantities.

    ``direction`` is beta/|beta| for a moving particle; at rest it falls
    back to the z axis by convention (every rest-frame formula below is
    independent of that choice).
    """

    beta: np.ndarray
    magnitude: float
    direction: np.ndarray

    @classmethod
    def of(cls, value) -> "BeamVelocity":
        if isinstance(value, cls):
            return value
        beta = np.asarray(value, dtype=float).reshape(3)
        # np.linalg.norm's own arithmetic, without its dispatch cost. The
        # squares of components above 1e150 may overflow to inf: silently.
        if max(map(abs, beta.tolist())) > 1e150:
            with np.errstate(over="ignore"):
                squares = float(beta.dot(beta))
        else:
            squares = float(beta.dot(beta))
        if not math.isfinite(squares) and not np.isfinite(beta).all():
            raise ValueError("velocity components must be finite")
        mag = math.sqrt(squares)
        if mag > 1.0:
            raise ValueError(f"superluminal velocity |beta| = {mag!r} > 1")
        if mag * mag < _SQUARES_LOSSLESS and np.any(beta):
            # The squares underflowed: rescale, or the direction misses unit length.
            length, direction = lengths_and_directions(beta)
            mag = float(length)
        else:
            direction = beta / mag if mag > 0.0 else Z_AXIS.copy()
        return cls(beta=beta, magnitude=mag, direction=direction)

    @property
    def gamma(self) -> float:
        """Lorentz factor 1/sqrt(1 - beta^2); infinite at |beta| = 1."""
        if self.magnitude >= 1.0:
            return math.inf
        return 1.0 / math.sqrt(1.0 - self.magnitude**2)


@dataclass(frozen=True, eq=False)
class SpinProjectionSpectrum:
    """Eigenvalues of the spin projection on a deformed analyzer axis.

    ``eigenvalues`` holds j3 * |alpha(a, beta)| for j3 = -j ... +j in
    ascending order.
    """

    j: float
    eigenvalues: np.ndarray


def decompose(a, n):
    """Split a into components parallel and orthogonal to the unit axis n.

    Returns (a_par, a_perp) with a_par = (n . a) n and a_perp = a - a_par,
    so the two parts always reassemble to a exactly.
    """
    a = np.asarray(a, dtype=float).reshape(3)
    n = check_unit(n, "axis")
    a_par = float(np.dot(n, a)) * n
    return a_par, a - a_par


def alpha_vector(a, beta) -> np.ndarray:
    """The deformed analyzer axis sqrt(1 - beta^2) a_perp + a_par.

    At rest the axis is returned untouched. At |beta| = 1 only the
    component along the motion survives, which may be the zero vector.
    """
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    if bv.magnitude == 0.0:
        return a.copy()
    a_par, a_perp = decompose(a, bv.direction)
    # (1 - |beta|)(1 + |beta|) keeps full relative precision near light
    # speed, where 1 - |beta|^2 from a rounded square does not.
    return math.sqrt((1.0 - bv.magnitude) * (1.0 + bv.magnitude)) * a_perp + a_par


def alpha_lengths(axes, speed, direction):
    """n.a and |alpha(a, beta)|^2 = (1 - beta^2) + beta^2 (n.a)^2, (..., K),
    for the axes a (..., K, 3) at speeds |beta| (...) along the unit
    directions n (..., 3). The terms are non-negative, so nothing cancels:
    at |beta| = 1 the length is |n.a| to full relative precision."""
    n_dot = np.einsum("...j,...kj->...k", direction, axes)
    b2 = np.multiply(speed, speed)[..., None]
    return n_dot, (1.0 - b2) + b2 * (n_dot * n_dot)


def alpha_norm(a, beta) -> float:
    """|alpha(a, beta)|, the square root of its ``alpha_lengths`` entry."""
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    return math.sqrt(alpha_lengths(a[None], bv.magnitude, bv.direction)[1][0])


def spin_eigenvalues(a, beta, j: float = 0.5) -> SpinProjectionSpectrum:
    """Spectrum of the spin projection along a for a particle moving
    with velocity beta.

    j must be a positive half-integer. The eigenvalues are the rest-frame
    projections j3 scaled by the common factor |alpha(a, beta)|, so the
    spectrum is symmetric about zero and collapses toward it as the
    analyzer turns orthogonal to an ultrarelativistic beam.
    """
    jj = float(j)
    if jj <= 0.0 or abs(2.0 * jj - round(2.0 * jj)) > 1e-12:
        raise ValueError(f"j must be a positive half-integer, got {j!r}")
    factor = alpha_norm(a, beta)
    j3 = np.arange(-round(2.0 * jj), round(2.0 * jj) + 1, 2) / 2.0
    return SpinProjectionSpectrum(j=jj, eigenvalues=j3 * factor)


def w_projection_eigenvalues(a, beta, gamma: float, j: float = 0.5) -> np.ndarray:
    """Eigenvalues of the analyzer projection of the Pauli-Lubanski
    spatial part, i.e. gamma times the spin projection eigenvalues.

    gamma must equal 1/sqrt(1 - beta^2) within 1e-9, otherwise
    GammaInconsistent is raised. For an analyzer orthogonal to the motion
    the gamma factor cancels the sqrt(1 - beta^2) deformation and the
    rest-frame values are recovered for every beta.
    """
    bv = BeamVelocity.of(beta)
    expected = bv.gamma
    if not (abs(float(gamma) - expected) <= 1e-9):
        raise GammaInconsistent(f"gamma = {gamma!r} but 1/sqrt(1-beta^2) = {expected!r}")
    return float(gamma) * spin_eigenvalues(a, bv, j).eigenvalues


def orthonormal_triad(n):
    """A deterministic right-handed orthonormal triad (e1, e2, n)."""
    n = check_unit(n, "axis")
    ref = Z_AXIS if abs(n[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = unit_vector(np.cross(ref, n))
    e2 = np.cross(n, e1)
    return e1, e2, n


def spin_structure_constants(beta) -> np.ndarray:
    """Structure constants of the moving-frame spin components.

    In a right-handed triad (e1, e2, n) with the third axis along the
    motion, the three operators S_k = alpha(e_k, beta) . sigma / 2 close
    under commutation,

        [S_k, S_l] = i c_{klm} S_m,

    with c_123 = 1 - beta^2 and c_231 = c_312 = 1 (antisymmetric in the
    first index pair). At rest this is the rotation algebra; at |beta| = 1
    the first constant vanishes and the algebra contracts to that of the
    Euclidean group of the plane. The constants returned use the exact
    cancellation of the two equal transverse scale factors; the tests
    and acceptance criterion 09 recontract them against the explicit
    matrices.
    """
    bv = BeamVelocity.of(beta)
    c123 = 1.0 - bv.magnitude**2
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = c123, -c123
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    c[2, 0, 1], c[0, 2, 1] = 1.0, -1.0
    return c
