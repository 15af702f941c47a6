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


def random_direction(rng) -> np.ndarray:
    """A unit 3-vector uniform on the sphere, drawn from the generator rng.

    Draws ``rng.normal(size=3)`` and normalizes it, drawing again while
    its norm is at most 1e-6; the one sampler of directions that the
    command line and the tests share, so their streams stay in step.
    """
    while True:
        v = rng.normal(size=3)
        # Its own arithmetic, not lengths_and_directions': every seeded
        # stream of directions keeps its bits.
        norm = math.sqrt(v.dot(v))
        if norm > 1e-6:
            return v / norm


def check_unit(v, name: str = "direction", labels=None) -> np.ndarray:
    """Validate that v, one 3-vector or with labels a batch (..., 3), is
    unit within 1e-12 by its ``speeds`` length, and return it with shape
    (3,) or (..., 3); a non-finite row fails. The error names the first
    failing row by ``labels[i]`` after ``name``, i its index on the last
    batch axis, or by ``(labels i)`` at the end when ``labels`` is a str."""
    v = np.asarray(v, dtype=float)
    v = v.reshape(3) if labels is None else v
    if labels is None and is_unit(v.tolist()):
        return v
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    length = speeds(v)
    unit = _near_one(length)
    if np.count_nonzero(unit) < unit.size:
        idx = tuple(np.argwhere(~unit)[0].tolist())
        text = f"must be a unit vector, got |v| = {float(length[idx])!r}"
        if isinstance(labels, str):
            raise ValueError(f"{name} {text} ({labels} {idx[-1]})")
        if labels is not None:
            name = f"{name} {labels[idx[-1]]}"
        raise ValueError(f"{name} {text}")
    return v


def is_unit(v) -> bool:
    """Whether three Python floats pass ``check_unit``, by their ``dot`` length."""
    return _near_one(math.sqrt(dot(v, v)))


def _near_one(length):
    return abs(length - 1.0) <= 1e-12


def dot(u, v):
    """u . v of components u[0..2], v[0..2]: Python floats, or arrays from
    ``components`` that broadcast; in the order numpy's einsum adds 3 terms."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def components(v):
    """The three components of a (..., 3) array as (...) views, for ``dot``."""
    return v[..., 0], v[..., 1], v[..., 2]


def speeds(betas) -> np.ndarray:
    """|beta| of each velocity in a (..., 3) array, as ``lengths_and_directions``
    gives it: a velocity checked against light speed reaches every kernel
    at exactly the speed that was checked."""
    return _scaled_lengths(betas)[0]


def lengths_and_directions(v):
    """|v| and v / |v| for each row of a (..., 3) array: the one length and
    direction of a real 3-vector, velocity or axis.

    A row's length is the square root of its ``dot`` with itself, which
    does not depend on the other rows (one (3,) vector takes Python floats).
    A row whose sum of squares loses bits to underflow or overflows (zero,
    tiny, huge or non-finite) is divided by its largest component first:
    its direction is then a unit vector to rounding, and its length finite
    up to about 1e308. A zero row gets direction 0; a non-finite row is its
    own direction.
    """
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        c = v.tolist()
        length = math.sqrt(dot(c, c))
        if _LENGTH_MIN <= length <= _LENGTH_MAX:
            return np.float64(length), v / length
    length, v, divisor = _scaled_lengths(v)
    return length, v / divisor[..., None]


#: Lengths whose sum of squares neither overflows nor loses bits to
#: underflow (the smallest normal number over the unit roundoff).
_LENGTH_MIN = math.sqrt(float(np.finfo(float).tiny / np.finfo(float).eps))
_LENGTH_MAX = float(np.sqrt(np.finfo(float).max))


def _scaled_lengths(v):
    """The lengths, and the rows and divisors whose quotients are the
    directions, of ``lengths_and_directions``."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        length = np.sqrt(dot(components(v), components(v)))
    inside = (length >= _LENGTH_MIN) & (length <= _LENGTH_MAX)
    if np.count_nonzero(inside) == inside.size:
        return length, v, length
    # Other rows, and rows without a finite nonzero maximum, are divided by 1.
    big = np.max(np.abs(v), axis=-1)
    scale = np.where(~inside & (big > 0.0) & (big < math.inf), big, 1.0)
    v = v / scale[..., None]
    length = np.sqrt(dot(components(v), components(v)))
    with np.errstate(over="ignore"):
        return scale * length, v, np.where((length > 0.0) & (length < math.inf), length, 1.0)


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
        length, direction = lengths_and_directions(beta)
        mag = float(length)
        if not mag <= 1.0:
            if not np.isfinite(beta).all():
                raise ValueError("velocity components must be finite")
            raise ValueError(f"superluminal velocity |beta| = {mag!r} > 1")
        return cls(beta=beta, magnitude=mag, direction=direction if mag > 0.0 else Z_AXIS.copy())

    @property
    def gamma(self) -> float:
        """Lorentz factor 1/sqrt(1 - beta^2); infinite at |beta| = 1."""
        if self.magnitude >= 1.0:
            return math.inf
        return 1.0 / math.sqrt(1.0 - self.magnitude**2)


def alpha_vector(a, beta) -> np.ndarray:
    """The deformed analyzer axis sqrt(1 - beta^2) a_perp + a_par.

    At rest the axis is returned untouched. At |beta| = 1 only the
    component along the motion survives, which may be the zero vector.
    """
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    return alpha_vectors(a[None], bv.magnitude, bv.direction)[0]


def alpha_vectors(axes, speed, direction):
    """``alpha_vector`` (..., K, 3) of axes (..., K, 3), the rest as in ``alpha_lengths``,
    not validated. Each n.a is a one-row matmul, which has np.dot's bits."""
    speed = np.asarray(speed, dtype=float)[..., None, None]
    n = np.asarray(direction, dtype=float)[..., None, :]
    a_par = (n[..., None, :] @ axes[..., None])[..., 0] * n
    # (1 - |beta|)(1 + |beta|) keeps full relative precision near light
    # speed, where 1 - |beta|^2 from a rounded square does not.
    alpha = np.sqrt((1.0 - speed) * (1.0 + speed)) * (axes - a_par) + a_par
    return np.where(speed == 0.0, axes, alpha)


def alpha_lengths(axes, speed, direction):
    """n.a and ``alpha_length2`` (..., K) of the axes a (..., K, 3) at speeds
    |beta| (...) along the unit directions n (..., 3)."""
    n_dot = dot(components(np.asarray(direction)[..., None, :]), components(axes))
    return n_dot, alpha_length2(n_dot, np.asarray(speed)[..., None])


def alpha_length2(n_dot, speed):
    """|alpha(a, beta)|^2 = (1 - beta^2) + beta^2 (n.a)^2, floats or arrays: no
    term cancels, so at |beta| = 1 it is (n.a)^2 to full relative precision."""
    b2 = speed * speed
    return (1.0 - b2) + b2 * (n_dot * n_dot)


def alpha_norm(a, beta) -> float:
    """|alpha(a, beta)|, the square root of its ``alpha_lengths`` entry."""
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    return math.sqrt(alpha_length2(dot(bv.direction.tolist(), a.tolist()), bv.magnitude))


def spin_eigenvalues(a, beta, j: float = 0.5) -> np.ndarray:
    """Spectrum of the spin projection along a for a particle moving
    with velocity beta: j3 * |alpha(a, beta)| for j3 = -j ... +j, in
    ascending order.

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
    return j3 * factor


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
    return float(gamma) * spin_eigenvalues(a, bv, j)


def orthonormal_triad(n):
    """A deterministic right-handed orthonormal triad (e1, e2, n)."""
    n = check_unit(n, "axis")
    ref = Z_AXIS if abs(n[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = lengths_and_directions(np.cross(ref, n))[1]
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
