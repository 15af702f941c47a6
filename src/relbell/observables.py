"""Binary spin observables for a relativistic spin-1/2 pair and the
singlet correlation of their projections.

Two detectors with unit axes a and b act on a pair of equal-mass
particles flying back to back, both moving with speed |beta| along a
common axis n in the lab frame. Each detector measures the center-of-mass
spin projection on its axis, normalized to outcomes +-1. The projection
operator for axis a is

    a_hat = alpha(a, beta) . sigma / |alpha(a, beta)|,

with the deformed axis alpha from :mod:`relbell.kinematics`. In the
zero-helicity singlet the correlation of the two outcomes has the closed
form

    E(a, b, beta) = - ((1 - beta^2) a . b + beta^2 (n.a)(n.b))
                    / sqrt((1 - beta^2) + beta^2 (n.a)^2)
                    / sqrt((1 - beta^2) + beta^2 (n.b)^2),

which interpolates between the rest-frame value -a . b and the
ultrarelativistic limit -sign(n.a) sign(n.b).

Two independent evaluation routes are provided. ``eprb_closed_form``
computes the expression above from dot products, in ``correlations``, the
batch kernel that ``bell.chsh_batch`` shares. ``eprb_oracle`` builds the
observable matrices, the explicit singlet vector and the tensor-product
expectation value, in ``oracle_correlations``, the batch kernel of the
matrix oracle; the test suite enforces that the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservable
from .kinematics import BeamVelocity, alpha_lengths, alpha_vectors, check_unit
from .linalg import pauli_dot, phase_fixed

#: |alpha| at or below this length counts as a collapsed (degenerate) axis.
DEGENERACY_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class SpinObservable:
    """A normalized binary spin observable for one detector.

    ``matrix`` is the 2x2 involution alpha_hat . sigma with eigenvalues
    exactly +-1; ``alpha_length`` records the length |alpha(a, beta)| that
    was divided out.
    """

    axis: np.ndarray
    beta: BeamVelocity
    matrix: np.ndarray
    alpha_length: float


def _helicity_bases(direction):
    """``helicity_basis`` (..., 2, 2), plus then minus, of unit directions (..., 3)."""
    half = np.arccos(np.clip(direction[..., 2], -1.0, 1.0)) / 2.0
    ephi = np.exp(1j * np.arctan2(direction[..., 1], direction[..., 0]))
    plus = np.stack((np.cos(half), np.sin(half) * ephi), axis=-1)
    minus = np.stack((np.sin(half), -np.cos(half) * ephi), axis=-1)
    return phase_fixed(np.stack((plus, minus), axis=-2))


def _singlets(direction):
    """``singlet_state`` (..., 2, 2) of unit directions (..., 3), indexed by
    the first then the second particle's spin."""
    bases = _helicity_bases(direction)
    outer = bases[..., 0, :, None] * bases[..., 1, None, :]
    return (outer - np.swapaxes(outer, -1, -2)) / math.sqrt(2.0)


def _observables(axes, speed, direction):
    """alpha_hat . sigma (..., K, 2, 2), NaN where degenerate, |alpha| and the
    degenerate mask (..., K) of axes (..., K, 3); the rest as in ``alpha_lengths``."""
    length = np.sqrt(alpha_lengths(axes, speed, direction)[1])
    degenerate = length <= DEGENERACY_THRESHOLD
    hat = alpha_vectors(axes, speed, direction) / np.where(degenerate, math.nan, length)[..., None]
    return pauli_dot(hat), length, degenerate


def helicity_basis(n):
    """Eigenvectors (plus, minus) of n . sigma with eigenvalues +1, -1.

    Each is unit-normalized with its first non-negligible component real
    positive, which pins the phase everywhere except at isolated basis
    flips near the poles of that convention.
    """
    return tuple(_helicity_bases(check_unit(n, "helicity axis")))


def singlet_state(n) -> np.ndarray:
    """The spin singlet built from the helicity basis along n.

    The result is (|+,n>|-,n> - |-,n>|+,n>)/sqrt(2) as its 4 amplitudes
    in the fixed spin-z product basis (|++>, |+->, |-+>, |-->). Rotation
    invariance of the singlet makes them (0, 1, -1, 0)/sqrt(2) up to one
    overall phase for every n; the phase is the determinant of the basis
    change.
    """
    return _singlets(check_unit(n, "helicity axis")).reshape(4)


def spin_observable(a, beta) -> SpinObservable:
    """The normalized spin projection observable for analyzer axis a.

    Raises DegenerateObservable when |alpha(a, beta)| <= 1e-12, i.e. at
    |beta| = 1 with the analyzer orthogonal to the motion, where no
    normalized projection exists.
    """
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    matrix, length, degenerate = _observables(a[None], bv.magnitude, bv.direction)
    if degenerate[0]:
        raise DegenerateObservable(f"axis {tuple(a.tolist())} is orthogonal to a light-speed "
                                   f"beam; |alpha| = {float(length[0])!r}")
    return SpinObservable(axis=a, beta=bv, matrix=matrix[0], alpha_length=float(length[0]))


def correlations(left, right, speed, direction):
    """E(a, b, beta) (..., L, R) for every a in ``left`` (..., L, 3) and b in
    ``right`` (..., R, 3), which share a batch shape; speed and direction
    as in ``alpha_lengths``, none of it validated. ``degenerate`` (..., L +
    R) marks the axes, left then right, with |alpha| <= DEGENERACY_THRESHOLD,
    and E is NaN there. The one kernel of every closed-form correlation."""
    k = left.shape[-2]
    n_dot, len2 = alpha_lengths(np.concatenate((left, right), axis=-2), speed, direction)
    degenerate = len2 <= DEGENERACY_THRESHOLD**2
    len2[degenerate] = math.nan
    length = np.sqrt(len2)
    b2 = np.multiply(speed, speed)[..., None, None]
    # alpha(a) . alpha(b) = (1 - beta^2) a . b + beta^2 (n.a)(n.b), exact at
    # rest and at light speed, built in place for a low peak memory, and
    # negated before the division, which keeps the NaN of a degenerate axis.
    corr = b2 * (n_dot[..., :k, None] * n_dot[..., None, k:])
    corr += (1.0 - b2) * np.einsum("...ij,...kj->...ik", left, right)
    np.negative(corr, out=corr)
    corr /= length[..., :k, None] * length[..., None, k:]
    return corr, degenerate


def eprb_closed_form(a, b, beta) -> float:
    """Singlet correlation of the two normalized projections, closed form.

    One pair through ``correlations``; no matrices are built. The value
    lies in [-1, 1], reduces to -a . b at rest, and flips sign under
    reversal of either analyzer axis.
    """
    a = check_unit(a, "analyzer axis a")
    b = check_unit(b, "analyzer axis b")
    bv = BeamVelocity.of(beta)
    value, degenerate = correlations(a[None], b[None], bv.magnitude, bv.direction)
    if np.count_nonzero(degenerate):
        name, axis = ("a", a) if degenerate[0] else ("b", b)
        raise DegenerateObservable(f"axis {name} = {tuple(axis.tolist())} degenerate at "
                                   f"|beta| = {bv.magnitude!r}")
    return float(value[0, 0])


def oracle_correlations(left, right, speed, direction):
    """``correlations`` the long way, with its arguments and result, none of
    it validated: <psi| a_hat (x) b_hat |psi> from the observable matrices
    and the explicit singlet of each beam direction, sharing only the alpha
    map. Raises ArithmeticError at an imaginary part of 1e-13 or more."""
    k = left.shape[-2]
    mats, _, degenerate = _observables(np.concatenate((left, right), axis=-2), speed, direction)
    psi = _singlets(direction)
    value = np.einsum("...ik,...aij,...bkl,...jl->...ab",
                      psi.conj(), mats[..., :k, :, :], mats[..., k:, :, :], psi)
    leak = np.abs(value.imag) >= 1e-13
    if np.count_nonzero(leak):
        raise ArithmeticError(f"correlation developed an imaginary part: {complex(value[leak][0])!r}")
    return value.real, degenerate


def eprb_oracle(a, b, beta) -> float:
    """Singlet correlation computed the long way, as a matrix element.

    One pair through ``oracle_correlations``; serves as the independent
    cross-check for ``eprb_closed_form``. A degenerate axis, a before b,
    raises DegenerateObservable from ``spin_observable``.
    """
    bv = BeamVelocity.of(beta)
    a = check_unit(a, "analyzer axis a")
    b = check_unit(b, "analyzer axis b")
    value, degenerate = oracle_correlations(a[None], b[None], bv.magnitude, bv.direction)
    if np.count_nonzero(degenerate):
        spin_observable(a if degenerate[0] else b, bv)
    return float(value[0, 0])
