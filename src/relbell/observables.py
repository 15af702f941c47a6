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
observable matrices and takes their tensor-product expectation value in
the explicit singlet, one constant state for every beam direction since
the singlet is rotation invariant, in ``oracle_correlations``, the batch
kernel of the matrix oracle; the test suite enforces that the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservable
from .kinematics import (BeamVelocity, alpha_lengths, alpha_vectors, check_unit,
                         lengths_and_directions)
from .linalg import pauli_dot

#: |alpha| at or below this length counts as a collapsed (degenerate) axis.
DEGENERACY_THRESHOLD = 1e-12

#: The singlet's amplitudes psi[i, j], i the first and j the second
#: particle's spin along z: the same state for every quantization axis.
_SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class SpinObservable:
    """A normalized binary spin observable for one detector.

    ``matrix`` is the 2x2 involution alpha_hat . sigma with eigenvalues
    +-1, alpha_hat the direction of alpha(a, beta) from
    ``lengths_and_directions``; ``alpha_length`` records |alpha(a, beta)|.
    """

    axis: np.ndarray
    beta: BeamVelocity
    matrix: np.ndarray
    alpha_length: float


def _lengths(axes, speed, direction):
    """n.a, |alpha| and the degenerate mask |alpha| <= DEGENERACY_THRESHOLD (..., K)
    of axes (..., K, 3), as in ``alpha_lengths``: both routes' one degeneracy test."""
    n_dot, len2 = alpha_lengths(axes, speed, direction)
    length = np.sqrt(len2)
    return n_dot, length, length <= DEGENERACY_THRESHOLD


def _observables(axes, speed, direction):
    """alpha_hat . sigma (..., K, 2, 2), NaN where degenerate, |alpha| and the
    degenerate mask (..., K) of axes (..., K, 3); the rest as in ``alpha_lengths``."""
    _, length, degenerate = _lengths(axes, speed, direction)
    hat = lengths_and_directions(alpha_vectors(axes, speed, direction))[1]
    hat[degenerate] = math.nan
    return pauli_dot(hat), length, degenerate


def singlet_state(n) -> np.ndarray:
    """The spin singlet's 4 amplitudes (0, 1, -1, 0)/sqrt(2) in the fixed
    spin-z product basis (|++>, |+->, |-+>, |-->), for every unit axis n.

    The singlet is invariant under every U (x) U with U in SU(2), so the
    state (|+,n>|-,n> - |-,n>|+,n>)/sqrt(2) built along n is this one up
    to a phase; n is only checked to be a unit vector.
    """
    check_unit(n, "helicity axis")
    return _SINGLET.astype(complex).reshape(4)


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
    n_dot, length, degenerate = _lengths(np.concatenate((left, right), axis=-2), speed, direction)
    length[degenerate] = math.nan
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
    and the one constant singlet psi (real, so psi* = psi), sharing only the
    alpha map. Raises ArithmeticError at an imaginary part of 1e-13 or more."""
    k = left.shape[-2]
    mats, _, degenerate = _observables(np.concatenate((left, right), axis=-2), speed, direction)
    value = np.einsum("ik,...aij,...bkl,jl->...ab",
                      _SINGLET, mats[..., :k, :, :], mats[..., k:, :, :], _SINGLET)
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
