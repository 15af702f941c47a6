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
computes the expression above from dot products alone. ``eprb_oracle``
builds the observable matrices, the explicit singlet vector, and the
4x4 tensor-product expectation value. Their agreement is a structural
test of the whole stack and is enforced by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservable
from .kinematics import BeamVelocity, alpha_norm, alpha_vector, check_unit
from .linalg import kron, pauli_dot, phase_fixed

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


@dataclass(frozen=True, eq=False)
class PairState:
    """A two-particle spin state as 4 amplitudes in the product basis
    (|++>, |+->, |-+>, |-->) of a single-particle basis pair."""

    amplitudes: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def helicity_basis(n):
    """Eigenvectors (plus, minus) of n . sigma with eigenvalues +1, -1.

    Each is unit-normalized with its first non-negligible component real
    positive, which pins the phase everywhere except at isolated basis
    flips near the poles of that convention.
    """
    n = check_unit(n, "helicity axis")
    theta = math.acos(max(-1.0, min(1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    ephi = complex(math.cos(phi), math.sin(phi))
    plus = np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * ephi])
    minus = np.array([math.sin(theta / 2.0), -math.cos(theta / 2.0) * ephi])
    return phase_fixed(plus), phase_fixed(minus)


def singlet_state(n) -> PairState:
    """The spin singlet built from the helicity basis along n.

    The result is (|+,n>|-,n> - |-,n>|+,n>)/sqrt(2) written out in the
    fixed spin-z product basis. Rotation invariance of the singlet makes
    the amplitudes (0, 1, -1, 0)/sqrt(2) up to one overall phase for
    every n; the phase is the determinant of the basis change.
    """
    plus, minus = helicity_basis(n)
    amplitudes = (kron(plus, minus) - kron(minus, plus)) / math.sqrt(2.0)
    return PairState(amplitudes=amplitudes)


def spin_observable(a, beta) -> SpinObservable:
    """The normalized spin projection observable for analyzer axis a.

    Raises DegenerateObservable when |alpha(a, beta)| <= 1e-12, i.e. at
    |beta| = 1 with the analyzer orthogonal to the motion, where no
    normalized projection exists.
    """
    a = check_unit(a, "analyzer axis")
    bv = BeamVelocity.of(beta)
    length = alpha_norm(a, bv)
    if length <= DEGENERACY_THRESHOLD:
        raise DegenerateObservable(
            f"axis {tuple(a)} is orthogonal to a light-speed beam; |alpha| = {length!r}"
        )
    return SpinObservable(
        axis=a,
        beta=bv,
        matrix=pauli_dot(alpha_vector(a, bv) / length),
        alpha_length=length,
    )


def eprb_closed_form(a, b, beta) -> float:
    """Singlet correlation of the two normalized projections, closed form.

    Pure dot-product arithmetic; no matrices are built. The value lies in
    [-1, 1], reduces to -a . b at rest, and flips sign under reversal of
    either analyzer axis.
    """
    a = check_unit(a, "analyzer axis a")
    b = check_unit(b, "analyzer axis b")
    bv = BeamVelocity.of(beta)
    n = bv.direction
    b2 = bv.magnitude**2
    na = float(np.dot(n, a))
    nb = float(np.dot(n, b))
    # Sums of non-negative terms, exact at rest and at light speed.
    len2_a = (1.0 - b2) + b2 * (na * na)
    len2_b = (1.0 - b2) + b2 * (nb * nb)
    if len2_a <= DEGENERACY_THRESHOLD**2:
        raise DegenerateObservable(f"axis a = {tuple(a)} degenerate at |beta| = {bv.magnitude!r}")
    if len2_b <= DEGENERACY_THRESHOLD**2:
        raise DegenerateObservable(f"axis b = {tuple(b)} degenerate at |beta| = {bv.magnitude!r}")
    numerator = (1.0 - b2) * float(np.dot(a, b)) + b2 * (na * nb)
    return -numerator / (math.sqrt(len2_a) * math.sqrt(len2_b))


def eprb_oracle(a, b, beta) -> float:
    """Singlet correlation computed the long way, as a matrix element.

    Builds both observable matrices, the explicit singlet vector for the
    beam axis, and evaluates <psi| a_hat (x) b_hat |psi>. Serves as the
    independent cross-check for ``eprb_closed_form``; shares none of its
    arithmetic beyond the alpha map itself.
    """
    bv = BeamVelocity.of(beta)
    mat_a = spin_observable(a, bv).matrix
    mat_b = spin_observable(b, bv).matrix
    psi = singlet_state(bv.direction).amplitudes
    value = complex(np.vdot(psi, kron(mat_a, mat_b) @ psi))
    if abs(value.imag) >= 1e-13:
        raise ArithmeticError(f"correlation developed an imaginary part: {value!r}")
    return value.real
