"""Four-spinor cross-checks of the center-of-mass spin operator.

The two-detector correlation modules work entirely in 2x2 land. This
module rebuilds the same spin operator inside the first-quantized
free-particle theory, in the Dirac-Pauli representation with
hbar = c = 1, and verifies the operator identities that tie the two
pictures together:

* the projected spin a . S has the doubly degenerate spectrum
  +- |lambda_a| predicted by the alpha map, and commutes with H;
* the displayed simultaneous eigenstates of H and a . S check out;
* the Heisenberg spin derivative is a precession, i [H, s] = omega x s;
* the even part Omega of the precession frequency rebuilds the
  Hamiltonian through H = beta^-2 Omega . S;
* for a massless particle the Hamiltonian is velocity dot momentum with
  an even velocity operator;
* the invariant W0^2 - W.W is the expected Casimir multiple of the
  identity.

The operators are built in units of the energy p0 = hypot(|p|, m), from
beta = p / p0 and mu = m / p0: H / p0 squares to 1, every residual is a
relative error, and no product over- or underflows at any finite p and m
with a finite energy.

Every identity is computed once, on stacked arrays: ``dirac_battery``
runs all of them over N trials in one pass, in blocks of ``_BLOCK``
trials. ``build_context`` returns a batch of one, which the ``*_check``
functions hand to the same code. Each check returns a :class:`CheckReport`
carrying named residuals, each against the fixed tolerance that
``_TOL`` gives its name; a check whose residual exceeds tolerance
raises the matching error with the report attached, so callers can
still serialize what failed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    EigenstateResidual,
    IdentityMismatch,
    NonHermitianInput,
    NullContext,
    PrecessionMismatch,
    SpectrumMismatch,
    ZeroHelicity,
)
from .kinematics import check_unit, lengths_and_directions, orthonormal_triad, speeds
from .linalg import HERMITICITY_TOL, ID2, PAULI, hermitian_deviation

ID4 = np.eye(4, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

#: Dirac-Pauli representation. GAMMA0 is the parity matrix diag(1, -1)
#: blocks; ALPHA are the velocity matrices gamma0 gamma^k.
GAMMA0 = np.block([[ID2, _Z2], [_Z2, -ID2]])
GAMMA = tuple(np.block([[_Z2, sk], [-sk, _Z2]]) for sk in PAULI)
ALPHA = tuple(np.block([[_Z2, sk], [sk, _Z2]]) for sk in PAULI)
#: Chirality matrix with the sign convention -i gamma0 gamma1 gamma2 gamma3,
#: fixed so that the free precession frequency below is omega = -2 gamma5 p.
GAMMA5 = np.block([[_Z2, -ID2], [-ID2, _Z2]])
#: Spin matrices s_k = diag(sigma_k, sigma_k) / 2.
SPIN = tuple(np.block([[sk, _Z2], [_Z2, sk]]) / 2.0 for sk in PAULI)

# The operator 3-vectors stacked (3, n, n) for the batch kernel.
_ALPHA = np.array(ALPHA)
_GAMMA = np.array(GAMMA)
_SPIN = np.array(SPIN)
_PAULI = np.array(PAULI)
_SPECTRUM_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])

#: Trials per block. A block of stacked operators takes some tens of kB
#: per trial, so the battery's memory does not grow with the trial count.
_BLOCK = 1024

#: The tolerance of every record, in the order the checks report them.
_TOL = {
    "spin_spectrum.eigenvalues": 1e-10,
    "spin_spectrum.commutes_with_hamiltonian": 1e-12,
    "eigenstate.energy": 1e-10,
    "eigenstate.spin_projection": 1e-10,
    "precession.heisenberg_vs_cross": 1e-12,
    "precession.omega_commutes_with_hamiltonian": 1e-12,
    "hamiltonian_identity.full_space": 1e-10,
    "hamiltonian_identity.positive_subspace": 1e-10,
    "hamiltonian_identity.negative_subspace": 1e-10,
    "hamiltonian_identity.omega_even": 1e-12,
    "spin_forms.projector_vs_ratio": 1e-12,
    "spin_forms.explicit_vs_ratio": 1e-11,
    "spin_forms.explicit_vs_projector": 1e-11,
    "casimir.invariant": 1e-10,
    "evenness.spin": 1e-12,
    "evenness.omega": 1e-12,
    "massless_velocity.hamiltonian": 1e-12,
    "massless_velocity.even": 1e-12,
    "kinetic.moment_vs_mass_radius": 1e-14,
    "kinetic.spin_half_angular_velocity": 1e-12,
}


@dataclass(frozen=True, eq=False)
class DiracContext:
    """Momentum, mass and derived kinematics of a batch of free particles.

    Every field has a leading trial axis. ``n`` is the momentum direction,
    a zero row at rest, the same bits at every mass. The operators are
    built from ``beta = p / p0``, ``speed = |p| / p0`` and ``mu = m / p0``,
    accurate to rounding at any finite p and m: quotients of
    ``p_scaled``, ``m_scaled`` and ``p0_scaled``, which are p, m and p0
    over a power of two (``_context``).
    """

    p: np.ndarray
    m: np.ndarray
    p0: np.ndarray
    p_mag: np.ndarray
    n: np.ndarray
    beta: np.ndarray
    speed: np.ndarray
    mu: np.ndarray
    p_scaled: np.ndarray
    m_scaled: np.ndarray
    p0_scaled: np.ndarray


@dataclass(frozen=True, eq=False)
class DiracOperatorSet:
    """The 4x4 operator families of a batch of free particles, in units of p0.

    H = alpha . beta + mu gamma0 squares to 1, so the spin S = W H^-1 is
    W H and the energy-sign projectors are (1 +- H) / 2. Every field but
    the spin matrices ``s`` has a leading trial axis; W, S and Omega are
    (N, 3, 4, 4) stacks of their components. Omega is the even part of
    the precession frequency and Omega_by_beta2 = Omega / beta^2, kept
    apart because beta^2 underflows for tiny momenta; both are zero at
    rest, where no motion axis exists.
    """

    ctx: DiracContext
    H: np.ndarray
    Pi_plus: np.ndarray
    Pi_minus: np.ndarray
    s: tuple
    W0: np.ndarray
    W: np.ndarray
    S: np.ndarray
    Omega: np.ndarray
    Omega_by_beta2: np.ndarray


@dataclass(frozen=True)
class CheckRecord:
    """One named residual with its tolerance."""

    check: str
    max_residual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CheckReport:
    """The residual records of one identity check."""

    name: str
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        return max(r.max_residual for r in self.records)


def _record(check: str, residual) -> CheckRecord:
    """The record of a residual against the tolerance ``_TOL`` gives its name."""
    residual, tol = float(residual), _TOL[check]
    return CheckRecord(check=check, max_residual=residual, tolerance=tol, passed=residual <= tol)


def _reject(bad, error_cls, message, first: int = 0) -> None:
    """Raise error_cls for the first trial flagged in ``bad``; ``message``
    maps that trial's index within ``bad`` to the error text."""
    if np.any(bad):
        k = int(np.argmax(bad))
        raise error_cls(f"{message(k)} (trial {first + k})")


# --- stacked arithmetic: every array has a leading trial axis ---

def _dot(c, v):
    """sum_k c_k v_k for coefficient rows c (N, 3) and an operator
    3-vector v, (3, n, n) or (N, 3, n, n)."""
    c = c[:, :, None, None]
    return c[:, 0] * v[..., 0, :, :] + c[:, 1] * v[..., 1, :, :] + c[:, 2] * v[..., 2, :, :]


def _cross(u, v, product=np.multiply):
    """(u x v)_k = u_l v_m - u_m v_l over cyclic (k, l, m) for operator
    3-vectors (..., 3, n, n); ``product`` multiplies two components."""
    return np.stack([product(u[..., l, :, :], v[..., m, :, :])
                     - product(u[..., m, :, :], v[..., l, :, :])
                     for l, m in ((1, 2), (2, 0), (0, 1))], axis=-3)


def _sum3(x):
    """x_0 + x_1 + x_2 over the component axis of (N, 3, n, n)."""
    return x[:, 0] + x[:, 1] + x[:, 2]


def _rowdot(u, v):
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _apply(matrix, psi):
    """matrix @ psi for stacks (N, 4, 4) and (N, 4)."""
    return (matrix @ psi[:, :, None])[:, :, 0]


def _peak(x):
    """Largest entry magnitude of each trial's slice of x: the norm of
    every residual."""
    return np.abs(x).reshape(x.shape[0], -1).max(axis=1, initial=0.0)


def _col(x):
    """A per-trial scalar (N,) shaped to scale (N, n, n) stacks."""
    return x[:, None, None]


# --- the operator family ---

def _validate(p, m) -> None:
    _reject(~(np.isfinite(m) & (m >= 0.0)), ValueError,
            lambda k: f"mass must be finite and non-negative, got {float(m[k])!r}")
    _reject(~np.all(np.isfinite(p), axis=1), ValueError,
            lambda k: f"momentum must be finite, got {p[k].tolist()!r}")
    _reject(~np.any(p != 0.0, axis=1) & (m == 0.0), NullContext,
            lambda k: "momentum and mass are both zero")
    _context(p, m)  # rejects an energy above the largest float


def _context(p, m) -> DiracContext:
    """The context of p (N, 3), m (N,) that pass ``_validate``'s other
    checks. p and m are divided by the power of two 2^e that brings the
    largest of |p_k| and m into [0.5, 1), exactly, so no square on the way
    over- or underflows; ValueError where the energy 2^e p0 overflows.
    n is taken from p over the power of two of its own largest component."""
    big = np.abs(p).max(axis=1)
    e = np.frexp(np.maximum(big, m))[1]
    p_e, m_e = np.ldexp(p, -e[:, None]), np.ldexp(m, -e)
    n = lengths_and_directions(np.ldexp(p, -np.frexp(big)[1][:, None]))[1]
    p_mag = speeds(p_e)
    p0 = np.hypot(p_mag, m_e)
    _reject(e + np.frexp(p0)[1] > np.finfo(float).maxexp, ValueError,
            lambda k: "energy hypot(|p|, m) exceeds the largest float")
    return DiracContext(p=p, m=m, p0=np.ldexp(p0, e), p_mag=np.ldexp(p_mag, e), n=n,
                        beta=p_e / p0[:, None], speed=p_mag / p0, mu=m_e / p0,
                        p_scaled=p_e, m_scaled=m_e, p0_scaled=p0)


def _omega(p):
    """The precession frequency omega_k = -2 p_k gamma5, (..., 3, 4, 4)."""
    return -2.0 * p[..., None, None] * GAMMA5


def _operators(p, m) -> DiracOperatorSet:
    """The operator family of every trial of validated p (N, 3), m (N,)."""
    ctx = _context(p, m)
    H = _dot(ctx.beta, _ALPHA) + _col(ctx.mu) * GAMMA0  # H / p0
    Hk = H[:, None]
    W = (_SPIN @ Hk + Hk @ _SPIN) / 2.0
    # Omega / beta^2 = (1 + (m / |p|) gamma . n) omega is, over p0,
    # -2 (beta + mu (gamma . n) n) gamma5: zero at rest.
    even = _omega(ctx.beta) + _dot(ctx.n, _GAMMA)[:, None] @ _omega(ctx.mu[:, None] * ctx.n)
    return DiracOperatorSet(ctx=ctx, H=H, Pi_plus=(ID4 + H) / 2.0, Pi_minus=(ID4 - H) / 2.0,
                            s=SPIN, W0=_dot(ctx.beta, _SPIN), W=W, S=W @ Hk,
                            Omega=_col(ctx.speed**2)[:, None] * even, Omega_by_beta2=even)


_TRIAL_FIELDS = ("H", "Pi_plus", "Pi_minus", "W0", "W", "S", "Omega", "Omega_by_beta2")


def _select(ops: DiracOperatorSet, mask) -> DiracOperatorSet:
    """The trials of a batch that ``mask`` picks."""
    ctx = DiracContext(**{f.name: getattr(ops.ctx, f.name)[mask] for f in fields(DiracContext)})
    return DiracOperatorSet(ctx=ctx, s=ops.s,
                            **{name: getattr(ops, name)[mask] for name in _TRIAL_FIELDS})


def build_context(p, m: float) -> DiracOperatorSet:
    """Assemble the operator family for momentum p and mass m >= 0, as a
    batch of one: every field but ``s`` has a leading trial axis of length 1.

    Raises NullContext when both vanish. At p = 0 the spin S coincides
    with s exactly; in general S = W H^-1 with W0 = p . s and
    W_k = (s_k H + H s_k) / 2.
    """
    p = np.asarray(p, dtype=float).reshape(1, 3)
    m = np.array([float(m)])
    _validate(p, m)
    return _operators(p, m)


def projected_spin(ops: DiracOperatorSet, a) -> np.ndarray:
    """The 4x4 projection a . S of the first trial."""
    a = check_unit(a, "analyzer axis")
    return _dot(a[None], ops.S[:1])[0]


def _spin_length(ctx, a):
    """|lambda_a| = hypot(m, p . a) / (2 p0), the alpha-map length
    sqrt(1 + (beta . a)^2 - beta^2) / 2 written without 1 - beta^2.

    Exact in p and m, which ``_context`` scales by a power of two, not by
    p0: the relative error stays within (4 + 3 kappa) eps,
    kappa = |p| |p . a| / (m^2 + (p . a)^2) being the conditioning of the
    rounded p . a, at any speed (tested for |p| / m from 1e-8 to 1e12
    against a 50-digit reference).
    """
    return np.hypot(ctx.m_scaled, _rowdot(ctx.p_scaled, a)) / (2.0 * ctx.p0_scaled)


# --- the identities; each maps record names to per-trial residuals ---

def _spin_spectrum(ops, a, first: int = 0) -> dict:
    a_s = _dot(a, ops.S)
    deviation = hermitian_deviation(a_s)
    _reject(~(deviation <= HERMITICITY_TOL), NonHermitianInput,
            lambda k: f"a . S deviates from Hermitian by {deviation[k]:.3e}", first)
    eigenvalues = np.linalg.eigvalsh((a_s + np.swapaxes(a_s.conj(), -1, -2)) / 2.0)
    expected = _spin_length(ops.ctx, a)[:, None] * _SPECTRUM_SIGNS
    return {
        "spin_spectrum.eigenvalues": _peak(eigenvalues - expected),
        "spin_spectrum.commutes_with_hamiltonian": _peak(a_s @ ops.H - ops.H @ a_s),
    }


def _coefficients(ctx, a, lam):
    """c1, c2 and the transverse unit vector t of the eigenstate formula."""
    n = ctx.n
    a_n = _rowdot(a, n)
    a_perp = a - a_n[:, None] * n
    perp_len = np.linalg.norm(a_perp, axis=1)
    along = perp_len <= 1e-13
    t = a_perp / np.where(along, 1.0, perp_len)[:, None]
    for k in np.flatnonzero(along):
        t[k] = orthonormal_triad(n[k])[0]
    return lam + 0.5 * a_n, ctx.mu * _rowdot(a, t) / 2.0, t


def _eigenstates(ops, a):
    ctx = ops.ctx
    lam = _spin_length(ctx, a)
    # c1 = lam + (a . n) / 2 cancels where a . n < 0 (to 0 at a = -n): build
    # the states of -a there, whose spin length is the same, and swap them.
    flip = _rowdot(a, ctx.n) < 0.0
    c1, c2, t = _coefficients(ctx, np.where(flip[:, None], -a, a), lam)
    # w+: the helicity +1 spinor along n, a normalized column of 1 + n . sigma
    # (the first, or the second where n points south).
    nx, ny, nz = ctx.n.T
    north = (nz >= 0.0)[:, None]
    w_plus = np.where(north, np.stack([1.0 + nz, nx + 1j * ny], axis=1),
                      np.stack([nx - 1j * ny, 1.0 - nz], axis=1))
    w_plus /= np.linalg.norm(w_plus, axis=1)[:, None]
    w_minus = _apply(_dot(t, _PAULI), w_plus)
    up = np.sqrt(1.0 + ctx.mu)[:, None]
    # sqrt(1 - mu) via speed / sqrt(1 + mu), exact identity, no cancellation.
    low = ctx.speed[:, None] / up
    c1, c2 = c1[:, None], c2[:, None]

    def assemble(upper, lower):
        psi = np.concatenate([up * upper, low * lower], axis=1)
        return psi / np.linalg.norm(psi, axis=1)[:, None]

    psi_plus = assemble(c1 * w_plus + c2 * w_minus, c1 * w_plus - c2 * w_minus)
    psi_minus = assemble(c1 * w_minus - c2 * w_plus, -c1 * w_minus - c2 * w_plus)
    flip = flip[:, None]
    return np.where(flip, psi_minus, psi_plus), np.where(flip, psi_plus, psi_minus)


def _eigenstate(ops, a) -> dict:
    psi_plus, psi_minus = _eigenstates(ops, a)
    a_s = _dot(a, ops.S)
    lam = _spin_length(ops.ctx, a)[:, None]
    return {
        "eigenstate.energy": np.maximum(_peak(_apply(ops.H, psi_plus) - psi_plus),
                                        _peak(_apply(ops.H, psi_minus) - psi_minus)),
        "eigenstate.spin_projection": np.maximum(_peak(_apply(a_s, psi_plus) - lam * psi_plus),
                                                 _peak(_apply(a_s, psi_minus) + lam * psi_minus)),
    }


def _precession(ops) -> dict:
    omega = _omega(ops.ctx.beta)
    Hk = ops.H[:, None]
    return {
        "precession.heisenberg_vs_cross":
            _peak(1.0j * (Hk @ _SPIN - _SPIN @ Hk) - _cross(omega, _SPIN, np.matmul)),
        "precession.omega_commutes_with_hamiltonian":
            _peak(omega @ Hk - Hk @ omega)[ops.ctx.m == 0.0],
    }


def _mixing(ops, X):
    """How far the operator 3-vector X mixes the energy signs: the peak
    of Pi+ X_k Pi-."""
    return _peak(ops.Pi_plus[:, None] @ X @ ops.Pi_minus[:, None])


def _hamiltonian_identity(ops) -> dict:
    diff = _sum3(ops.Omega_by_beta2 @ ops.S) - ops.H
    return {
        "hamiltonian_identity.full_space": _peak(diff),
        "hamiltonian_identity.positive_subspace": _peak(ops.Pi_plus @ diff @ ops.Pi_plus),
        "hamiltonian_identity.negative_subspace": _peak(ops.Pi_minus @ diff @ ops.Pi_minus),
        "hamiltonian_identity.omega_even": _mixing(ops, ops.Omega),
    }


def _spin_forms(ops) -> dict:
    ctx = ops.ctx
    Pp, Pm = ops.Pi_plus[:, None], ops.Pi_minus[:, None]
    projector = Pp @ _SPIN @ Pp + Pm @ _SPIN @ Pm
    explicit = (_col(ctx.mu**2)[:, None] * _SPIN
                + _dot(ctx.n, _SPIN)[:, None] * (ctx.speed[:, None]**2 * ctx.n)[:, :, None, None]
                + 0.5j * _col(ctx.mu)[:, None] * _cross(ctx.beta[:, :, None, None], _GAMMA))
    return {
        "spin_forms.projector_vs_ratio": _peak(projector - ops.S),
        "spin_forms.explicit_vs_ratio": _peak(explicit - ops.S),
        "spin_forms.explicit_vs_projector": _peak(explicit - projector),
    }


def _casimir(ops) -> dict:
    value = ops.W0 @ ops.W0 - _sum3(ops.W @ ops.W)
    return {"casimir.invariant": _peak(value + _col(0.75 * ops.ctx.mu**2) * ID4)}


def _evenness(ops) -> dict:
    return {"evenness.spin": _mixing(ops, ops.S),
            "evenness.omega": _mixing(ops, ops.Omega)[ops.ctx.p_mag > 0.0]}


def _massless_velocity(n, H) -> dict:
    """Residuals of H = c . p for massless trials moving along the unit
    directions n (N, 3), whose Hamiltonian over p0 is H = alpha . n;
    c_k = (v . n) n_k with v the velocity matrices."""
    c = _dot(n, _ALPHA)[:, None] * n[:, :, None, None]
    return {
        "massless_velocity.hamiltonian": _peak(_dot(n, c) - H),
        "massless_velocity.even": _peak((ID4 + H)[:, None] @ c @ (ID4 - H)[:, None] / 4.0),
    }


def _block(p, m, a, first: int) -> dict:
    """Every record's residuals over the trials of one block where it
    applies: the eigenstate and Hamiltonian identity only with m > 0 and
    |p| > 0, the massless velocity along ctx.n with |p| > 0. ``_precession``
    and ``_evenness`` keep their records' trials (m = 0; |p| > 0) themselves."""
    ops = _operators(p, m)
    ctx = ops.ctx
    moving = ctx.p_mag > 0.0
    massive = moving & (ctx.m > 0.0)
    out = {**_spin_spectrum(ops, a, first), **_precession(ops), **_spin_forms(ops),
           **_casimir(ops), **_evenness(ops)}
    if massive.all():
        out.update({**_eigenstate(ops, a), **_hamiltonian_identity(ops)})
    elif massive.any():
        sub = _select(ops, massive)
        out.update({**_eigenstate(sub, a[massive]), **_hamiltonian_identity(sub)})
    if moving.any():
        n = ctx.n[moving]
        out.update(_massless_velocity(n, _dot(n, _ALPHA)))
    return out


def dirac_battery(p, m, a) -> tuple:
    """Run every identity check over N trials in one array pass.

    ``p`` (N, 3) momenta, ``m`` (N,) masses, ``a`` (N, 3) unit analyzer axes.
    Bad inputs raise, naming the first bad trial: axes unit within 1e-12, p
    finite, m finite and >= 0, NullContext where p and m both vanish, an energy
    within the largest float, and a . S Hermitian within herm_eig's tolerance
    (NonHermitianInput). Returns one :class:`CheckRecord` per record that
    applies to at least one trial (see ``_block``), in check order, with the
    largest residual over those trials and its tolerance. Failing records are
    returned, not raised. Trials run in blocks of ``_BLOCK``; a trial's
    residuals do not depend on the others.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or m.shape != p.shape[:1] or a.shape != p.shape:
        raise ValueError(f"need p (N, 3), m (N,) and a (N, 3), got {p.shape}, {m.shape}, {a.shape}")
    _validate(p, m)
    check_unit(a, "analyzer axis", "trial")
    worst = {}
    for first in range(0, len(p), _BLOCK):
        block = slice(first, first + _BLOCK)
        for name, residuals in _block(p[block], m[block], a[block], first).items():
            if residuals.size:
                worst[name] = np.maximum(worst.get(name, 0.0), residuals.max())
    return tuple(_record(name, worst[name]) for name in _TOL if name in worst)


# --- one-context wrappers over the batch code ---

def _report(name, residuals: dict, error_cls) -> CheckReport:
    records = tuple(_record(check, v[0]) for check, v in residuals.items() if v.size)
    report = CheckReport(name=name, records=records)
    if not report.passed:
        failing = ", ".join(f"{r.check}={r.max_residual:.3e}" for r in records if not r.passed)
        raise error_cls(f"{name} exceeded tolerance: {failing}", report=report)
    return report


def spin_spectrum_check(ops: DiracOperatorSet, a) -> CheckReport:
    """Spectrum of a . S against the alpha-map closed form.

    The four eigenvalues must be {-l, -l, +l, +l} with
    l = sqrt(1 + (beta . a)^2 - beta^2) / 2 = hypot(m, p . a) / (2 p0)
    and beta = p / p0, and a . S must commute with H.
    """
    a = check_unit(a, "analyzer axis")
    return _report("spin_spectrum", _spin_spectrum(ops, a[None]), SpectrumMismatch)


def _require_massive_moving(ops, what: str) -> None:
    if ops.ctx.m[0] <= 0.0 or ops.ctx.p_mag[0] == 0.0:
        raise ValueError(f"{what} needs m > 0 and |p| > 0")


def eigenstates(ops: DiracOperatorSet, a):
    """Normalized simultaneous eigenstates of H (energy +p0) and a . S.

    Built from the helicity two-spinors w+- along n = p/|p| and the
    transverse unit vector t along the orthogonal part of a:

        upper = sqrt(p0 + m) (c1 w+- +- c2 w-+)
        lower = sqrt(p0 - m) (+- c1 w+- - c2 w-+)

    with c1 = |lambda_a| + (a . n)/2 and c2 = m (a . t) / (2 p0). The
    formula needs the relative phase of w- fixed against t, which is done
    here by taking w- = (t . sigma) w+. Where a . n < 0, c1 cancels: the
    states are built for -a there and swapped. Returns (psi_plus, psi_minus)
    for the a . S eigenvalues +|lambda_a| and -|lambda_a|. Requires
    m > 0 and |p| > 0.
    """
    a = check_unit(a, "analyzer axis")
    _require_massive_moving(ops, "eigenstate construction")
    psi_plus, psi_minus = _eigenstates(ops, a[None])
    return psi_plus[0], psi_minus[0]


def eigenstate_check(ops: DiracOperatorSet, a) -> CheckReport:
    """Residuals of the constructed eigenstates under H and a . S."""
    a = check_unit(a, "analyzer axis")
    _require_massive_moving(ops, "eigenstate construction")
    return _report("eigenstate", _eigenstate(ops, a[None]), EigenstateResidual)


def precession_frequency(ops: DiracOperatorSet) -> np.ndarray:
    """The matrix-valued precession frequency omega = -2 gamma5 p of the
    first trial, (3, 4, 4): p0 times the omega / p0 = -2 gamma5 beta that
    the checks compare with H."""
    return _omega(ops.ctx.p[0])


def precession_check(ops: DiracOperatorSet) -> CheckReport:
    """Heisenberg equation of the spin: i [H, s_k] = (omega x s)_k.

    For a massless particle omega additionally commutes with H, so the
    precession frequency is then a constant of the motion; that residual
    is reported as a second record in the massless case.
    """
    return _report("precession", _precession(ops), PrecessionMismatch)


def hamiltonian_identity_check(ops: DiracOperatorSet) -> CheckReport:
    """The Hamiltonian rebuilt from spin and precession: H = beta^-2 Omega . S.

    Omega is the even part of omega. The residual is reported on the full
    space and restricted to each energy-sign subspace separately, plus
    the evenness of Omega itself. Requires m > 0 and |p| > 0.
    """
    _require_massive_moving(ops, "Hamiltonian identity")
    return _report("hamiltonian_identity", _hamiltonian_identity(ops), IdentityMismatch)


def spin_form_agreement_check(ops: DiracOperatorSet) -> CheckReport:
    """Agreement of three expressions for the spin S.

    The stored W H^-1 form is compared against the energy-sign projector
    form Pi+ s Pi+ + Pi- s Pi- and against the explicit decomposition

        S = (m^2/p0^2) s + (p^2/p0^2)(n . s) n + i m/(2 p0^2) p x gamma.
    """
    return _report("spin_forms", _spin_forms(ops), IdentityMismatch)


def casimir_check(ops: DiracOperatorSet) -> CheckReport:
    """W0^2 - W . W = -(3/4) m^2, the spin-1/2 invariant: -(3/4) mu^2 over p0^2."""
    return _report("casimir", _casimir(ops), IdentityMismatch)


def evenness_check(ops: DiracOperatorSet) -> CheckReport:
    """S (and Omega, for |p| > 0) must not mix the energy signs."""
    return _report("evenness", _evenness(ops), IdentityMismatch)


def massless_even_velocity_check(p) -> CheckReport:
    """For m = 0 the Hamiltonian is c . p with an even velocity operator.

    c is the velocity component along the motion, (v . p) p / p^2 with
    v the velocity matrices; each c_k must commute with the energy sign,
    and c . p must rebuild H exactly.
    """
    p = np.asarray(p, dtype=float).reshape(1, 3)
    if not np.any(p):
        raise NullContext("massless check needs nonzero momentum")
    n = _context(p, np.zeros(1)).n
    return _report("massless_velocity", _massless_velocity(n, _dot(n, _ALPHA)), IdentityMismatch)


@dataclass(frozen=True)
class KineticQuantities:
    """Rigid-rotator reading of a massless helicity eigenstate.

    A massless particle of helicity lambda and momentum p behaves like a
    mass m_k = |p| circling at radius r = |lambda|/|p| with moment of
    inertia I = lambda^2/|p| and angular velocity omega = |p|/|lambda|,
    so that I omega^2 = m_k and I = m_k r^2.
    """

    kinetic_mass: float
    moment_of_inertia: float
    gyration_radius: float
    angular_velocity: float


def kinetic_quantities(lam: float, p_mag: float) -> KineticQuantities:
    """The rotator quantities for helicity lam and momentum magnitude p_mag.

    lam must be a nonzero half-integer (ZeroHelicity otherwise); for
    lam = +-1/2 the angular velocity is 2 p_mag, the magnitude of the
    free Dirac precession frequency.
    """
    lam = float(lam)
    if lam == 0.0:
        raise ZeroHelicity("kinetic quantities are undefined at zero helicity")
    if abs(2.0 * lam - round(2.0 * lam)) > 1e-12:
        raise ValueError(f"helicity must be a half-integer, got {lam!r}")
    if not p_mag > 0.0:
        raise ValueError(f"momentum magnitude must be positive, got {p_mag!r}")
    radius = abs(lam) / p_mag
    quantities = KineticQuantities(
        kinetic_mass=p_mag,
        moment_of_inertia=lam * lam / p_mag,
        gyration_radius=radius,
        angular_velocity=p_mag / abs(lam),
    )
    drift = _inertia_drift(quantities)
    if drift > _TOL["kinetic.moment_vs_mass_radius"]:
        raise ArithmeticError(f"I != m r^2 by {drift:.3e} of I")
    return quantities


def _inertia_drift(q: KineticQuantities) -> float:
    """|I - m r^2| / I: the rounding of the rotator quantities, relative
    to I, so that it does not grow with I."""
    r = q.gyration_radius
    return abs(q.moment_of_inertia - q.kinetic_mass * r * r) / q.moment_of_inertia


def kinetic_records() -> tuple:
    """The two rotator records of ``dirac-check``, each the largest over
    helicities 1/2 to 2 and |p| in {0.5, 1, 2}: the drift of I = m r^2
    (``_inertia_drift``) and, at helicity 1/2, |omega - 2 |p||."""
    drift = omega = 0.0
    for lam in (0.5, 1.0, 1.5, 2.0):
        for p_mag in (0.5, 1.0, 2.0):
            q = kinetic_quantities(lam, p_mag)
            drift = max(drift, _inertia_drift(q))
            if lam == 0.5:
                omega = max(omega, abs(q.angular_velocity - 2.0 * p_mag))
    return (_record("kinetic.moment_vs_mass_radius", drift),
            _record("kinetic.spin_half_angular_velocity", omega))


def com_uncertainty_bound(lam: float, p2_mean: float) -> float:
    """Lower bound |lambda| / (2 <p^2>) on the transverse position spread
    of the center of mass.

    Equals <r^2> / (2 |lambda|) when the gyration radius satisfies
    <r^2> = lambda^2 / <p^2>. Zero helicity gives a vanishing bound.
    """
    lam = float(lam)
    if abs(2.0 * lam - round(2.0 * lam)) > 1e-12:
        raise ValueError(f"helicity must be a half-integer, got {lam!r}")
    if not p2_mean > 0.0:
        raise ValueError(f"<p^2> must be positive, got {p2_mean!r}")
    return abs(lam) / (2.0 * p2_mean)
