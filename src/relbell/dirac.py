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

Every identity is computed once, on stacked arrays: ``dirac_battery``
runs all of them over N trials in one pass, in blocks of ``_BLOCK``
trials. ``build_context`` and the ``*_check`` functions are the same
code on a batch of one. Each check returns a :class:`CheckReport`
carrying named residuals; a check whose residual exceeds tolerance
raises the matching error with the report attached, so callers can
still serialize what failed.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .kinematics import _UNIT_TOL, check_unit, lengths_and_directions, orthonormal_triad, speeds
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

#: Default tolerance of every record, in the order the checks report them.
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
}


@dataclass(frozen=True, eq=False)
class DiracContext:
    """Momentum, mass and derived kinematics of one free particle.

    In a batch every field gains a leading trial axis. ``n`` is the
    momentum direction, None for a single particle at rest (a zero row
    in a batch); ``p_mag`` and ``n`` come from
    ``kinematics.lengths_and_directions``, so n is a unit vector even
    where the squares of p underflow.
    """

    p: np.ndarray
    m: float
    p0: float
    p_mag: float
    n: np.ndarray | None

    @property
    def beta(self) -> np.ndarray:
        """Velocity vector p / p0."""
        return self.p / np.expand_dims(self.p0, -1)


@dataclass(frozen=True, eq=False)
class DiracOperatorSet:
    """The 4x4 operator family of one free particle.

    S is the center-of-mass spin W H^-1; W, S and Omega are (3, 4, 4)
    stacks of their components. Omega is the even part of the precession
    frequency and Omega_by_beta2 = Omega / beta^2, kept apart because
    beta^2 underflows for tiny momenta (both None at zero momentum, where
    no motion axis exists). In a batch every field but ``s`` gains a
    leading trial axis, and Omega is zero at rest.
    """

    ctx: DiracContext
    H: np.ndarray
    Lambda: np.ndarray
    Pi_plus: np.ndarray
    Pi_minus: np.ndarray
    s: tuple
    W0: np.ndarray
    W: np.ndarray
    S: np.ndarray
    Omega: np.ndarray | None
    Omega_by_beta2: np.ndarray | None


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

    def as_dicts(self) -> list:
        return [r.as_dict() for r in self.records]


def _record(check: str, residual, tol: float) -> CheckRecord:
    residual = float(residual)
    return CheckRecord(check=check, max_residual=residual,
                       tolerance=float(tol), passed=residual <= tol)


def _finish(name: str, records, error_cls) -> CheckReport:
    report = CheckReport(name=name, records=tuple(records))
    if not report.passed:
        failing = ", ".join(f"{r.check}={r.max_residual:.3e}" for r in records if not r.passed)
        raise error_cls(f"{name} exceeded tolerance: {failing}", report=report)
    return report


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


def _context(p, m) -> DiracContext:
    p_mag, n = lengths_and_directions(p)
    return DiracContext(p=p, m=m, p0=np.hypot(p_mag, m), p_mag=p_mag, n=n)


def _energy(ctx):
    """H = alpha . p + m gamma0, its sign Lambda = H / p0 and the
    energy-sign projectors (1 +- Lambda) / 2."""
    H = _dot(ctx.p, _ALPHA) + _col(ctx.m) * GAMMA0
    return (H, *_projectors(H, ctx.p0))


def _projectors(H, p0):
    Lambda = H / _col(p0)
    return Lambda, (ID4 + Lambda) / 2.0, (ID4 - Lambda) / 2.0


def _omega(p):
    """The precession frequency omega_k = -2 p_k gamma5, (..., 3, 4, 4)."""
    return -2.0 * p[..., None, None] * GAMMA5


def _operators(p, m) -> DiracOperatorSet:
    """The operator family of every trial of validated p (N, 3), m (N,)."""
    ctx = _context(p, m)
    H, Lambda, Pi_plus, Pi_minus = _energy(ctx)
    Hk = H[:, None]
    W = (_SPIN @ Hk + Hk @ _SPIN) / 2.0
    # H^-1 = H / (p^2 + m^2) for the free Hamiltonian.
    S = W @ Hk / _col(ctx.p0 * ctx.p0)[:, None]
    # Omega = beta^2 (1 + (m / |p|) gamma . n) omega, zero at rest.
    m_by_p = np.divide(ctx.m, ctx.p_mag, out=np.zeros_like(ctx.m), where=ctx.p_mag > 0.0)
    Omega_by_beta2 = (ID4 + _col(m_by_p) * _dot(ctx.n, _GAMMA))[:, None] @ _omega(ctx.p)
    Omega = _col(ctx.p_mag**2 / ctx.p0**2)[:, None] * Omega_by_beta2
    return DiracOperatorSet(ctx=ctx, H=H, Lambda=Lambda, Pi_plus=Pi_plus, Pi_minus=Pi_minus,
                            s=SPIN, W0=_dot(ctx.p, _SPIN), W=W, S=S, Omega=Omega,
                            Omega_by_beta2=Omega_by_beta2)


_TRIAL_FIELDS = ("H", "Lambda", "Pi_plus", "Pi_minus", "W0", "W", "S", "Omega", "Omega_by_beta2")


def _select(ops: DiracOperatorSet, index) -> DiracOperatorSet:
    """Trials of a batch picked by a mask, or one trial (an int) as an
    unbatched set."""
    c = ops.ctx
    ctx = DiracContext(p=c.p[index], m=c.m[index], p0=c.p0[index], p_mag=c.p_mag[index],
                       n=c.n[index])
    fields = {name: getattr(ops, name)[index] for name in _TRIAL_FIELDS}
    if isinstance(index, int):
        at_rest = ctx.p_mag == 0.0
        ctx = DiracContext(p=ctx.p, m=float(ctx.m), p0=float(ctx.p0), p_mag=float(ctx.p_mag),
                           n=None if at_rest else ctx.n)
        if at_rest:
            fields.update(Omega=None, Omega_by_beta2=None)
    return DiracOperatorSet(ctx=ctx, s=ops.s, **fields)


def _stack(ops: DiracOperatorSet) -> DiracOperatorSet:
    """The batch of one that holds an unbatched set."""
    c = ops.ctx
    zeros = np.zeros((3, 4, 4), dtype=complex)
    ctx = DiracContext(p=np.asarray(c.p)[None], m=np.array([c.m]), p0=np.array([c.p0]),
                       p_mag=np.array([c.p_mag]),
                       n=(np.zeros(3) if c.n is None else np.asarray(c.n))[None])
    fields = {name: np.asarray(zeros if getattr(ops, name) is None else getattr(ops, name))[None]
              for name in _TRIAL_FIELDS}
    return DiracOperatorSet(ctx=ctx, s=ops.s, **fields)


def build_context(p, m: float) -> DiracOperatorSet:
    """Assemble the operator family for momentum p and mass m >= 0.

    Raises NullContext when both vanish. At p = 0 the spin S coincides
    with s exactly; in general S = W H^-1 with W0 = p . s and
    W_k = (s_k H + H s_k) / 2.
    """
    p = np.asarray(p, dtype=float).reshape(1, 3)
    m = np.array([float(m)])
    _validate(p, m)
    return _select(_operators(p, m), 0)


def projected_spin(ops: DiracOperatorSet, a) -> np.ndarray:
    """The 4x4 projection a . S."""
    a = check_unit(a, "analyzer axis")
    return _dot(a[None], np.asarray(ops.S)[None])[0]


def _spin_length(ctx, a):
    """|lambda_a| = hypot(m, p . a) / (2 p0), the alpha-map length
    sqrt(1 + (beta . a)^2 - beta^2) / 2 written without 1 - beta^2.

    Exact in p and m: the relative error stays within (4 + 3 kappa) eps,
    kappa = |p| |p . a| / (m^2 + (p . a)^2) being the conditioning of the
    rounded p . a, at any speed (tested up to |p| / m = 1e6 against a
    50-digit reference).
    """
    return np.hypot(ctx.m, _rowdot(ctx.p, a)) / (2.0 * ctx.p0)


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
    return lam + 0.5 * a_n, ctx.m * _rowdot(a, t) / (2.0 * ctx.p0), t


def _eigenstates(ops, a):
    ctx = ops.ctx
    lam = _spin_length(ctx, a)
    c1, c2, t = _coefficients(ctx, a, lam)
    # a antiparallel to n: the formula collapses; build for -a and swap.
    flip = c1 * c1 + c2 * c2 < 1e-24
    if flip.any():
        c1, c2, t = _coefficients(ctx, np.where(flip[:, None], -a, a), lam)
    # w+: the helicity +1 spinor along n, a normalized column of 1 + n . sigma
    # (the first, or the second where n points south).
    nx, ny, nz = ctx.n.T
    north = (nz >= 0.0)[:, None]
    w_plus = np.where(north, np.stack([1.0 + nz, nx + 1j * ny], axis=1),
                      np.stack([nx - 1j * ny, 1.0 - nz], axis=1))
    w_plus /= np.linalg.norm(w_plus, axis=1)[:, None]
    w_minus = _apply(_dot(t, _PAULI), w_plus)
    up = np.sqrt(ctx.p0 + ctx.m)[:, None]
    # sqrt(p0 - m) via |p| / sqrt(p0 + m), exact identity, no cancellation.
    low = ctx.p_mag[:, None] / up
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
    p0 = ops.ctx.p0[:, None]
    return {
        "eigenstate.energy": np.maximum(_peak(_apply(ops.H, psi_plus) - p0 * psi_plus),
                                        _peak(_apply(ops.H, psi_minus) - p0 * psi_minus)),
        "eigenstate.spin_projection": np.maximum(_peak(_apply(a_s, psi_plus) - lam * psi_plus),
                                                 _peak(_apply(a_s, psi_minus) + lam * psi_minus)),
    }


def _precession(ops) -> dict:
    omega = _omega(ops.ctx.p)
    Hk = ops.H[:, None]
    return {
        "precession.heisenberg_vs_cross":
            _peak(1.0j * (Hk @ _SPIN - _SPIN @ Hk) - _cross(omega, _SPIN, np.matmul)),
        "precession.omega_commutes_with_hamiltonian": _peak(omega @ Hk - Hk @ omega),
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
    p0_sq = _col(ctx.p0**2)[:, None]
    explicit = ((_col(ctx.m**2)[:, None] / p0_sq) * _SPIN
                + (_col(ctx.p_mag**2)[:, None] / p0_sq) * _dot(ctx.n, _SPIN)[:, None]
                * ctx.n[:, :, None, None]
                + 1.0j * _col(ctx.m)[:, None] / (2.0 * p0_sq)
                * _cross(ctx.p[:, :, None, None], _GAMMA))
    return {
        "spin_forms.projector_vs_ratio": _peak(projector - ops.S),
        "spin_forms.explicit_vs_ratio": _peak(explicit - ops.S),
        "spin_forms.explicit_vs_projector": _peak(explicit - projector),
    }


def _casimir(ops) -> dict:
    value = ops.W0 @ ops.W0 - _sum3(ops.W @ ops.W)
    return {"casimir.invariant": _peak(value + _col(0.75 * ops.ctx.m**2) * ID4)}


def _evenness(ops) -> dict:
    return {"evenness.spin": _mixing(ops, ops.S), "evenness.omega": _mixing(ops, ops.Omega)}


def _massless_velocity(ctx, H) -> dict:
    """Residuals of H = c . p for massless contexts (m = 0, |p| > 0) with
    Hamiltonian H; c_k = (v . p) p_k / p^2 with v the velocity matrices."""
    _, Pi_plus, Pi_minus = _projectors(H, ctx.p0)
    c = _dot(ctx.p, _ALPHA)[:, None] * (ctx.n / ctx.p_mag[:, None])[:, :, None, None]
    return {
        "massless_velocity.hamiltonian": _peak(_dot(ctx.p, c) - H),
        "massless_velocity.even": _peak(Pi_plus[:, None] @ c @ Pi_minus[:, None]),
    }


def _block(p, m, a, first: int) -> dict:
    """Every record's residuals over the trials of one block where it
    applies: the eigenstate and Hamiltonian identity only with m > 0 and
    |p| > 0, the massless velocity and evenness of Omega with |p| > 0,
    the conservation of omega only with m = 0."""
    ops = _operators(p, m)
    ctx = ops.ctx
    moving = ctx.p_mag > 0.0
    massive = moving & (ctx.m > 0.0)
    out = {**_spin_spectrum(ops, a, first), **_precession(ops), **_spin_forms(ops),
           **_casimir(ops), **_evenness(ops)}
    out["precession.omega_commutes_with_hamiltonian"] = \
        out["precession.omega_commutes_with_hamiltonian"][ctx.m == 0.0]
    out["evenness.omega"] = out["evenness.omega"][moving]
    if massive.all():
        out.update({**_eigenstate(ops, a), **_hamiltonian_identity(ops)})
    elif massive.any():
        sub = _select(ops, massive)
        out.update({**_eigenstate(sub, a[massive]), **_hamiltonian_identity(sub)})
    if moving.any():
        massless = _context(p[moving], np.zeros(int(moving.sum())))
        out.update(_massless_velocity(massless, _energy(massless)[0]))
    return out


def dirac_battery(p, m, a) -> tuple:
    """Run every identity check over N trials in one array pass.

    ``p`` (N, 3) momenta, ``m`` (N,) masses, ``a`` (N, 3) unit analyzer
    axes. The inputs are validated once, naming the first bad trial:
    axes unit within 1e-12, p finite, m finite and >= 0, NullContext
    where p and m both vanish, and a . S Hermitian within herm_eig's tolerance
    (NonHermitianInput). Returns one :class:`CheckRecord` per record that
    applies to at least one trial (see ``_block``), in check order, with
    the largest residual over those trials and the default tolerance.
    Failing records are returned, not raised. Trials run in blocks of
    ``_BLOCK``; a trial's residuals do not depend on the others.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3 or m.shape != p.shape[:1] or a.shape != p.shape:
        raise ValueError(f"need p (N, 3), m (N,) and a (N, 3), got {p.shape}, {m.shape}, {a.shape}")
    _validate(p, m)
    norm = speeds(a)
    _reject(~(np.abs(norm - 1.0) <= _UNIT_TOL), ValueError,
            lambda k: f"analyzer axis must be a unit vector, got |v| = {float(norm[k])!r}")
    worst = {}
    for first in range(0, len(p), _BLOCK):
        block = slice(first, first + _BLOCK)
        for name, residuals in _block(p[block], m[block], a[block], first).items():
            if residuals.size:
                worst[name] = np.maximum(worst.get(name, 0.0), residuals.max())
    return tuple(_record(name, worst[name], tol) for name, tol in _TOL.items() if name in worst)


# --- one-context wrappers over the batch code ---

def _report(name, residuals: dict, tolerances, error_cls) -> CheckReport:
    records = [_record(check, values[0], tol)
               for (check, values), tol in zip(residuals.items(), tolerances)]
    return _finish(name, records, error_cls)


def spin_spectrum_check(ops: DiracOperatorSet, a,
                        eig_tol: float = _TOL["spin_spectrum.eigenvalues"],
                        comm_tol: float = _TOL["spin_spectrum.commutes_with_hamiltonian"],
                        ) -> CheckReport:
    """Spectrum of a . S against the alpha-map closed form.

    The four eigenvalues must be {-l, -l, +l, +l} with
    l = sqrt(1 + (beta . a)^2 - beta^2) / 2 = hypot(m, p . a) / (2 p0)
    and beta = p / p0, and a . S must commute with H.
    """
    a = check_unit(a, "analyzer axis")
    return _report("spin_spectrum", _spin_spectrum(_stack(ops), a[None]),
                   (eig_tol, comm_tol), SpectrumMismatch)


def _require_massive_moving(ops, what: str) -> None:
    if ops.ctx.m <= 0.0 or ops.ctx.p_mag == 0.0:
        raise ValueError(f"{what} needs m > 0 and |p| > 0")


def eigenstates(ops: DiracOperatorSet, a):
    """Normalized simultaneous eigenstates of H (energy +p0) and a . S.

    Built from the helicity two-spinors w+- along n = p/|p| and the
    transverse unit vector t along the orthogonal part of a:

        upper = sqrt(p0 + m) (c1 w+- +- c2 w-+)
        lower = sqrt(p0 - m) (+- c1 w+- - c2 w-+)

    with c1 = |lambda_a| + (a . n)/2 and c2 = m (a . t) / (2 p0). The
    formula needs the relative phase of w- fixed against t, which is done
    here by taking w- = (t . sigma) w+. Returns (psi_plus, psi_minus)
    for the a . S eigenvalues +|lambda_a| and -|lambda_a|. Requires
    m > 0 and |p| > 0.
    """
    a = check_unit(a, "analyzer axis")
    _require_massive_moving(ops, "eigenstate construction")
    psi_plus, psi_minus = _eigenstates(_stack(ops), a[None])
    return psi_plus[0], psi_minus[0]


def eigenstate_check(ops: DiracOperatorSet, a,
                     tol: float = _TOL["eigenstate.energy"]) -> CheckReport:
    """Residuals of the constructed eigenstates under H and a . S."""
    a = check_unit(a, "analyzer axis")
    _require_massive_moving(ops, "eigenstate construction")
    return _report("eigenstate", _eigenstate(_stack(ops), a[None]), (tol, tol),
                   EigenstateResidual)


def precession_frequency(ops: DiracOperatorSet) -> np.ndarray:
    """The matrix-valued precession frequency omega = -2 gamma5 p, (3, 4, 4)."""
    return _omega(np.asarray(ops.ctx.p))


def precession_check(ops: DiracOperatorSet,
                     tol: float = _TOL["precession.heisenberg_vs_cross"]) -> CheckReport:
    """Heisenberg equation of the spin: i [H, s_k] = (omega x s)_k.

    For a massless particle omega additionally commutes with H, so the
    precession frequency is then a constant of the motion; that residual
    is reported as a second record in the massless case.
    """
    residuals = _precession(_stack(ops))
    if ops.ctx.m != 0.0:
        del residuals["precession.omega_commutes_with_hamiltonian"]
    return _report("precession", residuals, (tol, tol), PrecessionMismatch)


def hamiltonian_identity_check(ops: DiracOperatorSet,
                               subspace_tol: float = _TOL["hamiltonian_identity.positive_subspace"],
                               full_tol: float = _TOL["hamiltonian_identity.full_space"],
                               even_tol: float = _TOL["hamiltonian_identity.omega_even"],
                               ) -> CheckReport:
    """The Hamiltonian rebuilt from spin and precession: H = beta^-2 Omega . S.

    Omega is the even part of omega. The residual is reported on the full
    space and restricted to each energy-sign subspace separately, plus
    the evenness of Omega itself. Requires m > 0 and |p| > 0.
    """
    _require_massive_moving(ops, "Hamiltonian identity")
    return _report("hamiltonian_identity", _hamiltonian_identity(_stack(ops)),
                   (full_tol, subspace_tol, subspace_tol, even_tol), IdentityMismatch)


def spin_form_agreement_check(ops: DiracOperatorSet,
                              ratio_tol: float = _TOL["spin_forms.projector_vs_ratio"],
                              explicit_tol: float = _TOL["spin_forms.explicit_vs_ratio"],
                              ) -> CheckReport:
    """Agreement of three expressions for the spin S.

    The stored W H^-1 form is compared against the energy-sign projector
    form Pi+ s Pi+ + Pi- s Pi- and against the explicit decomposition

        S = (m^2/p0^2) s + (p^2/p0^2)(n . s) n + i m/(2 p0^2) p x gamma.
    """
    return _report("spin_forms", _spin_forms(_stack(ops)),
                   (ratio_tol, explicit_tol, explicit_tol), IdentityMismatch)


def casimir_check(ops: DiracOperatorSet, tol: float = _TOL["casimir.invariant"]) -> CheckReport:
    """W0^2 - W . W = -(3/4) m^2, the spin-1/2 invariant."""
    return _report("casimir", _casimir(_stack(ops)), (tol,), IdentityMismatch)


def evenness_check(ops: DiracOperatorSet, tol: float = _TOL["evenness.spin"]) -> CheckReport:
    """S (and Omega, when defined) must not mix the energy signs."""
    residuals = _evenness(_stack(ops))
    if ops.Omega is None:
        del residuals["evenness.omega"]
    return _report("evenness", residuals, (tol, tol), IdentityMismatch)


def massless_even_velocity_check(p, tol: float = _TOL["massless_velocity.hamiltonian"],
                                 ) -> CheckReport:
    """For m = 0 the Hamiltonian is c . p with an even velocity operator.

    c is the velocity component along the motion, (v . p) p / p^2 with
    v the velocity matrices; each c_k must commute with the energy sign,
    and c . p must rebuild H exactly.
    """
    p = np.asarray(p, dtype=float).reshape(1, 3)
    if not np.any(p):
        raise NullContext("massless check needs nonzero momentum")
    ctx = _context(p, np.zeros(1))
    return _report("massless_velocity", _massless_velocity(ctx, _energy(ctx)[0]), (tol, tol),
                   IdentityMismatch)


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
    drift = abs(quantities.moment_of_inertia - quantities.kinetic_mass * radius * radius)
    if drift > 1e-14:
        raise ArithmeticError(f"I != m r^2 by {drift:.3e}")
    return quantities


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
