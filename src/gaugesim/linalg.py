"""Dense complex linear algebra kernels sized for full Hilbert-space matrices.

Everything here works on plain ``numpy`` arrays of ``complex128``. State
vectors are 1-d arrays of length 2^n, operators are square 2^n x 2^n
matrices. Matrix index convention (used everywhere in the package): basis
state |b_{n-1} ... b_1 b_0> corresponds to the integer b, i.e. site 0 is the
least significant bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

DEFAULT_TOL = 1e-10


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ContractError(f"expected a vector, got shape {v.shape}")
    return v


def frobenius_distance(a, b) -> float:
    """||A - B||_F; zero iff the matrices are equal."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ContractError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(m) -> float:
    m = as_operator(m)
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_defect(m) -> float:
    """||M^dag M - 1||_F."""
    m = as_operator(m)
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    return hermiticity_defect(m) <= tol


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    return unitarity_defect(m) <= tol


def require_hermitian(m, tol: float = DEFAULT_TOL, what: str = "operator") -> np.ndarray:
    m = as_operator(m)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ContractError(f"{what} is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return m


def require_unitary(m, tol: float = DEFAULT_TOL, what: str = "operator") -> np.ndarray:
    m = as_operator(m)
    defect = unitarity_defect(m)
    if defect > tol:
        raise ContractError(f"{what} is not unitary (defect {defect:.3e} > {tol:.1e})")
    return m


def expm_hermitian(h, t: float = 1.0, tol: float = 1e-12) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Unitary up to roundoff by construction, unlike Pade-type routines.
    """
    h = require_hermitian(h, tol=tol, what="generator")
    if not np.isfinite(t):
        raise ContractError(f"time must be finite, got {t}")
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * t)
    return (vecs * phases) @ vecs.conj().T


def polar_unitary(m, tol: float = 1e-12, max_iter: int = 100) -> np.ndarray:
    """Unitary factor of the polar decomposition (nearest unitary in Frobenius norm).

    Newton iteration X <- (X + X^{-dag}) / 2, quadratically convergent for
    nonsingular input. The inputs seen here are near-unitary matrices after
    integration drift, for which a handful of iterations suffice.

    `m` is one matrix or a (..., D, D) stack. Each matrix of a stack stops
    iterating once its own update is below tol, so it ends exactly where a
    call on that matrix alone would, and each must pass the defect check.
    """
    x = np.asarray(m, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ContractError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("polar_unitary: input has non-finite entries")
    stack = x.reshape(-1, x.shape[-1], x.shape[-1])
    moving = np.arange(len(stack))
    for _ in range(max_iter):
        cur = stack if moving.size == len(stack) else stack[moving]
        try:
            inv_dag = np.linalg.inv(cur).conj().swapaxes(-1, -2)
        except np.linalg.LinAlgError as exc:
            raise ContractError("polar_unitary: singular matrix") from exc
        nxt = 0.5 * (cur + inv_dag)
        moved = np.max(np.abs(nxt - cur), axis=(-2, -1))
        if moving.size == len(stack):
            stack = nxt  # the first iteration always lands here, so `m` is never written
        else:
            stack[moving] = nxt
        moving = moving[moved > 0.25 * tol]
        if not moving.size:
            break
    defect = max(unitarity_defect(u) for u in stack)
    if defect > max(tol, 1e-12 * x.shape[-1]):
        raise ContractError(f"polar_unitary did not converge (defect {defect:.3e})")
    return stack.reshape(x.shape)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
