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


def require_normalized(psi0, dim: int) -> np.ndarray:
    """The initial state psi0 as a complex vector of length dim and norm 1 (within 1e-10)."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    if psi0.shape != (dim,):
        raise ContractError(f"initial state has shape {psi0.shape}, expected ({dim},)")
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-10:
        raise ContractError(f"initial state is not normalized (norm {norm!r})")
    return psi0


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
    gram = m.conj().T @ m
    gram.flat[:: m.shape[0] + 1] -= 1.0  # the diagonal, in place
    return float(np.linalg.norm(gram))


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

    Each iterate X forms one Gram product G = X^dag X; E = 1 - G gives its
    unitarity defect ||E||_F and also sets the next update. While
    ||E||_F < 1 (so ||E||_2 < 1, inside the quadratic convergence region) the
    update is the Newton-Schulz step X <- X (3 - X^dag X) / 2 = X + X E / 2,
    one GEMM; otherwise it is the Newton step X <- (X + X^{-dag}) / 2, which
    needs an inverse and raises on singular input. A near-unitary matrix,
    as left by integration drift, costs three GEMMs and no LU.

    Every matrix takes at least one update and stops once its last update's
    largest entry is <= tol/4, or after max_iter updates; the defect of its
    final iterate, read from that iterate's own Gram, must then be at most
    max(tol, 1e-12 * D). `m` is one matrix or a (..., D, D) stack; each
    matrix iterates on its own, so it ends exactly where a call on it alone
    would. `m` is never written.
    """
    x = np.asarray(m, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ContractError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("polar_unitary: input has non-finite entries")
    dim = x.shape[-1]
    out = np.array(x.reshape(-1, dim, dim))
    eye = np.eye(dim)
    # One block for both scratch matrices: freeing a block of 2 D^2 raises
    # glibc's dynamic mmap and trim thresholds past it, so the D x D
    # temporaries of later integration steps stay on reused heap pages rather
    # than being trimmed and faulted in again (at n = 7, direct mode took 3x
    # the page faults per step with two separate D x D scratch arrays).
    err, update = np.empty((2, dim, dim), dtype=np.complex128)
    worst = 0.0
    for u in out:
        for updates in range(max_iter + 1):
            np.matmul(u.conj().T, u, out=err)
            np.subtract(eye, err, out=err)
            defect = float(np.linalg.norm(err))
            if updates == max_iter or (updates and moved <= 0.25 * tol):
                break
            if defect < 1.0:
                np.matmul(u, err, out=update)  # Newton-Schulz: X E
            else:
                try:
                    inv = np.linalg.inv(u)
                except np.linalg.LinAlgError as exc:
                    raise ContractError("polar_unitary: singular matrix") from exc
                np.subtract(inv.conj().T, u, out=update)  # Newton: X^{-dag} - X
            update *= 0.5
            moved = np.max(np.abs(update))
            u += update
        worst = max(worst, defect)
    if worst > max(tol, 1e-12 * dim):
        raise ContractError(f"polar_unitary did not converge (defect {worst:.3e})")
    return out.reshape(x.shape)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
