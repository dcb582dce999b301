"""Exact reference dynamics for cross-validation.

Everything here is deliberately global and simple: closed-form propagators
from eigendecompositions for time-independent Hamiltonians, fine-step RK4 on
the linear equations of motion otherwise. These quantities are the oracle
against which the locally-integrated dynamics is checked, so clarity wins
over speed, save that a `ReferenceBundle` forms D x D matrices only when read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError
from .hamiltonian import LocalHamiltonian
from .integrate import rk4_step, time_grid
from .lattice import Patch, PatchCover, embed_operator
from .linalg import expm_hermitian, require_normalized

DEFAULT_REFERENCE_DT = 1e-4


class LazyMapping(Mapping):
    """A read-only mapping over fixed keys whose values are computed on first read."""

    def __init__(self, keys: Iterable, compute: Callable):
        self._keys = tuple(keys)
        self._compute = compute
        self._cache: dict = {}

    def __getitem__(self, key):
        if key not in self._cache:
            if key not in self._keys:
                raise KeyError(key)
            self._cache[key] = self._compute(key)
        return self._cache[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


@dataclass(frozen=True)
class ReferenceBundle:
    """Globally-computed gauge variables at one time.

    `complements` holds, for each patch, the propagator generated by the
    Hamiltonian terms that do not touch the patch; it relates the per-patch
    wavefunctions to the global one: psi_patch = complement^dag psi_global,
    frame = complement^dag propagator. It may be a `LazyMapping`. `unitary`
    builds the propagator; it, `frames` and `psi` are cached on first access.
    """

    cover: PatchCover
    time: float
    unitary: Callable[[], np.ndarray]
    complements: Mapping[Patch, np.ndarray]
    psi_schrodinger: np.ndarray

    @cached_property
    def propagator(self) -> np.ndarray:
        return self.unitary()

    @cached_property
    def frames(self) -> dict[Patch, np.ndarray]:
        return {p: self.complements[p].conj().T @ self.propagator for p in self.cover.patches}

    @cached_property
    def psi(self) -> dict[Patch, np.ndarray]:
        return {
            p: self.complements[p].conj().T @ self.psi_schrodinger for p in self.cover.patches
        }

    def connection(self, a: Patch, b: Patch) -> np.ndarray:
        """complement_a^dag complement_b, the exact frame connection."""
        return self.complements[a].conj().T @ self.complements[b]


@dataclass(frozen=True)
class InteractionReference:
    """Interaction-picture data for one patch: H = h0 + h1 with h1 the patch neighborhood."""

    h0: np.ndarray
    h1: np.ndarray
    u0: np.ndarray
    psi_interaction: np.ndarray


def _phases(evals: np.ndarray, t: float) -> np.ndarray:
    if not np.isfinite(t):
        raise ContractError(f"time must be finite, got {t}")
    return np.exp(-1j * evals * t)


def global_propagator(hml: LocalHamiltonian, t: float, dt: float | None = None) -> np.ndarray:
    """U with psi(t) = U psi(0); from the cached spectrum when H is time-independent."""
    if not hml.is_time_dependent:
        evals, vecs = hml.spectrum()
        return (vecs * _phases(evals, t)) @ vecs.conj().T
    eye = np.eye(hml.cover.dim, dtype=np.complex128)
    return _integrate_generated([eye], [hml.total], t, dt)[0]


def _integrate_generated(mats, generators, t_end, dt) -> np.ndarray:
    """d/dt M_k = -i G_k(t) M_k from 0 to t_end with RK4, on the stack of the M_k.

    Each M_k is a matrix or a vector; the result is np.stack of the M_k(t_end).
    """
    dt = DEFAULT_REFERENCE_DT if dt is None else float(dt)

    def deriv(tau, ys, out):
        for gen, y, o in zip(generators, ys, out):
            np.matmul(-1j * gen(tau), y, out=o)

    t = 0.0
    ys = np.stack(mats)
    for h in time_grid(0.0, t_end, dt):
        ys = rk4_step(ys, t, h, deriv)
        t += h
    return ys


def schrodinger_evolve(
    hml: LocalHamiltonian, psi0, t: float, dt: float | None = None
) -> np.ndarray:
    """psi(t) from the global linear evolution of the full chain.

    A time-independent H is applied as V (e^{-iEt} (V^dag psi0)), two
    matrix-vector products with the Hamiltonian's cached spectrum.
    """
    psi0 = require_normalized(psi0, hml.cover.dim)
    if not hml.is_time_dependent:
        evals, vecs = hml.spectrum()
        return vecs @ (_phases(evals, t) * (psi0.conj() @ vecs).conj())
    return _integrate_generated([psi0], [hml.total], t, dt)[0]


def reference_gauge_state(
    hml: LocalHamiltonian,
    cover: PatchCover,
    psi0,
    t: float,
    dt: float | None = None,
) -> ReferenceBundle:
    """All per-patch reference quantities at time t, from global propagation."""
    if cover != hml.cover:
        raise ContractError("cover does not match the Hamiltonian's cover")
    psi0 = require_normalized(psi0, cover.dim)
    patches = list(cover.patches)
    if not hml.is_time_dependent:
        h_full = hml.total(0.0)
        propagator = global_propagator(hml, t)
        complements = {
            p: expm_hermitian(h_full - hml.neighborhood(p, 0.0), t) for p in patches
        }
    else:
        dim = cover.dim
        eye = np.eye(dim, dtype=np.complex128)
        mats = [eye] * (len(patches) + 1)
        gens = [lambda tau: hml.total(tau)]
        for p in patches:
            gens.append(
                lambda tau, _p=p: hml.total(tau) - hml.neighborhood(_p, tau)
            )
        mats = _integrate_generated(mats, gens, t, dt)
        propagator = mats[0]
        complements = dict(zip(patches, mats[1:]))
    return ReferenceBundle(
        cover=cover,
        time=float(t),
        unitary=lambda: propagator,
        complements=complements,
        psi_schrodinger=propagator @ psi0,
    )


def heisenberg_expectation(
    hml: LocalHamiltonian,
    psi0,
    ops: list[tuple[Patch, np.ndarray]],
    t: float,
    dt: float | None = None,
) -> complex:
    """<psi0| U^dag (A_1 A_2 ...) U |psi0> with the global propagator U."""
    psi0 = require_normalized(psi0, hml.cover.dim)
    n = hml.n_sites
    dim = hml.cover.dim
    psi_t = global_propagator(hml, t, dt) @ psi0
    product = np.eye(dim, dtype=np.complex128)
    for patch, op in ops:
        op = np.asarray(op, dtype=np.complex128)
        if op.shape[0] != dim:
            op = embed_operator(op, patch, n)
        product = product @ op
    return complex(np.vdot(psi_t, product @ psi_t))


def interaction_reference(
    hml: LocalHamiltonian,
    patch: Patch,
    psi0,
    t: float,
    dt: float | None = None,
) -> InteractionReference:
    """Interaction picture with the interacting part set to the patch neighborhood.

    The free propagator then coincides with the patch's complement propagator,
    and the interaction-picture wavefunction with the patch's local one.
    """
    if patch not in hml.cover:
        raise ContractError(f"{patch} is not a patch of the cover")
    psi0 = require_normalized(psi0, hml.cover.dim)
    h1 = hml.neighborhood(patch, 0.0)
    h0 = hml.total(0.0) - h1
    if not hml.is_time_dependent:
        u0 = expm_hermitian(h0, t)
    else:
        eye = np.eye(hml.cover.dim, dtype=np.complex128)
        (u0,) = _integrate_generated(
            [eye],
            [lambda tau: hml.total(tau) - hml.neighborhood(patch, tau)],
            t,
            dt,
        )
    psi_t = schrodinger_evolve(hml, psi0, t, dt)
    psi_i = u0.conj().T @ psi_t
    return InteractionReference(h0=h0, h1=h1, u0=u0, psi_interaction=psi_i)
