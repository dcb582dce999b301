"""Layered commuting-gate circuits, brickwork builders, and light-cone audits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ContractError
from .gauge import (
    GaugeState,
    GeneratorState,
    _dressed_window,
    apply_commuting_layer,
    require_commuting,
)
from .hamiltonian import LocalHamiltonian, LocalTerm
from .lattice import (
    Patch,
    PatchCover,
    _window_defects,
    apply_local,
)
from .linalg import expm_hermitian, random_unitary, require_normalized, require_unitary
from .reference import LazyMapping, ReferenceBundle


@dataclass(frozen=True)
class Gate:
    """A unitary supported on one patch."""

    patch: Patch
    op: np.ndarray

    def __post_init__(self):
        op = require_unitary(self.op, what=f"gate on {self.patch}")
        if op.shape[0] != self.patch.dim:
            raise ContractError(
                f"gate dim {op.shape[0]} != {self.patch.dim} for {self.patch}"
            )
        object.__setattr__(self, "op", op)


class Circuit:
    """Ordered layers of gates; within a layer all gates must commute."""

    def __init__(self, n_sites: int, layers: Iterable[Iterable[Gate]]):
        self.n_sites = int(n_sites)
        self.layers: tuple[tuple[Gate, ...], ...] = tuple(
            tuple(layer) for layer in layers
        )
        for li, layer in enumerate(self.layers):
            patches = [g.patch for g in layer]
            if len(set(patches)) != len(patches):
                raise ContractError(f"layer {li} repeats a patch")
            for g in layer:
                if g.patch.sites[-1] >= self.n_sites:
                    raise ContractError(f"{g.patch} exceeds n_sites={self.n_sites}")
            require_commuting([(g.patch, g.op) for g in layer], 1e-12, f"layer {li}: ")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer_gates(self, i: int) -> dict[Patch, np.ndarray]:
        return {g.patch: g.op for g in self.layers[i]}

    def unitary(self) -> np.ndarray:
        """Full circuit unitary; layer 0 acts first."""
        return _apply_gates(self, np.eye(2**self.n_sites, dtype=np.complex128))


def _apply_gates(circuit: Circuit, target: np.ndarray, skip: Patch | None = None) -> np.ndarray:
    """The gates applied to a vector or matrix target, layer 0 first, less any overlapping `skip`."""
    for layer in circuit.layers:
        for g in layer:
            if skip is None or not g.patch.overlaps(skip):
                target = apply_local(g.op, g.patch, circuit.n_sites, target)
    return target


def brickwork(n: int, depth: int, gate_source: int | np.random.Generator = 0) -> Circuit:
    """Alternating even/odd nearest-neighbour pair layers of Haar-like gates.

    Layer l places gates on pairs (i, i+1) with i = l mod 2, l mod 2 + 2, ...
    The gates are drawn deterministically from the seed (or generator).
    """
    if n < 2:
        raise ContractError(f"brickwork needs n >= 2, got {n}")
    if depth < 1:
        raise ContractError(f"brickwork needs depth >= 1, got {depth}")
    rng = (
        gate_source
        if isinstance(gate_source, np.random.Generator)
        else np.random.default_rng(gate_source)
    )
    layers = []
    for layer_index in range(depth):
        offset = layer_index % 2
        layer = [
            Gate(Patch((i, i + 1)), random_unitary(4, rng))
            for i in range(offset, n - 1, 2)
        ]
        layers.append(layer)
    return Circuit(n, layers)


def run_circuit(state: GaugeState, circuit: Circuit) -> GaugeState:
    """Apply the circuit layer by layer as commuting-gate updates."""
    if circuit.n_sites != state.n_sites:
        raise ContractError(
            f"circuit is on {circuit.n_sites} sites, state on {state.n_sites}"
        )
    for i in range(circuit.depth):
        state = apply_commuting_layer(state, circuit.layer_gates(i))
    return state


# ---------------------------------------------------------------------------
# Exact circuit reference and Hamiltonian-schedule export
# ---------------------------------------------------------------------------


def circuit_reference(circuit: Circuit, cover: PatchCover, psi0) -> ReferenceBundle:
    """Reference gauge variables after a circuit, from global gate products.

    `psi_schrodinger` is the circuit's gates applied to psi0, at the cost of
    gate applications to a vector. The global propagator is the same gates
    applied to the identity, and each patch's complement propagator the
    circuit with every gate overlapping the patch removed; both are built on
    first read and cached. All bundle quantities follow from these.
    """
    if circuit.n_sites != cover.n_sites:
        raise ContractError("circuit and cover disagree on the number of sites")
    psi0 = require_normalized(psi0, cover.dim)

    def complement(p: Patch) -> np.ndarray:
        return _apply_gates(circuit, np.eye(cover.dim, dtype=np.complex128), skip=p)

    return ReferenceBundle(
        cover=cover,
        time=float(circuit.depth),
        unitary=circuit.unitary,
        complements=LazyMapping(cover.patches, complement),
        psi_schrodinger=_apply_gates(circuit, psi0),
    )


def gate_generator(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian K with u = exp(-i K), eigenphases in (-pi, pi]."""
    u = require_unitary(u, what="gate")
    evals, vecs = np.linalg.eig(u)
    vecs, _ = np.linalg.qr(vecs)  # restore orthonormality lost by eig
    phases = np.angle(evals)
    k = (vecs * (-phases)) @ vecs.conj().T
    k = 0.5 * (k + k.conj().T)
    check = float(np.linalg.norm(expm_hermitian(k, 1.0) - u))
    if check > tol:
        raise ContractError(
            f"could not extract a Hermitian generator (reconstruction error {check:.3e})"
        )
    return k


def as_layer_hamiltonians(circuit: Circuit, cover: PatchCover) -> list[LocalHamiltonian]:
    """One Hamiltonian per layer; evolving each for unit time reproduces the layer.

    Within a layer the gate generators commute, so exp(-i sum_J K_J) equals
    the product of the gates.
    """
    out = []
    for i in range(circuit.depth):
        terms = [
            LocalTerm(g.patch, gate_generator(g.op)) for g in circuit.layers[i]
        ]
        out.append(LocalHamiltonian(cover, terms))
    return out


# ---------------------------------------------------------------------------
# Light-cone audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LightConePrediction:
    """Sites reachable from a patch in `depth` brickwork layers."""

    patch: Patch
    depth: int
    allowed_sites: frozenset[int]

    @classmethod
    def chain(cls, patch: Patch, depth: int, n: int) -> "LightConePrediction":
        allowed = {
            s
            for s in range(n)
            if min(abs(s - p) for p in patch.sites) <= depth
        }
        return cls(patch=patch, depth=depth, allowed_sites=frozenset(allowed))


@dataclass(frozen=True)
class LightConeAudit:
    """Measured operator supports of a patch's gauge variables vs the cone."""

    patch: Patch
    depth: int
    allowed_sites: tuple[int, ...]
    frame_support: tuple[int, ...]
    connection_supports: dict  # neighbour Patch -> tuple of sites
    site_defects: dict  # site -> identity defect of the frame
    violations: tuple[int, ...]  # support sites outside the cone
    margins: tuple[int, int]  # slack in sites on the (left, right) cone edge

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_lightcone(
    state: GaugeState,
    patch: Patch,
    depth: int,
    tol: float = 1e-12,
    include_connections: bool = True,
) -> LightConeAudit:
    """Check that the patch's frame and connections stay inside the light cone.

    Supports come from the per-site identity defects of each matrix's window
    core (`site_identity_defects` on its D x D form gives the same). The
    frame's window is the stored one, and each connection's is the product of
    the two frames' cores on the hull of their windows, so no D x D matrix is
    formed while every window falls short of the chain. A dressed patch's
    dressing D is multiplied in through its own window.
    """
    if not isinstance(state, GeneratorState):
        raise ContractError("light-cone audits need generator mode (frames required)")
    if patch not in state.cover:
        raise ContractError(f"{patch} is not a patch of the cover")
    n = state.n_sites
    i = state.cover.index(patch)
    d = state.dressing_of(patch)
    pred = LightConePrediction.chain(patch, depth, n)
    defects = _window_defects(_dressed_window(state.windows[i], d), n)
    support = {s for s, x in defects.items() if x > tol}
    violations = sorted(support - pred.allowed_sites)
    conn_supports = {}
    if include_connections:
        for other in state.cover.overlapping(patch):
            if other == patch:
                continue
            pair_allowed = pred.allowed_sites | LightConePrediction.chain(
                other, depth, n
            ).allowed_sites
            conn = state._connection(i, state.cover.index(other))
            conn = _dressed_window(conn, d, state.dressing_of(other))
            c_support = {s for s, x in _window_defects(conn, n).items() if x > tol}
            conn_supports[other] = tuple(sorted(c_support))
            violations.extend(sorted(c_support - pair_allowed))
    allowed_sorted = sorted(pred.allowed_sites)
    if support:
        lo, hi = min(support), max(support)
    else:
        lo, hi = patch.sites[0], patch.sites[-1]
    margins = (lo - allowed_sorted[0], allowed_sorted[-1] - hi)
    return LightConeAudit(
        patch=patch,
        depth=depth,
        allowed_sites=tuple(allowed_sorted),
        frame_support=tuple(sorted(support)),
        connection_supports=conn_supports,
        site_defects=defects,
        violations=tuple(sorted(set(violations))),
        margins=margins,
    )
