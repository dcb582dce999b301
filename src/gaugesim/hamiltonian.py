"""Local Hamiltonians: patch-supported terms, multi-patch products, model builders.

A Hamiltonian is a sum of terms, each tied to patches of a cover. Plain
terms carry a Hermitian operator supported on a single cover patch.
Generalized terms carry a real coefficient and one operator factor per patch,
so that Hamiltonians can couple patches that never share a site (needed e.g.
for single-site patch covers). Coefficients may be time-dependent through
scalar functions of t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError
from .lattice import Patch, PatchCover, embed_operator, nn_pair_cover, single_site_cover
from .linalg import as_operator, hermiticity_defect, require_hermitian

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_on(labels: str, sites: Sequence[int], patch: Patch) -> np.ndarray:
    """Patch-local operator placing one Pauli per listed site, identity elsewhere."""
    if len(labels) != len(sites):
        raise ContractError(f"{len(labels)} labels for {len(sites)} sites")
    placed = dict(zip(sites, labels.upper()))
    unknown = set(placed.values()) - set(PAULI)
    if unknown:
        raise ContractError(f"unknown Pauli labels {sorted(unknown)}")
    outside = set(placed) - set(patch.sites)
    if outside:
        raise ContractError(f"sites {sorted(outside)} not in {patch}")
    op = np.ones((1, 1), dtype=np.complex128)
    for s in reversed(patch.sites):  # most significant patch site first
        op = np.kron(op, PAULI[placed.get(s, "I")])
    return op


Coefficient = Callable[[float], float]


@dataclass(frozen=True)
class LocalTerm:
    """A Hermitian operator supported on one cover patch, optionally time-scaled."""

    patch: Patch
    op: np.ndarray
    time_dependence: Coefficient | None = None

    def __post_init__(self):
        op = as_operator(self.op)
        if op.shape[0] != self.patch.dim:
            raise ContractError(
                f"term operator dim {op.shape[0]} != {self.patch.dim} for {self.patch}"
            )
        require_hermitian(op, what=f"term on {self.patch}")
        object.__setattr__(self, "op", op)

    def coefficient(self, t: float) -> float:
        if self.time_dependence is None:
            return 1.0
        return float(self.time_dependence(t))


@dataclass(frozen=True)
class GeneralizedTerm:
    """h * factor_1 ... factor_m with one patch-supported factor per patch.

    Individual products need not be Hermitian; the Hamiltonian as a whole must
    be (supply conjugate partner terms where needed).
    """

    patches: tuple[Patch, ...]
    coefficient: float | Coefficient
    factors: tuple[np.ndarray, ...]

    def __init__(self, patches, coefficient, factors):
        patches = tuple(patches)
        factors = tuple(as_operator(f) for f in factors)
        if not patches:
            raise ContractError("generalized term needs at least one patch")
        if len(patches) != len(factors):
            raise ContractError(
                f"{len(patches)} patches but {len(factors)} factors"
            )
        for p, f in zip(patches, factors):
            if f.shape[0] != p.dim:
                raise ContractError(f"factor dim {f.shape[0]} != {p.dim} for {p}")
        if not callable(coefficient):
            coefficient = float(coefficient)
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "factors", factors)

    def coeff(self, t: float) -> float:
        if callable(self.coefficient):
            return float(self.coefficient(t))
        return self.coefficient

    @property
    def union_sites(self) -> frozenset[int]:
        return frozenset(s for p in self.patches for s in p.sites)


@dataclass(frozen=True)
class StepPlan:
    """The Hamiltonian as one list of placed products, for one (Hamiltonian, cover).

    Built once per pair by `LocalHamiltonian.step_plan` and read by every
    evaluation of the equations of motion. Patch indices follow `patches`,
    the cover's order. Product k is coefficients[k](t) times the ordered
    product of its (patch index, factor) pairs; a coefficient of None is a
    constant 1. The products are, in order: the summed static plain terms of
    each carrying patch (in order of first appearance), each time-dependent
    plain term, then the generalized terms.
    """

    patches: tuple[Patch, ...]
    products: tuple[tuple[tuple[int, np.ndarray], ...], ...]
    coefficients: tuple[Coefficient | None, ...]
    touching: tuple[tuple[int, ...], ...]  # per patch: products with a factor on its sites
    connection_keys: tuple[tuple[int, int], ...]  # sorted pairs the direct mode stores

    @classmethod
    def build(cls, hml: "LocalHamiltonian", cover: PatchCover) -> "StepPlan":
        static: dict[int, list[np.ndarray]] = {}
        products, coefficients = [], []
        for term in hml.terms:
            j = cover.index(term.patch)
            if term.time_dependence is None:
                static.setdefault(j, []).append(term.op)
            else:
                products.append(((j, term.op),))
                coefficients.append(term.coefficient)
        summed = [
            ((j, np.asarray(sum(ops), dtype=np.complex128)),) for j, ops in static.items()
        ]
        products = summed + products
        coefficients = [None] * len(summed) + coefficients
        for gt in hml.gen_terms:
            products.append(tuple((cover.index(p), f) for p, f in zip(gt.patches, gt.factors)))
            coefficients.append(gt.coeff)
        patches = cover.patches
        touching = tuple(
            tuple(
                k
                for k, placed in enumerate(products)
                if any(patches[j].overlaps(p) for j, _ in placed)
            )
            for p in patches
        )
        keys = set(cover.overlap_pairs())
        for i, near in enumerate(touching):
            for k in near:
                keys.update((min(i, j), max(i, j)) for j, _ in products[k] if j != i)
        return cls(
            patches=patches,
            products=tuple(products),
            coefficients=tuple(coefficients),
            touching=touching,
            connection_keys=tuple(sorted(keys)),
        )


class LocalHamiltonian:
    """H = sum of patch terms plus generalized multi-patch terms on a cover."""

    def __init__(
        self,
        cover: PatchCover,
        terms: Iterable[LocalTerm] = (),
        gen_terms: Iterable[GeneralizedTerm] = (),
    ):
        self.cover = cover
        self.terms = tuple(terms)
        self.gen_terms = tuple(gen_terms)
        for term in self.terms:
            if term.patch not in cover:
                raise ContractError(f"term patch {term.patch} not in cover")
        for gt in self.gen_terms:
            for p in gt.patches:
                if p not in cover:
                    raise ContractError(f"generalized-term patch {p} not in cover")
        self._embedded_terms: list[np.ndarray | None] = [None] * len(self.terms)
        self._embedded_factors: dict[tuple[int, int], np.ndarray] = {}
        self._plans: dict[tuple[Patch, ...], StepPlan] = {}
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None
        if self.gen_terms:
            gen_sum = self._gen_sum(0.0, range(len(self.gen_terms)))
            defect = hermiticity_defect(gen_sum)
            scale = max(1.0, float(np.max(np.abs(gen_sum))))
            if defect > 1e-8 * scale:
                raise ContractError(
                    f"generalized terms do not sum to a Hermitian operator "
                    f"(defect {defect:.3e})"
                )

    @property
    def n_sites(self) -> int:
        return self.cover.n_sites

    @property
    def is_time_dependent(self) -> bool:
        return any(t.time_dependence is not None for t in self.terms) or any(
            callable(g.coefficient) for g in self.gen_terms
        )

    def step_plan(self, cover: PatchCover | None = None) -> StepPlan:
        """The cached term-to-patch plan for `cover` (default: this cover's order)."""
        cover = self.cover if cover is None else cover
        plan = self._plans.get(cover.patches)
        if plan is None:
            if cover != self.cover:
                raise ContractError("cover does not match the Hamiltonian's cover")
            plan = self._plans[cover.patches] = StepPlan.build(self, cover)
        return plan

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached `eigh` of the dense H of a time-independent Hamiltonian.

        Returns (E, V) with H = V diag(E) V^dag; computed on the first call.
        """
        if self.is_time_dependent:
            raise ContractError("a time-dependent Hamiltonian has no fixed spectrum")
        if self._spectrum is None:
            h = require_hermitian(self.total(0.0), tol=1e-12, what="generator")
            self._spectrum = np.linalg.eigh(h)
        return self._spectrum

    # -- embedded-matrix caches ----------------------------------------

    def embedded_term(self, i: int) -> np.ndarray:
        cached = self._embedded_terms[i]
        if cached is None:
            term = self.terms[i]
            cached = embed_operator(term.op, term.patch, self.n_sites)
            self._embedded_terms[i] = cached
        return cached

    def embedded_factor(self, g: int, k: int) -> np.ndarray:
        key = (g, k)
        if key not in self._embedded_factors:
            gt = self.gen_terms[g]
            self._embedded_factors[key] = embed_operator(
                gt.factors[k], gt.patches[k], self.n_sites
            )
        return self._embedded_factors[key]

    # -- dense evaluation --------------------------------------------------

    def _gen_sum(self, t: float, indices: Iterable[int]) -> np.ndarray:
        dim = self.cover.dim
        out = np.zeros((dim, dim), dtype=np.complex128)
        for g in indices:
            gt = self.gen_terms[g]
            prod = self.embedded_factor(g, 0).copy()
            for k in range(1, len(gt.factors)):
                prod = prod @ self.embedded_factor(g, k)
            out += gt.coeff(t) * prod
        return out

    def _sum(self, t: float, sites: set[int]) -> np.ndarray:
        """The dense sum at time t of the terms acting on any of `sites`, in term order."""
        dim = self.cover.dim
        out = np.zeros((dim, dim), dtype=np.complex128)
        for i, term in enumerate(self.terms):
            if sites.intersection(term.patch.sites):
                out += term.coefficient(t) * self.embedded_term(i)
        gen = [g for g, gt in enumerate(self.gen_terms) if gt.union_sites & sites]
        if gen:
            out += self._gen_sum(t, gen)
        return out

    def total(self, t: float = 0.0) -> np.ndarray:
        """The full Hamiltonian as a dense global matrix at time t."""
        return self._sum(t, set(range(self.n_sites)))

    def neighborhood(self, patch: Patch, t: float = 0.0) -> np.ndarray:
        """Sum of terms whose patches (or patch unions) overlap `patch`, embedded globally."""
        if patch not in self.cover:
            raise ContractError(f"{patch} is not a patch of the cover")
        return self._sum(t, set(patch.sites))


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------


def tfim_chain(n: int, j: float = 1.0, g: float = 1.0, field_assignment: str = "leftmost") -> LocalHamiltonian:
    """Transverse-field Ising chain H = -j sum Z_i Z_{i+1} - g sum X_i on the pair cover.

    Single-site field terms are apportioned to bond patches either wholly to
    the leftmost containing patch (default) or split in halves between the two
    containing patches; both yield the same total H.
    """
    if field_assignment not in ("leftmost", "split"):
        raise ContractError(f"unknown field_assignment {field_assignment!r}")
    cover = nn_pair_cover(n)
    zz = np.kron(PAULI_Z, PAULI_Z)
    x_lo = np.kron(PAULI_I, PAULI_X)  # X on the smaller site of the pair
    x_hi = np.kron(PAULI_X, PAULI_I)
    terms = []
    for i in range(n - 1):
        op = -j * zz
        if field_assignment == "leftmost":
            op = op - g * x_lo
            if i == n - 2:
                op = op - g * x_hi
        else:
            g_lo = g if i == 0 else 0.5 * g
            g_hi = g if i + 1 == n - 1 else 0.5 * g
            op = op - g_lo * x_lo - g_hi * x_hi
        terms.append(LocalTerm(Patch((i, i + 1)), op))
    return LocalHamiltonian(cover, terms)


def heisenberg_chain(n: int, jx: float = 1.0, jy: float = 1.0, jz: float = 1.0) -> LocalHamiltonian:
    """H = sum_i jx X_i X_{i+1} + jy Y_i Y_{i+1} + jz Z_i Z_{i+1}."""
    cover = nn_pair_cover(n)
    bond = (
        jx * np.kron(PAULI_X, PAULI_X)
        + jy * np.kron(PAULI_Y, PAULI_Y)
        + jz * np.kron(PAULI_Z, PAULI_Z)
    )
    return LocalHamiltonian(
        cover, [LocalTerm(Patch((i, i + 1)), bond) for i in range(n - 1)]
    )


def tfim_chain_sitewise(n: int, j: float = 1.0, g: float = 1.0) -> LocalHamiltonian:
    """The same TFIM on a single-site cover, with bonds as two-patch products."""
    cover = single_site_cover(n)
    gen_terms = []
    if j != 0.0:
        gen_terms += [
            GeneralizedTerm(
                (Patch((i,)), Patch((i + 1,))), -j, (PAULI_Z, PAULI_Z)
            )
            for i in range(n - 1)
        ]
    if g != 0.0:
        gen_terms += [
            GeneralizedTerm((Patch((i,)),), -g, (PAULI_X,)) for i in range(n)
        ]
    return LocalHamiltonian(cover, gen_terms=gen_terms)


MODELS = {
    "tfim": tfim_chain,
    "heisenberg": heisenberg_chain,
    "tfim_sitewise": tfim_chain_sitewise,
}


def build_model(name: str, n: int, params: dict | None = None) -> LocalHamiltonian:
    if name not in MODELS:
        raise ContractError(
            f"unknown model {name!r}; available: {sorted(MODELS)}"
        )
    return MODELS[name](n, **(params or {}))
