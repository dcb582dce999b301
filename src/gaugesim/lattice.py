"""Spatial patches, patch covers, and embedding of patch-local operators.

Site convention: a chain of n qubits, sites numbered 0..n-1, with site s
carrying bit weight 2^s in the global basis index (see `linalg`). A patch is
a nonempty sorted set of sites; a cover is a list of patches whose union is
every site. Patch-local operators use the same convention restricted to the
patch: the smallest site in the patch is the least significant bit of the
patch-local index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError
from .linalg import as_operator


@dataclass(frozen=True, order=True)
class Patch:
    """A nonempty set of lattice sites, with value semantics."""

    sites: tuple[int, ...]

    def __init__(self, sites: Iterable[int]):
        sites = tuple(sorted(set(int(s) for s in sites)))
        if not sites:
            raise ContractError("a patch must contain at least one site")
        if sites[0] < 0:
            raise ContractError(f"negative site index in patch {sites}")
        object.__setattr__(self, "sites", sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site: int) -> bool:
        return site in self.sites

    def overlaps(self, other: "Patch") -> bool:
        return bool(set(self.sites) & set(other.sites))

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of the patch."""
        return 2 ** len(self.sites)

    def __repr__(self) -> str:
        return f"Patch{self.sites}"


class PatchCover:
    """An ordered list of patches covering all sites, plus overlap structure."""

    def __init__(self, n_sites: int, patches: Sequence[Patch | Iterable[int]]):
        self.n_sites = int(n_sites)
        self.patches: tuple[Patch, ...] = tuple(
            p if isinstance(p, Patch) else Patch(p) for p in patches
        )
        if self.n_sites < 1:
            raise ContractError("cover needs at least one site")
        if len(set(self.patches)) != len(self.patches):
            raise ContractError("duplicate patches in cover")
        covered: set[int] = set()
        for p in self.patches:
            if p.sites[-1] >= self.n_sites:
                raise ContractError(f"{p} exceeds n_sites={self.n_sites}")
            covered.update(p.sites)
        if covered != set(range(self.n_sites)):
            missing = sorted(set(range(self.n_sites)) - covered)
            raise ContractError(f"patches do not cover sites {missing}")
        self._index = {p: i for i, p in enumerate(self.patches)}
        # adjacency by patch index; every patch overlaps itself
        self._adjacent: list[tuple[int, ...]] = [
            tuple(j for j, q in enumerate(self.patches) if p.overlaps(q))
            for p in self.patches
        ]

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    def __len__(self) -> int:
        return len(self.patches)

    def __iter__(self):
        return iter(self.patches)

    def __contains__(self, patch: Patch) -> bool:
        return patch in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PatchCover)
            and self.n_sites == other.n_sites
            and set(self.patches) == set(other.patches)
        )

    def __hash__(self):
        return hash((self.n_sites, frozenset(self.patches)))

    def index(self, patch: Patch) -> int:
        try:
            return self._index[patch]
        except KeyError:
            raise ContractError(f"{patch} is not a patch of this cover") from None

    def overlapping(self, patch: Patch) -> tuple[Patch, ...]:
        """All cover patches sharing a site with `patch` (including itself)."""
        return tuple(self.patches[j] for j in self._adjacent[self.index(patch)])

    def overlap_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j), i < j, of distinct overlapping patches."""
        return [
            (i, j)
            for i in range(len(self.patches))
            for j in self._adjacent[i]
            if i < j
        ]

    def __repr__(self) -> str:
        return f"PatchCover(n_sites={self.n_sites}, patches={list(self.patches)})"


def nn_pair_cover(n: int) -> PatchCover:
    """Patches (i, i+1) for i = 0..n-2."""
    if n < 2:
        raise ContractError(f"nearest-neighbour pair cover needs n >= 2, got {n}")
    return PatchCover(n, [Patch((i, i + 1)) for i in range(n - 1)])


def single_site_cover(n: int) -> PatchCover:
    """One patch per site; pairs of patches never overlap."""
    if n < 1:
        raise ContractError(f"single-site cover needs n >= 1, got {n}")
    return PatchCover(n, [Patch((i,)) for i in range(n)])


def cover_from_config(spec: dict, n_sites: int) -> PatchCover:
    """Build a cover from its config-file form."""
    scheme = spec.get("scheme", "nn_pair")
    if scheme == "nn_pair":
        return nn_pair_cover(n_sites)
    if scheme == "single_site":
        return single_site_cover(n_sites)
    if scheme == "explicit":
        return PatchCover(n_sites, [Patch(p) for p in spec["patches"]])
    raise ContractError(f"unknown cover scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Embedding and support detection
# ---------------------------------------------------------------------------


def _placed(op, where: Patch | Iterable[int], n: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The sorted sites of `where`, and op as a complex matrix on them, checked against n."""
    sites = where.sites if isinstance(where, Patch) else Patch(where).sites
    op = as_operator(op)
    if op.shape[0] != 2 ** len(sites):
        raise ContractError(f"operator dim {op.shape[0]} != 2^{len(sites)} for sites {sites}")
    if sites[-1] >= n:
        raise ContractError(f"sites {sites} exceed n={n}")
    return sites, op


def apply_local(op, where: Patch | Iterable[int], n: int, target, out=None) -> np.ndarray:
    """embed(op) @ target for a vector or matrix target, without forming embed(op).

    Cost scales as 4^n * 2^k instead of 8^n for a dense product. The result
    is written into `out` (a C-contiguous complex array of the target's
    shape) when given, else into a fresh array, and returned.
    """
    sites, op = _placed(op, where, n)
    k = len(sites)
    target = np.asarray(target, dtype=np.complex128)
    dim = 2**n
    if target.shape[0] != dim:
        raise ContractError(f"target dim {target.shape[0]} != 2^{n}")
    if out is not None and (
        out.shape != target.shape or out.dtype != np.complex128 or not out.flags.c_contiguous
    ):
        raise ContractError(
            f"out must be a C-contiguous complex128 array of shape {target.shape}"
        )
    cols = 1 if target.ndim == 1 else target.shape[1]
    lo, hi = sites[0], sites[-1]
    if hi - lo + 1 == k:
        # a contiguous block of sites is the middle factor of the row index
        # (sites above, block, sites below): no axes need to move
        shape = (2 ** (n - 1 - hi), 2**k, 2**lo * cols)
        if out is None:
            return np.matmul(op, target.reshape(shape)).reshape(target.shape)
        np.matmul(op, target.reshape(shape), out=out.reshape(shape))
        return out
    # axis t of the [2]*n row view holds site n-1-t; op axis j holds sites[k-1-j]
    src_axes = [n - 1 - s for s in reversed(sites)]
    row_shape = [2] * n + ([cols] if target.ndim == 2 else [])
    tensor = np.moveaxis(target.reshape(row_shape), src_axes, range(k))
    moved = op @ tensor.reshape(2**k, -1)
    moved = np.moveaxis(moved.reshape(tensor.shape), range(k), src_axes)
    if out is None:
        return moved.reshape(target.shape)
    out.reshape(row_shape)[...] = moved
    return out


def embed_operator(op, where: Patch | Iterable[int], n: int) -> np.ndarray:
    """Tensor a patch-local operator with the identity on all other sites.

    The one way a patch operator becomes a chain matrix, shared with `_lift`:
    one strided write of op into a fresh zero D x D array (`_write_blocks`),
    the only D x D array it holds, on contiguous and gapped sites alike. At
    n = 10 it takes about 1 ms (one thread of a 2-core Xeon VM).
    """
    sites, op = _placed(op, where, n)
    return _write_blocks(np.zeros((2**n, 2**n), dtype=np.complex128), op, sites, n)


def _write_blocks(out: np.ndarray, core: np.ndarray, sites: Sequence[int], n: int) -> np.ndarray:
    """Write 1 (x) core (x) 1, core on the sorted `sites` of n, into the zero matrix `out`.

    One strided assignment, with no product: a site outside `sites` is a
    diagonal axis (equal row and column bits); core axis j holds site sites[-1 - j].
    """
    rows, cols = out.strides
    strides = [(rows + cols) * 2**s for s in range(n) if s not in sites]
    strides += [rows * 2**s for s in sites[::-1]] + [cols * 2**s for s in sites[::-1]]
    view = np.lib.stride_tricks.as_strided(out, [2] * len(strides), strides)
    view[...] = core.reshape([2] * (2 * len(sites)))
    return out


# ---------------------------------------------------------------------------
# Window-local operators
# ---------------------------------------------------------------------------


Window = tuple[int, int, np.ndarray]  # (lo, hi, core): 1 (x) core (x) 1, core on sites lo..hi

_IDENTITY: Window = (0, -1, np.ones((1, 1), dtype=np.complex128))  # the empty window


def _window(m: np.ndarray) -> Window:
    """m as a window-local operator, exactly 1 (x) core (x) 1.

    Identity sites are stripped by value from the top (most significant)
    site down, then from site 0 up, on ever smaller views of m; an identity
    m gives an empty range and a 1 x 1 core. One off-block entry is probed
    before each comparison, so a dense m fails in microseconds.
    """
    lo, hi, core = 0, m.shape[0].bit_length() - 2, m
    for top in (True, False):
        while lo <= hi:
            half = core.shape[0] // 2
            if top:
                blocks = core.reshape(2, half, 2, half)
            else:
                blocks = core.reshape(half, 2, half, 2).transpose(1, 0, 3, 2)
            # blocks[a, :, b, :]: the rows with bit a and the columns with bit b on the site
            if (
                blocks[0, 0, 1, 0] != 0
                or blocks[0, :, 1].any()
                or blocks[1, :, 0].any()
                or not np.array_equal(blocks[0, :, 0], blocks[1, :, 1])
            ):
                break
            core = blocks[0, :, 0]
            hi, lo = (hi - 1, lo) if top else (hi, lo + 1)
    return lo, hi, core


def _hull(*ranges: tuple) -> tuple[int, int]:
    """The smallest range of sites holding every nonempty (lo, hi, ...) range.

    With no nonempty range it is the empty range (0, -1), the one `_window`
    gives an identity, so a product of identities is a 1 x 1 product.
    """
    spans = [r[:2] for r in ranges if r[0] <= r[1]]
    if not spans:
        return 0, -1
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


def _lift(w: Window, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """w as a matrix on sites lo..hi, a hull of its range.

    A zero fill plus one strided write of the core to every diagonal block
    (`_write_blocks`; an empty w puts its value on the diagonal), no product.
    """
    wlo, whi, core = w
    if (wlo, whi) == (lo, hi):
        if out is None or core is out:
            return core
        out[...] = core
        return out
    if out is None:
        out = np.zeros((2 ** (hi - lo + 1),) * 2, dtype=np.complex128)
    else:
        out.fill(0)
    return _write_blocks(out, core, range(wlo - lo, whi - lo + 1), hi - lo + 1)


def _mul(a: Window, b: Window) -> Window:
    """a @ b on the hull of their ranges, contracted over their shared sites only.

    Each core is viewed as a tensor over its own segments of the hull (top,
    overlap, bottom; an end segment belongs to one factor or to neither), so
    one GEMM over the overlap's 2^k and one transpose into site order give the
    product at D_a D_b D_hull multiply-adds, with no core lifted past its own
    range. Equal ranges are the plain `ca @ cb`, an empty factor scales the
    other core by its value, touching ranges share k = 0 sites, and a gap
    between the ranges is closed by lifting the lower core across it.
    """
    (la, ha, ca), (lb, hb, cb) = a, b
    if la > ha or lb > hb:  # an empty window is its 1 x 1 core's value times the identity
        (lo, hi, core), scale = (b, ca[0, 0]) if la > ha else (a, cb[0, 0])
        return (lo, hi, core) if scale == 1 else (lo, hi, scale * core)
    if (la, ha) == (lb, hb):
        return la, ha, ca @ cb
    olo, ohi = max(la, lb), min(ha, hb)
    if olo > ohi + 1:
        if la > hb:
            return _mul(a, (lb, la - 1, _lift(b, lb, la - 1)))
        return _mul((la, lb - 1, _lift(a, la, lb - 1)), b)
    o = 2 ** (ohi - olo + 1)
    ta, ua, tb, ub = 2 ** (ha - ohi), 2 ** (olo - la), 2 ** (hb - ohi), 2 ** (olo - lb)
    # rows (t, o, u, t', u') of a times columns (t, u, t', o', u') of b, one t and one u being 1;
    # a core copied to put the contracted o last (first) is freed before the transpose
    prod = np.matmul(
        ca.reshape(ta, o, ua, ta, o, ua).transpose(0, 1, 2, 3, 5, 4).reshape(-1, o),
        cb.reshape(tb, o, ub, tb, o, ub).transpose(1, 0, 2, 3, 4, 5).reshape(o, -1),
    ).reshape(ta, o, ua, ta, ua, tb, ub, tb, o, ub)
    dim = ta * tb * o * ua * ub
    return min(la, lb), max(ha, hb), prod.transpose(0, 5, 1, 2, 6, 3, 7, 8, 4, 9).reshape(dim, dim)


def _distance(a: Window, b: Window, n: int) -> float:
    """||A - B||_F of the n-site lifts: sqrt(D / c) times its value on the c x c hull."""
    lo, hi = _hull(a, b)
    diff = _lift(a, lo, hi) - _lift(b, lo, hi)
    return (2**n / diff.shape[0]) ** 0.5 * float(np.linalg.norm(diff))


def _stripped(w: Window) -> Window:
    """w with the identity sites of its core stripped by value (`_window`).

    The result is what `_window` finds on w's D x D lift: an all-identity
    core gives the empty range (0, -1).
    """
    lo, hi, core = w
    wlo, whi, core = _window(core)
    if wlo > whi:
        return 0, -1, core
    return lo + wlo, lo + whi, core


def _dagger(w: Window) -> Window:
    """The adjoint of w, on the same range."""
    lo, hi, core = w
    return lo, hi, core.conj().T


def _apply_window(w: Window, n: int, v: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """w @ v for a vector v of the n-site chain, through w's core; w^dag @ v if
    adjoint, as conj(w^T conj(v)), so no conjugated copy of the core is made.

    A window spanning the chain is a dense matrix, multiplied as one.
    """
    lo, hi, core = w
    if adjoint:
        out = _apply_window((lo, hi, core.T), n, v.conj())
        return np.conjugate(out, out=out)
    if hi - lo + 1 == n:
        return core @ v
    if lo > hi:
        return core[0, 0] * v
    return apply_local(core, range(lo, hi + 1), n, v)


def _window_defects(w: Window, n: int) -> dict[int, float]:
    """`site_identity_defects` of the n-site operator 1 (x) core (x) 1 read from its core.

    A site outside the window reads exactly 0.0, and a site inside it the
    core's defect times sqrt(D / c) for a c x c core.
    """
    lo, hi, core = w
    k = hi - lo + 1
    scale = (2**n / core.shape[0]) ** 0.5
    defects = dict.fromkeys(range(n), 0.0)
    tensor = core.reshape([2] * (2 * k))
    for s in range(k):
        row_ax = k - 1 - s
        col_ax = 2 * k - 1 - s
        blocks = np.moveaxis(tensor, (row_ax, col_ax), (0, 1))
        off = np.linalg.norm(blocks[0, 1]) ** 2 + np.linalg.norm(blocks[1, 0]) ** 2
        diag = 0.5 * np.linalg.norm(blocks[0, 0] - blocks[1, 1]) ** 2
        defects[lo + s] = float(np.sqrt(off + diag)) * scale
    return defects


def site_identity_defects(m) -> dict[int, float]:
    """Per-site Frobenius distance from M to the nearest identity_s (x) M'.

    The nearest factorized operator has M' = partial trace over site s divided
    by 2; the distance is computed from the four site-s blocks. M is first
    stripped to its window, exactly 1 (x) core (x) 1 (`_window`): a site
    outside the window reads exactly 0.0, and a site inside it reads the
    core's defect times sqrt(D / c) for a c x c core. A matrix with no
    identity site is its own core, so its defects are the dense formula's
    bits.
    """
    m = as_operator(m)
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ContractError(f"operator dim {dim} is not a power of two")
    return _window_defects(_window(m), n)


def operator_support(m, tol: float = 1e-10) -> set[int]:
    """Sites on which M fails to act as the identity factor, within tol."""
    return {s for s, d in site_identity_defects(m).items() if d > tol}
