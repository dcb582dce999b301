"""Per-patch wavefunctions with unitary connections, and their local dynamics.

The dynamical content of the picture implemented here: every cover patch I
carries a full-dimension wavefunction psi_I, and patches are related by
unitary connections. Expectation values of operators supported inside one
patch need only that patch's wavefunction; operator products across patches
insert connections between them. Time evolution couples a patch only to the
Hamiltonian terms that touch it, with those terms conjugated by connections
("dressed"), which makes the equations of motion local but nonlinear.

Two integration modes are provided, one state class each:

* ``generator`` (default, `GeneratorState`): the state variable is one frame
  unitary per patch, advanced by dU_I/dt = -i H_eff(I) U_I. Connections are
  formed as U_I U_J^dag, so the transitivity identity U_IJ U_JK = U_IK holds
  to roundoff by construction, and psi_I = U_I base is a cached product.
* ``direct`` (`DirectState`): integrates the coupled equations for psi_I and
  the connections of overlapping pairs verbatim. Redundancy among the
  variables then drifts at the integrator's order, which `diagnostics`
  measures.

Every variable is stored in the plain gauge, where a patch's operator for a
Schroedinger operator A is A itself. A gauge transform only multiplies the
per-patch factor D_I (the dressing) that the read-outs `psi`, `frames`,
`connection(s)` and `effective_hamiltonian` apply; nothing else reads it.

The equations of motion are local, so an RK4 step is one `_each` job
(`_rk4_job`), run on every usable core when BLAS is pinned (see
`_WORKERS`), whose tasks each wait only for the tasks they read, not for a
barrier across patches. In generator mode (`_rk4_frames`) a stage forms the
products of the plan, then each frame's slope, which reads only the products
touching it (`_rk4_waits`). In direct mode a stage forms each patch's dressed
neighbourhood h_I and slope, then each link's -i (h_I U_IJ - U_IJ h_J); patch
I waits for itself and the links at I of the stage before, link IJ for
patches I and J (`_direct_waits`). A task folds its slope into its own slice
and, at the last stage, checks and re-unitarizes it; for D <
`_PARALLEL_DIM` the job runs in order and a stage updates the whole array
at once. On a 2-core VM with one BLAS thread, a TFIM n = 7 step took
16.6-20.3 ms on 2 workers against 28-33 ms on 1; heis-direct-n7 ran at a
median 39.1 steps/s (quartiles 35.2-41.2) over 30 benchmark runs against
25.9 (24.0-27.3) serial, faster in 30 of 30 pairs. States are never
mutated in place and observable queries are read-only.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import itertools
import numbers
import os
import threading
from dataclasses import asdict, dataclass, replace as dc_replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, DivergenceError
from .hamiltonian import LocalHamiltonian, StepPlan
from .integrate import rk4_step, rk4_times, rk4_update, time_grid  # rk4_step: bench/spans.py wraps it
from .lattice import (
    _IDENTITY,
    Patch,
    PatchCover,
    Window,
    _apply_window,
    _dagger,
    _distance,
    _hull,
    _lift,
    _mul,
    _stripped,
    _window,
    apply_local,
    embed_operator,
    operator_support,
)
from .linalg import polar_unitary, require_normalized, require_unitary, unitarity_defect

GENERATOR = "generator"
DIRECT = "direct"
MODES = (GENERATOR, DIRECT)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings."""

    dt: float = 1e-3
    reunitarize_every: int = 100  # 0 disables drift correction
    renormalize: bool = False  # direct mode only: rescale each psi_I to norm 1 after a step

    def __post_init__(self):
        dt, every = self.dt, self.reunitarize_every
        if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or not 0 < dt < np.inf:
            raise ContractError(f"dt must be positive and finite, got {dt!r}")
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 0:
            raise ContractError(f"reunitarize_every must be an integer >= 0, got {every!r}")
        if not isinstance(self.renormalize, (bool, np.bool_)):
            raise ContractError(f"renormalize must be a bool, got {self.renormalize!r}")


class GaugeTransform:
    """A unitary frame change per patch; missing patches get the identity."""

    def __init__(self, lambdas: Mapping[Patch, np.ndarray]):
        self.lambdas = {
            p: require_unitary(m, what=f"gauge factor on {p}")
            for p, m in lambdas.items()
        }

    def factor(self, patch: Patch, n_sites: int) -> np.ndarray:
        m = self.lambdas.get(patch)
        if m is None:
            return np.eye(2**n_sites, dtype=np.complex128)
        if m.shape[0] == patch.dim and patch.dim != 2**n_sites:
            return embed_operator(m, patch, n_sites)
        if m.shape[0] != 2**n_sites:
            raise ContractError(
                f"gauge factor on {patch} has dim {m.shape[0]}, "
                f"expected {patch.dim} or {2 ** n_sites}"
            )
        return m


@dataclass(frozen=True)
class DefectReport:
    """Worst-case violations of the picture's built-in identities."""

    consistency: float  # max over the pair graph's edges ||U_IJ psi_J - psi_I||
    cocycle: float  # max over its chains and loops ||U_IJ U_JK ... - U_IK||_F
    unitarity: float  # max ||U^dag U - 1||_F over frames/connections, via window cores
    norm: float  # max | ||psi_I|| - 1 |

    def as_dict(self) -> dict:
        return asdict(self)


class GaugeState:
    """Local wavefunctions plus frame/connection unitaries on a patch cover.

    The base of `GeneratorState` and `DirectState`, which own all arithmetic
    on their variables (the ones a mode does not store read None). Those are
    stored in the plain gauge, `local` holding the wavefunctions; `dressing`
    records each patch's gauge factor D_I, which only the read-outs apply
    (`psi` is D_I psi_I). Each mode gives its pair graph, `_pairs()`, which
    the identity checks walk; a connection U_IJ as one window,
    `_connection(i, j)` (empty for i == j), which every reader takes; and
    U_IJ acting on a vector, `_transport`. Only `connection` lifts a
    connection to D x D. Treat instances as immutable: evolution and
    transformation functions return new states. Observable queries are read-only.
    """

    mode: str  # class constant of each mode
    _fields = ("cover", "time", "steps", "dressing")  # constructor arguments
    frame_stack: np.ndarray | None = None
    windows: tuple[Window, ...] | None = None
    base: np.ndarray | None = None
    connections: dict[tuple[int, int], np.ndarray] | None = None

    def __init__(
        self,
        cover: PatchCover,
        time: float,
        steps: int,
        dressing: dict[Patch, np.ndarray] | None = None,
    ):
        self.cover = cover
        self.time = float(time)
        self.steps = int(steps)
        self.dressing = dressing or {}

    # -- construction helpers -------------------------------------------

    def _replace(self, **kw) -> "GaugeState":
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **kw})

    # -- basic queries -----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.cover.n_sites

    @property
    def dim(self) -> int:
        return self.cover.dim

    @functools.cached_property
    def psi(self) -> dict[Patch, np.ndarray]:
        """Each patch's wavefunction D_I psi_I; `local`'s array where undressed."""
        return {p: _dressed(v, self.dressing_of(p)) for p, v in self.local.items()}

    @functools.cached_property
    def frames(self) -> dict[Patch, np.ndarray] | None:
        """Each patch's frame unitary D_I U_I; a view into `frame_stack` where undressed."""
        if self.frame_stack is None:
            return None
        patches = self.cover.patches
        return {p: _dressed(u, self.dressing_of(p)) for p, u in zip(patches, self.frame_stack)}

    def dressing_of(self, patch: Patch) -> np.ndarray | None:
        """Accumulated frame change relative to the plain-operator gauge, or None."""
        return self.dressing.get(patch)

    def connection(self, a: Patch, b: Patch) -> np.ndarray:
        """The unitary D_a U_ab D_b^dag transporting patch b's wavefunction to patch a's frame."""
        u = self._connection(self.cover.index(a), self.cover.index(b))
        return _dressed(_lift(u, 0, self.n_sites - 1), self.dressing_of(a), self.dressing_of(b))

    # -- observables -----------------------------------------------------

    def _apply(self, patch: Patch, op: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Apply the patch-supported Schroedinger operator `op` to vec."""
        op = np.asarray(op, dtype=np.complex128)
        if op.shape[0] == patch.dim and patch.dim != self.dim:
            return apply_local(op, patch, self.n_sites, vec)
        if op.shape[0] != self.dim:
            raise ContractError(
                f"operator dim {op.shape[0]} matches neither {patch} nor the chain"
            )
        support = operator_support(op)
        if not support <= set(patch.sites):
            raise ContractError(f"operator support {sorted(support)} leaks outside {patch}")
        return op @ vec

    def local_expectation(self, patch: Patch, op: np.ndarray) -> complex:
        """<psi_I| A |psi_I> for A supported inside patch I (Schroedinger form)."""
        if patch not in self.cover:
            raise ContractError(f"{patch} is not a patch of the cover")
        psi = self.local[patch]
        return complex(np.vdot(psi, self._apply(patch, op, psi)))

    def correlator(self, chain: Sequence[tuple[Patch, np.ndarray]]) -> complex:
        """<psi_{I_1}| A_1 U_{I_1 I_2} A_2 ... A_m |psi_{I_m}> for patch-supported A_k.

        Each connection acts on the running vector through `_transport`, so
        none is multiplied out; from a patch to itself the vector is kept.
        """
        if not chain:
            raise ContractError("correlator needs at least one (patch, operator) pair")
        index = [self.cover.index(p) for p, _ in chain]  # a patch outside the cover raises
        last, op = chain[-1]
        vec = self._apply(last, op, self.local[last])
        for (patch, op), i, j in reversed(list(zip(chain, index, index[1:]))):
            if i != j:
                vec = self._transport(i, j, vec)
            vec = self._apply(patch, op, vec)
        return complex(np.vdot(self.local[chain[0][0]], vec))

    # -- the pair graph and the identity checks on it ----------------------

    def _walk(self, root: int) -> dict[int, int]:
        """Breadth-first parent of each patch reachable from root in the pair graph
        (`_pairs`), in discovery order; the root is its own parent."""
        graph: dict[int, list[int]] = {i: [] for i in range(len(self.cover))}
        for i, j in self._pairs():
            graph[i].append(j)
            graph[j].append(i)
        parent = {root: root}
        queue = [root]
        for u in queue:  # the queue grows while it is read
            for v in graph[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def _loops(self) -> Iterator[list[int]]:
        """The paths whose connection product the cocycle sweep compares with the
        connection between their ends: every chain i ~ j ~ k of the pair graph,
        then every edge off its breadth-first forest, as the forest's path
        between the edge's ends (on a tree-shaped graph there is none)."""
        forest: dict[int, int] = {}
        for j in range(len(self.cover)):
            walk = self._walk(j)
            near = [v for v, u in walk.items() if u == j != v]  # j's neighbours
            yield from ([i, j, k] for i, k in itertools.combinations(near, 2))
            forest = {**walk, **forest}  # each component keeps the walk from its first patch
        for i, j in self._pairs():
            path = _tree_path(forest, i, j)
            if len(path) > 2:  # an edge off the forest
                yield path

    def consistency(self) -> float:
        """max over the pair graph's edges (i, j) of ||U_IJ psi_J - psi_I||; no other sweep."""
        psi = list(self.local.values())
        defects = [np.linalg.norm(self._transport(i, j, psi[j]) - psi[i]) for i, j in self._pairs()]
        return float(max(defects, default=0.0))

    def diagnostics(self, include_cocycle: bool = True) -> DefectReport:
        """Identity defects; consistency and cocycle are maxima over the pair graph.

        The unitarity sweep reads each frame or connection through its window
        core (a generator state's `windows`; a direct-mode connection's found
        by `lattice._window`): for M = 1 (x) C (x) 1 with a c x c core,
        ||M^dag M - 1||_F = sqrt(D / c) ||C^dag C - 1||_F, so a window-local
        matrix costs a c x c Gram instead of a D x D one. A dense matrix is its
        own core (scale 1.0), and its defect keeps the dense formula's bits.
        The cocycle sweep (`_loops`) multiplies the connections along each path
        over their shared sites onto their hulls (`lattice._mul`), one path at
        a time and with no connection kept from one path to the next. It skips
        a path along which the connection between its ends is itself
        multiplied (`_walked`): that compares a product with itself, which
        reads exactly 0.0.
        """
        consistency = self.consistency()
        unitarity = 0.0
        for _, _, core in self._unitarity_windows():
            unitarity = max(unitarity, (self.dim / core.shape[0]) ** 0.5 * unitarity_defect(core))
        norm = max(
            abs(float(np.linalg.norm(v)) - 1.0) for v in self.local.values()
        )
        cocycle = 0.0
        if include_cocycle:
            for path in itertools.filterfalse(self._walked, self._loops()):
                prod = functools.reduce(_mul, map(self._connection, path, path[1:]))
                cocycle = max(cocycle, _distance(prod, self._connection(path[0], path[-1]), self.n_sites))
        return DefectReport(
            consistency=consistency,
            cocycle=cocycle,
            unitarity=unitarity,
            norm=norm,
        )


class GeneratorState(GaugeState):
    """Generator mode: one frame unitary U_I per patch and psi_I = U_I base.

    Only `base` and the plain-gauge frames are stored, each frame in one of
    two forms; the other form, and `local`, are derived once, when first
    read. A commuting layer and the t = 0 state store `windows`, each frame
    as a `lattice.Window` (lo, hi, core), exactly 1 (x) core (x) 1;
    `frame_stack` lifts them to one (P, D, D) array in cover order. An RK4
    step stores `frame_stack`, and `windows` finds each frame's window by
    value (`lattice._window`). Either way a stored window is what `_window`
    finds on its frame. `frames` maps each patch to D_I U_I. Connections
    are U_I U_J^dag.
    """

    mode = GENERATOR
    _fields = GaugeState._fields + ("base",)

    def __init__(self, cover, time, steps, base, dressing=None, *, frame_stack=None, windows=None):
        super().__init__(cover, time, steps, dressing)
        self.base = base
        if frame_stack is not None:  # a stored form is the cached value of its property
            self.frame_stack = frame_stack
        if windows is not None:
            self.windows = windows

    @functools.cached_property
    def frame_stack(self) -> np.ndarray:
        """The plain-gauge frames as one (P, D, D) array; lifted from `windows` unless stored."""
        n = self.n_sites
        stack = np.empty((len(self.cover), self.dim, self.dim), dtype=np.complex128)
        for w, slot in zip(self.windows, stack):
            _lift(w, 0, n - 1, out=slot)
        return stack

    @functools.cached_property
    def windows(self) -> tuple[Window, ...]:
        """Each plain-gauge frame's window; found by value in `frame_stack` unless stored."""
        return tuple(_window(u) for u in self.frame_stack)

    @functools.cached_property
    def local(self) -> dict[Patch, np.ndarray]:
        """psi_I = U_I base of each patch, each frame applied through its window core."""
        n, base = self.n_sites, self.base
        return {p: _apply_window(w, n, base) for p, w in zip(self.cover.patches, self.windows)}

    def _replace(self, **kw) -> "GeneratorState":
        if kw.keys() & {"frame_stack", "windows"}:
            return super()._replace(**kw)
        read = vars(self)  # the same frames: share every form read so far, and `local` with `base`
        new = super()._replace(frame_stack=read.get("frame_stack"), windows=read.get("windows"), **kw)
        if "local" in read and "base" not in kw:
            new.local = read["local"]
        return new

    def _connection(self, i: int, j: int) -> Window:
        """U_I U_J^dag, multiplied through the frames' window cores on their hull."""
        if i == j:
            return _IDENTITY
        return _mul(self.windows[i], _dagger(self.windows[j]))

    def _pairs(self) -> list[tuple[int, int]]:
        """The overlapping pairs, the ones direct mode always stores."""
        return self.cover.overlap_pairs()

    def _transport(self, i: int, j: int, v: np.ndarray) -> np.ndarray:
        """U_I U_J^dag v, each frame acting through its window core."""
        n, windows = self.n_sites, self.windows
        return _apply_window(windows[i], n, _apply_window(windows[j], n, v, adjoint=True))

    def _unitarity_windows(self) -> Iterable[Window]:
        return self.windows

    def _walked(self, path: list[int]) -> bool:
        """False: `_connection` multiplies two frames, never a path's connections."""
        return False

    def _step(self, plan: StepPlan, config: IntegratorConfig, reunitarize: bool) -> "GeneratorState":
        if config.renormalize:  # |psi_I| is U_I's unitarity, which reunitarize_every restores
            raise ContractError("renormalize is a direct-mode option")
        t_next = self.time + config.dt
        new_steps = self.steps + 1

        def finish(frames: np.ndarray) -> None:  # the new frames of one slice
            _require_finite(frames, t_next, new_steps)
            if reunitarize:
                _reunitarize(frames, t_next, new_steps)

        with np.errstate(invalid="ignore", over="ignore"):
            frames = _rk4_frames(plan, self.n_sites, self.frame_stack, self.time, config.dt, finish)
        return self._replace(time=t_next, steps=new_steps, frame_stack=frames)

    def _layered(self, gates: dict[Patch, np.ndarray]) -> "GeneratorState":
        """U_I -> U_I prod_(gates g near I) S_g, with S_g = U_g^dag G U_g.

        Every factor is a window, and every product is contracted over its
        factors' shared sites onto their hull (`lattice._mul`), in the eager
        formula's order: S_g on the hull of U_g's window and g's sites, then
        U S_1 S_2 ... folded from the patch's own U (G U on a gate's patch),
        so it widens only as the sandwiches do. `_window` on its hull-sized
        core gives the new window; a patch away from every gate keeps its own.

        A product of two cores spanning the chain is the dense D x D one. The
        S_g of such a G U is formed when the first patch needs it and freed
        after the last, so on a chain at most two sandwiches and the running
        product are alive next to the frames made so far.
        """
        cover, n, old = self.cover, self.n_sites, self.windows
        patches = cover.patches
        near = [[gp for gp in gates if gp != p and gp.overlaps(p)] for p in patches]
        users = {gp: sum(gp in nr for nr in near) for gp in gates}  # yet to multiply by S_g

        own: dict[Patch, Window] = {}  # G U of each gate patch
        sandwiches: dict[Patch, Window] = {}
        for gp, g in gates.items():
            j = cover.index(gp)
            lo, hi = _hull(old[j], (gp.sites[0], gp.sites[-1]))
            v = _lift(old[j], lo, hi)
            gv = apply_local(g, [s - lo for s in gp.sites], hi - lo + 1, v)
            own[gp] = (lo, hi, gv)
            if users[gp] and hi - lo + 1 < n:
                sandwiches[gp] = (lo, hi, v.conj().T @ gv)
            del v, gv

        def sandwich(gp: Patch) -> Window:
            if gp not in sandwiches:  # G U spans the chain: conj(U) is lifted into a fresh matrix
                gu = own[gp][2]
                u = _lift(old[cover.index(gp)], 0, n - 1, out=np.empty_like(gu))
                sandwiches[gp] = (0, n - 1, np.conjugate(u, out=u).T @ gu)
            return sandwiches[gp]

        windows = list(old)
        for i, p in enumerate(patches):
            if users.get(p):
                sandwich(p)  # read G U before it leaves `own` below
            if p in gates or near[i]:
                windows[i] = _stripped(
                    functools.reduce(_mul, map(sandwich, near[i]), own.pop(p) if p in gates else old[i])
                )
            for gp in near[i]:
                users[gp] -= 1
                if not users[gp]:
                    del sandwiches[gp]  # a sandwich past its last user is freed here
        return self._replace(windows=tuple(windows))

    def _collapsed(self, patch: Patch, collapsed: np.ndarray) -> "GeneratorState":
        """The frames with base U_p^dag collapsed, so psi_p reads U_p U_p^dag collapsed."""
        w = self.windows[self.cover.index(patch)]
        return self._replace(base=_apply_window(w, self.n_sites, collapsed, adjoint=True))


class DirectState(GaugeState):
    """Direct mode: psi_I and the connections of linked pairs, integrated verbatim.

    Both live in one (P + C D, D) array, `packed`, in the plain gauge: rows
    :P hold psi in cover order, the rest the (C, D, D) connection stack in
    the sorted order of `keys`; `local` and `links` map each patch and key to
    its view. Key (i, j), i < j, holds the unitary taking patch j's
    wavefunction to patch i's frame; other pairs chain stored connections
    along one breadth-first walk.
    """

    mode = DIRECT
    _fields = GaugeState._fields + ("packed", "keys")

    def __init__(self, cover, time, steps, packed, keys, dressing=None):
        super().__init__(cover, time, steps, dressing)
        psi, conns = _unpacked(packed, len(cover))
        self.packed = packed
        self.keys = tuple(keys)
        self.local = dict(zip(cover.patches, psi))
        self.links = dict(zip(self.keys, conns))

    @functools.cached_property
    def connections(self) -> dict[tuple[int, int], np.ndarray]:
        """Each key's connection D_i U_ij D_j^dag; a view into `packed` where undressed."""
        patches = self.cover.patches
        return {
            (i, j): _dressed(c, self.dressing_of(patches[i]), self.dressing_of(patches[j]))
            for (i, j), c in self.links.items()
        }

    def _blank(self, n_conn: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A fresh array of this layout (with n_conn connections), and its views."""
        count, dim = len(self.cover), self.dim
        n_conn = len(self.keys) if n_conn is None else n_conn
        packed = np.empty((count + n_conn * dim, dim), dtype=np.complex128)
        return (packed, *_unpacked(packed, count))

    def _walk_links(self, i: int, j: int) -> list[np.ndarray]:
        """The stored connections along the walk from patch i to patch j, left to right."""
        parent = self._walk(i)  # a stored (i, j) is found as the one-link path
        if j not in parent:
            raise ContractError(
                f"patches {self.cover.patches[i]} and {self.cover.patches[j]} "
                "are not linked by any chain of stored connections"
            )
        path = _tree_path(parent, i, j)
        return [_oriented(self.links, u, v)[0] for u, v in zip(path, path[1:])]

    def _connection(self, i: int, j: int) -> Window:
        """The stored connections multiplied along the walk, as a window spanning the chain."""
        if i == j:
            return _IDENTITY
        return 0, self.n_sites - 1, functools.reduce(np.matmul, self._walk_links(i, j))

    def _pairs(self) -> tuple[tuple[int, int], ...]:
        return self.keys

    def _transport(self, i: int, j: int, v: np.ndarray) -> np.ndarray:
        """The stored links along the walk from patch j to patch i applied to v one at a time."""
        for c in reversed(self._walk_links(i, j)):
            v = c @ v
        return v

    def _unitarity_windows(self) -> Iterable[Window]:
        return map(_window, self.links.values())

    def _walked(self, path: list[int]) -> bool:
        """Whether `_connection(path[0], path[-1])` multiplies the links along path."""
        return _tree_path(self._walk(path[0]), path[0], path[-1]) == path

    def _step(self, plan: StepPlan, config: IntegratorConfig, reunitarize: bool) -> "DirectState":
        count, dim, n = len(plan.patches), self.dim, self.n_sites
        t_next = self.time + config.dt
        new_steps = self.steps + 1
        state = self
        if not self.links.keys() >= set(plan.connection_keys):
            if self.steps or self.time:
                raise ContractError(
                    "direct-mode state lacks connections required by this "
                    "Hamiltonian; initialize with init_gauge_state(..., hamiltonian=...)"
                )
            state = self._with_pairs(plan.connection_keys)
        keys, y = state.keys, state.packed
        times = rk4_times(self.time, config.dt)
        acc = np.empty_like(y)  # the new state's array, so not a view into the scratch
        x, k = np.empty((2,) + y.shape, dtype=y.dtype)  # see `_rk4_job`
        h = np.empty((count, dim, dim), dtype=y.dtype)  # each patch's dressed neighbourhood
        conn = [functools.partial(_oriented, dict(zip(keys, _unpacked(a, count)[1]))) for a in (y, x)]
        links = [slice(count + m * dim, count + m * dim + dim) for m in range(len(keys))]

        def patch(s: int, i: int) -> tuple[slice, np.ndarray]:
            _neighborhood(plan, n, i, times[s], conn[s > 0], out=h[i])
            np.matmul(h[i], (x if s else y)[i], out=k[i])
            k[i] *= -1j
            return slice(i, i + 1), k[i : i + 1]

        def link(s: int, m: int) -> tuple[slice, np.ndarray]:
            (i, j), c, dc = keys[m], (x if s else y)[links[m]], k[links[m]]
            np.matmul(h[i], c, out=dc)
            dc *= -1j
            ch = c @ h[j]
            ch *= 1j  # in place: one D x D temporary per link, not two
            dc += ch
            return links[m], dc

        def finish(rows: slice) -> None:  # the new values of one slice
            _require_finite(acc[rows], t_next, new_steps)
            psi, new_conns = _unpacked(acc[rows], max(count - (rows.start or 0), 0))
            if reunitarize and len(new_conns):
                _reunitarize(new_conns, t_next, new_steps)
            if config.renormalize:
                for v in psi:
                    v /= np.linalg.norm(v)

        groups = ((count, patch), (len(keys), link))
        waits = functools.partial(_direct_waits, count, keys)
        with np.errstate(invalid="ignore", over="ignore"):
            _rk4_job(y, (acc, x, k), config.dt, groups, waits, finish)
        return state._replace(time=t_next, steps=new_steps, packed=acc)

    def _with_pairs(self, keys: Iterable[tuple[int, int]]) -> "DirectState":
        """This state with an identity connection for each pair in keys it lacks."""
        keys = tuple(sorted(set(keys).union(self.keys)))
        packed, psi, conns = self._blank(len(keys))
        psi[...] = self.packed[: len(self.cover)]
        eye = np.eye(self.dim, dtype=np.complex128)
        for key, c in zip(keys, conns):
            c[...] = self.links.get(key, eye)
        return self._replace(packed=packed, keys=keys)

    def _layered(self, gates: dict[Patch, np.ndarray]) -> "DirectState":
        """psi_I -> A_I psi_I and U_IJ -> A_I U_IJ A_J^dag, with A_I the product of the
        gates near patch I transported into its frame (None where no gate is near)."""
        ops: list[np.ndarray | None] = []
        for i, p in enumerate(self.cover.patches):
            w = None
            for gp, g in gates.items():
                if not gp.overlaps(p):
                    continue
                j = self.cover.index(gp)
                c = None if i == j else _lift(self._connection(i, j), 0, self.n_sites - 1)
                contrib = _conjugated(g, gp, self.n_sites, c)
                w = contrib if w is None else w @ contrib
            ops.append(w)
        packed, psi, conns = self._blank()
        for a, v, out in zip(ops, self.local.values(), psi):
            out[...] = v if a is None else a @ v
        for (i, j), c, out in zip(self.keys, self.links.values(), conns):
            if ops[j] is not None:
                c = c @ ops[j].conj().T
            out[...] = c if ops[i] is None else ops[i] @ c
        return self._replace(packed=packed)

    def _collapsed(self, patch: Patch, collapsed: np.ndarray) -> "DirectState":
        # transport along the walk's tree edges keeps the consistency identity exact
        patches = self.cover.patches
        parent = self._walk(self.cover.index(patch))
        if len(parent) != len(patches):
            unreachable = [str(p) for i, p in enumerate(patches) if i not in parent]
            raise ContractError(
                "collapse cannot be transported to patches "
                + ", ".join(unreachable)
                + " (no stored connection path)"
            )
        packed, psi, conns = self._blank()
        conns[...] = _unpacked(self.packed, len(patches))[1]
        for v, u in parent.items():
            psi[v] = collapsed if v == u else self._transport(v, u, psi[u])
        return self._replace(packed=packed)


def _tree_path(parent: Mapping[int, int], i: int, j: int) -> list[int]:
    """The patches on the path from i to j in a breadth-first forest (`GaugeState._walk`)."""
    up, down = [i], [j]  # i's path to its root, then j's up to where it meets that one
    while parent[up[-1]] != up[-1]:
        up.append(parent[up[-1]])
    while down[-1] not in up:
        down.append(parent[down[-1]])
    return up[: up.index(down[-1]) + 1] + down[-2::-1]


def _unpacked(packed: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The psi rows and the (C, D, D) connection stack of a direct-mode array, as views."""
    dim = packed.shape[1]
    return packed[:count], packed[count:].reshape(-1, dim, dim)


def _oriented(
    stored: Mapping[tuple[int, int], np.ndarray], i: int, j: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The connection from patch j to patch i, given those stored under (i, j), i < j,
    and its adjoint where that is stored: c_ij and None, or conj(c_ji).T and c_ji."""
    if i < j:
        return stored[(i, j)], None
    c = stored[(j, i)]
    return c.conj().T, c


def _dressed(m: np.ndarray, left: np.ndarray | None, right: np.ndarray | None = None) -> np.ndarray:
    """left m right^dag, the read-out of a plain-gauge m; None is the identity."""
    if left is not None:
        m = left @ m
    if right is not None:
        m = m @ right.conj().T
    return m


def _dressed_window(w: Window, left: np.ndarray | None, right: np.ndarray | None = None) -> Window:
    """`_dressed` for a plain-gauge window w, multiplied through window cores."""
    if left is not None:
        w = _mul(_window(left), w)
    if right is not None:
        w = _mul(w, _dagger(_window(right)))
    return w


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def init_gauge_state(
    psi0,
    cover: PatchCover,
    mode: str = GENERATOR,
    hamiltonian: LocalHamiltonian | None = None,
) -> GaugeState:
    """The t=0 state: every patch carries psi0, all frames and connections trivial."""
    psi0 = require_normalized(psi0, cover.dim)
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    if mode == GENERATOR:
        return GeneratorState(cover, 0.0, 0, psi0.copy(), windows=(_IDENTITY,) * len(cover))
    bare = DirectState(cover, 0.0, 0, packed=np.repeat(psi0[None, :], len(cover), axis=0), keys=())
    plan = None if hamiltonian is None else hamiltonian.step_plan(cover)  # the pairs a step reads
    return bare._with_pairs(cover.overlap_pairs() if plan is None else plan.connection_keys)


# ---------------------------------------------------------------------------
# Effective (connection-dressed) neighborhood Hamiltonian
# ---------------------------------------------------------------------------


def _conjugated(
    op: np.ndarray, patch: Patch, n: int, c: np.ndarray | None, c_dag: np.ndarray | None = None
) -> np.ndarray:
    """c embed(op) c^dag, forming embed(op) only where c is None (the identity).

    c_dag, if given, is c^dag as a C-ordered array; else it is formed as one
    C-ordered copy, which apply_local reshapes without another.
    """
    if c is None:
        return embed_operator(op, patch, n)
    if c_dag is None:
        c_dag = np.conjugate(c.T, order="C")
    return c @ apply_local(op, patch, n, c_dag)


def _neighborhood(
    plan: StepPlan,
    n: int,
    i: int,
    t: float,
    conn: Callable[[int, int], tuple[np.ndarray, np.ndarray | None]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Products touching patch i at time t, transported into its frame (into out, if given).

    `conn(i, j)` is the connection c from patch j to patch i (j != i), with
    c^dag as a C-ordered array or None (see `_conjugated`); a factor placed
    on patch j enters as c @ f @ c^dag.
    """
    patches = plan.patches
    out = np.empty((2**n, 2**n), dtype=np.complex128) if out is None else out
    out.fill(0.0)
    for k in plan.touching[i]:
        prod = None
        for j, fac in plan.products[k]:
            c, c_dag = (None, None) if j == i else conn(i, j)
            w = _conjugated(fac, patches[j], n, c, c_dag)
            prod = w if prod is None else prod @ w
        coef = plan.coefficients[k]
        out += prod if coef is None else coef(t) * prod
    return out


def effective_hamiltonian(
    state: GaugeState, hml: LocalHamiltonian, patch: Patch
) -> np.ndarray:
    """Connection-dressed sum of Hamiltonian terms overlapping `patch`.

    This is the generator of the patch's local time evolution: each nearby
    term is transported into the patch's frame by the connections, and the
    sum is read out through the patch's dressing D as D H D^dag. At t=0 on an
    undressed patch it reduces to the plain neighborhood sum.
    """
    if state.cover != hml.cover:
        raise ContractError("state and Hamiltonian use different covers")
    if patch not in state.cover:
        raise ContractError(f"{patch} is not a patch of the cover")
    plan, i, n = hml.step_plan(state.cover), state.cover.index(patch), state.n_sites

    def lifted(a: int, b: int) -> tuple[np.ndarray, None]:
        return _lift(state._connection(a, b), 0, n - 1), None

    h = _neighborhood(plan, n, i, state.time, lifted)
    d = state.dressing_of(patch)
    return _dressed(h, d, d)


# ---------------------------------------------------------------------------
# Patch-parallel executor
# ---------------------------------------------------------------------------


def _default_workers() -> int:
    """Usable cores // BLAS threads, or 1 where the BLAS thread count is not pinned.

    OpenBLAS reads OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS. With neither
    set it may use every core itself, and workers on top of it oversubscribe
    them: on a 2-core VM a TFIM n = 7 step took 42 ms with 2-thread BLAS and
    2 workers, against 31 ms with 2-thread BLAS alone.
    """
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = int(value)
    except (TypeError, ValueError):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, cores // blas) if blas > 0 else 1


_WORKERS = _default_workers()  # threads sharing one `_each` call, the caller included
# Tasks on smaller matrices stay on the calling thread, where handing them out
# costs more than it saves: on a 2-core VM with one BLAS thread, a TFIM step
# with 2 workers ran at 1.63x of serial speed at D = 128, 0.80x at D = 64
# and 0.31x at D = 32.
_PARALLEL_DIM = 128


class _Job:
    """The tasks of one `_each` call, pulled by index from one shared counter.

    Task i first waits for the tasks `waits(i)` names, all below i, so the
    lowest task pulled but not ended can always run and the job cannot stall.
    A task that fails or is skipped ends like one that ran.
    """

    def __init__(
        self, count: int, task: Callable[[int], None], waits: Callable[[int], Iterable[int]] | None
    ):
        self.count, self.task, self.waits = count, task, waits
        self.lock = threading.Lock()
        self.pulled = 0  # the next index to hand out
        self.finished = 0  # indices run or skipped
        self.lowest = count  # the lowest failing index so far, and its error
        self.error: BaseException | None = None
        self.running = [threading.Lock() for _ in range(count)]  # each held until its task ends
        for lock in self.running:
            lock.acquire()
        self.done = threading.Event()

    def pull(self) -> None:
        """Run tasks until every index is handed out, skipping any past the lowest failure."""
        while True:
            with self.lock:
                i = self.pulled
                self.pulled += 1
            if i >= self.count:
                return
            try:
                for j in self.waits(i) if self.waits else ():
                    with self.running[j]:  # taken once task j has ended (an Event costs more)
                        pass
                if i < self.lowest:  # read after the waits: a failed dependency is seen
                    self.task(i)
            except BaseException as exc:  # re-raised by the caller once all have finished
                with self.lock:
                    if i < self.lowest:
                        self.lowest, self.error = i, exc
            self.running[i].release()
            with self.lock:
                self.finished += 1
                if self.finished == self.count:
                    self.done.set()


class _Pool:
    """Daemon threads serving `_Job`s from one queue, started when first needed."""

    def __init__(self):
        self.jobs: collections.deque[Callable[[], None]] = collections.deque()
        self.ready = threading.Semaphore(0)  # one release per queued job
        self.threads = 0
        self.lock = threading.Lock()

    def post(self, job: _Job, helpers: int) -> None:
        """Hand job to `helpers` threads, each under a copy of the caller's context
        (numpy's error state lives there)."""
        with self.lock:
            while self.threads < helpers:
                threading.Thread(target=self._serve, daemon=True).start()
                self.threads += 1
        for _ in range(helpers):
            self.jobs.append(functools.partial(contextvars.copy_context().run, job.pull))
        self.ready.release(helpers)

    def _serve(self) -> None:
        while self.ready.acquire():  # holds no job between jobs, so none keeps a step's arrays alive
            self.jobs.popleft()()


_pool = _Pool()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: give it a pool of its own."""
    global _pool
    _pool = _Pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _each(
    count: int,
    task: Callable[[int], None],
    dim: int,
    waits: Callable[[int], Iterable[int]] | None = None,
) -> None:
    """task(i) for every i in range(count), on up to `_WORKERS` threads.

    Each task writes only slots of its own, and task i reads only what the
    tasks waits(i), all below i, wrote. The calling thread and the pool's
    helpers pull indices from one counter, so a slow task holds up only the
    tasks that read it. Tasks on D x D matrices with D < `_PARALLEL_DIM`,
    and every task when `_WORKERS` is 1, run here in index order, which
    meets every wait. If tasks fail, the rest still finish (those past a
    failed index, or waiting on a failed task, may be skipped), and the
    error of the lowest failing index is raised, as in the serial order.
    """
    workers = min(_WORKERS, count) if dim >= _PARALLEL_DIM else 1
    if workers <= 1:
        for i in range(count):
            task(i)
        return
    job = _Job(count, task, waits)
    _pool.post(job, workers - 1)
    job.pull()
    job.done.wait()
    job.task = None  # a helper yet to take the job from the queue finds nothing to run
    if job.error is not None:
        raise job.error


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def _rk4_job(
    y: np.ndarray, scratch: Sequence, dt: float, groups: Sequence[tuple[int, Callable]],
    waits: Callable[[], Callable[[int], list[int]]], finish: Callable[[slice], None],
) -> None:
    """One RK4 step of dt from y into acc, scratch being (acc, x, k), as one `_each` job.

    Per stage s it runs each group's tasks task(s, r), r < size, in order;
    a task reads the stage input (y at s = 0, else x) and returns rows of y
    and their slope, or None. The job folds the slope into those rows
    (`rk4_update`) and at the last stage calls finish(rows); waits() gives
    its wait rule. Where D < `_PARALLEL_DIM` it runs in order here, with no
    waits, and folds each stage's slopes k into the whole array at once.
    """
    acc, x, k = scratch
    if y.shape[-1] < _PARALLEL_DIM:  # without a call per task to dispatch it
        for s in range(4):
            for size, task in groups:
                for r in range(size):
                    task(s, r)
            rk4_update(s, dt, y, acc, x, k)
        finish(slice(None))
        return
    where = [(task, r) for size, task in groups for r in range(size)]

    def run(index: int) -> None:
        s, r = divmod(index, len(where))
        task, r = where[r]
        done = task(s, r)
        if done is not None:
            rows, slope = done
            rk4_update(s, dt, y[rows], acc[rows], x[rows], slope)
            if s == 3:
                finish(rows)

    _each(4 * len(where), run, y.shape[-1], waits())


def _stage_waits(now: Sequence[Sequence[int]], before: Sequence[Sequence[int]]) -> Callable:
    """The waits of a job of len(now) tasks per RK4 stage: task r of stage s waits for
    tasks now[r] of stage s and, from s = 1, tasks before[r] of stage s - 1."""
    width = len(now)

    def waits(index: int) -> list[int]:
        s, r = divmod(index, width)
        return [s * width + q for q in now[r]] + ([(s - 1) * width + q for q in before[r]] if s else [])

    return waits


def _rk4_frames(
    plan: StepPlan,
    n: int,
    y: np.ndarray,
    t: float,
    dt: float,
    finish: Callable[[np.ndarray], None],
) -> np.ndarray:
    """One RK4 step of dt from the (P, D, D) frame stack y, for dU_I/dt = -i U_I R_I with

    R_I = sum_(products q touching I) c_q(t) prod_(J, f) U_J^dag f U_J

    over the plan's placed factors (J, f) of each product; returns the new stack.

    The step is one `_rk4_job`. Per stage it forms each product once, into
    one (K, D, D) buffer that the task waits (`_rk4_waits`) let serve every
    stage, then each frame's slope -i U_I R_I; finish gets each slice's new
    frames. A slice is one patch (also on one worker, so that the polar step
    copies one matrix at a time), or the whole stack where D < `_PARALLEL_DIM`.
    """
    count, dim = len(y), y.shape[-1]
    patches, touching = plan.patches, plan.touching
    n_prod = len(plan.products)
    whole = dim < _PARALLEL_DIM
    times = rk4_times(t, dt)
    acc = np.empty_like(y)  # the running sum, then the new frames
    # the stage inputs, the products and, for whole-stack slices, the slopes
    # (a one-patch slice's slope is its task's own matrix)
    scratch = np.empty(((2 if whole else 1) * count + n_prod, dim, dim), dtype=y.dtype)
    x, products, k = scratch[:count], scratch[count : count + n_prod], scratch[count + n_prod :]

    def product(s: int, q: int) -> None:
        frames = x if s else y
        factors, coef, slot = plan.products[q], plan.coefficients[q], products[q]
        last = len(factors) - 1
        for m, (j, fac) in enumerate(factors):
            u = frames[j]
            into = slot if m == last and coef is None else None
            w = np.matmul(u.conj().T, apply_local(fac, patches[j], n, u), out=None if m else into)
            prod = w if m == 0 else np.matmul(prod, w, out=into)
        if coef is not None:
            np.multiply(coef(times[s]), prod, out=slot)

    def frame(s: int, i: int) -> tuple[slice, np.ndarray]:
        r = None
        for q in touching[i]:
            r = products[q] if r is None else r + products[q]
        slope = k[i] if whole else np.empty((dim, dim), dtype=y.dtype)
        if r is None:
            slope[...] = 0.0
        else:
            np.matmul(x[i] if s else y[i], r, out=slope)
            slope *= -1j  # while the product is still in cache
        return slice(i, i + 1), slope

    groups = ((n_prod, product), (count, frame))
    waits = functools.partial(_rk4_waits, touching, n_prod)
    _rk4_job(y, (acc, x, k), dt, groups, waits, lambda rows: finish(acc[rows]))
    return acc


def _rk4_waits(touching: Sequence[Sequence[int]], n_prod: int) -> Callable[[int], list[int]]:
    """The tasks each task of `_rk4_frames`'s job reads: per stage, n_prod products,
    then one frame per patch. Frame i at stage s waits for the products
    touching[i] lists at stage s and for itself at s - 1. Product q at stage
    s > 0 waits for the stage-(s - 1) frames that read q: they write the
    stage inputs of q's factor patches, and they are q's slot's last readers.
    """
    readers: list[list[int]] = [[] for _ in range(n_prod)]
    for i, near in enumerate(touching, n_prod):
        for q in near:
            readers[q].append(i)
    frames = range(n_prod, n_prod + len(touching))
    return _stage_waits([()] * n_prod + list(touching), readers + [[i] for i in frames])


def _direct_waits(count: int, keys: Sequence[tuple[int, int]]) -> Callable[[int], list[int]]:
    """The tasks each task of a direct-mode step's job reads: per stage, one patch
    task per patch, then one link per key. Patch i at stage s waits for
    itself and every link whose key holds i at stage s - 1: they write each
    connection h_I reads and are h_I's slot's last readers. Link (i, j) at
    stage s waits for patches i and j at stage s.
    """
    near = [[i] + [count + m for m, key in enumerate(keys) if i in key] for i in range(count)]
    return _stage_waits([()] * count + [list(key) for key in keys], near + [()] * len(keys))


def _require_finite(a: np.ndarray, time: float, steps: int) -> None:
    if not np.all(np.isfinite(a)):
        raise DivergenceError(
            f"integration diverged (non-finite values at t={time:.6g}, "
            f"step {steps}); reduce dt"
        )


def step(
    state: GaugeState, hml: LocalHamiltonian, config: IntegratorConfig
) -> GaugeState:
    """Advance one RK4 step of config.dt, returning a new state."""
    if state.cover != hml.cover:
        raise ContractError("state and Hamiltonian use different covers")
    new_steps = state.steps + 1
    reunitarize = bool(config.reunitarize_every) and new_steps % config.reunitarize_every == 0
    return state._step(hml.step_plan(state.cover), config, reunitarize)


def _reunitarize(mats: np.ndarray, time: float, steps: int) -> None:
    """Polar re-unitarization of a (C, D, D) stack in place, in one call (a stack
    gives the bits, and raises the error, of its matrices one at a time); a
    failure there means the integration has diverged."""
    try:
        mats[...] = polar_unitary(mats)
    except ContractError as exc:
        raise DivergenceError(
            f"re-unitarization failed at t={time:.6g}, step {steps} ({exc}); reduce dt"
        ) from exc


def evolve(
    state: GaugeState,
    hml: LocalHamiltonian,
    t_final: float,
    config: IntegratorConfig,
    callback: Callable[[GaugeState], None] | None = None,
) -> GaugeState:
    """Step from state.time to t_final (shortened final step if dt does not divide).

    The clock is the start time plus the step count times dt, and the last
    step lands exactly on t_final, so no rounding accumulates over steps.
    """
    t_start = state.time
    sizes = time_grid(t_start, t_final, config.dt)
    for k, h in enumerate(sizes, start=1):
        cfg = config if h == config.dt else dc_replace(config, dt=h)
        state = step(state, hml, cfg)
        clock = t_final if k == len(sizes) else t_start + k * config.dt
        if state.time != clock:
            state = state._replace(time=clock)
        if callback is not None:
            callback(state)
    return state


# ---------------------------------------------------------------------------
# Gauge transformations and commuting layers
# ---------------------------------------------------------------------------


def gauge_transform(state: GaugeState, transform: GaugeTransform) -> GaugeState:
    """Apply a per-patch unitary frame change; all physical quantities invariant.

    Only the dressing changes: D_I -> F_I D_I for each patch the transform
    names, and the stored plain-gauge variables are shared with the input. A
    factor on a patch outside the cover is a ContractError.
    """
    for p in transform.lambdas:
        if p not in state.cover:
            raise ContractError(f"gauge factor on {p}: not a patch of the cover")
    dressing = dict(state.dressing)
    for p in transform.lambdas:
        f, d = transform.factor(p, state.n_sites), state.dressing_of(p)
        dressing[p] = f if d is None else f @ d
    return state._replace(dressing=dressing)


def require_commuting(
    gates: Sequence[tuple[Patch, np.ndarray]], tol: float, context: str = ""
) -> None:
    """Raise ContractError if two overlapping gates' commutator exceeds tol (Frobenius)."""
    for (pa, ua), (pb, ub) in itertools.combinations(gates, 2):
        if not pa.overlaps(pb):
            continue  # disjoint supports commute exactly
        union = sorted(set(pa.sites) | set(pb.sites))
        # embed both gates into the union subspace to bound the commutator
        a = embed_operator(ua, [union.index(s) for s in pa.sites], len(union))
        b = embed_operator(ub, [union.index(s) for s in pb.sites], len(union))
        defect = float(np.linalg.norm(a @ b - b @ a))
        if defect > tol:
            raise ContractError(
                f"{context}gates on {pa} and {pb} do not commute (defect {defect:.3e})"
            )


def apply_commuting_layer(
    state: GaugeState,
    gates: Mapping[Patch, np.ndarray],
    commutation_tol: float = 1e-10,
) -> GaugeState:
    """Apply one layer of mutually commuting patch-supported unitaries.

    Each patch overlapping a gate is updated by the product of nearby gates
    transported into its frame; connections between updated patches are
    conjugated accordingly. Patches away from every gate are untouched.

    In generator mode each frame is read and stored as its window, the core
    of a frame that is exactly the identity outside a range of sites, and two
    windows are multiplied over their shared sites (`lattice._mul`), so the
    frames of a brickwork circuit from `init_gauge_state` cost products of
    the size of their light cones, not D x D ones, until a cone spans the
    chain. Such a layer holds its input and output windows plus window-sized
    temporaries, and no D x D matrix. A product of two cores spanning the
    chain is the dense one, and a layer of those holds, next to the frames,
    at most s + 1 D x D temporaries, s sandwiches V^dag G V and the running
    product U S_1 S_2 ... of a patch (s + 2 where a window short of the
    chain enters a product spanning it), s being the most sandwiches alive
    at once: each is formed when the first patch needs it and freed after
    the last (s = 2 on a chain brickwork).
    """
    checked: dict[Patch, np.ndarray] = {}  # in sorted patch order
    for patch in sorted(gates):
        if patch not in state.cover:
            raise ContractError(f"gate patch {patch} is not a cover patch")
        op = require_unitary(gates[patch], what=f"gate on {patch}")
        if op.shape[0] != patch.dim:
            raise ContractError(
                f"gate on {patch} has dim {op.shape[0]}, expected {patch.dim}"
            )
        checked[patch] = op
    require_commuting(list(checked.items()), commutation_tol)
    return state._layered(checked)
