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

Within a step, every per-patch derivative reads the same frozen stage
snapshot, so evaluation order is immaterial; states are never mutated in
place and observable queries are read-only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass, replace as dc_replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError, DivergenceError
from .hamiltonian import LocalHamiltonian, StepPlan
from .integrate import rk4_step, time_grid
from .lattice import (
    Patch,
    PatchCover,
    Window,
    _hull,
    _lift,
    _mul,
    _window,
    apply_local,
    embed_operator,
    operator_support,
)
from .linalg import as_state, polar_unitary, require_unitary, unitarity_defect

GENERATOR = "generator"
DIRECT = "direct"
MODES = (GENERATOR, DIRECT)
COCYCLE_TRIPLES = 40  # patch triples composed by the diagnostics cocycle sweep


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings."""

    dt: float = 1e-3
    reunitarize_every: int = 100  # 0 disables drift correction
    renormalize: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ContractError(f"dt must be positive and finite, got {self.dt}")
        if self.reunitarize_every < 0:
            raise ContractError("reunitarize_every must be >= 0")


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

    consistency: float  # max over pairs ||U_IJ psi_J - psi_I||
    cocycle: float  # max over triples ||U_IJ U_JK - U_IK||_F
    unitarity: float  # max ||U^dag U - 1||_F over frames/connections, via window cores
    norm: float  # max | ||psi_I|| - 1 |

    def as_dict(self) -> dict:
        return asdict(self)


class GaugeState:
    """Local wavefunctions plus frame/connection unitaries on a patch cover.

    The base of `GeneratorState` and `DirectState`, which own all arithmetic
    on their variables (the ones a mode does not store read None). Treat
    instances as immutable: evolution and transformation functions return new
    states. Observable queries are read-only.
    """

    mode: str  # class constant of each mode
    _fields = ("cover", "time", "steps", "dressing")  # constructor arguments
    frame_stack: np.ndarray | None = None
    base: np.ndarray | None = None
    connections: dict[tuple[int, int], np.ndarray] | None = None

    def __init__(
        self,
        cover: PatchCover,
        time: float,
        steps: int,
        psi: dict[Patch, np.ndarray],
        dressing: dict[Patch, np.ndarray] | None = None,
    ):
        self.cover = cover
        self.time = float(time)
        self.steps = int(steps)
        self.psi = psi
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

    @property
    def frames(self) -> dict[Patch, np.ndarray] | None:
        """Each patch's frame unitary, as a view into `frame_stack`."""
        if self.frame_stack is None:
            return None
        return dict(zip(self.cover.patches, self.frame_stack))

    def dressing_of(self, patch: Patch) -> np.ndarray | None:
        """Accumulated frame change relative to the plain-operator gauge, or None."""
        return self.dressing.get(patch)

    def connection(self, a: Patch, b: Patch) -> np.ndarray:
        """The unitary transporting patch b's wavefunction to patch a's frame."""
        ia = self.cover.index(a)
        ib = self.cover.index(b)
        if ia == ib:
            return np.eye(self.dim, dtype=np.complex128)
        return self._connection(ia, ib)

    # -- observables -----------------------------------------------------

    def _dressed_apply(self, patch: Patch, op: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Apply the patch's picture operator for Schroedinger operator `op` to vec."""
        op = np.asarray(op, dtype=np.complex128)
        d = self.dressing_of(patch)
        w = vec if d is None else d.conj().T @ vec
        if op.shape[0] == patch.dim and patch.dim != self.dim:
            w = apply_local(op, patch, self.n_sites, w)
        elif op.shape[0] == self.dim:
            support = operator_support(op)
            if not support <= set(patch.sites):
                raise ContractError(
                    f"operator support {sorted(support)} leaks outside {patch}"
                )
            w = op @ w
        else:
            raise ContractError(
                f"operator dim {op.shape[0]} matches neither {patch} nor the chain"
            )
        return w if d is None else d @ w

    def local_expectation(self, patch: Patch, op: np.ndarray) -> complex:
        """<psi_I| A |psi_I> for A supported inside patch I (Schroedinger form)."""
        if patch not in self.cover:
            raise ContractError(f"{patch} is not a patch of the cover")
        psi = self.psi[patch]
        return complex(np.vdot(psi, self._dressed_apply(patch, op, psi)))

    def correlator(self, chain: Sequence[tuple[Patch, np.ndarray]]) -> complex:
        """<psi_{I_1}| A_1 U_{I_1 I_2} A_2 ... A_m |psi_{I_m}> for patch-supported A_k."""
        if not chain:
            raise ContractError("correlator needs at least one (patch, operator) pair")
        patches = [p for p, _ in chain]
        for p in patches:
            if p not in self.cover:
                raise ContractError(f"{p} is not a patch of the cover")
        vec = self._dressed_apply(patches[-1], chain[-1][1], self.psi[patches[-1]])
        for (patch, op), nxt in zip(reversed(chain[:-1]), reversed(patches[1:])):
            vec = self.connection(patch, nxt) @ vec
            vec = self._dressed_apply(patch, op, vec)
        return complex(np.vdot(self.psi[patches[0]], vec))

    # -- diagnostics -------------------------------------------------------

    def consistency(self) -> float:
        """max over pairs ||U_IJ psi_J - psi_I||; no unitarity, norm or cocycle sweep."""
        psi = [self.psi[p] for p in self.cover.patches]
        consistency = 0.0
        for i, w in self._transported(psi):
            consistency = max(consistency, float(np.linalg.norm(w - psi[i])))
        return consistency

    def diagnostics(self, include_cocycle: bool = True) -> DefectReport:
        """Identity defects; the cocycle sweep covers the first COCYCLE_TRIPLES triples.

        The unitarity sweep reads each frame or connection through its window
        core (`lattice._window`): for M = 1 (x) C (x) 1 with a c x c core,
        ||M^dag M - 1||_F = sqrt(D / c) ||C^dag C - 1||_F, so a window-local
        matrix costs a c x c Gram instead of a D x D one. A dense matrix is its
        own core (scale 1.0), and its defect keeps the dense formula's bits.
        """
        patches = self.cover.patches
        consistency = self.consistency()
        unitarity = 0.0
        for m in self._unitarity_matrices():
            _, _, core = _window(m)
            unitarity = max(unitarity, (self.dim / core.shape[0]) ** 0.5 * unitarity_defect(core))
        norm = max(
            abs(float(np.linalg.norm(v)) - 1.0) for v in self.psi.values()
        )
        cocycle = 0.0
        if include_cocycle and len(patches) >= 3:
            triples = itertools.islice(
                itertools.combinations(range(len(patches)), 3), COCYCLE_TRIPLES
            )
            for i, j, k in triples:
                try:
                    c_ij = self.connection(patches[i], patches[j])
                    c_jk = self.connection(patches[j], patches[k])
                    c_ik = self.connection(patches[i], patches[k])
                except ContractError:
                    continue  # disconnected pair graph: no loop to test
                cocycle = max(
                    cocycle, float(np.linalg.norm(c_ij @ c_jk - c_ik))
                )
        return DefectReport(
            consistency=consistency,
            cocycle=cocycle,
            unitarity=unitarity,
            norm=norm,
        )


class GeneratorState(GaugeState):
    """Generator mode: one frame unitary U_I per patch and psi_I = U_I base.

    The frames are one (P, D, D) array, `frame_stack`, in cover order;
    `frames` maps each patch to its view. Connections are U_I U_J^dag.
    """

    mode = GENERATOR
    _fields = GaugeState._fields + ("psi", "frame_stack", "base")

    def __init__(self, cover, time, steps, psi, frame_stack, base, dressing=None):
        super().__init__(cover, time, steps, psi, dressing)
        self.frame_stack = frame_stack
        self.base = base

    def _with_frames(self, frames: np.ndarray, **kw) -> "GeneratorState":
        psi = dict(zip(self.cover.patches, frames @ self.base))
        return self._replace(frame_stack=frames, psi=psi, **kw)

    def _connection(self, i: int, j: int) -> np.ndarray:
        """U_I U_J^dag, multiplied through the frames' window cores on their hull."""
        n = self.n_sites
        lo, hi, core = _window(self.frame_stack[j])
        return _lift(_mul(_window(self.frame_stack[i]), (lo, hi, core.conj().T), n), 0, n - 1)

    def _transported(self, psi: list[np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
        """(i, U_I U_J^dag psi_J) for every pair i < j, with U_J^dag psi_J formed once per J."""
        frames = self.frame_stack
        pulled = [u.conj().T @ v for u, v in zip(frames, psi)]
        for i, j in itertools.combinations(range(len(psi)), 2):
            yield i, frames[i] @ pulled[j]

    def _unitarity_matrices(self) -> Iterable[np.ndarray]:
        return self.frame_stack

    def _step(self, plan: StepPlan, config: IntegratorConfig, reunitarize: bool) -> "GeneratorState":
        t_next = self.time + config.dt
        new_steps = self.steps + 1
        dress = [self.dressing_of(p) for p in plan.patches]
        with np.errstate(invalid="ignore", over="ignore"):
            frames = rk4_step(
                self.frame_stack,
                self.time,
                config.dt,
                functools.partial(_frame_rhs, plan, self.n_sites, dress),
            )
        _require_finite(frames, t_next, new_steps)
        if reunitarize:
            frames = _reunitarized(frames, t_next, new_steps)
        psi = frames @ self.base
        if config.renormalize:
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        return self._replace(
            time=t_next, steps=new_steps, psi=dict(zip(plan.patches, psi)), frame_stack=frames
        )

    def _transformed(self, factors: list[np.ndarray | None], dressing: dict) -> "GeneratorState":
        """U_I -> F_I U_I; None stands for the identity and keeps the frame."""
        frames = np.empty_like(self.frame_stack)
        for f, u, out in zip(factors, self.frame_stack, frames):
            if f is None:
                out[...] = u
            else:
                np.matmul(f, u, out=out)
        return self._with_frames(frames, dressing=dressing)

    def _layered(self, gates: dict[Patch, np.ndarray]) -> "GeneratorState":
        """U_I -> U_I prod_(gates g near I) S_g, with S_g = V_g^dag G V_g and V = D^dag U.

        Every factor is window-local, exactly 1 (x) core (x) 1 with its core on
        a range of sites (`_window`; a dressed frame counts as spanning the
        chain). S_g is formed on the hull of V_g's range and g's sites, and a
        patch's product on the hull of its own range and its factors', in the
        eager formula's order: the near sandwiches left to right into W, then
        U W (a gate's own patch takes D G V W). A hull short of the chain is
        multiplied at its own size and written into the frame slot.

        A hull spanning the chain is the dense product of D x D lifts: G V is
        written into the slot and S_g is formed from it when the first patch
        needs it and freed after the last, so on a chain at most two
        sandwiches (or lifts) and one scratch matrix are alive next to the
        two frame stacks.
        """
        cover, n, old = self.cover, self.n_sites, self.frame_stack
        patches = cover.patches
        frames = np.empty_like(old)
        near = [[gp for gp in gates if gp != p and gp.overlaps(p)] for p in patches]
        users = {gp: sum(gp in nr for nr in near) for gp in gates}  # yet to multiply by S_g

        @functools.cache
        def window(i: int) -> Window:
            if self.dressing_of(patches[i]) is None:
                return _window(old[i])
            return 0, n - 1, old[i]

        own: dict[Patch, Window | None] = {}  # D G V of each gate patch; None: in its slot
        sandwiches: dict[Patch, Window] = {}
        for gp, g in gates.items():
            j = cover.index(gp)
            d = self.dressing_of(gp)
            lo, hi = _hull(window(j), (gp.sites[0], gp.sites[-1]))
            if d is not None:
                v = d.conj().T @ old[j]
                gv = apply_local(g, gp, n, v)
                if users[gp]:  # G V is not kept, so S_g is formed now
                    sandwiches[gp] = (0, n - 1, v.conj().T @ gv)
                np.matmul(d, gv, out=frames[j])
                own[gp] = None
            elif hi - lo + 1 == n:
                apply_local(g, gp, n, old[j], out=frames[j])  # G V, read again by S_g
                own[gp] = None
            else:
                v = _lift(window(j), lo, hi)
                gv = apply_local(g, [s - lo for s in gp.sites], hi - lo + 1, v)
                own[gp] = (lo, hi, gv)
                if users[gp]:
                    sandwiches[gp] = (lo, hi, v.conj().T @ gv)
        scratch = np.empty_like(old[0])  # conj(V), then a patch's product of sandwiches

        def sandwich(gp: Patch) -> Window:
            if gp not in sandwiches:
                j = cover.index(gp)
                np.conjugate(old[j], out=scratch)
                sandwiches[gp] = (0, n - 1, scratch.T @ frames[j])
            return sandwiches[gp]

        for i, p in enumerate(patches):
            slot = frames[i]
            if not near[i]:
                if p not in gates:
                    slot[...] = old[i]
                elif own[p] is not None:
                    _lift(own.pop(p), 0, n - 1, out=slot)
                continue
            if users.get(p):
                sandwich(p)  # read G V before the slot is overwritten below
            mats = [sandwich(gp) for gp in near[i]]
            w = mats[0]
            for s in mats[1:]:
                w = _mul(w, s, n, out=scratch)
            if p in gates:  # G V may sit in the slot, so the product is not written there
                left, out = own.pop(p) or (0, n - 1, slot), None
            else:
                left, out = window(i), slot
                if _hull(left, w) == (0, n - 1):
                    left = (0, n - 1, old[i])  # the frame is its own lift
            _lift(_mul(left, w, n, out=out), 0, n - 1, out=slot)
            for gp in near[i]:
                users[gp] -= 1
                if not users[gp]:
                    del sandwiches[gp]
            del mats, w  # a sandwich past its last user is freed here
        return self._with_frames(frames)

    def _collapsed(self, patch: Patch, collapsed: np.ndarray) -> "GeneratorState":
        new_base = self.frame_stack[self.cover.index(patch)].conj().T @ collapsed
        psi = dict(zip(self.cover.patches, self.frame_stack @ new_base))
        psi[patch] = collapsed
        return self._replace(psi=psi, base=new_base)


class DirectState(GaugeState):
    """Direct mode: psi_I and the connections of linked pairs, integrated verbatim.

    Both live in one (P + C D, D) array, `packed`: rows :P hold psi in cover
    order, the rest the (C, D, D) connection stack in the sorted order of
    `keys`; `psi` and `connections` map each patch and key to its view. Key
    (i, j), i < j, holds the unitary taking patch j's wavefunction to patch
    i's frame; other pairs chain stored connections along one breadth-first
    walk.
    """

    mode = DIRECT
    _fields = GaugeState._fields + ("packed", "keys")

    def __init__(self, cover, time, steps, packed, keys, dressing=None):
        psi, conns = _unpacked(packed, len(cover))
        super().__init__(cover, time, steps, dict(zip(cover.patches, psi)), dressing)
        self.packed = packed
        self.keys = tuple(keys)
        self.connections = dict(zip(self.keys, conns))

    def _blank(self, n_conn: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A fresh array of this layout (with n_conn connections), and its views."""
        count, dim = len(self.cover), self.dim
        n_conn = len(self.keys) if n_conn is None else n_conn
        packed = np.empty((count + n_conn * dim, dim), dtype=np.complex128)
        return (packed, *_unpacked(packed, count))

    def _walk(self, root: int) -> dict[int, int]:
        """Breadth-first parent of each patch reachable from root through stored
        connections, in discovery order; the root is its own parent."""
        graph: dict[int, list[int]] = {i: [] for i in range(len(self.cover))}
        for i, j in self.keys:
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

    def _connection(self, i: int, j: int) -> np.ndarray:
        parent = self._walk(i)  # a stored (i, j) is found as the one-link path
        if j not in parent:
            raise ContractError(
                f"patches {self.cover.patches[i]} and {self.cover.patches[j]} "
                "are not linked by any chain of stored connections"
            )
        path = [j]
        while path[-1] != i:
            path.append(parent[path[-1]])
        path.reverse()
        out = _oriented(self.connections, path[0], path[1])
        for u, v in zip(path[1:], path[2:]):
            out = out @ _oriented(self.connections, u, v)
        return out

    def _transported(self, psi: list[np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
        """(i, U_IJ psi_J) for every stored connection (i, j)."""
        for (i, j), c in self.connections.items():
            yield i, c @ psi[j]

    def _transport(self, i: int, j: int, vec: np.ndarray) -> np.ndarray:
        return _oriented(self.connections, i, j) @ vec

    def _unitarity_matrices(self) -> Iterable[np.ndarray]:
        return self.connections.values()

    def _step(self, plan: StepPlan, config: IntegratorConfig, reunitarize: bool) -> "DirectState":
        count = len(plan.patches)
        t_next = self.time + config.dt
        new_steps = self.steps + 1
        dress = [self.dressing_of(p) for p in plan.patches]
        state = self
        if not self.connections.keys() >= set(plan.connection_keys):
            if self.steps or self.time:
                raise ContractError(
                    "direct-mode state lacks connections required by this "
                    "Hamiltonian; initialize with init_gauge_state(..., hamiltonian=...)"
                )
            state = self._with_pairs(plan.connection_keys)
        keys = state.keys

        def rhs(t: float, y: np.ndarray, out: np.ndarray) -> None:
            psi, conns = _unpacked(y, count)
            dpsi, dconns = _unpacked(out, count)
            conn = functools.partial(_oriented, dict(zip(keys, conns)))
            h_eff = [_neighborhood(plan, self.n_sites, dress, i, t, conn) for i in range(count)]
            for h, v, dv in zip(h_eff, psi, dpsi):
                np.matmul(h, v, out=dv)
                dv *= -1j
            for (i, j), c, dc in zip(keys, conns, dconns):
                np.matmul(h_eff[i], c, out=dc)
                dc *= -1j
                dc += 1j * (c @ h_eff[j])

        with np.errstate(invalid="ignore", over="ignore"):
            y = rk4_step(state.packed, self.time, config.dt, rhs)
        _require_finite(y, t_next, new_steps)
        psi, conns = _unpacked(y, count)
        if reunitarize:
            conns[...] = _reunitarized(conns, t_next, new_steps)
        if config.renormalize:
            for v in psi:
                v /= np.linalg.norm(v)
        return state._replace(time=t_next, steps=new_steps, packed=y)

    def _with_pairs(self, keys: Iterable[tuple[int, int]]) -> "DirectState":
        """This state with an identity connection for each pair in keys it lacks."""
        keys = tuple(sorted(set(keys).union(self.keys)))
        packed, psi, conns = self._blank(len(keys))
        psi[...] = self.packed[: len(self.cover)]
        eye = np.eye(self.dim, dtype=np.complex128)
        for key, c in zip(keys, conns):
            c[...] = self.connections.get(key, eye)
        return self._replace(packed=packed, keys=keys)

    def _rotated(self, ops: Sequence[np.ndarray | None], **kw) -> "DirectState":
        """psi_I -> A_I psi_I and U_IJ -> A_I U_IJ A_J^dag; None stands for the identity."""
        packed, psi, conns = self._blank()
        for a, v, out in zip(ops, self.psi.values(), psi):
            out[...] = v if a is None else a @ v
        for (i, j), c, out in zip(self.keys, self.connections.values(), conns):
            if ops[j] is not None:
                c = c @ ops[j].conj().T
            out[...] = c if ops[i] is None else ops[i] @ c
        return self._replace(packed=packed, **kw)

    def _transformed(self, factors: list[np.ndarray | None], dressing: dict) -> "DirectState":
        return self._rotated(factors, dressing=dressing)

    def _layered(self, gates: dict[Patch, np.ndarray]) -> "DirectState":
        # the transported layer unitary per patch
        patches = self.cover.patches
        layer_ops: list[np.ndarray | None] = []
        for i, p in enumerate(patches):
            w = None
            for gp, g in gates.items():
                if not gp.overlaps(p):
                    continue
                j = self.cover.index(gp)
                c = None if i == j else self._connection(i, j)
                contrib = _conjugated(g, gp, self.n_sites, c, self.dressing_of(gp))
                w = contrib if w is None else w @ contrib
            layer_ops.append(w)
        return self._rotated(layer_ops)

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


def _unpacked(packed: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The psi rows and the (C, D, D) connection stack of a direct-mode array, as views."""
    dim = packed.shape[1]
    return packed[:count], packed[count:].reshape(-1, dim, dim)


def _oriented(stored: Mapping[tuple[int, int], np.ndarray], i: int, j: int) -> np.ndarray:
    """The connection from patch j to patch i, given those stored under (i, j), i < j."""
    c = stored[(min(i, j), max(i, j))]
    return c if i < j else c.conj().T


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def required_pairs(cover: PatchCover, hml: LocalHamiltonian | None) -> set[tuple[int, int]]:
    """Connection pairs the direct-mode equations of motion will read."""
    if hml is None:
        return set(cover.overlap_pairs())
    return set(hml.step_plan(cover).connection_keys)


def init_gauge_state(
    psi0,
    cover: PatchCover,
    mode: str = GENERATOR,
    hamiltonian: LocalHamiltonian | None = None,
) -> GaugeState:
    """The t=0 state: every patch carries psi0, all frames and connections trivial."""
    psi0 = as_state(psi0)
    if psi0.shape[0] != cover.dim:
        raise ContractError(f"psi0 dim {psi0.shape[0]} != 2^{cover.n_sites}")
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > 1e-10:
        raise ContractError(f"psi0 must be normalized, got norm {norm!r}")
    if mode not in MODES:
        raise ContractError(f"unknown mode {mode!r}")
    psi = np.repeat(psi0[None, :], len(cover), axis=0)
    if mode == DIRECT:
        bare = DirectState(cover, 0.0, 0, packed=psi, keys=())
        return bare._with_pairs(required_pairs(cover, hamiltonian))
    frames = np.repeat(np.eye(cover.dim, dtype=np.complex128)[None], len(cover), axis=0)
    psi = dict(zip(cover.patches, psi))
    return GeneratorState(cover, 0.0, 0, psi, frame_stack=frames, base=psi0.copy())


# ---------------------------------------------------------------------------
# Effective (connection-dressed) neighborhood Hamiltonian
# ---------------------------------------------------------------------------


def _conjugated(
    op: np.ndarray, patch: Patch, n: int, c: np.ndarray | None, d: np.ndarray | None
) -> np.ndarray:
    """(c d) embed(op) (c d)^dag without forming embed(op); None stands for the identity."""
    if d is not None:
        c = d if c is None else c @ d
    if c is None:
        return apply_local(op, patch, n, np.eye(2**n, dtype=np.complex128))
    return c @ apply_local(op, patch, n, c.conj().T)


def _neighborhood(
    plan: StepPlan,
    n: int,
    dress: Sequence[np.ndarray | None],
    i: int,
    t: float,
    conn: Callable[[int, int], np.ndarray],
) -> np.ndarray:
    """Products touching patch i at time t, transported into its frame.

    `conn(i, j)` is the connection from patch j to patch i (j != i); a factor
    placed on patch j enters as c @ D_j f D_j^dag @ c^dag.
    """
    patches = plan.patches
    out = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k in plan.touching[i]:
        prod = None
        for j, fac in plan.products[k]:
            c = None if j == i else conn(i, j)
            w = _conjugated(fac, patches[j], n, c, dress[j])
            prod = w if prod is None else prod @ w
        coef = plan.coefficients[k]
        out += prod if coef is None else coef(t) * prod
    return out


def effective_hamiltonian(
    state: GaugeState, hml: LocalHamiltonian, patch: Patch
) -> np.ndarray:
    """Connection-dressed sum of Hamiltonian terms overlapping `patch`.

    This is the generator of the patch's local time evolution: each nearby
    term is transported into the patch's frame by the connections. At t=0 it
    reduces to the plain neighborhood sum.
    """
    if state.cover != hml.cover:
        raise ContractError("state and Hamiltonian use different covers")
    if patch not in state.cover:
        raise ContractError(f"{patch} is not a patch of the cover")
    plan = hml.step_plan(state.cover)
    patches = plan.patches
    return _neighborhood(
        plan,
        state.n_sites,
        [state.dressing_of(p) for p in patches],
        state.cover.index(patch),
        state.time,
        lambda i, j: state.connection(patches[i], patches[j]),
    )


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def _frame_rhs(
    plan: StepPlan, n: int, dress: Sequence, t: float, frames: np.ndarray, dframes: np.ndarray
) -> None:
    """Write dU/dt for the (P, D, D) frame stack into dframes: dU_I = -i U_I R_I, where

    R_I = sum_(products k touching I) c_k(t) prod_(J, f) V_J^dag f V_J

    over the plan's placed factors (J, f) of each product, with V_J = D_J^dag U_J.
    Each product is formed once and shared by all patches it touches.
    """
    views = frames
    if any(d is not None for d in dress):
        views = frames.copy()
        for i, d in enumerate(dress):
            if d is not None:
                views[i] = d.conj().T @ frames[i]
    patches = plan.patches
    products = []
    for placed, coef in zip(plan.products, plan.coefficients):
        prod = None
        for j, fac in placed:
            v = views[j]
            w = v.conj().T @ apply_local(fac, patches[j], n, v)
            prod = w if prod is None else prod @ w
        products.append(prod if coef is None else coef(t) * prod)
    for i, near in enumerate(plan.touching):
        r = None
        for k in near:
            r = products[k] if r is None else r + products[k]
        if r is None:
            dframes[i] = 0.0
        else:
            np.matmul(frames[i], r, out=dframes[i])
            dframes[i] *= -1j  # while the product is still in cache


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


def _reunitarized(mats: np.ndarray, time: float, steps: int) -> np.ndarray:
    """Polar re-unitarization; a failure there means the integration has diverged."""
    try:
        return polar_unitary(mats)
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

    Patches the transform does not name keep their frames and dressing; a
    factor on a patch outside the cover is a ContractError.
    """
    for p in transform.lambdas:
        if p not in state.cover:
            raise ContractError(f"gauge factor on {p}: not a patch of the cover")
    n = state.n_sites
    factors = [
        transform.factor(p, n) if p in transform.lambdas else None for p in state.cover.patches
    ]
    new_dressing = dict(state.dressing)
    for p, f in zip(state.cover.patches, factors):
        if f is not None:
            d = state.dressing_of(p)
            new_dressing[p] = f if d is None else f @ d
    return state._transformed(factors, new_dressing)


def require_commuting(
    gates: Sequence[tuple[Patch, np.ndarray]], tol: float, context: str = ""
) -> None:
    """Raise ContractError if two overlapping gates' commutator exceeds tol (Frobenius)."""
    for (pa, ua), (pb, ub) in itertools.combinations(gates, 2):
        if not pa.overlaps(pb):
            continue  # disjoint supports commute exactly
        union = sorted(set(pa.sites) | set(pb.sites))
        k = len(union)
        eye = np.eye(2**k, dtype=np.complex128)
        # embed both gates into the union subspace to bound the commutator
        a = apply_local(ua, [union.index(s) for s in pa.sites], k, eye)
        b = apply_local(ub, [union.index(s) for s in pb.sites], k, eye)
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

    In generator mode every product is formed on the smallest range of sites
    that holds its factors: a frame that is exactly the identity outside a
    window of sites is multiplied through its window's core, so the frames
    of a brickwork circuit from `init_gauge_state` cost products of the size
    of their light cones, not D x D ones, until a cone spans the chain. Such
    a layer holds the two frame stacks plus window-sized temporaries and one
    D x D scratch matrix. A product spanning the chain is the dense one, and
    a layer of those holds the two stacks plus (s + 1) D x D matrices, s
    being the most gate sandwiches V^dag G V alive at once: each is formed
    when the first patch needs it and freed after the last (s = 2 on a
    chain brickwork).
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
