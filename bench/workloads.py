"""The benchmark's workloads: seeded inputs, a set-up, and one checked body.

Each body is the time to a result that has been checked against an exact
oracle, so its checks run inside the timed region. Every input (initial
product state or bitstring, brickwork gates, measured site and measurement
RNG) is drawn from the generator the caller passes, which run.py seeds
from ``--seed``; the program receives only these generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

import gaugesim as gs
from gaugesim.hamiltonian import pauli_on

ORACLE_TOL = 1e-6  # local observables against schrodinger_evolve (configs/validate_*)
EXACT_TOL = 1e-8  # circuit_reference and measurement-probability gaps (configs/)
FRAME_TOL = 1e-5  # frames against reference_gauge_state
SUPPORT_TOL = 1e-12  # light-cone audit support threshold (configs/circuit_audit_n10.json)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    model: str
    params: dict
    observables: tuple[tuple[str, tuple[int, ...]], ...]
    mode: str = gs.GENERATOR
    reunitarize_every: int = 1
    times: tuple[float, ...] = ()  # oracle validation times; empty for the circuit
    bitstring_start: bool = False
    frame_check: bool = False
    measure: bool = False
    depth: int = 0  # brickwork depth; 0 for the evolve workloads
    audit_patches: tuple[tuple[int, int], ...] = ()
    setups: int = 5

    @property
    def is_circuit(self) -> bool:
        return self.depth > 0


TFIM = {"j": 1.0, "g": 1.0}
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tfim-gen-n4",
            why="16x16 frames: a step is Python dispatch, not BLAS; shows overhead "
            "cuts and batching that costs small n",
            n=4,
            model="tfim",
            params=TFIM,
            observables=(("Z", (1,)), ("X", (2,)), ("ZZ", (1, 2))),
            times=(0.5, 1.0, 1.5, 2.0),
        ),
        Workload(
            name="tfim-gen-n7",
            why="128x128 GEMMs dominate: RHS sandwiches, frame products and polar "
            "re-unitarization every step; no direct-mode or circuit code",
            n=7,
            model="tfim",
            params=TFIM,
            observables=(("Z", (2,)), ("X", (3,)), ("ZZ", (2, 3)), ("ZZ", (4, 5))),
            times=(0.04, 0.08, 0.12),
            frame_check=True,
        ),
        Workload(
            name="heis-direct-n7",
            why="direct mode: dense c H c^dag conjugations dominate and polar runs "
            "once per 100 steps; a generator-only change must not move it",
            n=7,
            model="heisenberg",
            params={"jx": 1.0, "jy": 1.0, "jz": 0.5},
            observables=(("Z", (0,)), ("Z", (2,)), ("ZZ", (3, 4))),
            mode=gs.DIRECT,
            reunitarize_every=100,
            times=(0.04, 0.08, 0.12),
            bitstring_start=True,
            measure=True,
        ),
        Workload(
            name="circuit-gen-n10",
            why="1024-dim out-of-L2 GEMMs in commuting layers, oracle, audits and "
            "diagnostics, no RK or polar work; sets the peak RSS",
            n=10,
            model="tfim",
            params=TFIM,
            observables=(("ZZ", (4, 5)), ("X", (5,)), ("Z", (6,))),
            depth=3,
            audit_patches=((4, 5), (6, 7)),
            measure=True,
            setups=3,
        ),
    )
}


def smoke(wl: Workload) -> Workload:
    """The same workload shrunk to n=3-4 and a few dozen steps, for the self-test."""
    n = 4 if wl.mode == gs.GENERATOR and not wl.is_circuit else 3
    return replace(
        wl,
        n=n,
        observables=(("Z", (1,)), ("X", (2,)), ("ZZ", (1, 2))),
        times=(0.02, 0.04) if wl.times else (),
        reunitarize_every=min(wl.reunitarize_every, 10),
        audit_patches=((1, 2),) if wl.is_circuit else (),
        setups=2,
    )


class Checks:
    """Correctness checks attempted and failed; an exception counts as a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Prepared:
    """What set-up leaves for the bodies: the model and the integrator settings."""

    hml: gs.LocalHamiltonian
    config: gs.IntegratorConfig


@dataclass
class Body:
    """Timings of one checked body."""

    run_s: float
    stepping_s: float  # time inside evolve (RK steps) or run_circuit (layers)
    step_s: list[float] = field(default_factory=list)  # one entry per RK step or layer
    state_mb: float = 0.0
    values: list[float] = field(default_factory=list)  # checked outputs, in check order


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def initial_state(wl: Workload, rng: np.random.Generator) -> np.ndarray:
    """A random product state, or a computational basis state with n//2 ones."""
    if wl.bitstring_start:
        bits = np.zeros(wl.n, dtype=int)
        bits[rng.permutation(wl.n)[: wl.n // 2]] = 1
        psi = np.zeros(2**wl.n, dtype=np.complex128)
        psi[int(sum(int(b) << s for s, b in enumerate(bits)))] = 1.0
        return psi
    psi = np.ones(1, dtype=np.complex128)
    for _site in range(wl.n):  # site 0 is the least significant bit: kron it last
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(v / np.linalg.norm(v), psi)
    return psi / np.linalg.norm(psi)


def _host_patch(sites: tuple[int, ...], n: int) -> gs.Patch:
    """The nearest-neighbour cover patch holding `sites`."""
    lo = min(sites[0], n - 2)
    return gs.Patch((lo, lo + 1))


def _observables(wl: Workload) -> list[tuple[gs.Patch, np.ndarray]]:
    out = []
    for labels, sites in wl.observables:
        patch = _host_patch(sites, wl.n)
        out.append((patch, pauli_on(labels, sites, patch)))
    return out


def _oracle_gap(state, psi_ref, wl: Workload, values: list[float]) -> float:
    """Largest gap between local observables and the oracle state's values."""
    gap = 0.0
    for patch, op in _observables(wl):
        ref = np.vdot(psi_ref, gs.embed_operator(op, patch, wl.n) @ psi_ref)
        value = state.local_expectation(patch, op)
        values.extend((value.real, value.imag))
        gap = max(gap, abs(value - ref))
    return gap


def _state_mb(state: gs.GaugeState) -> float:
    """Computed size of the frames, connections and psi of a state."""
    arrays = list(state.psi.values())
    arrays += list((state.frames or {}).values()) + list((state.connections or {}).values())
    return sum(a.nbytes for a in arrays) / 2**20


# ---------------------------------------------------------------------------
# Set-up and bodies
# ---------------------------------------------------------------------------


def setup(wl: Workload, rng: np.random.Generator) -> Prepared:
    """Build the model, initialize a state and take one warm-up step or layer."""
    hml = gs.build_model(wl.model, wl.n, wl.params)
    config = gs.IntegratorConfig(dt=1e-3, reunitarize_every=wl.reunitarize_every)
    state = gs.init_gauge_state(initial_state(wl, rng), hml.cover, mode=wl.mode, hamiltonian=hml)
    if wl.is_circuit:
        gs.run_circuit(state, gs.brickwork(wl.n, 1, gate_source=rng))
    else:
        gs.evolve(state, hml, config.dt, config)
    return Prepared(hml=hml, config=config)


def body(wl: Workload, prep: Prepared, rng: np.random.Generator, checks: Checks) -> Body:
    """One checked run on fresh seeded inputs."""
    psi0 = initial_state(wl, rng)
    circuit = gs.brickwork(wl.n, wl.depth, gate_source=rng) if wl.is_circuit else None
    measured_site = int(rng.integers(0, wl.n - 1))
    measure_seed = int(rng.integers(2**32))
    if circuit is not None:
        return _circuit_body(wl, prep, psi0, circuit, measured_site, measure_seed, checks)
    return _evolve_body(wl, prep, psi0, measured_site, measure_seed, checks)


def _evolve_body(wl, prep, psi0, measured_site, measure_seed, checks) -> Body:
    hml, config = prep.hml, prep.config
    start = time.perf_counter()
    state = gs.init_gauge_state(psi0, hml.cover, mode=wl.mode, hamiltonian=hml)
    step_s: list[float] = []
    values: list[float] = []
    stepping_s = 0.0
    psi_t = psi0
    for t in wl.times:
        stamps = [time.perf_counter()]
        state = gs.evolve(
            state, hml, t, config, callback=lambda _s: stamps.append(time.perf_counter())
        )
        stepping_s += stamps[-1] - stamps[0]
        step_s.extend(np.diff(stamps).tolist())
        psi_t = gs.schrodinger_evolve(hml, psi0, t)
        gap = _oracle_gap(state, psi_t, wl, values)
        checks.expect(gap <= ORACLE_TOL, f"t={t}: oracle gap {gap:.3e} > {ORACLE_TOL:.0e}")
        state.diagnostics()
    if wl.frame_check:
        ref = gs.reference_gauge_state(hml, hml.cover, psi0, wl.times[-1])
        gap = max(
            float(np.linalg.norm(state.frames[p] - ref.frames[p])) for p in hml.cover.patches
        )
        checks.expect(gap <= FRAME_TOL, f"frame gap {gap:.3e} > {FRAME_TOL:.0e}")
    if wl.measure:
        state = _measure(wl, state, psi_t, measured_site, measure_seed, checks, values)
    return Body(
        run_s=time.perf_counter() - start,
        stepping_s=stepping_s,
        step_s=step_s,
        state_mb=_state_mb(state),
        values=values,
    )


def _circuit_body(wl, prep, psi0, circuit, measured_site, measure_seed, checks) -> Body:
    cover = prep.hml.cover
    # one single-layer circuit per layer, so each layer gets a timestamp
    layers = [gs.Circuit(wl.n, [layer]) for layer in circuit.layers]
    start = time.perf_counter()
    state = gs.init_gauge_state(psi0, cover)
    stamps = [time.perf_counter()]
    for layer in layers:
        state = gs.run_circuit(state, layer)
        stamps.append(time.perf_counter())
    for sites in wl.audit_patches:
        audit = gs.audit_lightcone(state, gs.Patch(sites), wl.depth, tol=SUPPORT_TOL)
        checks.expect(audit.ok, f"light-cone audit of {sites}: violations {audit.violations}")
    ref = gs.circuit_reference(circuit, cover, psi0)
    values: list[float] = []
    gap = _oracle_gap(state, ref.psi_schrodinger, wl, values)
    checks.expect(gap <= EXACT_TOL, f"circuit_reference gap {gap:.3e} > {EXACT_TOL:.0e}")
    state.diagnostics(include_cocycle=False)
    state = _measure(wl, state, ref.psi_schrodinger, measured_site, measure_seed, checks, values)
    return Body(
        run_s=time.perf_counter() - start,
        stepping_s=stamps[-1] - stamps[0],
        step_s=np.diff(stamps).tolist(),
        state_mb=_state_mb(state),
        values=values,
    )


def _measure(wl, state, psi_ref, site, seed, checks, values) -> gs.GaugeState:
    """One seeded Z measurement: oracle probabilities, then the collapsed value."""
    patch = gs.Patch((site, site + 1))
    ks = gs.site_projectors(patch, site, "Z")
    probs = gs.measurement_probabilities(state, ks)
    ref = [float(np.linalg.norm(gs.embed_operator(e, patch, wl.n) @ psi_ref)) ** 2 for e in ks.operators]
    gap = float(np.max(np.abs(probs - np.array(ref))))
    checks.expect(gap <= EXACT_TOL, f"measurement-probability gap {gap:.3e} > {EXACT_TOL:.0e}")
    state, record = gs.apply_measurement(state, ks, rng=seed)
    z = state.local_expectation(patch, pauli_on("Z", (site,), patch)).real
    values.extend([*probs, record.outcome, z])
    expected = 1.0 - 2.0 * record.outcome
    checks.expect(abs(z - expected) <= EXACT_TOL, f"collapsed <Z{site}> = {z!r}, expected {expected}")
    return state
