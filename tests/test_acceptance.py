"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from gaugesim import (
    DIRECT,
    GaugeTransform,
    IntegratorConfig,
    Patch,
    apply_measurement,
    audit_lightcone,
    brickwork,
    embed_operator,
    evolve,
    frobenius_distance,
    gauge_transform,
    init_gauge_state,
    interaction_reference,
    measurement_probabilities,
    nn_pair_cover,
    reference_gauge_state,
    run_circuit,
    site_projectors,
    tfim_chain,
    tfim_chain_sitewise,
)
from gaugesim.circuits import Circuit
from gaugesim.cli import main as cli_main
from gaugesim.hamiltonian import PAULI_X, PAULI_Z, pauli_on
from gaugesim.linalg import random_unitary, unitarity_defect

N_SITES = 6
CHECKPOINTS = (0.25, 0.5, 1.0)
DT = 1e-3
TOL_OBSERVABLE = 1e-6  # criterion 1
TOL_FRAME = 1e-5  # criterion 2
TOL_COCYCLE = 1e-12  # criterion 3 (generator mode)
CONVERGENCE_BAND = (12.0, 20.0)  # criterion 3 (direct mode): 16x +- 25%
TOL_GAUGE_INV = 1e-10  # criterion 4
TOL_SUPPORT = 1e-12  # criterion 5
TOL_MEASURE = 1e-8  # criterion 6
TOL_CONSISTENCY = 1e-12  # criterion 6 (post-collapse)
TOL_INTERACTION = 1e-6  # criterion 7
TOL_SITEWISE = 1e-6  # criterion 8


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def plus_state(n: int) -> np.ndarray:
    return np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)


def patch_observables(patch: Patch):
    """Z_i, X_i and the patch ZZ, as (label, patch-local operator) pairs."""
    out = []
    for s in patch.sites:
        out.append((f"Z{s}", pauli_on("Z", (s,), patch)))
        out.append((f"X{s}", pauli_on("X", (s,), patch)))
    out.append(
        ("Z" + "Z".join(str(s) for s in patch.sites), pauli_on("ZZ", patch.sites, patch))
    )
    return out


@pytest.fixture(scope="module")
def tfim6():
    h = tfim_chain(N_SITES, 1.0, 1.0)
    return h, plus_state(N_SITES)


@pytest.fixture(scope="module")
def generator_run(tfim6):
    """Generator-mode trajectory with per-step identity tracking."""
    h, psi0 = tfim6
    cfg = IntegratorConfig(dt=DT, reunitarize_every=1)
    patches = list(h.cover.patches)
    tracked = {"cocycle": 0.0, "unitarity": 0.0}

    def watch(state):
        worst_u = max(unitarity_defect(state.frames[p]) for p in patches)
        tracked["unitarity"] = max(tracked["unitarity"], worst_u)
        worst_c = 0.0
        for i in range(len(patches) - 2):
            a, b, c = patches[i], patches[i + 1], patches[i + 2]
            defect = float(
                np.linalg.norm(
                    state.connection(a, b) @ state.connection(b, c)
                    - state.connection(a, c)
                )
            )
            worst_c = max(worst_c, defect)
        tracked["cocycle"] = max(tracked["cocycle"], worst_c)

    states = {}
    state = init_gauge_state(psi0, h.cover)
    wall = 0.0
    for t in CHECKPOINTS:
        t0 = time.perf_counter()
        state = evolve(state, h, t, cfg, callback=watch)
        wall += time.perf_counter() - t0
        states[t] = state
    return {"states": states, "tracked": tracked, "wall_seconds": wall}


@pytest.fixture(scope="module")
def bundles(tfim6):
    h, psi0 = tfim6
    return {t: reference_gauge_state(h, h.cover, psi0, t) for t in CHECKPOINTS}


def test_criterion_1_picture_equivalence(tfim6, generator_run, bundles):
    h, _ = tfim6
    worst = 0.0
    worst_label = ""
    for t in CHECKPOINTS:
        state = generator_run["states"][t]
        psi_s = bundles[t].psi_schrodinger
        for patch in h.cover.patches:
            for label, op in patch_observables(patch):
                got = state.local_expectation(patch, op)
                want = complex(
                    np.vdot(psi_s, embed_operator(op, patch, N_SITES) @ psi_s)
                )
                gap = abs(got - want)
                if gap > worst:
                    worst, worst_label = gap, f"{label}@t={t}"
    wall = generator_run["wall_seconds"]
    ok = worst <= TOL_OBSERVABLE and wall <= 120.0
    report(
        1,
        "picture equivalence",
        ok,
        f"max |gauge-oracle| = {worst:.3e} at {worst_label} "
        f"(tol {TOL_OBSERVABLE:.0e}); runtime {wall:.1f}s <= 120s",
    )


def test_criterion_2_closed_form_frames(tfim6, generator_run, bundles):
    h, _ = tfim6
    state = generator_run["states"][1.0]
    bundle = bundles[1.0]
    worst = max(
        frobenius_distance(state.frames[p], bundle.frames[p])
        for p in h.cover.patches
    )
    report(
        2,
        "integrated frames match complement-propagator closed form",
        worst <= TOL_FRAME,
        f"max Frobenius gap = {worst:.3e} (tol {TOL_FRAME:.0e})",
    )


def test_criterion_3_identity_suite(tfim6, generator_run):
    h, psi0 = tfim6
    # generator mode: transitivity defect stays at roundoff at every step
    tracked = generator_run["tracked"]["cocycle"]
    final_full = max(
        generator_run["states"][t].diagnostics().cocycle for t in CHECKPOINTS
    )
    gen_worst = max(tracked, final_full)
    gen_ok = gen_worst <= TOL_COCYCLE

    # direct mode: the consistency defect converges at 4th order in dt
    defects = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = IntegratorConfig(dt=dt, reunitarize_every=0, renormalize=False)
        st = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
        st = evolve(st, h, 0.5, cfg)
        defects.append(st.consistency())
    ratios = [defects[0] / defects[1], defects[1] / defects[2]]
    lo, hi = CONVERGENCE_BAND
    dir_ok = all(lo < r < hi for r in ratios)
    report(
        3,
        "identity suite",
        gen_ok and dir_ok,
        f"generator cocycle defect = {gen_worst:.3e} (tol {TOL_COCYCLE:.0e}); "
        f"direct-mode halving ratios = {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(want within ({lo}, {hi}))",
    )


def test_criterion_4_gauge_invariance(tfim6):
    h, psi0 = tfim6
    # dt chosen so that integration error sits far below the 1e-10 bound
    cfg = IntegratorConfig(dt=5e-4, reunitarize_every=1)
    state = evolve(init_gauge_state(psi0, h.cover), h, 0.5, cfg)
    bundle = reference_gauge_state(h, h.cover, psi0, 0.5)
    patches = list(h.cover.patches)

    chains = [
        [(patches[1], pauli_on("ZZ", patches[1].sites, patches[1]))],
        [
            (patches[0], pauli_on("Z", (0,), patches[0])),
            (patches[3], pauli_on("Z", (4,), patches[3])),
        ],
        [
            (patches[0], pauli_on("X", (1,), patches[0])),
            (patches[2], pauli_on("Z", (2,), patches[2])),
            (patches[4], pauli_on("X", (5,), patches[4])),
        ],
    ]
    base = [state.correlator(c) for c in chains]
    rng = np.random.default_rng(2024)
    worst_inv = 0.0
    for _ in range(20):
        g = GaugeTransform({p: random_unitary(2**N_SITES, rng) for p in patches})
        moved = gauge_transform(state, g)
        for c, b in zip(chains, base):
            worst_inv = max(worst_inv, abs(moved.correlator(c) - b))
    inv_ok = worst_inv <= TOL_GAUGE_INV

    # the complement propagators transform the state back to the global picture
    g = GaugeTransform({p: bundle.complements[p] for p in patches})
    moved = gauge_transform(state, g)
    worst_conn = max(
        frobenius_distance(
            moved.connection(patches[i], patches[j]), np.eye(2**N_SITES)
        )
        for i, j in h.cover.overlap_pairs()
    )
    conn_ok = worst_conn <= TOL_GAUGE_INV
    report(
        4,
        "gauge invariance",
        inv_ok and conn_ok,
        f"20 random transforms: max correlator drift = {worst_inv:.3e}; "
        f"complement transform: max |connection - 1| = {worst_conn:.3e} "
        f"(tol {TOL_GAUGE_INV:.0e})",
    )


def test_criterion_5_light_cone():
    # depths 1..4 on 10 sites, audited cumulatively layer by layer
    n = 10
    cover = nn_pair_cover(n)
    circuit = brickwork(n, 4, gate_source=20240)
    state = init_gauge_state(plus_state(n), cover)
    worst_margin = None
    for depth in range(1, 5):
        state = run_circuit(state, Circuit(n, [circuit.layers[depth - 1]]))
        for patch in cover.patches:
            audit = audit_lightcone(state, patch, depth, tol=TOL_SUPPORT)
            assert audit.ok, (
                f"depth {depth}, {patch}: sites {audit.violations} of the frame or a "
                f"connection lie outside {audit.allowed_sites}"
            )
            m = min(audit.margins)
            worst_margin = m if worst_margin is None else min(worst_margin, m)
    # the 9-qubit depth-5 confinement for the patch (6,7), connections included
    n9 = 9
    cover9 = nn_pair_cover(n9)
    circuit9 = brickwork(n9, 5, gate_source=77)
    state9 = run_circuit(init_gauge_state(plus_state(n9), cover9), circuit9)
    audit9 = audit_lightcone(state9, Patch((6, 7)), 5, tol=TOL_SUPPORT)
    report(
        5,
        "light-cone confinement",
        audit9.ok,
        f"n=10 depths 1-4 confined (min margin {worst_margin} sites); "
        f"n=9 depth-5 patch (6,7): support {list(audit9.frame_support)} within "
        f"{list(audit9.allowed_sites)}, identity outside to {TOL_SUPPORT:.0e}",
    )


def test_criterion_6_measurement(tfim6, generator_run, bundles):
    h, _ = tfim6
    state = generator_run["states"][1.0]
    psi_s = bundles[1.0].psi_schrodinger
    host = Patch((3, 4))
    ks = site_projectors(host, 3, basis="Z")
    probs = measurement_probabilities(state, ks)
    prob_gap = 0.0
    for k, e in enumerate(ks.operators):
        e_glob = embed_operator(e, host, N_SITES)
        want = float(np.vdot(psi_s, e_glob.conj().T @ e_glob @ psi_s).real)
        prob_gap = max(prob_gap, abs(probs[k] - want))

    consistency = 0.0
    for k in range(len(ks)):
        post, _ = apply_measurement(state, ks, outcome=k)
        consistency = max(consistency, post.consistency())

    # commuting observables keep their expectation under outcome averaging
    observables = [
        (host, pauli_on("Z", (3,), host)),
        (Patch((0, 1)), pauli_on("X", (0,), Patch((0, 1)))),
        (Patch((4, 5)), pauli_on("ZZ", (4, 5), Patch((4, 5)))),
    ]
    avg_gap = 0.0
    for patch, op in observables:
        before = state.local_expectation(patch, op)
        after = sum(
            probs[k]
            * apply_measurement(state, ks, outcome=k)[0].local_expectation(patch, op)
            for k in range(len(ks))
        )
        avg_gap = max(avg_gap, abs(after - before))

    ok = (
        prob_gap <= TOL_MEASURE
        and consistency <= TOL_CONSISTENCY
        and avg_gap <= TOL_MEASURE
    )
    report(
        6,
        "local measurement",
        ok,
        f"probability gap = {prob_gap:.3e} (tol {TOL_MEASURE:.0e}); "
        f"post-collapse consistency = {consistency:.3e} (tol {TOL_CONSISTENCY:.0e}); "
        f"outcome-averaged drift = {avg_gap:.3e} (tol {TOL_MEASURE:.0e})",
    )


def test_criterion_7_interaction_picture(tfim6, generator_run):
    h, psi0 = tfim6
    state = generator_run["states"][1.0]
    worst = 0.0
    for patch in h.cover.patches:
        ref = interaction_reference(h, patch, psi0, 1.0)
        worst = max(worst, float(np.linalg.norm(state.psi[patch] - ref.psi_interaction)))
    report(
        7,
        "interaction-picture equivalence",
        worst <= TOL_INTERACTION,
        f"max ||psi_patch - free-frame psi|| = {worst:.3e} (tol {TOL_INTERACTION:.0e})",
    )


def test_criterion_8_generalized_terms():
    n = 5
    h = tfim_chain_sitewise(n, 1.0, 1.0)
    psi0 = plus_state(n)
    cfg = IntegratorConfig(dt=DT, reunitarize_every=1)
    state = evolve(init_gauge_state(psi0, h.cover), h, 1.0, cfg)
    bundle = reference_gauge_state(h, h.cover, psi0, 1.0)
    psi_s = bundle.psi_schrodinger
    worst = 0.0
    for patch in h.cover.patches:
        for op in (PAULI_Z, PAULI_X):
            got = state.local_expectation(patch, op)
            want = complex(np.vdot(psi_s, embed_operator(op, patch, n) @ psi_s))
            worst = max(worst, abs(got - want))
    report(
        8,
        "single-site patches with two-patch couplings",
        worst <= TOL_SITEWISE,
        f"max |gauge-oracle| = {worst:.3e} (tol {TOL_SITEWISE:.0e})",
    )


def test_criterion_9_determinism(tmp_path):
    from pathlib import Path as _P

    config = str(_P(__file__).parent.parent / "configs" / "validate_tfim_n4.json")
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    code_a = cli_main(["validate", "--config", config, "--out", str(a)])
    code_b = cli_main(["validate", "--config", config, "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    records = [json.loads(line) for line in a.read_text().splitlines()]
    ok = code_a == 0 and code_b == 0 and identical and records[-1]["status"] == "pass"
    report(
        9,
        "byte-identical reruns",
        ok,
        f"exit codes ({code_a}, {code_b}); identical bytes: {identical}; "
        f"{len(records)} records",
    )
