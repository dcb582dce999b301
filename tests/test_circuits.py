import numpy as np
import pytest

from gaugesim.circuits import (
    Circuit,
    Gate,
    LightConePrediction,
    as_layer_hamiltonians,
    audit_lightcone,
    brickwork,
    circuit_reference,
    gate_generator,
    run_circuit,
)
from gaugesim.errors import ContractError
from gaugesim.gauge import (
    DIRECT,
    IntegratorConfig,
    apply_commuting_layer,
    evolve,
    init_gauge_state,
)
from gaugesim.hamiltonian import PAULI_X, PAULI_Z
from gaugesim.lattice import Patch, apply_local, embed_operator, nn_pair_cover
from gaugesim.linalg import expm_hermitian, frobenius_distance, random_unitary

from _oracles import plus_state, random_state


class TestBrickwork:
    def test_depth_one_even_pairs(self):
        circ = brickwork(4, 1, gate_source=0)
        assert [g.patch for g in circ.layers[0]] == [Patch((0, 1)), Patch((2, 3))]

    def test_nine_sites_depth_five_alternating_offsets(self):
        circ = brickwork(9, 5, gate_source=1)
        for layer_index, layer in enumerate(circ.layers):
            offset = layer_index % 2
            starts = [g.patch.sites[0] for g in layer]
            assert starts == list(range(offset, 8, 2))

    def test_layers_have_disjoint_supports(self):
        circ = brickwork(10, 4, gate_source=3)
        for layer in circ.layers:
            seen = set()
            for g in layer:
                assert not (seen & set(g.patch.sites))
                seen |= set(g.patch.sites)

    def test_seed_determinism(self):
        a = brickwork(6, 3, gate_source=7)
        b = brickwork(6, 3, gate_source=7)
        c = brickwork(6, 3, gate_source=8)
        for la, lb in zip(a.layers, b.layers):
            for ga, gb in zip(la, lb):
                assert np.array_equal(ga.op, gb.op)
        assert not np.array_equal(a.layers[0][0].op, c.layers[0][0].op)

    def test_bad_arguments_raise(self):
        with pytest.raises(ContractError):
            brickwork(1, 1)
        with pytest.raises(ContractError):
            brickwork(4, 0)


class TestCircuitValidation:
    def test_repeated_patch_in_layer_raises(self):
        rng = np.random.default_rng(0)
        g1 = Gate(Patch((0, 1)), random_unitary(4, rng))
        g2 = Gate(Patch((0, 1)), random_unitary(4, rng))
        with pytest.raises(ContractError):
            Circuit(2, [[g1, g2]])

    def test_non_commuting_layer_raises(self):
        gx = Gate(Patch((0, 1)), np.kron(PAULI_X, np.eye(2)))  # X on site 1
        gz = Gate(Patch((1, 2)), np.kron(np.eye(2), PAULI_Z))  # Z on site 1
        with pytest.raises(ContractError):
            Circuit(3, [[gx, gz]])

    def test_overlapping_commuting_gates_accepted(self):
        gz1 = Gate(Patch((0, 1)), np.kron(PAULI_Z, PAULI_Z))
        gz2 = Gate(Patch((1, 2)), np.kron(PAULI_Z, PAULI_Z))
        circ = Circuit(3, [[gz1, gz2]])
        assert circ.depth == 1

    def test_non_unitary_gate_raises(self):
        with pytest.raises(ContractError):
            Gate(Patch((0, 1)), np.ones((4, 4)))

    def test_circuit_and_layer_keep_their_own_tolerances(self):
        # commutator ~5.7e-12: above the circuit's 1e-12, below the layer's 1e-10
        gz = Gate(Patch((0, 1)), np.kron(PAULI_Z, np.eye(2)))  # Z on site 1
        gx = Gate(Patch((1, 2)), expm_hermitian(np.kron(np.eye(2), PAULI_X), 1e-12))
        with pytest.raises(ContractError, match=r"^layer 0: gates on .* do not commute"):
            Circuit(3, [[gz, gx]])
        state = init_gauge_state(plus_state(3), nn_pair_cover(3))
        apply_commuting_layer(state, {gz.patch: gz.op, gx.patch: gx.op})
        with pytest.raises(ContractError, match=r"^gates on .* do not commute"):
            apply_commuting_layer(
                state, {gz.patch: gz.op, gx.patch: gx.op}, commutation_tol=1e-12
            )


class TestRunCircuit:
    def test_empty_circuit_is_noop(self):
        cover = nn_pair_cover(4)
        psi0 = plus_state(4)
        state = init_gauge_state(psi0, cover)
        out = run_circuit(state, Circuit(4, []))
        for p in cover.patches:
            assert np.linalg.norm(out.psi[p] - psi0) < 1e-14

    def test_depth_one_matches_global_application(self):
        n = 5
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 1, gate_source=11)
        state = run_circuit(init_gauge_state(psi0, cover), circ)
        psi_ref = circ.unitary() @ psi0
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in cover.patches:
            want = np.vdot(psi_ref, embed_operator(zz, p, n) @ psi_ref)
            assert abs(state.local_expectation(p, zz) - want) < 1e-10

    def test_deep_circuit_matches_reference_bundle(self):
        n = 6
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 4, gate_source=5)
        state = run_circuit(init_gauge_state(psi0, cover), circ)
        ref = circuit_reference(circ, cover, psi0)
        for p in cover.patches:
            assert np.linalg.norm(state.psi[p] - ref.psi[p]) < 1e-11
            assert frobenius_distance(state.frames[p], ref.frames[p]) < 1e-10

    def test_seeded_brickwork_frames_match_reference_to_roundoff(self):
        n = 6
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 3, gate_source=31)
        state = run_circuit(init_gauge_state(psi0, cover), circ)
        ref = circuit_reference(circ, cover, psi0)
        for p in cover.patches:
            assert frobenius_distance(state.frames[p], ref.frames[p]) < 1e-12

    def test_direct_mode_matches_reference(self):
        n = 5
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 3, gate_source=6)
        state = run_circuit(init_gauge_state(psi0, cover, mode=DIRECT), circ)
        ref = circuit_reference(circ, cover, psi0)
        for p in cover.patches:
            assert np.linalg.norm(state.psi[p] - ref.psi[p]) < 1e-11
        for (i, j), c in state.connections.items():
            want = ref.connection(cover.patches[i], cover.patches[j])
            assert frobenius_distance(c, want) < 1e-10

    def test_connection_equals_complement_product(self):
        # after any circuit, the frame connection factors through the
        # complement propagators of the two patches
        n = 6
        cover = nn_pair_cover(n)
        circ = brickwork(n, 3, gate_source=13)
        state = run_circuit(init_gauge_state(plus_state(n), cover), circ)
        ref = circuit_reference(circ, cover, plus_state(n))
        for i, j in cover.overlap_pairs():
            a, b = cover.patches[i], cover.patches[j]
            got = state.connection(a, b)
            want = ref.complements[a].conj().T @ ref.complements[b]
            assert frobenius_distance(got, want) < 1e-10

    def test_site_count_mismatch_raises(self):
        state = init_gauge_state(plus_state(3), nn_pair_cover(3))
        with pytest.raises(ContractError):
            run_circuit(state, brickwork(4, 1))

    @staticmethod
    def _spy_gate_applications(monkeypatch) -> list:
        """(patch, target ndim) of each `apply_local` call the circuits module makes."""
        import gaugesim.circuits as circuits_module

        calls = []
        original = circuits_module.apply_local

        def counted(*args):
            calls.append((args[1], np.ndim(args[3])))
            return original(*args)

        monkeypatch.setattr(circuits_module, "apply_local", counted)
        return calls

    def test_complements_are_computed_on_first_read(self, monkeypatch):
        calls = self._spy_gate_applications(monkeypatch)
        n = 5
        cover = nn_pair_cover(n)
        circ = brickwork(n, 3, gate_source=71)
        gates = [g.patch for layer in circ.layers for g in layer]
        ref = circuit_reference(circ, cover, plus_state(n))
        assert ref.psi_schrodinger.shape == (2**n,)
        assert calls == [(g, 1) for g in gates]  # one walk on psi0, no matrix
        calls.clear()
        propagator = ref.propagator
        assert calls == [(g, 2) for g in gates]  # the D x D walk, once
        assert ref.propagator is propagator  # cached
        assert len(calls) == len(gates)
        p = cover.patches[1]
        first = ref.complements[p]
        away = [g for g in gates if not g.overlaps(p)]
        assert calls[len(gates):] == [(g, 2) for g in away]
        assert ref.complements[p] is first  # cached
        assert len(calls) == len(gates) + len(away)
        assert list(ref.complements) == list(cover.patches) and len(ref.complements) == len(cover)
        assert np.array_equal(propagator, circ.unitary())

    def test_frames_build_the_propagator_once(self, monkeypatch):
        calls = self._spy_gate_applications(monkeypatch)
        n = 5
        cover = nn_pair_cover(n)
        circ = brickwork(n, 3, gate_source=79)
        gates = [g.patch for layer in circ.layers for g in layer]
        ref = circuit_reference(circ, cover, plus_state(n))
        calls.clear()
        frames = ref.frames
        away = sum(not g.overlaps(p) for p in cover.patches for g in gates)
        assert len(calls) == len(gates) + away  # one full walk, one walk per complement
        assert all(ndim == 2 for _, ndim in calls)
        for p in cover.patches:
            assert np.array_equal(frames[p], ref.complements[p].conj().T @ ref.propagator)
        assert len(calls) == len(gates) + away

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_psi_schrodinger_is_the_propagator_on_psi0(self, n):
        cover = nn_pair_cover(n)
        for seed in range(4):
            rng = np.random.default_rng(100 * n + seed)
            psi0 = random_state(2**n, rng)
            circ = brickwork(n, 4, rng)
            ref = circuit_reference(circ, cover, psi0)
            assert np.linalg.norm(ref.psi_schrodinger - circ.unitary() @ psi0) < 1e-13

    def test_psi_schrodinger_at_n10_allocates_a_few_vectors(self):
        import tracemalloc

        n = 10
        psi0 = random_state(2**n, np.random.default_rng(83))
        circ, cover = brickwork(n, 3, gate_source=89), nn_pair_cover(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            circuit_reference(circ, cover, psi0).psi_schrodinger
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 2**n  # four vectors; one D x D matrix is 16 * 4**n

    def test_rejects_an_unnormalized_psi0(self):
        n = 4
        with pytest.raises(ContractError, match="not normalized"):
            circuit_reference(brickwork(n, 2), nn_pair_cover(n), np.ones(2**n))

    @pytest.mark.parametrize(
        "psi0", [plus_state(3), plus_state(4)[:, None]], ids=["length-8", "column"]
    )
    @pytest.mark.parametrize("depth", [0, 2])
    def test_rejects_a_psi0_of_the_wrong_shape(self, psi0, depth):
        n = 4
        circ = Circuit(n, brickwork(n, 2).layers[:depth])
        with pytest.raises(ContractError):
            circuit_reference(circ, nn_pair_cover(n), psi0)

    def test_lazy_complements_equal_the_eager_products(self):
        n = 5
        cover = nn_pair_cover(n)
        circ = brickwork(n, 3, gate_source=73)
        ref = circuit_reference(circ, cover, plus_state(n))
        for p in cover.patches:
            u = np.eye(2**n, dtype=complex)
            for layer in circ.layers:
                for g in layer:
                    if not g.patch.overlaps(p):
                        u = apply_local(g.op, g.patch, n, u)
            assert np.array_equal(ref.complements[p], u)
        with pytest.raises(KeyError):
            ref.complements[Patch((0, 2))]


class TestScheduleExport:
    def test_gate_generator_round_trip(self):
        rng = np.random.default_rng(2)
        u = random_unitary(4, rng)
        k = gate_generator(u)
        from gaugesim.linalg import expm_hermitian

        assert frobenius_distance(expm_hermitian(k, 1.0), u) < 1e-11

    def test_layer_hamiltonians_reproduce_circuit(self):
        # evolving each layer's generator for unit time equals applying it
        n = 4
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 2, gate_source=4)
        state = run_circuit(init_gauge_state(psi0, cover), circ)
        schedule = as_layer_hamiltonians(circ, cover)
        ode_state = init_gauge_state(psi0, cover)
        cfg = IntegratorConfig(dt=1e-3, reunitarize_every=1)
        for k, layer_h in enumerate(schedule):
            ode_state = evolve(ode_state, layer_h, float(k + 1), cfg)
        for p in cover.patches:
            # local wavefunctions agree between the two routes
            assert np.linalg.norm(state.psi[p] - ode_state.psi[p]) < 1e-6


class TestLightCone:
    def test_prediction_geometry(self):
        pred = LightConePrediction.chain(Patch((4, 5)), 2, 10)
        assert pred.allowed_sites == frozenset(range(2, 8))
        edge = LightConePrediction.chain(Patch((0, 1)), 3, 10)
        assert edge.allowed_sites == frozenset(range(0, 5))

    def test_depth_zero_support_empty(self):
        cover = nn_pair_cover(5)
        state = init_gauge_state(plus_state(5), cover)
        audit = audit_lightcone(state, Patch((2, 3)), 0)
        assert audit.frame_support == ()
        assert audit.ok

    def test_support_grows_at_most_one_site_per_layer(self):
        n = 8
        cover = nn_pair_cover(n)
        circ = brickwork(n, 3, gate_source=10)
        state = init_gauge_state(plus_state(n), cover)
        for depth in range(1, 4):
            state = run_circuit(
                state, Circuit(n, [circ.layers[depth - 1]])
            )
            for p in cover.patches:
                audit = audit_lightcone(state, p, depth, include_connections=False)
                assert audit.ok, (p, depth, audit.violations)

    def test_distant_gates_leave_frame_exactly_identity(self):
        n = 8
        cover = nn_pair_cover(n)
        rng = np.random.default_rng(3)
        circ = Circuit(n, [[Gate(Patch((6, 7)), random_unitary(4, rng))]])
        state = run_circuit(init_gauge_state(plus_state(n), cover), circ)
        assert np.array_equal(state.frames[Patch((0, 1))], np.eye(2**n))

    def test_connection_supports_within_joint_cone(self):
        n = 7
        cover = nn_pair_cover(n)
        circ = brickwork(n, 2, gate_source=8)
        state = run_circuit(init_gauge_state(plus_state(n), cover), circ)
        audit = audit_lightcone(state, Patch((3, 4)), 2, include_connections=True)
        assert audit.ok
        assert audit.connection_supports  # neighbours were audited

    def test_direct_mode_audit_raises(self):
        state = init_gauge_state(plus_state(4), nn_pair_cover(4), mode=DIRECT)
        with pytest.raises(ContractError):
            audit_lightcone(state, Patch((0, 1)), 1)

    def test_margins_reported(self):
        n = 9
        cover = nn_pair_cover(n)
        circ = brickwork(n, 1, gate_source=9)
        state = run_circuit(init_gauge_state(plus_state(n), cover), circ)
        audit = audit_lightcone(state, Patch((4, 5)), 1, include_connections=False)
        assert audit.margins[0] >= 0 and audit.margins[1] >= 0
