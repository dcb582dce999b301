import functools
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugesim.gauge as gauge_module
import gaugesim.lattice as lattice_module
from gaugesim.circuits import (
    LightConePrediction,
    audit_lightcone,
    brickwork,
    circuit_reference,
    run_circuit,
)
from gaugesim.errors import ContractError, DivergenceError
from gaugesim.gauge import (
    DIRECT,
    GENERATOR,
    MODES,
    DirectState,
    GaugeState,
    GaugeTransform,
    GeneratorState,
    IntegratorConfig,
    apply_commuting_layer,
    effective_hamiltonian,
    evolve,
    gauge_transform,
    init_gauge_state,
    step,
)
from gaugesim.integrate import rk4_step
from gaugesim.hamiltonian import (
    GeneralizedTerm,
    LocalHamiltonian,
    LocalTerm,
    PAULI_X,
    PAULI_Z,
    StepPlan,
    heisenberg_chain,
    pauli_on,
    tfim_chain,
    tfim_chain_sitewise,
)
from gaugesim.lattice import (
    Patch,
    PatchCover,
    apply_local,
    embed_operator,
    nn_pair_cover,
    single_site_cover,
    site_identity_defects,
)
from gaugesim.linalg import frobenius_distance, polar_unitary, random_unitary
from gaugesim.reference import (
    heisenberg_expectation,
    reference_gauge_state,
    schrodinger_evolve,
)

from _oracles import (
    dense_site_identity_defects,
    dense_unitarity_defect,
    eager_layer_frames,
    plus_state,
    random_hermitian,
    random_state,
    taylor_expm,
    window_local_matrices,
)

CFG = IntegratorConfig(dt=1e-3, reunitarize_every=1)


@pytest.fixture(scope="module")
def tfim4_evolved():
    """TFIM n=4 at t=0.5 in generator mode, with its oracle bundle."""
    h = tfim_chain(4, 1.0, 1.0)
    psi0 = plus_state(4)
    state = evolve(init_gauge_state(psi0, h.cover), h, 0.5, CFG)
    bundle = reference_gauge_state(h, h.cover, psi0, 0.5)
    return h, psi0, state, bundle


class TestInit:
    def test_initial_conditions(self):
        cover = nn_pair_cover(3)
        psi0 = plus_state(3)
        state = init_gauge_state(psi0, cover)
        for p in cover.patches:
            assert np.array_equal(state.psi[p], psi0)
            assert np.array_equal(state.frames[p], np.eye(8))
        d = state.diagnostics()
        assert d.consistency == 0.0
        assert d.cocycle == 0.0
        assert d.norm < 1e-12

    def test_connections_identity_in_direct_mode(self):
        cover = nn_pair_cover(4)
        state = init_gauge_state(plus_state(4), cover, mode=DIRECT)
        assert set(state.connections) == set(cover.overlap_pairs())
        for c in state.connections.values():
            assert np.array_equal(c, np.eye(16))

    def test_unnormalized_psi0_raises(self):
        with pytest.raises(ContractError):
            init_gauge_state(np.ones(4), nn_pair_cover(2))

    def test_wrong_dim_raises(self):
        with pytest.raises(ContractError):
            init_gauge_state(plus_state(3), nn_pair_cover(2))

    def test_required_pairs_include_generalized_couplings(self):
        h = tfim_chain_sitewise(4, 1.0, 1.0)
        pairs = init_gauge_state(plus_state(4), h.cover, mode=DIRECT, hamiltonian=h).keys
        assert (0, 1) in pairs and (2, 3) in pairs
        assert h.cover.overlap_pairs() == []  # they come from the terms alone


class TestIntegratorConfig:
    @pytest.mark.parametrize("dt", [0.0, np.nan, True, "1e-3"])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ContractError, match="dt must be"):
            IntegratorConfig(dt=dt)

    @pytest.mark.parametrize("every", [-1, 2.5, True, "3"])
    def test_rejects_bad_reunitarize_every(self, every):
        # 2.5 would re-unitarize on every 5th step, and True on every step
        with pytest.raises(ContractError, match="reunitarize_every must be"):
            IntegratorConfig(reunitarize_every=every)

    @pytest.mark.parametrize("renormalize", ["no", 0.0])
    def test_rejects_non_bool_renormalize(self, renormalize):
        # a non-empty string is truthy, so "no" would renormalize every step
        with pytest.raises(ContractError, match="renormalize must be"):
            IntegratorConfig(renormalize=renormalize)

    def test_accepts_numpy_scalars(self):
        cfg = IntegratorConfig(
            dt=np.float64(1e-3), reunitarize_every=np.int64(3), renormalize=np.bool_(True)
        )
        assert cfg.reunitarize_every == 3 and cfg.renormalize

    def test_rejects_unknown_scheme(self):
        # RK4 is the only integrator: there is no scheme option to set
        with pytest.raises(TypeError):
            IntegratorConfig(scheme="euler")


class TestConnection:
    def test_identity_at_time_zero(self):
        cover = nn_pair_cover(3)
        state = init_gauge_state(plus_state(3), cover)
        c = state.connection(Patch((0, 1)), Patch((1, 2)))
        assert frobenius_distance(c, np.eye(8)) < 1e-14

    def test_dagger_symmetry(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        a, b = Patch((0, 1)), Patch((1, 2))
        assert (
            frobenius_distance(
                state.connection(a, b).conj().T, state.connection(b, a)
            )
            < 1e-13
        )

    def test_trivial_holonomy(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        ps = state.cover.patches
        loop = (
            state.connection(ps[0], ps[1])
            @ state.connection(ps[1], ps[2])
            @ state.connection(ps[2], ps[0])
        )
        assert frobenius_distance(loop, np.eye(16)) < 1e-12

    def test_matches_oracle_connection(self, tfim4_evolved):
        _, _, state, bundle = tfim4_evolved
        a, b = Patch((0, 1)), Patch((2, 3))
        got = state.connection(a, b)
        assert frobenius_distance(got, bundle.connection(a, b)) < 1e-6

    def test_unknown_patch_raises(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        with pytest.raises(ContractError):
            state.connection(Patch((0, 3)), Patch((0, 1)))

    def test_direct_mode_chains_stored_connections_along_the_walk(self):
        h = tfim_chain(5, 1.0, 1.0)
        state = init_gauge_state(plus_state(5), h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.05, CFG)
        ps = state.cover.patches
        c01, c12, c23 = (state.connections[(k, k + 1)] for k in range(3))
        assert np.array_equal(state.connection(ps[0], ps[3]), c01 @ c12 @ c23)
        back = c23.conj().T @ c12.conj().T @ c01.conj().T
        assert np.array_equal(state.connection(ps[3], ps[0]), back)

    def test_direct_mode_unlinked_patches_raise(self):
        # single-site patches never overlap: without a Hamiltonian nothing is stored
        state = init_gauge_state(plus_state(3), single_site_cover(3), mode=DIRECT)
        assert state.connections == {}
        with pytest.raises(ContractError, match="not linked by any chain of stored connections"):
            state.connection(Patch((0,)), Patch((2,)))


class TestEffectiveHamiltonian:
    def test_reduces_to_neighborhood_at_t0(self):
        h = tfim_chain(4, 1.0, 0.7)
        state = init_gauge_state(plus_state(4), h.cover)
        p = Patch((1, 2))
        assert np.abs(effective_hamiltonian(state, h, p) - h.neighborhood(p)).max() < 1e-13

    def test_single_patch_cover_gives_total_at_all_times(self):
        cover = PatchCover(2, [Patch((0, 1))])
        rng = np.random.default_rng(0)
        h = LocalHamiltonian(cover, [LocalTerm(Patch((0, 1)), random_hermitian(4, rng))])
        psi0 = plus_state(2)
        state = evolve(init_gauge_state(psi0, cover), h, 0.4, CFG)
        got = effective_hamiltonian(state, h, cover.patches[0])
        assert np.abs(got - h.total()).max() < 1e-12

    def test_matches_complement_dressed_oracle(self, tfim4_evolved):
        h, _, state, bundle = tfim4_evolved
        for p in h.cover.patches:
            want = bundle.complements[p].conj().T @ h.neighborhood(p) @ bundle.complements[p]
            got = effective_hamiltonian(state, h, p)
            assert frobenius_distance(got, want) < 1e-6

    def test_hermitian_to_machine_precision(self, tfim4_evolved):
        h, _, state, _ = tfim4_evolved
        for p in h.cover.patches:
            eff = effective_hamiltonian(state, h, p)
            assert np.abs(eff - eff.conj().T).max() < 1e-12

    def test_differs_from_plain_neighborhood_when_evolved(self, tfim4_evolved):
        # the equations of motion are genuinely nonlinear: the dressed
        # neighborhood moves away from the static one. Needs a patch whose
        # neighborhood misses part of H (an edge patch here): the middle
        # patch of a 4-site chain sees all terms and stays undressed.
        h, _, state, _ = tfim4_evolved
        p = Patch((0, 1))
        dist = frobenius_distance(effective_hamiltonian(state, h, p), h.neighborhood(p))
        assert dist > 1e-2
        middle = frobenius_distance(
            effective_hamiltonian(state, h, Patch((1, 2))), h.neighborhood(Patch((1, 2)))
        )
        assert middle < 1e-9

    def test_cover_mismatch_raises(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        other = tfim_chain(5)
        with pytest.raises(ContractError):
            effective_hamiltonian(state, other, Patch((0, 1)))


class TestStepAndEvolve:
    def test_zero_hamiltonian_is_inert(self):
        cover = nn_pair_cover(3)
        h = LocalHamiltonian(cover, [])
        psi0 = plus_state(3)
        state = evolve(init_gauge_state(psi0, cover), h, 0.1, CFG)
        for p in cover.patches:
            assert np.linalg.norm(state.psi[p] - psi0) < 1e-14

    def test_commuting_hamiltonian_closed_form(self):
        # all-ZZ chain: every patch wavefunction is exp(-i H_nbhd t) psi0
        n = 4
        cover = nn_pair_cover(n)
        zz = np.kron(PAULI_Z, PAULI_Z)
        h = LocalHamiltonian(
            cover, [LocalTerm(Patch((i, i + 1)), 0.9 * zz) for i in range(n - 1)]
        )
        psi0 = plus_state(n)
        t = 0.7
        state = evolve(init_gauge_state(psi0, cover), h, t, CFG)
        for p in cover.patches:
            want = taylor_expm(h.neighborhood(p), t) @ psi0
            assert np.linalg.norm(state.psi[p] - want) < 1e-8

    def test_local_expectations_match_oracle(self, tfim4_evolved):
        h, psi0, state, bundle = tfim4_evolved
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in h.cover.patches:
            got = state.local_expectation(p, zz)
            want = np.vdot(
                bundle.psi_schrodinger,
                embed_operator(zz, p, 4) @ bundle.psi_schrodinger,
            )
            assert abs(got - want) < 1e-6

    def test_frames_match_oracle(self, tfim4_evolved):
        h, _, state, bundle = tfim4_evolved
        for p in h.cover.patches:
            assert frobenius_distance(state.frames[p], bundle.frames[p]) < 1e-6

    def test_norm_conserved_without_renormalization(self):
        h = tfim_chain(4, 1.0, 1.0)
        cfg = IntegratorConfig(dt=1e-3, reunitarize_every=0, renormalize=False)
        state = evolve(init_gauge_state(plus_state(4), h.cover), h, 1.0, cfg)
        assert state.diagnostics().norm < 1e-9

    def test_renormalize_flag_pins_norms(self):
        h = tfim_chain(4, 1.0, 1.0)
        cfg = IntegratorConfig(dt=4e-3, reunitarize_every=0, renormalize=True)
        state = init_gauge_state(plus_state(4), h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.5, cfg)
        assert state.diagnostics().norm < 1e-14

    def test_renormalize_is_a_direct_mode_option(self):
        # a generator state's norms are its frames' unitarity, which reunitarize_every restores
        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover)
        with pytest.raises(ContractError, match="renormalize is a direct-mode option"):
            step(state, h, IntegratorConfig(dt=1e-3, renormalize=True))

    def test_generator_and_direct_agree(self):
        h = tfim_chain(4, 1.0, 1.0)
        psi0 = plus_state(4)
        sg = evolve(init_gauge_state(psi0, h.cover, mode=GENERATOR), h, 0.4, CFG)
        sd = evolve(
            init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h), h, 0.4,
            IntegratorConfig(dt=1e-3, reunitarize_every=0),
        )
        for p in h.cover.patches:
            assert np.linalg.norm(sg.psi[p] - sd.psi[p]) < 1e-8

    def test_sitewise_generalized_matches_oracle(self):
        h = tfim_chain_sitewise(4, 1.0, 1.0)
        psi0 = plus_state(4)
        state = evolve(init_gauge_state(psi0, h.cover), h, 0.4, CFG)
        psi_s = schrodinger_evolve(h, psi0, 0.4)
        for i, p in enumerate(h.cover.patches):
            got = state.local_expectation(p, PAULI_Z)
            want = np.vdot(psi_s, embed_operator(PAULI_Z, p, 4) @ psi_s)
            assert abs(got - want) < 1e-7

    @pytest.mark.parametrize("mode", MODES)
    def test_time_dependent_terms_match_oracle(self, mode):
        def drive(t):
            return 1.0 + 0.5 * np.sin(3.0 * t)

        zz = np.kron(PAULI_Z, PAULI_Z)
        x_lo = np.kron(np.eye(2), PAULI_X)
        # each bond carrier holds a static ZZ and a driven field
        carriers = LocalHamiltonian(
            nn_pair_cover(4),
            [
                term
                for i in range(3)
                for term in (
                    LocalTerm(Patch((i, i + 1)), -zz),
                    LocalTerm(Patch((i, i + 1)), -x_lo, drive),
                )
            ],
        )
        # the same couplings as products on a single-site cover, driven fields
        # carried by a callable coefficient
        sitewise = LocalHamiltonian(
            single_site_cover(4),
            gen_terms=[
                GeneralizedTerm((Patch((i,)), Patch((i + 1,))), -1.0, (PAULI_Z, PAULI_Z))
                for i in range(3)
            ]
            + [GeneralizedTerm((Patch((i,)),), lambda t: -drive(t), (PAULI_X,)) for i in range(4)],
        )
        psi0 = random_state(16, np.random.default_rng(4))
        for h in (carriers, sitewise):
            state = init_gauge_state(psi0, h.cover, mode=mode, hamiltonian=h)
            state = evolve(state, h, 0.2, CFG)
            psi_s = schrodinger_evolve(h, psi0, 0.2)
            for p in h.cover.patches:
                for label in "XZ":
                    op = pauli_on(label, p.sites[:1], p)
                    got = state.local_expectation(p, op)
                    want = np.vdot(psi_s, embed_operator(op, p, 4) @ psi_s)
                    assert abs(got - want) < 1e-9

    def test_divergence_raises(self):
        h = tfim_chain(3, 1.0, 1.0)
        state = init_gauge_state(plus_state(3), h.cover)
        with pytest.raises(DivergenceError):
            evolve(state, h, 2000.0, IntegratorConfig(dt=100.0, reunitarize_every=0))

    def test_cover_mismatch_raises(self):
        state = init_gauge_state(plus_state(3), nn_pair_cover(3))
        with pytest.raises(ContractError):
            step(state, tfim_chain(4), CFG)

    def test_direct_mode_missing_pairs_after_start_raises(self):
        cover = nn_pair_cover(3)
        h_plain = tfim_chain(3, 1.0, 1.0)
        state = init_gauge_state(plus_state(3), cover, mode=DIRECT, hamiltonian=h_plain)
        state = evolve(state, h_plain, 0.01, IntegratorConfig(dt=1e-3))
        # a Hamiltonian that couples the two non-overlapping edge patches
        coupling = GeneralizedTerm(
            (Patch((0, 1)), Patch((1, 2))), 0.5,
            (np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_Z, PAULI_Z)),
        )
        h_wide = LocalHamiltonian(cover, h_plain.terms, [coupling])
        # the new pairs equal the overlap graph here, so craft a cover with a gap
        cover4 = nn_pair_cover(4)
        base4 = tfim_chain(4, 1.0, 1.0)
        far = GeneralizedTerm(
            (Patch((0, 1)), Patch((2, 3))), 0.5,
            (np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_Z, PAULI_Z)),
        )
        h_far = LocalHamiltonian(cover4, base4.terms, [far])
        st4 = init_gauge_state(plus_state(4), cover4, mode=DIRECT, hamiltonian=base4)
        st4 = evolve(st4, base4, 0.01, IntegratorConfig(dt=1e-3))
        with pytest.raises(ContractError):
            step(st4, h_far, IntegratorConfig(dt=1e-3))

    def test_direct_mode_convergence_is_fourth_order(self):
        # n=4 so that patch neighborhoods genuinely differ (at n=3 every
        # neighborhood is the whole H and the redundancy is exactly preserved)
        h = tfim_chain(4, 1.0, 1.0)
        psi0 = plus_state(4)

        def defect_at(dt):
            cfg = IntegratorConfig(dt=dt, reunitarize_every=0, renormalize=False)
            state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
            state = evolve(state, h, 0.4, cfg)
            return state.diagnostics(include_cocycle=False).consistency

        d1, d2 = defect_at(4e-3), defect_at(2e-3)
        assert 12.0 < d1 / d2 < 20.0


class TestObservables:
    def test_identity_expectation_is_one(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        p = Patch((1, 2))
        assert abs(state.local_expectation(p, np.eye(4)) - 1.0) < 1e-9

    def test_time_zero_expectation(self):
        h = tfim_chain(3, 1.0, 1.0)
        psi0 = plus_state(3)
        state = init_gauge_state(psi0, h.cover)
        p = Patch((0, 1))
        zz = np.kron(PAULI_Z, PAULI_Z)
        want = np.vdot(psi0, embed_operator(zz, p, 3) @ psi0)
        assert abs(state.local_expectation(p, zz) - want) < 1e-14

    def test_support_leak_raises(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        leak = embed_operator(PAULI_X, Patch((3,)), 4)
        with pytest.raises(ContractError):
            state.local_expectation(Patch((0, 1)), leak)

    def test_global_form_accepted_when_supported(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        p = Patch((1, 2))
        local = np.kron(PAULI_Z, PAULI_Z)
        global_form = embed_operator(local, p, 4)
        a = state.local_expectation(p, local)
        b = state.local_expectation(p, global_form)
        assert abs(a - b) < 1e-12

    def test_correlator_of_identities_is_one(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        chain = [(Patch((0, 1)), np.eye(4)), (Patch((2, 3)), np.eye(4))]
        assert abs(state.correlator(chain) - 1.0) < 1e-9

    def test_correlator_time_zero_is_product_expectation(self):
        h = tfim_chain(4, 1.0, 1.0)
        psi0 = plus_state(4)
        state = init_gauge_state(psi0, h.cover)
        a = (Patch((0, 1)), np.kron(np.eye(2), PAULI_Z))
        b = (Patch((2, 3)), np.kron(PAULI_X, np.eye(2)))
        got = state.correlator([a, b])
        want = np.vdot(
            psi0,
            embed_operator(a[1], a[0], 4) @ embed_operator(b[1], b[0], 4) @ psi0,
        )
        assert abs(got - want) < 1e-13

    def test_two_patch_correlator_matches_heisenberg_oracle(self, tfim4_evolved):
        h, psi0, state, _ = tfim4_evolved
        a = (Patch((0, 1)), np.kron(np.eye(2), PAULI_Z))  # Z on site 0
        b = (Patch((2, 3)), np.kron(PAULI_Z, np.eye(2)))  # Z on site 3
        got = state.correlator([a, b])
        want = heisenberg_expectation(h, psi0, [a, b], 0.5)
        assert abs(got - want) < 1e-6

    def test_empty_correlator_raises(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        with pytest.raises(ContractError):
            state.correlator([])


class TestGaugeTransform:
    def test_identity_transform_is_noop(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        g = GaugeTransform({})
        new = gauge_transform(state, g)
        for p in state.cover.patches:
            assert np.linalg.norm(new.psi[p] - state.psi[p]) < 1e-14

    def test_correlators_invariant_under_random_transforms(self, tfim4_evolved):
        h, _, state, _ = tfim4_evolved
        rng = np.random.default_rng(42)
        zz = np.kron(PAULI_Z, PAULI_Z)
        chain = [
            (Patch((0, 1)), np.kron(np.eye(2), PAULI_Z)),
            (Patch((2, 3)), np.kron(PAULI_Z, np.eye(2))),
        ]
        base_local = state.local_expectation(Patch((1, 2)), zz)
        base_chain = state.correlator(chain)
        for _ in range(5):
            g = GaugeTransform(
                {p: random_unitary(16, rng) for p in state.cover.patches}
            )
            moved = gauge_transform(state, g)
            assert abs(moved.local_expectation(Patch((1, 2)), zz) - base_local) < 1e-10
            assert abs(moved.correlator(chain) - base_chain) < 1e-10

    def test_complement_transform_recovers_schrodinger(self, tfim4_evolved):
        h, psi0, state, bundle = tfim4_evolved
        g = GaugeTransform({p: bundle.complements[p] for p in h.cover.patches})
        moved = gauge_transform(state, g)
        for p in h.cover.patches:
            assert np.linalg.norm(moved.psi[p] - bundle.psi_schrodinger) < 1e-6
        c = moved.connection(Patch((0, 1)), Patch((1, 2)))
        assert frobenius_distance(c, np.eye(16)) < 1e-6

    def test_non_unitary_factor_raises(self):
        with pytest.raises(ContractError):
            GaugeTransform({Patch((0, 1)): np.ones((4, 4))})

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "sites, dim, message",
        [((1, 2), 8, "has dim 8"), ((0, 3), 4, r"Patch\(0, 3\): not a patch of the cover")],
    )
    def test_misplaced_factor_raises(self, mode, sites, dim, message):
        # a factor of the wrong dimension, or on a patch outside the cover
        state = init_gauge_state(plus_state(4), nn_pair_cover(4), mode=mode)
        u = random_unitary(dim, np.random.default_rng(89))
        with pytest.raises(ContractError, match=message):
            gauge_transform(state, GaugeTransform({Patch(sites): u}))

    @pytest.mark.parametrize("mode", MODES)
    def test_partial_transform_leaves_other_patches_alone(self, mode):
        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=mode, hamiltonian=h)
        state = evolve(state, h, 0.05, CFG)
        moved = Patch((1, 2))
        u = random_unitary(4, np.random.default_rng(83))
        new = gauge_transform(state, GaugeTransform({moved: u}))
        # the same transform with an explicit identity factor on every other patch
        eye = np.eye(16, dtype=complex)
        full = gauge_transform(
            state, GaugeTransform({p: u if p == moved else eye for p in h.cover.patches})
        )
        assert [p for p in h.cover.patches if new.dressing_of(p) is not None] == [moved]
        assert np.array_equal(new.dressing_of(moved), full.dressing_of(moved))
        for p in h.cover.patches:
            assert np.array_equal(new.psi[p], full.psi[p])
        if mode == GENERATOR:
            assert np.array_equal(new.frame_stack, full.frame_stack)
        else:
            assert np.array_equal(new.packed, full.packed)

    def test_evolution_after_transform_stays_physical(self):
        # transform at t=0, evolve in the transformed gauge, observables agree
        h = tfim_chain(3, 1.0, 1.0)
        psi0 = plus_state(3)
        rng = np.random.default_rng(11)
        g = GaugeTransform({p: random_unitary(8, rng) for p in h.cover.patches})
        state = gauge_transform(init_gauge_state(psi0, h.cover), g)
        state = evolve(state, h, 0.3, CFG)
        psi_s = schrodinger_evolve(h, psi0, 0.3)
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in h.cover.patches:
            want = np.vdot(psi_s, embed_operator(zz, p, 3) @ psi_s)
            assert abs(state.local_expectation(p, zz) - want) < 1e-7

    def test_transform_in_direct_mode(self):
        h = tfim_chain(3, 1.0, 1.0)
        psi0 = plus_state(3)
        state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.2, IntegratorConfig(dt=1e-3))
        rng = np.random.default_rng(3)
        g = GaugeTransform({p: random_unitary(8, rng) for p in h.cover.patches})
        moved = gauge_transform(state, g)
        zz = np.kron(PAULI_Z, PAULI_Z)
        p = Patch((1, 2))
        assert abs(
            moved.local_expectation(p, zz) - state.local_expectation(p, zz)
        ) < 1e-10


class TestPlainGaugeStorage:
    """Every variable is stored in the plain gauge, and only the read-outs apply the dressing."""

    @staticmethod
    def _states(mode):
        """An evolved TFIM n = 5 state, and a transform dressing (0, 1) and (2, 3) by
        full-dimension factors and (1, 2) and (2, 3) by patch-dimension ones; (3, 4)
        stays undressed."""
        h = tfim_chain(5, 1.0, 1.0)
        state = init_gauge_state(plus_state(5), h.cover, mode=mode, hamiltonian=h)
        state = evolve(state, h, 0.05, CFG)
        rng = np.random.default_rng(97)
        p01, p12, p23, _ = h.cover.patches
        factors = {p01: random_unitary(32, rng), p12: random_unitary(4, rng), p23: random_unitary(32, rng)}
        dressed = gauge_transform(state, GaugeTransform(factors))
        dressed = gauge_transform(dressed, GaugeTransform({p23: random_unitary(4, rng)}))
        return h, state, dressed

    @staticmethod
    def _stored(state):
        return state.frame_stack if state.mode == GENERATOR else state.packed

    @pytest.mark.parametrize("mode", MODES)
    def test_transform_changes_only_the_dressing(self, mode):
        _, state, dressed = self._states(mode)
        assert self._stored(dressed) is self._stored(state)
        assert dressed.base is state.base
        assert (dressed.time, dressed.steps, dressed.cover) == (state.time, state.steps, state.cover)
        assert not state.dressing
        assert [p for p in state.cover.patches if dressed.dressing_of(p) is not None] == list(
            state.cover.patches[:3]
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_dynamics_do_not_read_the_dressing(self, mode):
        from gaugesim.measure import apply_measurement, site_projectors

        h, state, dressed = self._states(mode)
        rng = np.random.default_rng(101)
        layer = {Patch((0, 1)): random_unitary(4, rng), Patch((2, 3)): random_unitary(4, rng)}
        calls = [
            lambda s: step(s, h, CFG),
            lambda s: apply_commuting_layer(s, layer),
            lambda s: apply_measurement(s, site_projectors(Patch((2, 3)), 3), outcome=0)[0],
        ]
        for call in calls:
            plain, moved = call(state), call(dressed)
            assert np.array_equal(self._stored(moved), self._stored(plain))
            if mode == GENERATOR:
                assert np.array_equal(moved.base, plain.base)
            assert all(moved.dressing_of(p) is dressed.dressing_of(p) for p in state.cover.patches)

    @pytest.mark.parametrize("mode", MODES)
    def test_read_outs_are_dressed_plain_values(self, mode):
        h, state, dressed = self._states(mode)
        patches = state.cover.patches

        def want(x, a, b=None):
            """D_a x D_b^dag, leaving out an undressed side."""
            da = dressed.dressing_of(a)
            db = None if b is None else dressed.dressing_of(b)
            x = x if da is None else da @ x
            return x if db is None else x @ db.conj().T

        for a in patches:
            assert np.array_equal(dressed.psi[a], want(state.psi[a], a))
            if mode == GENERATOR:
                assert np.array_equal(dressed.frames[a], want(state.frames[a], a))
            h_eff = effective_hamiltonian(state, h, a)
            assert np.array_equal(effective_hamiltonian(dressed, h, a), want(h_eff, a, a))
            for b in patches:
                if b != a:
                    assert np.array_equal(dressed.connection(a, b), want(state.connection(a, b), a, b))
        if mode == DIRECT:
            for (i, j), c in state.connections.items():
                assert np.array_equal(dressed.connections[(i, j)], want(c, patches[i], patches[j]))
        # the undressed patch reads its plain-gauge array
        assert dressed.psi[patches[3]] is dressed.local[patches[3]]
        # observables never read the dressing, so they keep their bits
        zz = np.kron(PAULI_Z, PAULI_Z)
        chain = [(patches[0], zz), (patches[2], np.kron(PAULI_X, np.eye(2)))]
        assert dressed.correlator(chain) == state.correlator(chain)
        assert dressed.local_expectation(patches[1], zz) == state.local_expectation(patches[1], zz)

    def test_pairs_added_to_a_dressed_state_keep_it_consistent(self):
        # a t = 0 direct state built without the Hamiltonian gains identity
        # connections, which are right in the plain gauge whatever the dressing
        h = tfim_chain_sitewise(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=DIRECT)
        rng = np.random.default_rng(103)
        g = GaugeTransform({p: random_unitary(16, rng) for p in h.cover.patches})
        state = step(gauge_transform(state, g), h, CFG)
        assert state.diagnostics(include_cocycle=False).consistency < 1e-12


class TestCommutingLayers:
    def test_identity_gates_do_nothing(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        gates = {p: np.eye(4) for p in state.cover.patches}
        new = apply_commuting_layer(state, gates)
        for p in state.cover.patches:
            assert np.linalg.norm(new.psi[p] - state.psi[p]) < 1e-12

    def test_single_gate_at_t0_touches_overlapping_patches_only(self):
        cover = nn_pair_cover(4)
        psi0 = plus_state(4)
        state = init_gauge_state(psi0, cover)
        rng = np.random.default_rng(0)
        u = random_unitary(4, rng)
        target = Patch((1, 2))
        new = apply_commuting_layer(state, {target: u})
        u_global = embed_operator(u, target, 4)
        for p in cover.patches:
            if p.overlaps(target):
                assert np.linalg.norm(new.psi[p] - u_global @ psi0) < 1e-12
            else:
                assert np.linalg.norm(new.psi[p] - psi0) < 1e-12

    def test_brickwork_layer_matches_global_application(self, tfim4_evolved):
        h, psi0, state, bundle = tfim4_evolved
        rng = np.random.default_rng(9)
        gates = {Patch((0, 1)): random_unitary(4, rng), Patch((2, 3)): random_unitary(4, rng)}
        new = apply_commuting_layer(state, gates)
        layer = embed_operator(gates[Patch((0, 1))], Patch((0, 1)), 4) @ embed_operator(
            gates[Patch((2, 3))], Patch((2, 3)), 4
        )
        psi_after = layer @ bundle.psi_schrodinger
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in h.cover.patches:
            want = np.vdot(psi_after, embed_operator(zz, p, 4) @ psi_after)
            assert abs(new.local_expectation(p, zz) - want) < 1e-6

    def test_non_commuting_layer_raises(self):
        cover = nn_pair_cover(3)
        state = init_gauge_state(plus_state(3), cover)
        gates = {
            Patch((0, 1)): np.kron(PAULI_X, np.eye(2)),  # X on site 1
            Patch((1, 2)): np.kron(np.eye(2), PAULI_Z),  # Z on site 1
        }
        with pytest.raises(ContractError):
            apply_commuting_layer(state, gates)

    def test_gate_patch_outside_cover_raises(self):
        state = init_gauge_state(plus_state(3), nn_pair_cover(3))
        with pytest.raises(ContractError):
            apply_commuting_layer(state, {Patch((0, 2)): np.eye(4)})

    def test_non_unitary_gate_raises(self):
        state = init_gauge_state(plus_state(3), nn_pair_cover(3))
        with pytest.raises(ContractError):
            apply_commuting_layer(state, {Patch((0, 1)): np.ones((4, 4))})

    def test_direct_mode_layer_matches_generator(self):
        cover = nn_pair_cover(4)
        psi0 = plus_state(4)
        rng = np.random.default_rng(5)
        gates = {
            Patch((0, 1)): random_unitary(4, np.random.default_rng(1)),
            Patch((2, 3)): random_unitary(4, np.random.default_rng(2)),
        }
        sg = apply_commuting_layer(init_gauge_state(psi0, cover), gates)
        sd = apply_commuting_layer(init_gauge_state(psi0, cover, mode=DIRECT), gates)
        for p in cover.patches:
            assert np.linalg.norm(sg.psi[p] - sd.psi[p]) < 1e-12

    def test_dressed_gate_patches_match_undressed(self, tfim4_evolved):
        # a gate patch of a dressed state updates as D G D^dag U
        h, _, state, _ = tfim4_evolved
        rng = np.random.default_rng(17)
        g = GaugeTransform({p: random_unitary(16, rng) for p in h.cover.patches})
        gates = {Patch((0, 1)): random_unitary(4, rng), Patch((2, 3)): random_unitary(4, rng)}
        plain = apply_commuting_layer(state, gates)
        dressed = apply_commuting_layer(gauge_transform(state, g), gates)
        ops = [np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_X, np.eye(2)), np.kron(np.eye(2), PAULI_X)]
        for p in h.cover.patches:
            for op in ops:
                assert abs(dressed.local_expectation(p, op) - plain.local_expectation(p, op)) < 1e-12

    def test_overlapping_commuting_gates_match_global_product(self):
        # diagonal gates on every bond overlap and commute; a gate patch then
        # takes its own gate locally and its neighbours' gates as sandwiches
        n = 5
        cover = nn_pair_cover(n)
        psi0 = plus_state(n)
        circ = brickwork(n, 2, gate_source=23)
        state = run_circuit(init_gauge_state(psi0, cover), circ)
        rng = np.random.default_rng(29)
        gates = {p: np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4))) for p in cover.patches}
        new = apply_commuting_layer(state, gates)
        layer = np.eye(2**n, dtype=complex)
        for p, u in gates.items():
            layer = embed_operator(u, p, n) @ layer
        psi_after = layer @ circ.unitary() @ psi0
        ops = [np.kron(PAULI_Z, PAULI_Z), np.kron(PAULI_X, PAULI_X), np.kron(PAULI_X, np.eye(2))]
        for p in cover.patches:
            for op in ops:
                want = np.vdot(psi_after, embed_operator(op, p, n) @ psi_after)
                assert abs(new.local_expectation(p, op) - want) < 1e-12
        assert new.diagnostics().consistency < 1e-12


def _dense_work_spy(monkeypatch, n):
    """The list the generator layer appends to for every lift to the whole n-site chain,
    product spanning it, and gate applied to a D x D matrix (`gauge._lift`, `gauge._mul`
    and `gauge.apply_local` are spied on)."""
    dense = []
    lift, mul, apply = gauge_module._lift, gauge_module._mul, gauge_module.apply_local

    def counting_lift(w, lo, hi, out=None):
        if hi - lo + 1 == n:
            dense.append("lift")
        return lift(w, lo, hi, out)

    def counting_mul(a, b):
        lo, hi, core = mul(a, b)
        if hi - lo + 1 == n:
            dense.append("product")
        return lo, hi, core

    def counting_apply(op, where, n_sites, target, out=None):
        if np.ndim(target) == 2 and n_sites == n:
            dense.append("gate")
        return apply(op, where, n_sites, target, out)

    monkeypatch.setattr(gauge_module, "_lift", counting_lift)
    monkeypatch.setattr(gauge_module, "_mul", counting_mul)
    monkeypatch.setattr(gauge_module, "apply_local", counting_apply)
    return dense


def _dense_product_counter(dim):
    """An ndarray subclass and the list it appends to on every matmul of two
    D x D operands made with one of its arrays (a frame of the stack)."""
    dense = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            inputs = [np.asarray(a) for a in inputs]
            if ufunc is np.matmul and all(a.shape == (dim, dim) for a in inputs):
                dense.append(1)
            if "out" in kwargs:
                kwargs["out"] = tuple(np.asarray(o) for o in kwargs["out"])
            return getattr(ufunc, method)(*inputs, **kwargs)

    return Counting, dense


class TestStreamedLayer:
    """The layer forms each sandwich on demand and frees it after its last user."""

    @staticmethod
    def _brickwork_gates(n, offset, rng):
        return {Patch((i, i + 1)): random_unitary(4, rng) for i in range(offset, n - 1, 2)}

    @pytest.mark.parametrize("offset", [0, 1])
    def test_live_set_is_two_stacks_and_three_matrices(self, offset):
        n = 8
        cover = nn_pair_cover(n)
        rng = np.random.default_rng(41)
        state = run_circuit(init_gauge_state(random_state(2**n, rng), cover), brickwork(n, 2, 43))
        gates = self._brickwork_gates(n, offset, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = apply_commuting_layer(state, gates)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        matrix = 16 * 4**n
        assert new.frame_stack.nbytes == len(cover) * matrix
        # the output stack plus at most two sandwiches and one scratch matrix
        assert peak <= (len(cover) + 3) * matrix + 256 * 1024

    @pytest.mark.parametrize("offset", [0, 1])
    def test_brickwork_matches_eager_formula_bitwise(self, offset):
        n = 6
        rng = np.random.default_rng(47)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 3, 53)
        )
        gates = self._brickwork_gates(n, offset, rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))

    def test_explicit_cover_with_overlapping_gates_matches_eager_formula_bitwise(self):
        # a 3-site patch, a non-contiguous patch, and commuting diagonal gates
        # on overlapping patches, so gate patches also take other gates' sandwiches
        cover = PatchCover(5, [(0, 1, 2), (2, 3), (3, 4), (1, 4)])
        rng = np.random.default_rng(59)
        state = init_gauge_state(random_state(32, rng), cover)
        state = apply_commuting_layer(
            state, {Patch((0, 1, 2)): random_unitary(8, rng), Patch((3, 4)): random_unitary(4, rng)}
        )
        gates = {
            p: np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, p.dim)))
            for p in [Patch((0, 1, 2)), Patch((1, 4)), Patch((2, 3))]  # sorted, as the layer takes them
        }
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_dressed_state_matches_eager_formula_bitwise(self, offset):
        n = 6
        cover = nn_pair_cover(n)
        rng = np.random.default_rng(61)
        state = run_circuit(init_gauge_state(random_state(2**n, rng), cover), brickwork(n, 2, 67))
        # dress every other patch, so dressed and undressed gates share a layer
        dressed = gauge_transform(
            state, GaugeTransform({p: random_unitary(2**n, rng) for p in cover.patches[::2]})
        )
        gates = self._brickwork_gates(n, offset, rng)
        new = apply_commuting_layer(dressed, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(dressed, gates))

    @staticmethod
    def _x_basis_gates(patches, rng):
        """Gates diagonal in the product X basis, so overlapping ones commute."""
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        gates = {}
        for p in patches:
            h = functools.reduce(np.kron, [hadamard] * len(p))
            gates[p] = h @ np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, p.dim))) @ h
        return gates

    def test_fresh_layer_makes_no_dense_product(self, monkeypatch):
        n = 6
        dim = 2**n
        rng = np.random.default_rng(79)
        state = init_gauge_state(random_state(dim, rng), nn_pair_cover(n))
        dense = _dense_work_spy(monkeypatch, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            first = apply_commuting_layer(state, self._brickwork_gates(n, 0, rng))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not dense and peak < 16 * dim**2  # not even one D x D matrix is allocated
        assert "frame_stack" not in vars(first)
        h = tfim_chain(n, 1.0, 1.0)
        evolved = evolve(init_gauge_state(random_state(dim, rng), h.cover), h, 0.002, CFG)
        apply_commuting_layer(evolved, self._brickwork_gates(n, 1, rng))
        assert dense  # the spy sees the products of a layer on dense frames

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("prepare", ["fresh", "half_fresh", "partial_transform"])
    def test_identity_frames_match_eager_formula_bitwise(self, prepare, offset):
        n = 6
        rng = np.random.default_rng(71)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        if prepare == "half_fresh":
            # only the frames of (0, 1) and (1, 2) leave the identity
            state = apply_commuting_layer(state, {Patch((0, 1)): random_unitary(4, rng)})
        elif prepare == "partial_transform":
            # (2, 3) is dressed, so its gate and the patches it touches take the general path
            transform = GaugeTransform({Patch((2, 3)): random_unitary(4, rng)})
            state = gauge_transform(state, transform)
        gates = self._brickwork_gates(n, offset, rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))

    @pytest.mark.parametrize(
        "gate_patches", [[(0, 1, 2), (1, 4), (2, 3)], [(0, 1, 2), (1, 4), (2, 3), (3, 4)]]
    )
    def test_fresh_explicit_cover_with_overlapping_gates_matches_eager_formula_bitwise(
        self, gate_patches
    ):
        cover = PatchCover(5, [(0, 1, 2), (2, 3), (3, 4), (1, 4)])
        rng = np.random.default_rng(73)
        state = init_gauge_state(random_state(32, rng), cover)
        gates = self._x_basis_gates(sorted(Patch(p) for p in gate_patches), rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))


class TestWindowedLayer:
    """A layer multiplies window-local frames on the hull of their site ranges."""

    def test_frames_are_exactly_identity_outside_the_light_cone(self):
        n = 8
        rng = np.random.default_rng(101)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        circ = brickwork(n, 4, 103)
        outside = 0
        for depth in range(1, circ.depth + 1):
            state = apply_commuting_layer(state, circ.layer_gates(depth - 1))
            for p, frame in state.frames.items():
                allowed = LightConePrediction.chain(p, depth, n).allowed_sites
                defects = site_identity_defects(frame)
                for s in set(range(n)) - allowed:
                    assert defects[s] == 0.0
                    outside += 1
        assert outside > 0

    @pytest.mark.parametrize("n, depth, checked", [(8, 5, range(5)), (10, 3, [2])])
    def test_layers_match_eager_formula_and_circuit_reference(self, n, depth, checked):
        # at n = 10 only the last layer, whose hulls are widest, is checked
        # against the eager formula's D x D products
        rng = np.random.default_rng(107)
        psi0 = random_state(2**n, rng)
        cover = nn_pair_cover(n)
        circ = brickwork(n, depth, 109)
        state = init_gauge_state(psi0, cover)
        for k in range(depth):
            gates = circ.layer_gates(k)
            new = apply_commuting_layer(state, gates)
            if k in checked:
                assert np.abs(new.frame_stack - eager_layer_frames(state, gates)).max() <= 1e-14
            state = new
        psi = circuit_reference(circ, cover, psi0).psi_schrodinger
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in cover.patches:
            want = np.vdot(psi, embed_operator(zz, p, n) @ psi)
            assert abs(state.local_expectation(p, zz) - want) < 1e-8

    @pytest.mark.parametrize("offset", [0, 1])
    def test_diagonal_frames_match_eager_formula_bitwise(self, offset):
        # the off-diagonal site blocks of these frames vanish, yet no site is the identity
        n = 6
        rng = np.random.default_rng(139)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        phases = {
            Patch((i, i + 1)): np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
            for i in (0, 2, 4)
        }
        state = apply_commuting_layer(state, phases)
        gates = TestStreamedLayer._brickwork_gates(n, offset, rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_dense_frames_match_eager_formula_bitwise(self, offset):
        n = 6
        h = tfim_chain(n, 1.0, 1.0)
        rng = np.random.default_rng(113)
        state = evolve(init_gauge_state(random_state(2**n, rng), h.cover), h, 0.01, CFG)
        gates = TestStreamedLayer._brickwork_gates(n, offset, rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))

    @pytest.mark.parametrize("offset", [0, 1])
    def test_live_set_on_dense_frames_is_two_stacks_and_three_matrices(self, offset):
        n = 8
        h = tfim_chain(n, 1.0, 1.0)
        rng = np.random.default_rng(127)
        state = evolve(init_gauge_state(random_state(2**n, rng), h.cover), h, 0.002, CFG)
        gates = TestStreamedLayer._brickwork_gates(n, offset, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            apply_commuting_layer(state, gates)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        matrix = 16 * 4**n
        assert peak <= (len(h.cover) + 3) * matrix + 256 * 1024

    def test_partial_hulls_make_no_dense_product_or_temporary(self, monkeypatch):
        # after a depth-2 brickwork at n = 8 every frame spans at most 6 sites,
        # and no hull of a layer on the odd bonds spans all 8
        n = 8
        dim = 2**n
        rng = np.random.default_rng(131)
        state = init_gauge_state(random_state(dim, rng), nn_pair_cover(n))
        state = run_circuit(state, brickwork(n, 2, 137))
        dense = _dense_work_spy(monkeypatch, n)
        gates = TestStreamedLayer._brickwork_gates(n, 1, rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = apply_commuting_layer(state, gates)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert not dense and "frame_stack" not in vars(new)
        # the new windows' cores and temporaries of their size: less than one D x D matrix
        assert peak < 16 * dim**2
        assert np.abs(new.frame_stack - eager_layer_frames(state, gates)).max() <= 1e-14

    def test_products_lift_no_factor_past_its_own_range(self, monkeypatch):
        # the last layer of an n = 10 depth-3 brickwork multiplies 64 x 64 cores
        # that share a few sites; each product contracts over those sites only,
        # and U S_1 S_2 keeps U S_1 on a 6-site hull, where S_1 S_2 would first
        # span 8 sites and then U (S_1 S_2) again
        n, depth = 10, 3
        rng = np.random.default_rng(241)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        circ = brickwork(n, depth, 251)
        for k in range(depth - 1):
            state = apply_commuting_layer(state, circ.layer_gates(k))
        lifted, overlapping, hulls, work = [], [], [], []
        lift, mul = lattice_module._lift, gauge_module._mul

        def spying_lift(w, lo, hi, out=None):
            if w[:2] != (lo, hi):
                lifted.append((w[:2], (lo, hi)))
            return lift(w, lo, hi, out)

        def spying_mul(a, b):
            if a[:2] != b[:2] and max(a[0], b[0]) <= min(a[1], b[1]):
                overlapping.append((a[:2], b[:2]))
            lo, hi = lattice_module._hull(a, b)
            hulls.append(hi - lo + 1)
            work.append(len(a[2]) * len(b[2]) * 2 ** (hi - lo + 1))
            return mul(a, b)

        monkeypatch.setattr(lattice_module, "_lift", spying_lift)
        monkeypatch.setattr(gauge_module, "_mul", spying_mul)
        apply_commuting_layer(state, circ.layer_gates(depth - 1))
        assert overlapping and not lifted
        assert max(hulls) == 8 and hulls.count(8) == 2
        assert sum(work) == 2_428_928  # multiply-adds, D_a D_b D_hull per product


# chains, a cover of gapped patches, and the loop cover
_LAYER_COVERS = [nn_pair_cover(n) for n in range(2, 7)] + [
    PatchCover(6, [(0, 2), (1, 3), (2, 4), (3, 5)]),
    PatchCover(5, [(0, 1, 2), (2, 3), (3, 4), (1, 4)]),
]


class TestLayerProperties:
    """A commuting layer against the eager formula and the global state, on drawn inputs."""

    @staticmethod
    def _layer(cover, kind, rng):
        """Haar gates on disjoint patches, or diagonal gates on overlapping ones,
        in sorted patch order, as the layer takes them."""
        patches = [cover.patches[k] for k in rng.permutation(len(cover))]
        if kind == "diagonal":
            chosen = patches[: rng.integers(1, len(patches) + 1)]
            gates = {p: np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, p.dim))) for p in chosen}
        else:
            chosen = []
            for p in patches:
                if rng.random() < 0.8 and not any(p.overlaps(q) for q in chosen):
                    chosen.append(p)
            gates = {p: random_unitary(p.dim, rng) for p in chosen}
        return dict(sorted(gates.items()))

    @staticmethod
    def _global(gates, n, psi):
        for p, g in gates.items():
            psi = embed_operator(g, p, n) @ psi
        return psi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        cover=st.sampled_from(_LAYER_COVERS),
        frames=st.sampled_from(["fresh", "windowed", "evolved"]),
        kind=st.sampled_from(["haar", "diagonal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_matches_eager_formula_and_global_state(self, cover, frames, kind, seed):
        n, rng = cover.n_sites, np.random.default_rng(seed)
        psi = random_state(2**n, rng)
        state = init_gauge_state(psi, cover)
        if frames == "windowed":
            for layer_kind in ("haar", "diagonal"):
                gates = self._layer(cover, layer_kind, rng)
                state, psi = apply_commuting_layer(state, gates), self._global(gates, n, psi)
        elif frames == "evolved":  # exact dense frames C_I^dag U of a random local Hamiltonian
            h = LocalHamiltonian(cover, [LocalTerm(p, random_hermitian(p.dim, rng)) for p in cover])
            bundle = reference_gauge_state(h, cover, psi, rng.uniform(0.1, 0.5))
            stack = np.array([bundle.frames[p] for p in cover.patches])
            state, psi = state._replace(frame_stack=stack), bundle.psi_schrodinger
        gates = self._layer(cover, kind, rng)
        new = apply_commuting_layer(state, gates)
        assert np.array_equal(new.frame_stack, eager_layer_frames(state, gates))
        psi = self._global(gates, n, psi)
        for p in cover.patches:
            op = random_hermitian(p.dim, rng)
            want = np.vdot(psi, embed_operator(op, p, n) @ psi)
            assert abs(new.local_expectation(p, op) - want) < 1e-12


class TestWindowedChecks:
    """diagnostics(), connections and audits read window-local frames through their cores."""

    @staticmethod
    def _one_patch_state(m):
        """A generator state on the one-patch cover whose frame is m."""
        n = m.shape[0].bit_length() - 1
        state = init_gauge_state(plus_state(n), PatchCover(n, [tuple(range(n))]))
        return state._replace(frame_stack=np.array(m, dtype=complex)[None])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_local_unitarity_matches_the_dense_formula(self, n):
        rng = np.random.default_rng(400 + n)
        for _, _, m in window_local_matrices(n, rng):
            got = self._one_patch_state(m).diagnostics().unitarity
            assert abs(got - dense_unitarity_defect(m)) <= 1e-13

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dense_matrices_keep_their_bits(self, n):
        rng = np.random.default_rng(500 + n)
        z = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        state = self._one_patch_state(random_unitary(2**n, rng) + 1e-3 * z)
        frame = state.frame_stack[0]
        assert state.diagnostics().unitarity == dense_unitarity_defect(frame)

    @pytest.mark.parametrize("scale", [1.0, 1.001])
    @pytest.mark.parametrize("mode", MODES)
    def test_brickwork_unitarity_matches_the_dense_sweep(self, mode, scale):
        n = 6
        rng = np.random.default_rng(149)
        cover = nn_pair_cover(n)
        state = init_gauge_state(random_state(2**n, rng), cover, mode=mode)
        state = run_circuit(state, brickwork(n, 3, 151))
        if mode == DIRECT:
            packed = state.packed.copy()
            packed[len(cover) :] *= scale  # the connection rows
            state = state._replace(packed=packed)
        else:
            state = state._replace(frame_stack=scale * state.frame_stack)
        stored = state.frame_stack if mode == GENERATOR else state.connections.values()
        want = max(dense_unitarity_defect(m) for m in stored)
        assert abs(state.diagnostics().unitarity - want) <= 1e-13 * max(1.0, want)
        assert (want > 1e-3) == (scale != 1.0)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_connections_and_audits_match_dense_products(self, depth):
        n = 8
        rng = np.random.default_rng(157)
        cover = nn_pair_cover(n)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), cover), brickwork(n, depth, 163)
        )
        frames = state.frame_stack
        for i, a in enumerate(cover.patches):
            for j, b in enumerate(cover.patches):
                if i != j:
                    dense = frames[i] @ frames[j].conj().T
                    assert np.abs(state.connection(a, b) - dense).max() <= 1e-14
            audit = audit_lightcone(state, a, depth)
            want = dense_site_identity_defects(frames[i])
            assert audit.site_defects.keys() == want.keys()
            assert all(abs(audit.site_defects[s] - want[s]) <= 1e-13 for s in want)
            for b, support in audit.connection_supports.items():
                dense = frames[i] @ frames[cover.index(b)].conj().T
                defects = dense_site_identity_defects(dense)
                assert support == tuple(s for s, d in defects.items() if d > 1e-12)

    def test_audits_of_dressed_frames_match_dense_readouts(self):
        # dressings on (3, 4) and (4, 5) are multiplied into the audited frame (left) and
        # into its connection to (4, 5) (right) through window cores
        n = 8
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[0] = 1.0
        state = run_circuit(init_gauge_state(psi0, nn_pair_cover(n)), brickwork(n, 2, 5))
        rng = np.random.default_rng(191)
        factors = {Patch(sites): random_unitary(4, rng) for sites in ((3, 4), (4, 5))}
        state = gauge_transform(state, GaugeTransform(factors))
        p = Patch((3, 4))
        audit = audit_lightcone(state, p, 2)
        assert audit.frame_support == (2, 3, 4, 5)
        want = site_identity_defects(state.frames[p])
        assert audit.site_defects.keys() == want.keys()
        assert all(abs(audit.site_defects[s] - want[s]) <= 1e-13 for s in want)
        assert Patch((4, 5)) in audit.connection_supports
        for q, support in audit.connection_supports.items():
            defects = site_identity_defects(state.connection(p, q))
            assert support == tuple(s for s, d in sorted(defects.items()) if d > 1e-12)
        # the same site-4 dressing on both patches cancels in D_a U_ab D_b^dag at t = 0
        v = random_unitary(2, rng)
        eye = np.eye(2)
        same = {Patch((3, 4)): np.kron(v, eye), Patch((4, 5)): np.kron(eye, v)}
        fresh = gauge_transform(init_gauge_state(psi0, nn_pair_cover(n)), GaugeTransform(same))
        assert audit_lightcone(fresh, p, 0).connection_supports[Patch((4, 5))] == ()

    def test_connections_of_dense_frames_keep_their_bits(self):
        n = 5
        h = tfim_chain(n, 1.0, 1.0)
        rng = np.random.default_rng(167)
        state = evolve(init_gauge_state(random_state(2**n, rng), h.cover), h, 0.01, CFG)
        frames = state.frame_stack
        for i, a in enumerate(h.cover.patches):
            for j, b in enumerate(h.cover.patches):
                if i != j:
                    assert np.array_equal(state.connection(a, b), frames[i] @ frames[j].conj().T)

    @pytest.mark.parametrize("mode", MODES)
    def test_connection_of_identity_frames_is_exactly_the_identity(self, mode):
        cover = nn_pair_cover(4)
        state = init_gauge_state(plus_state(4), cover, mode=mode)
        for a in cover.patches:
            for b in cover.patches:
                assert np.array_equal(state.connection(a, b), np.eye(16))

    @staticmethod
    def _dense_checks(state, depth, monkeypatch):
        """The D x D matmuls made on frames, the D x D Grams of the unitarity sweep and
        the products spanning the chain, over diagnostics() and every patch's audit."""
        dim, n = state.dim, state.n_sites
        Counting, dense = _dense_product_counter(dim)
        state = state._replace(frame_stack=state.frame_stack.view(Counting))
        grams, spanning = [], []
        defect, mul = gauge_module.unitarity_defect, gauge_module._mul

        def counting_defect(m):
            grams.append(np.shape(m) == (dim, dim))
            return defect(m)

        def counting_mul(a, b):
            lo, hi, core = mul(a, b)
            spanning.append(hi - lo + 1 == n)
            return lo, hi, core

        monkeypatch.setattr(gauge_module, "unitarity_defect", counting_defect)
        monkeypatch.setattr(gauge_module, "_mul", counting_mul)
        state.diagnostics(include_cocycle=False)
        for p in state.cover.patches:
            audit_lightcone(state, p, depth)
        assert len(grams) == len(state.cover) and spanning
        return len(dense), sum(grams), sum(spanning)

    def test_checks_on_short_windows_make_no_dense_product(self, monkeypatch):
        # after a depth-2 brickwork at n = 8, every connection's hull is short of the chain
        n = 8
        rng = np.random.default_rng(173)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 2, 179)
        )
        assert self._dense_checks(state, 2, monkeypatch) == (0, 0, 0)

    def test_checks_on_dense_frames_make_dense_products(self, monkeypatch):
        n = 8
        h = tfim_chain(n, 1.0, 1.0)
        rng = np.random.default_rng(181)
        state = evolve(init_gauge_state(random_state(2**n, rng), h.cover), h, 0.002, CFG)
        products, grams, spanning = self._dense_checks(state, 2, monkeypatch)
        assert products > 0 and grams == len(h.cover) and spanning > 0


class TestWindowedReaders:
    """Every reader takes a connection as its window; only `connection()` lifts it to D x D."""

    @staticmethod
    def _brickwork_state(scale=1.0):
        # n = 8, depth 4: some connection hulls are short of the chain and some span it
        n = 8
        rng = np.random.default_rng(241)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 4, 251)
        )
        count = len(state.cover)
        spans = {state._connection(i, j)[:2] for i in range(count) for j in range(count) if i != j}
        assert (0, n - 1) in spans and len(spans) > 1
        return state if scale == 1.0 else state._replace(frame_stack=scale * state.frame_stack)

    @pytest.mark.parametrize("scale", [1.0, 1.01])
    def test_cocycle_matches_the_dense_sweep(self, scale):
        # scaled frames break U_IJ U_JK = U_IK, so the sweep is compared at a nonzero value;
        # a chain cover's overlap graph is a path, so the sweep sees its chains a ~ b ~ d only
        state = self._brickwork_state(scale)
        patches = state.cover.patches
        chains = [
            (a, b, d)
            for a, b, d in itertools.permutations(patches, 3)
            if a < d and a.overlaps(b) and b.overlaps(d)
        ]
        assert len(chains) == len(patches) - 2
        c = state.connection
        want = max(np.linalg.norm(c(a, b) @ c(b, d) - c(a, d)) for a, b, d in chains)
        assert abs(state.diagnostics().cocycle - want) <= 1e-13 * max(1.0, want)
        assert (want > 1e-3) == (scale != 1.0)

    @pytest.mark.parametrize(
        "sites",
        [
            [(0, 1), (4, 5)],
            [(6, 7), (1, 2)],
            [(0, 1), (3, 4), (6, 7)],
            [(5, 6), (5, 6), (2, 3)],
        ],
    )
    def test_correlator_matches_the_dense_chain(self, sites):
        state = self._brickwork_state()
        rng = np.random.default_rng(len(sites) + sites[0][0])
        chain = [(Patch(s), random_hermitian(4, rng)) for s in sites]
        n, (first, _), (last, op) = state.n_sites, chain[0], chain[-1]
        vec = apply_local(op, last, n, state.psi[last])
        for (patch, op), (nxt, _) in zip(reversed(chain[:-1]), reversed(chain[1:])):
            vec = apply_local(op, patch, n, state.connection(patch, nxt) @ vec)
        assert abs(state.correlator(chain) - np.vdot(state.psi[first], vec)) <= 1e-12

    def test_correlator_on_dense_frames_holds_one_matrix(self):
        # each connection acts on the vector frame by frame, the adjoint with no conjugated
        # copy of the core; forming U_I U_J^dag would hold two matrices, and that copy one
        n = 8
        rng = np.random.default_rng(269)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 12, 271)
        )
        assert all(hi - lo + 1 == n for lo, hi, _ in state.windows)
        zz = np.kron(PAULI_Z, PAULI_Z)
        a, b = Patch((1, 2)), Patch((5, 6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = state.correlator([(a, zz), (b, zz)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 16 * 4**n
        vec = state.connection(a, b) @ apply_local(zz, b, n, state.psi[b])
        want = np.vdot(state.psi[a], apply_local(zz, a, n, vec))
        assert abs(got - want) <= 1e-12

    def test_direct_correlator_transports_along_the_walk(self):
        h = tfim_chain(5, 1.0, 1.0)
        rng = np.random.default_rng(277)
        state = init_gauge_state(random_state(32, rng), h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.02, IntegratorConfig(dt=0.01, reunitarize_every=0))
        v = random_state(32, rng)
        for (i, j), c in state.links.items():  # a stored pair is its one link, bit for bit
            assert np.array_equal(state._transport(i, j, v), c @ v)
            assert np.array_equal(state._transport(j, i, v), c.conj().T @ v)
        zz = np.kron(PAULI_Z, PAULI_Z)
        a, b = Patch((0, 1)), Patch((3, 4))  # three links apart
        got = state.correlator([(a, zz), (b, zz)])
        vec = state.connection(a, b) @ apply_local(zz, b, 5, state.psi[b])
        want = np.vdot(state.psi[a], apply_local(zz, a, 5, vec))
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_connection_of_a_patch_to_itself_is_exactly_the_identity(self, mode):
        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=mode, hamiltonian=h)
        state = evolve(state, h, 0.05, IntegratorConfig(dt=0.01, reunitarize_every=0))
        for p in h.cover.patches:
            assert np.array_equal(state.connection(p, p), np.eye(16))

    def test_circuit_body_at_n14_stays_far_below_one_matrix(self):
        # one D x D matrix at n = 14 is 4 GiB; the body peaks near 12 MB
        n, depth = 14, 3
        rng = np.random.default_rng(257)
        psi0 = random_state(2**n, rng)
        cover = nn_pair_cover(n)
        circ = brickwork(n, depth, 263)
        zz = np.kron(PAULI_Z, PAULI_Z)
        a, b = Patch((4, 5)), Patch((6, 7))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = init_gauge_state(psi0, cover)
            for k in range(depth):
                state = apply_commuting_layer(state, circ.layer_gates(k))
            audits = [audit_lightcone(state, p, depth) for p in (a, b)]
            psi = circuit_reference(circ, cover, psi0).psi_schrodinger
            values = {
                p: (state.local_expectation(p, zz), np.vdot(psi, apply_local(zz, p, n, psi)))
                for p in (a, b)
            }
            correlator = state.correlator([(a, zz), (b, zz)])
            state.diagnostics(include_cocycle=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert all(audit.ok for audit in audits)
        assert all(abs(got - want) < 1e-8 for got, want in values.values())
        want = np.vdot(psi, apply_local(zz, a, n, apply_local(zz, b, n, psi)))
        assert abs(correlator - want) < 1e-8

    def test_diagnostics_at_n14_walks_window_sized_products(self):
        # each chain's product is formed on its hull and freed before the next chain's (49 MB);
        # a cache of the sweep's connections peaked at 92 MB here
        n = 14
        rng = np.random.default_rng(281)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 3, 283)
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = state.diagnostics()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20
        assert max(report.as_dict().values()) < 1e-11


class TestWindowStorage:
    """A layer stores each frame as its window; a stored window is what `_window` finds."""

    @staticmethod
    def _check_windows(state):
        """The windows equal `_window` on `frame_stack` in range, and their cores bitwise."""
        for (lo, hi, core), frame in zip(state.windows, state.frame_stack):
            wlo, whi, want = lattice_module._window(frame)
            assert (lo, hi) == (wlo, whi)
            assert np.array_equal(core, want)

    def test_every_layer_of_a_brickwork(self):
        n = 8
        rng = np.random.default_rng(191)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        circ = brickwork(n, 5, 193)
        for k in range(circ.depth):
            state = apply_commuting_layer(state, circ.layer_gates(k))
            assert "frame_stack" not in vars(state)  # windows are the stored form
            self._check_windows(state)
        assert any(hi - lo + 1 == n for lo, hi, _ in state.windows)  # both kinds are met
        assert any(hi - lo + 1 < n for lo, hi, _ in state.windows)

    def test_windows_hold_no_identity_site(self):
        # X on site 1 of (0, 1) and an identity gate on (2, 3): the hulls of the
        # layer's products hold identity sites, which the stored windows drop
        n = 6
        rng = np.random.default_rng(239)
        state = init_gauge_state(random_state(2**n, rng), nn_pair_cover(n))
        gates = {
            Patch((0, 1)): np.kron(PAULI_X, np.eye(2)),
            Patch((2, 3)): np.eye(4),
            Patch((4, 5)): random_unitary(4, rng),
        }
        state = apply_commuting_layer(state, gates)
        assert [w[:2] for w in state.windows] == [(1, 1), (1, 1), (0, -1), (4, 5), (4, 5)]
        self._check_windows(state)

    def test_after_a_partial_transform_and_a_measurement(self):
        from gaugesim.measure import apply_measurement, site_projectors

        n = 6
        rng = np.random.default_rng(197)
        cover = nn_pair_cover(n)
        state = run_circuit(init_gauge_state(random_state(2**n, rng), cover), brickwork(n, 2, 199))
        moved = gauge_transform(state, GaugeTransform({Patch((2, 3)): random_unitary(4, rng)}))
        assert moved.windows is state.windows
        self._check_windows(moved)
        layered = apply_commuting_layer(moved, TestStreamedLayer._brickwork_gates(n, 0, rng))
        assert "frame_stack" not in vars(layered)
        self._check_windows(layered)
        measured, _ = apply_measurement(layered, site_projectors(Patch((2, 3)), 3), outcome=0)
        assert measured.windows is layered.windows
        self._check_windows(measured)

    def test_after_a_layer_on_evolved_frames(self):
        n = 6
        h = tfim_chain(n, 1.0, 1.0)
        rng = np.random.default_rng(211)
        state = evolve(init_gauge_state(random_state(2**n, rng), h.cover), h, 0.01, CFG)
        assert "windows" not in vars(state)  # an RK4 step stores the stack
        new = apply_commuting_layer(state, TestStreamedLayer._brickwork_gates(n, 1, rng))
        assert "frame_stack" not in vars(new)
        self._check_windows(new)

    def test_circuit_body_at_n10_allocates_less_than_one_matrix(self):
        from gaugesim.measure import apply_measurement, measurement_probabilities, site_projectors

        n, depth = 10, 3
        rng = np.random.default_rng(223)
        psi0 = random_state(2**n, rng)
        cover = nn_pair_cover(n)
        circ = brickwork(n, depth, 227)
        ks = site_projectors(Patch((4, 5)), 5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            state = init_gauge_state(psi0, cover)
            for k in range(depth):
                state = apply_commuting_layer(state, circ.layer_gates(k))
            state.diagnostics(include_cocycle=False)
            assert audit_lightcone(state, Patch((4, 5)), depth).ok
            probs = measurement_probabilities(state, ks)
            zz = np.kron(PAULI_Z, PAULI_Z)
            values = {p: state.local_expectation(p, zz) for p in cover.patches}
            apply_measurement(state, ks, outcome=0)
            psi = circuit_reference(circ, cover, psi0).psi_schrodinger
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**n  # one D x D matrix
        for p, value in values.items():
            assert abs(value - np.vdot(psi, embed_operator(zz, p, n) @ psi)) < 1e-8
        p0 = np.linalg.norm(embed_operator(ks.operators[0], ks.patch, n) @ psi) ** 2
        assert abs(probs[0] - p0) < 1e-8

    def test_third_layer_at_n18_holds_no_patch_vector(self):
        # a layer stores the windows only; psi_I = U_I base is read out when first read
        n = 18
        psi0 = np.zeros(2**n, dtype=complex)
        psi0[0] = 1.0
        state = init_gauge_state(psi0, nn_pair_cover(n))
        circ = brickwork(n, 3, 5)
        for k in range(2):
            state = apply_commuting_layer(state, circ.layer_gates(k))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = apply_commuting_layer(state, circ.layer_gates(2))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert "local" not in vars(new) and new.base is state.base
        assert peak < 4 * 16 * 2**n  # four 2^n vectors; storing every psi_I took 17

    def test_audits_read_the_stored_windows(self, monkeypatch):
        n = 8
        rng = np.random.default_rng(229)
        state = run_circuit(
            init_gauge_state(random_state(2**n, rng), nn_pair_cover(n)), brickwork(n, 2, 233)
        )
        want = {p: audit_lightcone(state, p, 2) for p in state.cover.patches}
        found = []
        window = lattice_module._window

        def counting_window(m):
            found.append(m.shape)
            return window(m)

        monkeypatch.setattr(lattice_module, "_window", counting_window)
        monkeypatch.setattr(gauge_module, "_window", counting_window)
        for p in state.cover.patches:
            audit = audit_lightcone(state, p, 2)
            assert audit.site_defects == want[p].site_defects
            assert audit.connection_supports == want[p].connection_supports
        assert not found  # no window is searched for by value


class TestDiagnostics:
    def test_consistency_is_the_diagnostics_value(self, tfim4_evolved):
        h, _, state, _ = tfim4_evolved
        direct = evolve(
            init_gauge_state(plus_state(4), h.cover, mode=DIRECT, hamiltonian=h),
            h,
            0.2,
            IntegratorConfig(dt=4e-3, reunitarize_every=0),
        )
        for st in (state, direct):
            assert st.consistency() == st.diagnostics().consistency

    def test_generator_mode_cocycle_by_construction(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        assert state.diagnostics().cocycle < 1e-12

    def test_direct_mode_reports_consistency_drift(self):
        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.4, IntegratorConfig(dt=4e-3, reunitarize_every=0))
        d = state.diagnostics()
        assert 0.0 < d.consistency < 1e-6
        assert d.unitarity < 1e-6

    @staticmethod
    def _loop_cover_states():
        # a 4-cycle of overlaps: 0 ~ 1 ~ 2 ~ 3 ~ 0; the walk from patch 0 leaves (2, 3) off its tree
        rng = np.random.default_rng(271)
        cover = PatchCover(5, [(0, 1, 2), (2, 3), (3, 4), (1, 4)])
        terms = []
        for p in cover.patches:
            m = random_hermitian(p.dim, rng)
            terms.append(LocalTerm(p, m / np.linalg.norm(m, 2)))
        h = LocalHamiltonian(cover, terms)
        psi0 = random_state(2**5, rng)
        cfg = IntegratorConfig(dt=0.01, reunitarize_every=0)
        return [
            evolve(init_gauge_state(psi0, cover, mode=mode, hamiltonian=h), h, 0.2, cfg)
            for mode in MODES
        ]

    def test_the_sweep_walks_the_chains_and_the_loop(self):
        for state in self._loop_cover_states():
            assert list(state._loops()) == [[1, 0, 3], [0, 1, 2], [1, 2, 3], [0, 3, 2], [2, 1, 0, 3]]

    def test_a_loop_cover_in_generator_mode_keeps_every_identity(self):
        generator = self._loop_cover_states()[MODES.index(GENERATOR)]
        assert max(generator.diagnostics().as_dict().values()) <= 1e-6

    def test_cocycle_sees_a_link_that_consistency_cannot(self):
        # W fixes psi_3, so c_23 W psi_3 = c_23 psi_3, but c_23 W leaves the loop's holonomy
        state = self._loop_cover_states()[MODES.index(DIRECT)]
        rng = np.random.default_rng(277)
        psi3 = state.local[state.cover.patches[3]]
        u = psi3 / np.linalg.norm(psi3)
        q, _ = np.linalg.qr(np.column_stack([u, random_unitary(32, rng)[:, 1:]]))
        phases = np.exp(2j * np.pi * rng.uniform(size=31))
        w = np.outer(u, u.conj()) + (q[:, 1:] * phases) @ q[:, 1:].conj().T
        assert np.linalg.norm(w @ psi3 - psi3) < 1e-13
        bad = DirectState(state.cover, state.time, state.steps, state.packed.copy(), state.keys)
        bad.links[(2, 3)][...] = bad.links[(2, 3)] @ w
        before, after = state.diagnostics(), bad.diagnostics()
        assert abs(after.consistency - before.consistency) <= 1e-12
        assert before.cocycle < 1e-6 < 1e-2 < after.cocycle

    @pytest.mark.parametrize("mode, products", [(GENERATOR, 8), (DIRECT, 0)])
    def test_a_chain_cover_multiplies_no_chain_its_walk_repeats(self, monkeypatch, mode, products):
        # in direct mode the connection (i, k) of a chain i ~ j ~ k is the walk c_ij c_jk itself;
        # in generator mode each of the 2 chains takes 3 frame products and 1 chain product
        h = heisenberg_chain(5)
        state = init_gauge_state(plus_state(5), h.cover, mode=mode, hamiltonian=h)
        state = evolve(state, h, 0.05, IntegratorConfig(dt=0.01, reunitarize_every=0))
        calls = []
        mul = gauge_module._mul
        monkeypatch.setattr(gauge_module, "_mul", lambda a, b: calls.append(1) or mul(a, b))
        cocycle = state.diagnostics().cocycle
        assert len(calls) == products
        assert (cocycle == 0.0) == (mode == DIRECT)

    def test_direct_mode_on_an_unlinked_pair_graph(self):
        # single-site patches store no pairs: the pair graph has no edge, chain or loop
        state = init_gauge_state(plus_state(3), single_site_cover(3), mode=DIRECT)
        assert state.diagnostics().as_dict() == dict.fromkeys(
            ("consistency", "cocycle", "unitarity", "norm"), 0.0
        )
        with pytest.raises(ContractError, match=r"Patch\(0,\) and Patch\(2,\)"):
            state.connection(Patch((0,)), Patch((2,)))

class TestClock:
    def test_time_is_exact_after_whole_steps(self):
        h = tfim_chain(3, 1.0, 1.0)
        state = evolve(init_gauge_state(plus_state(3), h.cover), h, 1.0, IntegratorConfig(dt=0.1))
        assert state.time == 1.0
        assert state.steps == 10

    def test_intermediate_times_are_start_plus_count_times_dt(self):
        h = tfim_chain(3, 1.0, 1.0)
        seen = []
        state = init_gauge_state(plus_state(3), h.cover)
        evolve(state, h, 0.35, IntegratorConfig(dt=0.1), callback=lambda s: seen.append(s.time))
        assert seen == [0.1, 0.2, 0.1 * 3, 0.35]

    @pytest.mark.parametrize("t_final", [-0.1, float("nan"), float("inf")])
    def test_bad_final_time_is_a_contract_error(self, t_final):
        h = tfim_chain(3, 1.0, 1.0)
        state = init_gauge_state(plus_state(3), h.cover)
        with pytest.raises(ContractError):
            evolve(state, h, t_final, CFG)


class TestStepPlan:
    def test_built_once_and_reused_across_steps(self, monkeypatch):
        h = tfim_chain(4, 1.0, 1.0)
        builds = []
        original = StepPlan.build.__func__

        def counting(cls, hml, cover):
            builds.append(cover)
            return original(cls, hml, cover)

        monkeypatch.setattr(StepPlan, "build", classmethod(counting))
        state = init_gauge_state(plus_state(4), h.cover)
        state = step(state, h, CFG)
        plan = h.step_plan()
        for _ in range(3):
            state = step(state, h, CFG)
        effective_hamiltonian(state, h, Patch((1, 2)))
        assert len(builds) == 1
        assert h.step_plan(h.cover) is plan

    def test_serves_both_modes_from_one_object(self, monkeypatch):
        h = tfim_chain_sitewise(4, 1.0, 1.0)
        plan = h.step_plan()
        monkeypatch.setattr(StepPlan, "build", None)  # any rebuild would fail
        for mode in (GENERATOR, DIRECT):
            state = init_gauge_state(plus_state(4), h.cover, mode=mode, hamiltonian=h)
            evolve(state, h, 0.003, CFG)
        assert h.step_plan() is plan

    def test_incidence_of_the_tfim_chain(self):
        plan = tfim_chain(4, 1.0, 1.0).step_plan()
        assert [[j for j, _ in placed] for placed in plan.products] == [[0], [1], [2]]
        assert plan.touching == ((0, 1), (0, 1, 2), (1, 2))
        assert plan.connection_keys == ((0, 1), (1, 2))
        assert plan.coefficients == (None, None, None)  # static carriers

    def test_time_dependent_term_is_scaled_at_stage_times(self):
        cover = nn_pair_cover(3)
        zz = np.kron(PAULI_Z, PAULI_Z)
        seen = []

        def drive(t):
            seen.append(t)
            return t

        h = LocalHamiltonian(
            cover, [LocalTerm(Patch((0, 1)), zz), LocalTerm(Patch((0, 1)), zz, drive)]
        )
        plan = h.step_plan()
        # the static part of the carrier and the driven term are two products
        assert [[j for j, _ in placed] for placed in plan.products] == [[0], [0]]
        assert plan.coefficients[0] is None
        assert np.array_equal(plan.products[1][0][1], zz)
        step(init_gauge_state(plus_state(3), cover), h, IntegratorConfig(dt=0.1))
        assert seen == [0.0, 0.05, 0.05, 0.1]

    def test_reordered_cover_gets_its_own_plan(self):
        h = tfim_chain(4, 1.0, 1.0)
        flipped = PatchCover(4, list(reversed(h.cover.patches)))
        plan = h.step_plan(flipped)
        assert plan.patches == flipped.patches
        assert plan is not h.step_plan()
        psi0 = plus_state(4)
        a = evolve(init_gauge_state(psi0, h.cover), h, 0.05, CFG)
        b = evolve(init_gauge_state(psi0, flipped), h, 0.05, CFG)
        for p in h.cover.patches:
            assert np.linalg.norm(a.psi[p] - b.psi[p]) < 1e-14


class TestFrameStack:
    def test_frames_are_views_into_one_stack(self, tfim4_evolved):
        _, _, state, _ = tfim4_evolved
        assert state.frame_stack.shape == (3, 16, 16)
        for i, p in enumerate(state.cover.patches):
            assert np.shares_memory(state.frames[p], state.frame_stack)
            assert np.array_equal(state.frames[p], state.frame_stack[i])

    def test_layer_and_measurement_keep_one_stack(self, tfim4_evolved):
        from gaugesim.measure import apply_measurement, site_projectors

        _, _, state, _ = tfim4_evolved
        gates = {Patch((0, 1)): random_unitary(4, np.random.default_rng(2))}
        layered = apply_commuting_layer(state, gates)
        # a layer stores windows; the stack is lifted from them once, when read
        assert "frame_stack" not in vars(layered)
        measured, _ = apply_measurement(layered, site_projectors(Patch((1, 2)), 1), outcome=0)
        assert measured.windows is layered.windows
        assert "frame_stack" not in vars(measured)
        assert layered.frame_stack.shape == state.frame_stack.shape
        assert layered.frame_stack is layered.frame_stack


class TestModeClasses:
    """Each mode is one GaugeState subclass; the public functions keep its class."""

    def test_factory_dispatches_on_modes(self):
        assert MODES == (GENERATOR, DIRECT)
        h = tfim_chain(3, 1.0, 1.0)
        gen = init_gauge_state(plus_state(3), h.cover)
        direct = init_gauge_state(plus_state(3), h.cover, mode=DIRECT, hamiltonian=h)
        assert type(gen) is GeneratorState and gen.mode == GENERATOR
        assert type(direct) is DirectState and direct.mode == DIRECT
        assert gen.connections is None
        assert direct.frame_stack is None and direct.base is None and direct.frames is None
        with pytest.raises(ContractError, match="unknown mode"):
            init_gauge_state(plus_state(3), h.cover, mode="euler")

    def test_generator_state_stores_base_and_frames_only(self):
        from gaugesim.measure import apply_measurement, site_projectors

        h = tfim_chain(4, 1.0, 1.0)
        rng = np.random.default_rng(281)
        state = init_gauge_state(random_state(16, rng), h.cover)
        stepped = step(state, h, CFG)
        layered = apply_commuting_layer(state, {Patch((1, 2)): random_unitary(4, rng)})
        for s in (state, stepped, layered):
            assert "local" not in vars(s) and "base" in vars(s)
        measured, _ = apply_measurement(stepped, site_projectors(Patch((2, 3)), 3), outcome=0)
        assert "local" in vars(stepped) and "local" not in vars(measured)
        # the read-out applies each frame's window to base, whichever form is stored
        for s in (stepped, layered):
            for p, w in zip(h.cover.patches, s.windows):
                assert np.array_equal(s.local[p], lattice_module._apply_window(w, 4, s.base))
        # a collapse stores the new base; the measured patch reads U_p U_p^dag collapsed
        assert measured.frame_stack is stepped.frame_stack and measured.base is not stepped.base
        z3 = pauli_on("Z", [3], Patch((2, 3)))
        assert abs(measured.local_expectation(Patch((2, 3)), z3) - 1.0) < 1e-12
        # a dressing or a clock change keeps base and the frames, and the read-out with them
        frame_change = GaugeTransform({Patch((0, 1)): random_unitary(4, rng)})
        moved = gauge_transform(stepped._replace(time=1.0), frame_change)
        assert moved.local is stepped.local and moved.frame_stack is stepped.frame_stack

    def test_diagnostics_is_defined_once(self):
        assert "diagnostics" in vars(GaugeState)
        assert "diagnostics" not in vars(GeneratorState)
        assert "diagnostics" not in vars(DirectState)

    @pytest.mark.parametrize("mode", MODES)
    def test_public_functions_return_the_input_class(self, mode):
        """... and leave their input state as it was."""
        from gaugesim.measure import apply_measurement, site_projectors

        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=mode, hamiltonian=h)
        rng = np.random.default_rng(4)
        frame_change = GaugeTransform({Patch((1, 2)): random_unitary(4, rng)})
        layer = {Patch((0, 1)): random_unitary(4, rng)}
        calls = [
            lambda s: step(
                s, h, IntegratorConfig(dt=1e-3, reunitarize_every=1, renormalize=mode == DIRECT)
            ),
            lambda s: gauge_transform(s, frame_change),
            lambda s: apply_commuting_layer(s, layer),
            lambda s: apply_measurement(s, site_projectors(Patch((2, 3)), 3), outcome=0)[0],
        ]
        for call in calls:
            arrays = [*state.psi.values(), *(state.connections or {}).values()]
            arrays += [a for a in (state.frame_stack, state.base) if a is not None]
            before = [a.copy() for a in arrays]
            out = call(state)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
            assert type(out) is type(state)
            assert out.mode == mode
            assert out.diagnostics(include_cocycle=False).consistency < 1e-10
            state = out

    def test_direct_state_is_one_packed_array(self):
        h = tfim_chain(4, 1.0, 1.0)
        state = init_gauge_state(plus_state(4), h.cover, mode=DIRECT, hamiltonian=h)
        state = step(state, h, CFG)
        count, dim = len(h.cover), h.cover.dim
        assert state.keys == tuple(sorted(state.connections))
        assert state.packed.shape == (count + len(state.keys) * dim, dim)
        for i, p in enumerate(h.cover.patches):
            assert np.shares_memory(state.psi[p], state.packed[i])
        for m, key in enumerate(state.keys):
            rows = state.packed[count + m * dim : count + (m + 1) * dim]
            assert np.shares_memory(state.connections[key], rows)
            assert np.array_equal(state.connections[key], rows)
        moved = state._replace(time=1.0)
        assert moved.packed is state.packed and moved.keys == state.keys


class TestRK4Step:
    def test_textbook_order_on_one_array(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        y_before = y.copy()
        dt = 0.037

        def deriv(t, y, out):
            np.matmul(a, y, out=out)

        got = rk4_step(y, 0.0, dt, deriv)
        k1 = a @ y
        k2 = a @ (y + dt / 2 * k1)
        k3 = a @ (y + dt / 2 * k2)
        k4 = a @ (y + dt * k3)
        assert np.array_equal(got, y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        assert np.array_equal(y, y_before)
        assert not np.shares_memory(got, y)
        assert got.base is None  # owns its data: no state can pin the scratch block

    def test_stage_times(self):
        seen = []

        def deriv(t, y, out):
            seen.append(t)
            out[...] = 0.0

        rk4_step(np.zeros(3, dtype=np.complex128), 1.0, 0.5, deriv)
        assert seen == [1.0, 1.25, 1.25, 1.5]


class TestReunitarizationFailure:
    """A polar step that does not converge mid-run is a divergence, not bad input."""

    @pytest.mark.parametrize("mode", [GENERATOR, DIRECT])
    def test_non_convergence_raises_divergence(self, monkeypatch, mode):
        h = heisenberg_chain(4)
        monkeypatch.setattr(
            gauge_module, "polar_unitary", functools.partial(polar_unitary, max_iter=1)
        )
        state = init_gauge_state(plus_state(4), h.cover, mode=mode, hamiltonian=h)
        # a coarse step drifts far from unitarity; one Newton iteration cannot repair it
        with pytest.raises(DivergenceError, match="re-unitarization"):
            step(state, h, IntegratorConfig(dt=0.3, reunitarize_every=1))


class TestTracedNames:
    """bench/spans.py rebinds these module attributes; they must keep their shape."""

    @pytest.mark.parametrize(
        "name, params",
        [
            ("step", ["state", "hml", "config"]),
            ("rk4_step", ["y", "t", "dt", "deriv"]),
            ("polar_unitary", ["m", "tol", "max_iter"]),
            ("apply_local", ["op", "where", "n", "target", "out"]),
            ("unitarity_defect", ["m"]),
        ],
    )
    def test_gauge_module_exposes(self, name, params):
        fn = getattr(gauge_module, name)
        assert list(inspect.signature(fn).parameters) == params
