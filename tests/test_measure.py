import numpy as np
import pytest

import gaugesim.gauge as gauge_module
import gaugesim.measure as measure_module
from gaugesim.errors import ContractError
from gaugesim.gauge import DIRECT, IntegratorConfig, evolve, init_gauge_state
from gaugesim.hamiltonian import PAULI_X, PAULI_Z, tfim_chain
from gaugesim.lattice import Patch, embed_operator, nn_pair_cover, single_site_cover
from gaugesim.measure import (
    KrausSet,
    apply_measurement,
    measurement_probabilities,
    site_projectors,
    validate_kraus,
)
from gaugesim.linalg import random_unitary
from gaugesim.reference import schrodinger_evolve

from _oracles import plus_state

CFG = IntegratorConfig(dt=1e-3, reunitarize_every=1)


@pytest.fixture(scope="module")
def evolved():
    h = tfim_chain(4, 1.0, 1.0)
    psi0 = plus_state(4)
    state = evolve(init_gauge_state(psi0, h.cover), h, 0.5, CFG)
    psi_s = schrodinger_evolve(h, psi0, 0.5)
    return h, psi0, state, psi_s


class TestValidateKraus:
    def test_z_projectors_pass(self):
        ks = site_projectors(Patch((0, 1)), 0)
        check = validate_kraus(ks)
        assert check.ok and check.defect < 1e-14

    def test_incomplete_set_reports_defect(self):
        ks = KrausSet(Patch((0,)), [0.5 * np.eye(2)])
        check = validate_kraus(ks)
        assert not check.ok
        # sum E^dag E = I/4, so the defect is ||(3/4) I_2||_F
        assert abs(check.defect - 0.75 * np.sqrt(2.0)) < 1e-14

    def test_isometry_blocks_pass(self):
        # stacking blocks of a unitary's first columns gives a complete set
        rng = np.random.default_rng(12)
        m = 3
        d = 4
        w = random_unitary(m * d, rng)
        v = w[:, :d]
        ops = [v[k * d : (k + 1) * d, :] for k in range(m)]
        check = validate_kraus(KrausSet(Patch((0, 1)), ops))
        assert check.ok

    def test_empty_set_raises(self):
        with pytest.raises(ContractError):
            KrausSet(Patch((0,)), [])

    def test_dim_mismatch_raises(self):
        with pytest.raises(ContractError):
            KrausSet(Patch((0, 1)), [np.eye(2)])


class TestProbabilities:
    def test_all_zeros_state_is_deterministic(self):
        cover = nn_pair_cover(4)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        state = init_gauge_state(psi0, cover)
        probs = measurement_probabilities(state, site_projectors(Patch((0, 1)), 0))
        assert np.allclose(probs, [1.0, 0.0], atol=1e-14)

    def test_identity_kraus_is_certain(self, evolved):
        _, _, state, _ = evolved
        ks = KrausSet(Patch((1, 2)), [np.eye(4)])
        probs = measurement_probabilities(state, ks)
        assert abs(probs[0] - 1.0) < 1e-9

    def test_matches_schrodinger_oracle(self, evolved):
        h, _, state, psi_s = evolved
        ks = site_projectors(Patch((2, 3)), 3)
        probs = measurement_probabilities(state, ks)
        for k, e in enumerate(ks.operators):
            e_glob = embed_operator(e, ks.patch, 4)
            want = np.vdot(psi_s, e_glob.conj().T @ e_glob @ psi_s).real
            assert abs(probs[k] - want) < 1e-8

    def test_probabilities_sum_to_one(self, evolved):
        _, _, state, _ = evolved
        probs = measurement_probabilities(state, site_projectors(Patch((1, 2)), 1))
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_incomplete_kraus_raises(self, evolved):
        _, _, state, _ = evolved
        with pytest.raises(ContractError):
            measurement_probabilities(state, KrausSet(Patch((0, 1)), [0.5 * np.eye(4)]))

    def test_inconsistent_state_raises(self, evolved):
        h, psi0, _, _ = evolved
        state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
        packed = state.packed.copy()
        packed[0, 0] += 0.2  # the first patch's psi row, out of step with its connections
        packed[0] /= np.linalg.norm(packed[0])
        broken = state._replace(packed=packed)
        with pytest.raises(ContractError):
            measurement_probabilities(broken, site_projectors(Patch((0, 1)), 0))

    @pytest.mark.parametrize("mode", ["generator", DIRECT])
    def test_no_unitarity_sweep_over_frames_or_connections(self, evolved, mode, monkeypatch):
        h, psi0, state, _ = evolved
        if mode == DIRECT:
            state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
            state = evolve(state, h, 0.1, IntegratorConfig(dt=1e-3))
        shapes = []
        original = gauge_module.unitarity_defect

        def counting(m):
            shapes.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(gauge_module, "unitarity_defect", counting)
        ks = site_projectors(Patch((1, 2)), 1)
        measurement_probabilities(state, ks)
        apply_measurement(state, ks, rng=5)
        assert (state.dim, state.dim) not in shapes


class TestApplyMeasurement:
    def test_each_kraus_product_is_computed_once(self, evolved, monkeypatch):
        _, _, state, _ = evolved
        calls = []
        original = measure_module.apply_local

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(measure_module, "apply_local", counting)
        ks = site_projectors(Patch((1, 2)), 1)
        apply_measurement(state, ks, rng=3)
        assert len(calls) == len(ks)

    def test_record_carries_every_probability(self, evolved):
        _, _, state, _ = evolved
        ks = site_projectors(Patch((1, 2)), 1)
        _, record = apply_measurement(state, ks, rng=3)
        assert np.array_equal(record.probabilities, measurement_probabilities(state, ks))
        assert record.probability == record.probabilities[record.outcome]

    def test_direct_mode_collapse_needs_linked_patches(self):
        # single-site patches never overlap: without a Hamiltonian nothing is stored
        state = init_gauge_state(plus_state(3), single_site_cover(3), mode=DIRECT)
        with pytest.raises(ContractError, match="collapse cannot be transported to patches"):
            apply_measurement(state, site_projectors(Patch((0,)), 0), outcome=0)

    def test_eigenstate_is_left_alone(self):
        cover = nn_pair_cover(4)
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        state = init_gauge_state(psi0, cover)
        new, rec = apply_measurement(state, site_projectors(Patch((0, 1)), 0), rng=0)
        assert rec.outcome == 0
        assert abs(rec.probability - 1.0) < 1e-12
        for p in cover.patches:
            assert np.linalg.norm(new.psi[p] - psi0) < 1e-12

    def test_post_measurement_matches_collapse_oracle(self, evolved):
        h, _, state, psi_s = evolved
        ks = site_projectors(Patch((2, 3)), 3)
        new, _ = apply_measurement(state, ks, outcome=0)
        e_glob = embed_operator(ks.operators[0], ks.patch, 4)
        psi_c = e_glob @ psi_s
        psi_c /= np.linalg.norm(psi_c)
        zz = np.kron(PAULI_Z, PAULI_Z)
        for p in h.cover.patches:
            want = np.vdot(psi_c, embed_operator(zz, p, 4) @ psi_c)
            assert abs(new.local_expectation(p, zz) - want) < 1e-8

    def test_outcome_average_preserves_commuting_expectations(self, evolved):
        h, _, state, _ = evolved
        ks = site_projectors(Patch((2, 3)), 3)
        probs = measurement_probabilities(state, ks)
        observables = [
            (Patch((2, 3)), np.kron(PAULI_Z, np.eye(2))),  # Z on the measured site
            (Patch((0, 1)), np.kron(np.eye(2), PAULI_X)),  # X far away
        ]
        for patch, op in observables:
            before = state.local_expectation(patch, op)
            after = 0.0
            for k, pk in enumerate(probs):
                collapsed, _ = apply_measurement(state, ks, outcome=k)
                after += pk * collapsed.local_expectation(patch, op)
            assert abs(after - before) < 1e-8

    def test_post_measurement_consistency_restored(self, evolved):
        _, _, state, _ = evolved
        new, _ = apply_measurement(state, site_projectors(Patch((2, 3)), 3), outcome=1)
        assert new.diagnostics(include_cocycle=False).consistency < 1e-12

    def test_direct_mode_transport_is_exact(self):
        h = tfim_chain(4, 1.0, 1.0)
        psi0 = plus_state(4)
        state = init_gauge_state(psi0, h.cover, mode=DIRECT, hamiltonian=h)
        state = evolve(state, h, 0.3, IntegratorConfig(dt=1e-3))
        new, _ = apply_measurement(state, site_projectors(Patch((1, 2)), 1), outcome=0)
        # transport along the connection tree leaves no residual defect at all
        assert new.diagnostics(include_cocycle=False).consistency < 1e-13

    def test_impossible_outcome_raises(self):
        cover = nn_pair_cover(3)
        psi0 = np.zeros(8, dtype=complex)
        psi0[0] = 1.0
        state = init_gauge_state(psi0, cover)
        with pytest.raises(ContractError):
            apply_measurement(state, site_projectors(Patch((0, 1)), 0), outcome=1)

    def test_needs_outcome_or_rng(self, evolved):
        _, _, state, _ = evolved
        with pytest.raises(ContractError):
            apply_measurement(state, site_projectors(Patch((0, 1)), 0))

    def test_seeded_sampling_reproducible(self, evolved):
        _, _, state, _ = evolved
        ks = site_projectors(Patch((1, 2)), 2)
        a_state, a_rec = apply_measurement(state, ks, rng=987)
        b_state, b_rec = apply_measurement(state, ks, rng=987)
        assert a_rec == b_rec
        for p in state.cover.patches:
            assert np.array_equal(a_state.psi[p], b_state.psi[p])

    def test_sampling_follows_distribution(self, evolved):
        _, _, state, _ = evolved
        ks = site_projectors(Patch((1, 2)), 2)
        probs = measurement_probabilities(state, ks)
        rng = np.random.default_rng(5)
        outcomes = [apply_measurement(state, ks, rng=rng)[1].outcome for _ in range(200)]
        freq = np.mean([o == 0 for o in outcomes])
        assert abs(freq - probs[0]) < 0.12  # crude binomial check

    def test_x_basis_projectors(self):
        ks = site_projectors(Patch((0, 1)), 0, basis="X")
        assert validate_kraus(ks).ok
        psi0 = plus_state(2)
        state = init_gauge_state(psi0, nn_pair_cover(2))
        probs = measurement_probabilities(state, ks)
        assert np.allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_bad_site_or_basis_raises(self):
        with pytest.raises(ContractError):
            site_projectors(Patch((0, 1)), 5)
        with pytest.raises(ContractError):
            site_projectors(Patch((0, 1)), 0, basis="Y")
