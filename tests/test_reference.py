import numpy as np
import pytest

from gaugesim.circuits import brickwork, circuit_reference
from gaugesim.errors import ContractError
from gaugesim.gauge import init_gauge_state
from gaugesim.hamiltonian import (
    LocalHamiltonian,
    LocalTerm,
    PAULI_X,
    PAULI_Z,
    tfim_chain,
)
from gaugesim.lattice import Patch, PatchCover, embed_operator, nn_pair_cover
from gaugesim.linalg import expm_hermitian, frobenius_distance, unitarity_defect
from gaugesim.reference import (
    global_propagator,
    heisenberg_expectation,
    interaction_reference,
    reference_gauge_state,
    schrodinger_evolve,
)

from _oracles import plus_state, random_hermitian, random_state, taylor_expm


def single_spin_field():
    cover = PatchCover(1, [Patch((0,))])
    return LocalHamiltonian(cover, [LocalTerm(Patch((0,)), PAULI_Z)])


def driven_tfim(n, drive):
    """Static ZZ bonds plus a time-scaled transverse field on each bond patch."""
    cover = nn_pair_cover(n)
    zz = np.kron(PAULI_Z, PAULI_Z)
    x_lo = np.kron(np.eye(2), PAULI_X)
    x_hi = np.kron(PAULI_X, np.eye(2))
    terms = []
    for i in range(n - 1):
        terms.append(LocalTerm(Patch((i, i + 1)), -zz))
        field = x_lo + (x_hi if i == n - 2 else 0.0 * x_hi)
        terms.append(LocalTerm(Patch((i, i + 1)), -field, time_dependence=drive))
    return LocalHamiltonian(cover, terms)


INITIAL_STATE_ENTRY_POINTS = {
    "reference_gauge_state": lambda h, psi: reference_gauge_state(h, h.cover, psi, 0.3),
    "schrodinger_evolve": lambda h, psi: schrodinger_evolve(h, psi, 0.3),
    "heisenberg_expectation": lambda h, psi: heisenberg_expectation(
        h, psi, [(Patch((0, 1)), np.kron(PAULI_Z, PAULI_Z))], 0.3
    ),
    "interaction_reference": lambda h, psi: interaction_reference(h, Patch((1, 2)), psi, 0.3),
    "circuit_reference": lambda h, psi: circuit_reference(brickwork(4, 2), h.cover, psi),
    "init_gauge_state": lambda h, psi: init_gauge_state(psi, h.cover),
}


@pytest.mark.parametrize("entry", sorted(INITIAL_STATE_ENTRY_POINTS))
def test_a_normalized_psi0_of_the_wrong_length_is_a_contract_error(entry):
    """Every oracle and the engine share one initial-state check."""
    with pytest.raises(ContractError, match=r"expected \(16,\)"):
        INITIAL_STATE_ENTRY_POINTS[entry](tfim_chain(4), plus_state(3))


class TestSchrodingerEvolve:
    def test_zero_time_returns_initial(self):
        h = tfim_chain(3)
        psi0 = plus_state(3)
        assert np.linalg.norm(schrodinger_evolve(h, psi0, 0.0) - psi0) < 1e-14

    def test_single_spin_phases(self):
        h = single_spin_field()
        psi0 = np.array([1, 1], dtype=complex) / np.sqrt(2)
        t = 0.9
        got = schrodinger_evolve(h, psi0, t)
        want = np.array([np.exp(-1j * t), np.exp(1j * t)]) / np.sqrt(2)
        assert np.linalg.norm(got - want) < 1e-13

    def test_cached_spectrum_matches_propagator(self, monkeypatch):
        h = tfim_chain(4)
        psi0 = random_state(16, np.random.default_rng(6))
        times = [0.0, 0.3, 1.7, 12.5]
        want = [expm_hermitian(h.total(), t) @ psi0 for t in times]
        want_u = expm_hermitian(h.total(), 0.9)
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for t, w in zip(times, want):
            assert np.linalg.norm(schrodinger_evolve(h, psi0, t) - w) < 1e-12
        assert frobenius_distance(global_propagator(h, 0.9), want_u) < 1e-12
        assert len(calls) == 1

    @pytest.mark.parametrize("oracle", [schrodinger_evolve, global_propagator])
    def test_rejects_non_finite_time(self, oracle):
        h = tfim_chain(2)
        args = (plus_state(2), np.nan) if oracle is schrodinger_evolve else (np.inf,)
        with pytest.raises(ContractError, match="finite"):
            oracle(h, *args)

    def test_rejects_non_hermitian_hamiltonian(self):
        # within the term's 1e-10 tolerance but outside the oracle's 1e-12
        op = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        h = LocalHamiltonian(PatchCover(1, [Patch((0,))]), [LocalTerm(Patch((0,)), op)])
        with pytest.raises(ContractError, match="not Hermitian"):
            schrodinger_evolve(h, np.array([1.0, 0.0]), 0.1)

    def test_rejects_unnormalized_state(self):
        h = tfim_chain(2)
        with pytest.raises(ContractError):
            schrodinger_evolve(h, np.array([1.0, 1.0, 0.0, 0.0]), 0.1)

    def test_time_dependent_richardson_ratio(self):
        h = driven_tfim(3, lambda t: 1.0 + 0.5 * np.sin(2.0 * t))
        psi0 = random_state(8, np.random.default_rng(1))
        t = 0.8
        psi_a = schrodinger_evolve(h, psi0, t, dt=4e-3)
        psi_b = schrodinger_evolve(h, psi0, t, dt=2e-3)
        psi_c = schrodinger_evolve(h, psi0, t, dt=1e-3)
        ratio = np.linalg.norm(psi_a - psi_b) / np.linalg.norm(psi_b - psi_c)
        assert 12.0 < ratio < 20.0  # 4th-order: halving dt shrinks the error 16x

    def test_time_dependent_state_and_propagator_share_one_integration(self):
        # RK4 is linear in y, so integrating psi0 or the identity gives the same psi(t)
        h = driven_tfim(3, lambda t: 1.0 + 0.5 * np.sin(2.0 * t))
        psi0 = random_state(8, np.random.default_rng(2))
        for t in (0.0, 0.013, 0.3):
            psi = schrodinger_evolve(h, psi0, t, dt=1e-3)
            assert np.linalg.norm(psi - global_propagator(h, t, dt=1e-3) @ psi0) < 1e-13


class TestReferenceGaugeState:
    def test_single_patch_cover_is_schrodinger(self):
        cover = PatchCover(2, [Patch((0, 1))])
        rng = np.random.default_rng(3)
        h = LocalHamiltonian(cover, [LocalTerm(Patch((0, 1)), random_hermitian(4, rng))])
        psi0 = random_state(4, rng)
        bundle = reference_gauge_state(h, cover, psi0, 0.7)
        p = cover.patches[0]
        assert frobenius_distance(bundle.complements[p], np.eye(4)) < 1e-12
        assert frobenius_distance(bundle.frames[p], bundle.propagator) < 1e-12
        assert np.linalg.norm(bundle.psi[p] - bundle.psi_schrodinger) < 1e-12

    def test_zero_hamiltonian_everything_trivial(self):
        cover = nn_pair_cover(3)
        h = LocalHamiltonian(cover, [])
        psi0 = plus_state(3)
        bundle = reference_gauge_state(h, cover, psi0, 2.0)
        for p in cover.patches:
            assert frobenius_distance(bundle.frames[p], np.eye(8)) < 1e-13
            assert np.linalg.norm(bundle.psi[p] - psi0) < 1e-13

    def test_bundle_relations(self):
        h = tfim_chain(4, 1.0, 0.7)
        psi0 = plus_state(4)
        bundle = reference_gauge_state(h, h.cover, psi0, 0.6)
        for p in h.cover.patches:
            # frame unitarity and psi_patch = complement^dag psi_global
            assert unitarity_defect(bundle.frames[p]) < 1e-12
            want = bundle.complements[p].conj().T @ bundle.psi_schrodinger
            assert np.linalg.norm(bundle.psi[p] - want) < 1e-13

    def test_frames_and_psi_are_cached_on_first_access(self):
        h = tfim_chain(4, 1.0, 0.7)
        psi0 = plus_state(4)
        circ = brickwork(4, 2, gate_source=3)
        for bundle in (
            reference_gauge_state(h, h.cover, psi0, 0.6),
            circuit_reference(circ, h.cover, psi0),
        ):
            assert bundle.frames is bundle.frames
            assert bundle.psi is bundle.psi
            for p in h.cover.patches:
                c_dag = bundle.complements[p].conj().T
                assert np.array_equal(bundle.frames[p], c_dag @ bundle.propagator)
                assert np.array_equal(bundle.psi[p], c_dag @ bundle.psi_schrodinger)

    def test_propagator_matches_taylor_oracle(self):
        h = tfim_chain(3, 1.0, 1.0)
        got = global_propagator(h, 0.4)
        want = taylor_expm(h.total(), 0.4)
        assert frobenius_distance(got, want) < 1e-11

    def test_cover_mismatch_raises(self):
        h = tfim_chain(3)
        with pytest.raises(ContractError):
            reference_gauge_state(h, nn_pair_cover(4), plus_state(4), 0.1)

    def test_time_dependent_bundle_consistency(self):
        h = driven_tfim(3, lambda t: 1.0 + 0.3 * np.cos(t))
        psi0 = plus_state(3)
        bundle = reference_gauge_state(h, h.cover, psi0, 0.5, dt=1e-3)
        psi_direct = schrodinger_evolve(h, psi0, 0.5, dt=1e-3)
        assert np.linalg.norm(bundle.psi_schrodinger - psi_direct) < 1e-12
        for p in h.cover.patches:
            assert unitarity_defect(bundle.complements[p]) < 1e-10


class TestHeisenbergExpectation:
    def test_zero_time_plain_expectation(self):
        h = tfim_chain(3, 1.0, 0.5)
        psi0 = plus_state(3)
        patch = Patch((0, 1))
        op = np.kron(PAULI_Z, PAULI_Z)
        got = heisenberg_expectation(h, psi0, [(patch, op)], 0.0)
        want = np.vdot(psi0, embed_operator(op, patch, 3) @ psi0)
        assert abs(got - want) < 1e-13

    def test_energy_is_conserved(self):
        h = tfim_chain(4, 1.0, 0.9)
        psi0 = plus_state(4)
        patch = h.cover.patches[0]
        values = [
            heisenberg_expectation(h, psi0, [(patch, h.total())], t)
            for t in (0.0, 0.3, 0.9, 1.7)
        ]
        assert max(abs(v - values[0]) for v in values) < 1e-10

    def test_operator_product_ordering(self):
        h = tfim_chain(3, 1.0, 1.0)
        psi0 = plus_state(3)
        a = (Patch((0, 1)), np.kron(np.eye(2), PAULI_Z))
        b = (Patch((1, 2)), np.kron(PAULI_X, np.eye(2)))
        t = 0.4
        got = heisenberg_expectation(h, psi0, [a, b], t)
        psi_t = schrodinger_evolve(h, psi0, t)
        prod = embed_operator(a[1], a[0], 3) @ embed_operator(b[1], b[0], 3)
        want = np.vdot(psi_t, prod @ psi_t)
        assert abs(got - want) < 1e-12


class TestInteractionReference:
    def test_full_neighborhood_means_schrodinger(self):
        # a 2-site chain has one patch, so the free part vanishes
        h = tfim_chain(2, 1.0, 1.0)
        psi0 = plus_state(2)
        ref = interaction_reference(h, Patch((0, 1)), psi0, 0.8)
        assert np.abs(ref.h0).max() < 1e-14
        assert np.linalg.norm(ref.psi_interaction - schrodinger_evolve(h, psi0, 0.8)) < 1e-12

    def test_free_part_commutes_with_patch_operators(self):
        h = tfim_chain(5, 1.0, 1.0)
        patch = Patch((1, 2))
        psi0 = plus_state(5)
        ref = interaction_reference(h, patch, psi0, 0.5)
        rng = np.random.default_rng(7)
        a = embed_operator(random_hermitian(4, rng), patch, 5)
        moved = ref.u0.conj().T @ a @ ref.u0
        assert np.abs(moved - a).max() < 1e-11

    def test_h_splits_into_free_plus_interacting(self):
        h = tfim_chain(4, 0.8, 1.1)
        ref = interaction_reference(h, Patch((1, 2)), plus_state(4), 0.3)
        assert np.abs((ref.h0 + ref.h1) - h.total()).max() < 1e-13

    def test_time_dependent_free_propagator_is_the_complement(self):
        # the RK4 branch: u0 integrates H(t) minus the patch's neighborhood
        h = driven_tfim(3, lambda t: 1.0 + 0.3 * np.cos(t))
        psi0 = plus_state(3)
        patch = Patch((1, 2))
        ref = interaction_reference(h, patch, psi0, 0.5, dt=1e-3)
        bundle = reference_gauge_state(h, h.cover, psi0, 0.5, dt=1e-3)
        complement = bundle.complements[patch]
        assert frobenius_distance(ref.u0, complement) < 1e-12
        want = complement.conj().T @ bundle.psi_schrodinger
        assert np.linalg.norm(ref.psi_interaction - want) < 1e-12

    def test_patch_not_in_cover_raises(self):
        h = tfim_chain(4)
        with pytest.raises(ContractError):
            interaction_reference(h, Patch((0, 2)), plus_state(4), 0.1)
