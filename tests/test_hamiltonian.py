import numpy as np
import pytest

from gaugesim.errors import ContractError
from gaugesim.hamiltonian import (
    GeneralizedTerm,
    LocalHamiltonian,
    LocalTerm,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    build_model,
    heisenberg_chain,
    pauli_on,
    tfim_chain,
    tfim_chain_sitewise,
)
from gaugesim.lattice import Patch, PatchCover, embed_operator, nn_pair_cover
from gaugesim.linalg import hermiticity_defect

from _oracles import dense_heisenberg, dense_tfim, random_hermitian


class TestTfimChain:
    def test_two_sites_single_term(self):
        h = tfim_chain(2, j=1.3, g=0.4)
        assert len(h.terms) == 1
        want = (
            -1.3 * np.kron(PAULI_Z, PAULI_Z)
            - 0.4 * np.kron(PAULI_I, PAULI_X)
            - 0.4 * np.kron(PAULI_X, PAULI_I)
        )
        assert np.abs(h.terms[0].op - want).max() < 1e-15

    def test_total_matches_dense_oracle(self):
        h = tfim_chain(3, j=1.0, g=0.5)
        assert np.abs(h.total() - dense_tfim(3, 1.0, 0.5)).max() < 1e-14

    def test_every_term_hermitian(self):
        h = tfim_chain(5, j=0.7, g=1.1)
        for term in h.terms:
            assert hermiticity_defect(term.op) < 1e-14

    def test_split_assignment_same_total(self):
        a = tfim_chain(4, 1.0, 0.8, field_assignment="leftmost")
        b = tfim_chain(4, 1.0, 0.8, field_assignment="split")
        assert np.abs(a.total() - b.total()).max() < 1e-14
        # but the per-patch decomposition differs
        assert np.abs(a.terms[1].op - b.terms[1].op).max() > 0.1

    def test_unknown_assignment_raises(self):
        with pytest.raises(ContractError):
            tfim_chain(3, field_assignment="rightmost")


class TestHeisenbergChain:
    def test_zero_couplings_zero_hamiltonian(self):
        h = heisenberg_chain(3, 0.0, 0.0, 0.0)
        assert np.abs(h.total()).max() == 0.0

    def test_two_sites_zz_only(self):
        h = heisenberg_chain(2, 0.0, 0.0, 1.0)
        assert np.allclose(h.total(), np.diag([1, -1, -1, 1]), atol=1e-15)

    def test_total_matches_dense_oracle(self):
        h = heisenberg_chain(4, 0.9, -0.4, 1.2)
        assert np.abs(h.total() - dense_heisenberg(4, 0.9, -0.4, 1.2)).max() < 1e-13


class TestSitewiseTfim:
    def test_matches_pair_cover_total(self):
        a = tfim_chain_sitewise(5, 1.0, 1.0)
        b = tfim_chain(5, 1.0, 1.0)
        assert np.abs(a.total() - b.total()).max() < 1e-13

    def test_zz_terms_couple_two_patches(self):
        h = tfim_chain_sitewise(3, 1.0, 0.0)
        assert all(len(gt.patches) == 2 for gt in h.gen_terms)


class TestNeighborhood:
    def test_single_patch_cover_gives_total(self):
        cover = PatchCover(3, [Patch((0, 1, 2))])
        rng = np.random.default_rng(0)
        term = LocalTerm(Patch((0, 1, 2)), random_hermitian(8, rng))
        h = LocalHamiltonian(cover, [term])
        p = cover.patches[0]
        assert np.abs(h.neighborhood(p) - h.total()).max() < 1e-14

    def test_nn_chain_picks_adjacent_terms(self):
        h = tfim_chain(6, 1.0, 0.5)
        got = h.neighborhood(Patch((3, 4)))
        want = sum(
            h.embedded_term(i)
            for i, t in enumerate(h.terms)
            if t.patch in (Patch((2, 3)), Patch((3, 4)), Patch((4, 5)))
        )
        assert np.abs(got - want).max() < 1e-14

    def test_sitewise_neighborhood_by_brute_overlap_scan(self):
        h = tfim_chain_sitewise(5, 1.0, 0.7)
        n = 5
        for i in range(n):
            got = h.neighborhood(Patch((i,)))
            want = np.zeros((2**n, 2**n), dtype=complex)
            for g, gt in enumerate(h.gen_terms):
                if not (gt.union_sites & {i}):
                    continue
                prod = np.eye(2**n, dtype=complex)
                for k, (p, fac) in enumerate(zip(gt.patches, gt.factors)):
                    prod = prod @ embed_operator(fac, p, n)
                want += gt.coeff(0.0) * prod
            assert np.abs(got - want).max() < 1e-13

    def test_patch_not_in_cover_raises(self):
        h = tfim_chain(4)
        with pytest.raises(ContractError):
            h.neighborhood(Patch((0, 2)))

    def test_terms_sum_to_total(self):
        h = tfim_chain(5, 0.8, 1.3)
        acc = sum(h.embedded_term(i) for i in range(len(h.terms)))
        assert np.abs(acc - h.total()).max() < 1e-14

    def test_distant_terms_commute_with_patch_operators(self):
        h = tfim_chain(5, 1.0, 1.0)
        rng = np.random.default_rng(3)
        patch = Patch((1, 2))
        a = embed_operator(random_hermitian(4, rng), patch, 5)
        rest = h.total() - h.neighborhood(patch)
        assert np.abs(rest @ a - a @ rest).max() < 1e-12

    def test_time_dependent_coefficient_is_linear(self):
        cover = nn_pair_cover(3)
        bond = np.kron(PAULI_Z, PAULI_Z)
        h = LocalHamiltonian(
            cover,
            [
                LocalTerm(Patch((0, 1)), bond, time_dependence=lambda t: 2.0 * t),
                LocalTerm(Patch((1, 2)), bond),
            ],
        )
        p = Patch((0, 1))
        h1 = h.neighborhood(p, 1.0)
        h2 = h.neighborhood(p, 2.0)
        static = embed_operator(bond, Patch((1, 2)), 3)
        assert np.abs((h2 - static) - 2.0 * (h1 - static)).max() < 1e-13
        assert h.is_time_dependent


class TestValidation:
    def test_term_patch_must_be_in_cover(self):
        with pytest.raises(ContractError):
            LocalHamiltonian(
                nn_pair_cover(3), [LocalTerm(Patch((0, 2)), np.eye(4))]
            )

    def test_non_hermitian_term_raises(self):
        upper = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ContractError):
            LocalTerm(Patch((0,)), upper)

    def test_term_dim_mismatch_raises(self):
        with pytest.raises(ContractError):
            LocalTerm(Patch((0, 1)), np.eye(2))

    def test_generalized_term_shape_checks(self):
        with pytest.raises(ContractError):
            GeneralizedTerm((Patch((0,)),), 1.0, (PAULI_Z, PAULI_Z))
        with pytest.raises(ContractError):
            GeneralizedTerm((Patch((0, 1)),), 1.0, (PAULI_Z,))

    def test_non_hermitian_generalized_sum_raises(self):
        upper = np.array([[0, 1], [0, 0]], dtype=complex)
        cover = PatchCover(1, [Patch((0,))])
        with pytest.raises(ContractError):
            LocalHamiltonian(
                cover, gen_terms=[GeneralizedTerm((Patch((0,)),), 1.0, (upper,))]
            )

    def test_conjugate_partners_are_accepted(self):
        upper = np.array([[0, 1], [0, 0]], dtype=complex)
        cover = PatchCover(1, [Patch((0,))])
        h = LocalHamiltonian(
            cover,
            gen_terms=[
                GeneralizedTerm((Patch((0,)),), 1.0, (upper,)),
                GeneralizedTerm((Patch((0,)),), 1.0, (upper.conj().T,)),
            ],
        )
        assert np.abs(h.total() - PAULI_X).max() < 1e-15


class TestHelpers:
    def test_pauli_on_places_labels(self):
        patch = Patch((2, 3))
        got = pauli_on("XZ", (2, 3), patch)
        assert np.abs(got - np.kron(PAULI_Z, PAULI_X)).max() < 1e-15

    def test_pauli_on_site_outside_patch_raises(self):
        with pytest.raises(ContractError):
            pauli_on("X", (1,), Patch((2, 3)))

    def test_pauli_on_repeated_site_raises(self):
        # one operator per site: "XZ" on (2, 2) is no Pauli string, not Z_2
        with pytest.raises(ContractError, match="one label per distinct site"):
            pauli_on("XZ", (2, 2), Patch((2, 3)))

    def test_build_model_dispatch(self):
        h = build_model("tfim", 3, {"j": 1.0, "g": 0.5})
        assert np.abs(h.total() - dense_tfim(3, 1.0, 0.5)).max() < 1e-14

    def test_build_model_unknown_raises(self):
        with pytest.raises(ContractError):
            build_model("xy_model", 4)
