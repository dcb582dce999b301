import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugesim.errors import ContractError
from gaugesim.lattice import (
    Patch,
    _hull,
    _lift,
    _mul,
    _window,
    PatchCover,
    apply_local,
    cover_from_config,
    embed_operator,
    nn_pair_cover,
    operator_support,
    single_site_cover,
    site_identity_defects,
)

from _oracles import (
    SX,
    SZ,
    brute_embed,
    dense_site_identity_defects,
    ptrace_site_reconstruction,
    window_local_matrices,
)


class TestPatch:
    def test_sorted_and_deduplicated(self):
        assert Patch((3, 1, 3)).sites == (1, 3)

    def test_value_semantics(self):
        assert Patch((0, 1)) == Patch((1, 0))
        assert hash(Patch((2, 5))) == hash(Patch((5, 2)))
        assert len({Patch((0, 1)), Patch((1, 0))}) == 1

    def test_empty_raises(self):
        with pytest.raises(ContractError):
            Patch(())

    def test_negative_site_raises(self):
        with pytest.raises(ContractError):
            Patch((-1, 0))

    def test_overlaps(self):
        assert Patch((1, 2)).overlaps(Patch((2, 3)))
        assert not Patch((0, 1)).overlaps(Patch((2, 3)))


class TestCovers:
    def test_two_sites_single_patch(self):
        cover = nn_pair_cover(2)
        assert cover.patches == (Patch((0, 1)),)

    def test_ten_sites_overlap_structure(self):
        cover = nn_pair_cover(10)
        assert len(cover) == 9
        neighbours = cover.overlapping(Patch((3, 4)))
        assert set(neighbours) == {Patch((2, 3)), Patch((3, 4)), Patch((4, 5))}

    def test_three_sites_covers_all(self):
        cover = nn_pair_cover(3)
        assert {s for p in cover for s in p.sites} == {0, 1, 2}

    def test_too_small_raises(self):
        with pytest.raises(ContractError):
            nn_pair_cover(1)

    def test_missing_site_raises(self):
        with pytest.raises(ContractError):
            PatchCover(4, [Patch((0, 1)), Patch((2,))])

    def test_duplicate_patch_raises(self):
        with pytest.raises(ContractError):
            PatchCover(2, [Patch((0, 1)), Patch((1, 0))])

    def test_equality_is_order_insensitive(self):
        a = PatchCover(3, [Patch((0, 1)), Patch((1, 2))])
        b = PatchCover(3, [Patch((1, 2)), Patch((0, 1))])
        assert a == b

    def test_single_site_cover_has_no_distinct_overlaps(self):
        assert single_site_cover(5).overlap_pairs() == []

    def test_unknown_patch_raises(self):
        with pytest.raises(ContractError):
            nn_pair_cover(4).index(Patch((0, 2)))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 16))
    def test_pair_cover_overlap_iff_adjacent(self, n):
        cover = nn_pair_cover(n)
        for i, j in ((i, j) for i in range(n - 1) for j in range(n - 1)):
            expected = abs(i - j) <= 1
            assert cover.patches[i].overlaps(cover.patches[j]) == expected

    def test_config_round_trip(self):
        cover = nn_pair_cover(4)
        assert cover_from_config({"scheme": "nn_pair"}, 4) == cover
        assert cover_from_config({"scheme": "single_site"}, 3) == single_site_cover(3)
        with pytest.raises(ContractError):
            cover_from_config({"scheme": "hexagonal"}, 4)


class TestEmbedOperator:
    def test_identity_embeds_to_identity(self):
        got = embed_operator(np.eye(4), Patch((1, 2)), 4)
        assert np.allclose(got, np.eye(16), atol=1e-15)

    def test_z_on_site_zero(self):
        got = embed_operator(SZ, Patch((0,)), 2)
        assert np.allclose(got, np.diag([1, -1, 1, -1]), atol=1e-15)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = embed_operator(a, Patch((1, 2)), 3)
        want = brute_embed(a, (1, 2), 3)
        assert np.abs(got - want).max() < 1e-14

    def test_non_contiguous_patch(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = embed_operator(a, Patch((0, 3)), 4)
        want = brute_embed(a, (0, 3), 4)
        assert np.abs(got - want).max() < 1e-14

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ContractError):
            embed_operator(np.eye(2), Patch((0, 1)), 3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_disjoint_embeddings_commute(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ea = embed_operator(a, Patch((0,)), 4)
        eb = embed_operator(b, Patch((2, 3)), 4)
        assert np.abs(ea @ eb - eb @ ea).max() < 1e-13


class TestApplyLocal:
    def test_matches_embedded_products(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        e = embed_operator(a, Patch((1, 3)), 4)
        assert np.abs(apply_local(a, (1, 3), 4, v) - e @ v).max() < 1e-13
        assert np.abs(apply_local(a, (1, 3), 4, m) - e @ m).max() < 1e-13


class TestOperatorSupport:
    def test_identity_has_empty_support(self):
        assert operator_support(np.eye(8)) == set()

    def test_z_on_site_zero(self):
        assert operator_support(embed_operator(SZ, Patch((0,)), 2)) == {0}

    def test_embedded_support_is_contained(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sup = operator_support(embed_operator(a, Patch((1, 2)), 4))
        assert sup <= {1, 2}

    def test_defects_match_ptrace_reconstruction(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        defects = site_identity_defects(m)
        for s in range(3):
            want = np.linalg.norm(m - ptrace_site_reconstruction(m, s))
            assert abs(defects[s] - want) < 1e-12

    def test_kron_product_support(self):
        op = embed_operator(SX, Patch((2,)), 4) @ embed_operator(SZ, Patch((0,)), 4)
        assert operator_support(op) == {0, 2}

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_support_never_exceeds_patch(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sites = tuple(sorted(rng.choice(5, size=2, replace=False)))
        assert operator_support(embed_operator(a, Patch(sites), 5)) <= set(sites)

    @pytest.mark.parametrize("sites", [(1, 2), (1, 3)])
    def test_out_receives_the_fresh_result(self, sites):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for target in (
            rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)),
            rng.standard_normal(16) + 1j * rng.standard_normal(16),
        ):
            out = np.empty_like(target)
            assert apply_local(a, sites, 4, target, out=out) is out
            assert np.array_equal(out, apply_local(a, sites, 4, target))

    def test_out_of_the_wrong_layout_raises(self):
        m = np.eye(16, dtype=complex)
        for out in (np.empty((16, 8), complex), np.empty((16, 16)), np.empty((16, 16), complex).T):
            with pytest.raises(ContractError, match="out must be"):
                apply_local(np.eye(4), (1, 2), 4, m, out=out)


class TestWindowedDefects:
    """Site defects are read from the window core and agree with the dense formula."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_local_matrices_match_the_dense_formula(self, n):
        rng = np.random.default_rng(200 + n)
        for lo, hi, m in window_local_matrices(n, rng):
            assert _window(m)[:2] == (lo, hi)
            got = site_identity_defects(m)
            want = dense_site_identity_defects(m)
            assert list(got) == list(want) == list(range(n))
            for s in range(n):
                if not lo <= s <= hi:
                    assert got[s] == 0.0
                assert abs(got[s] - want[s]) <= 1e-13

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dense_matrices_keep_their_bits(self, n):
        rng = np.random.default_rng(300 + n)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        assert site_identity_defects(m) == dense_site_identity_defects(m)

    def test_product_of_identities_is_the_empty_window(self):
        eye = np.eye(16, dtype=complex)
        a, b = _window(eye), _window(eye)
        assert a[:2] == b[:2] == _hull(a, b) == (0, -1)
        product = _mul(a, b)
        assert product[:2] == (0, -1) and product[2].shape == (1, 1)
        assert np.array_equal(_lift(product, 0, 3), eye)
