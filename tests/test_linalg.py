import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugesim.linalg as linalg_module
from gaugesim.errors import ContractError
from gaugesim.linalg import (
    expm_hermitian,
    frobenius_distance,
    polar_unitary,
    random_unitary,
    unitarity_defect,
)

from _oracles import random_hermitian, svd_polar, taylor_expm

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestExpmHermitian:
    def test_zero_hamiltonian_gives_identity(self):
        assert frobenius_distance(expm_hermitian(np.zeros((4, 4)), 2.7), np.eye(4)) < 1e-14

    def test_pauli_z_is_diagonal_phases(self):
        t = 0.37
        got = expm_hermitian(SZ, t)
        want = np.diag([np.exp(-1j * t), np.exp(1j * t)])
        assert frobenius_distance(got, want) < 1e-14

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(8, rng)
        got = expm_hermitian(h, 0.7)
        want = taylor_expm(h, 0.7)
        assert frobenius_distance(got, want) < 1e-11

    def test_result_is_unitary(self):
        rng = np.random.default_rng(3)
        u = expm_hermitian(random_hermitian(16, rng), 1.3)
        assert unitarity_defect(u) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ContractError):
            expm_hermitian(m, 1.0)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ContractError):
            expm_hermitian(SZ, np.inf)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_group_property(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(8, rng)
        s, t = rng.uniform(-2, 2, size=2)
        lhs = expm_hermitian(h, s + t)
        rhs = expm_hermitian(h, s) @ expm_hermitian(h, t)
        assert frobenius_distance(lhs, rhs) < 1e-11

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse_property(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(8, rng)
        t = rng.uniform(0.1, 3.0)
        prod = expm_hermitian(h, t) @ expm_hermitian(h, -t)
        assert frobenius_distance(prod, np.eye(8)) < 1e-11


class TestPolarUnitary:
    def test_fixes_unitary_input(self):
        rng = np.random.default_rng(0)
        u = random_unitary(8, rng)
        assert frobenius_distance(polar_unitary(u), u) < 1e-13

    def test_scaled_identity(self):
        assert frobenius_distance(polar_unitary(2.0 * np.eye(4)), np.eye(4)) < 1e-13

    def test_matches_svd_oracle_near_unitary(self):
        rng = np.random.default_rng(21)
        u = random_unitary(8, rng)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = u + 1e-3 * noise
        assert frobenius_distance(polar_unitary(m), svd_polar(m)) < 1e-12

    @pytest.mark.parametrize("dim", [8, 128])
    def test_near_unitary_stack_matches_svd_oracle(self, dim):
        rng = np.random.default_rng(21)
        stack = np.array([random_unitary(dim, rng) for _ in range(3)])
        noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
        stack = stack + np.array([1e-3, 1e-6, 1e-9])[:, None, None] * noise
        for m, u in zip(stack, polar_unitary(stack)):
            assert frobenius_distance(u, svd_polar(m)) < 1e-12

    @pytest.mark.parametrize("case", ["scaled identity", "gaussian", "mixed stack"])
    def test_far_input_matches_svd_oracle(self, case):
        rng = np.random.default_rng(8)
        gaussian = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        near = random_unitary(8, rng) + 1e-6 * gaussian
        m = {
            "scaled identity": 2.0 * np.eye(8),
            "gaussian": gaussian,
            "mixed stack": np.array([near, gaussian]),
        }[case]
        got = polar_unitary(m).reshape(-1, 8, 8)
        for x, u in zip(m.reshape(-1, 8, 8), got):
            assert frobenius_distance(u, svd_polar(x)) < 1e-12

    @pytest.mark.parametrize("eps, newton", [(1e-9, False), (1e-2, False), (1.0, True)])
    def test_inverse_only_outside_the_schulz_region(self, monkeypatch, eps, newton):
        """No LU and no separate defect pass while ||1 - X^dag X||_F < 1."""
        rng = np.random.default_rng(4)
        u = random_unitary(16, rng)
        m = u + eps * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        assert (unitarity_defect(m) >= 1.0) == newton
        counts = {"inv": 0, "defect": 0}
        inv, defect = np.linalg.inv, linalg_module.unitarity_defect

        def counting_inv(a):
            counts["inv"] += 1
            return inv(a)

        def counting_defect(a):
            counts["defect"] += 1
            return defect(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(linalg_module, "unitarity_defect", counting_defect)
        polar_unitary(m)
        assert counts["defect"] == 0
        assert (counts["inv"] > 0) == newton

    def test_singular_input_raises(self):
        with pytest.raises(ContractError):
            polar_unitary(np.zeros((3, 3)))

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_unitary(8, rng) for _ in range(4)])
        noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
        stack = stack + np.array([1e-3, 1e-6, 1e-9, 0.0])[:, None, None] * noise
        batched = polar_unitary(stack)
        assert batched.shape == stack.shape
        for m, u in zip(stack, batched):
            assert np.max(np.abs(u - polar_unitary(m))) < 1e-12
            assert unitarity_defect(u) <= 1e-12 * 8

    def test_stack_does_not_touch_its_input(self):
        stack = np.array([2.0 * np.eye(3), 0.5 * np.eye(3)], dtype=complex)
        before = stack.copy()
        polar_unitary(stack)
        assert np.array_equal(stack, before)

    def test_stack_raises_the_error_of_its_first_failing_matrix(self):
        # the first failing matrix is nearer to unitary than the one after it
        rng = np.random.default_rng(6)
        near = random_unitary(8, rng) + 0.05 * rng.standard_normal((8, 8))
        far = 5.0 * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        stack = np.array([random_unitary(8, rng), near, far])
        messages = []
        for m in (stack, near):
            with pytest.raises(ContractError, match="did not converge") as info:
                polar_unitary(m, max_iter=1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_singular_member_of_stack_raises(self):
        with pytest.raises(ContractError):
            polar_unitary(np.array([np.eye(3), np.zeros((3, 3))]))

    def test_rejects_non_square(self):
        with pytest.raises(ContractError):
            polar_unitary(np.ones((2, 3)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_idempotent_on_unitaries(self, seed):
        u = random_unitary(4, np.random.default_rng(seed))
        once = polar_unitary(u)
        twice = polar_unitary(once)
        assert frobenius_distance(once, twice) < 1e-13


class TestFrobeniusDistance:
    def test_identical_matrices(self):
        assert frobenius_distance(SX, SX) == 0.0

    def test_identity_vs_zero(self):
        got = frobenius_distance(np.eye(2), np.zeros((2, 2)))
        assert abs(got - np.sqrt(2.0)) < 1e-14

    def test_matches_elementwise_summation(self):
        from _oracles import frobenius_by_summation

        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert abs(frobenius_distance(a, b) - frobenius_by_summation(a, b)) < 1e-14

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ContractError):
            frobenius_distance(np.eye(2), np.eye(4))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonnegative_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        d = frobenius_distance(a, b)
        assert d >= 0.0
        assert (d == 0.0) == bool(np.all(a == b))


def test_random_unitary_is_unitary_and_seeded():
    u1 = random_unitary(8, np.random.default_rng(9))
    u2 = random_unitary(8, np.random.default_rng(9))
    assert unitarity_defect(u1) < 1e-13
    assert np.array_equal(u1, u2)


@pytest.mark.parametrize("dim", [1, 8, 128])
@pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-3])
def test_unitarity_defect_equals_the_dense_formula_exactly(dim, eps):
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = random_unitary(dim, rng) + eps * z
    want = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    assert unitarity_defect(m) == want
