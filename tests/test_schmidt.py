import math

import numpy as np
import pytest

from distill_lab.errors import ShapeError
from distill_lab.linalg import MultipartiteState, _child_seed, _complex_normal, _qf
from distill_lab.schmidt import (
    OVERLAP_MAX_ITERS,
    OVERLAP_TOL,
    max_overlap_oracle,
    max_overlap_sr_k,
    psi_iso,
    random_state,
    schmidt_decompose,
)
from distill_lab.states import max_entangled_state


def serial_overlap_oracle(state, k, restarts, seed):
    """The ascent oracle one restart at a time: the reference for the stack."""
    a = psi_iso(state).data
    d = a.shape[0]
    best = 0.0
    for r in range(restarts):
        q = _qf(_complex_normal(np.random.default_rng(_child_seed(seed, r)), (d, k)))
        value = 0.0
        prev = -np.inf
        for _ in range(OVERLAP_MAX_ITERS):
            p = _qf(a @ q)
            q = _qf(a.conj().T @ p)
            value = float(np.linalg.norm(p.conj().T @ a @ q) ** 2)
            if value - prev < OVERLAP_TOL:
                break
            prev = value
        best = max(best, value)
    return best


def bell_state():
    return MultipartiteState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), (2, 2))


class TestPsiIso:
    def test_basis_state_maps_to_matrix_unit(self):
        state = MultipartiteState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        out = psi_iso(state)
        assert np.array_equal(out.data, np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_bell_state_maps_to_scaled_identity(self):
        assert np.allclose(psi_iso(bell_state()).data, np.eye(2) / math.sqrt(2.0))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, (3, 3))
        out = psi_iso(state)
        back = MultipartiteState(out.data.reshape(-1), out.row_dims + out.col_dims)
        assert np.array_equal(back.amplitudes, state.amplitudes)
        assert back.dims == state.dims

    def test_frobenius_norm_equals_state_norm(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, (4, 4))
        assert np.linalg.norm(psi_iso(state).data) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_bipartite(self):
        state = MultipartiteState(np.array([1.0] + [0.0] * 7), (2, 2, 2))
        with pytest.raises(ShapeError):
            psi_iso(state)

    def test_rejects_unequal_dims(self):
        state = MultipartiteState(np.array([1.0] + [0.0] * 5), (2, 3))
        with pytest.raises(ShapeError):
            psi_iso(state)


class TestSchmidtDecompose:
    def test_bell_state(self):
        data = schmidt_decompose(bell_state())
        assert np.allclose(data.coefficients, [1 / math.sqrt(2)] * 2)
        assert data.rank == 2

    def test_product_state(self):
        state = MultipartiteState(np.array([0.0, 1.0, 0.0, 0.0]), (2, 2))
        data = schmidt_decompose(state)
        assert data.coefficients[0] == pytest.approx(1.0)
        assert data.rank == 1

    def test_coefficients_normalized(self):
        rng = np.random.default_rng(3)
        data = schmidt_decompose(random_state(rng, (4, 4)))
        assert np.sum(data.coefficients**2) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(data.coefficients) <= 0)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, (3, 3))
        data = schmidt_decompose(state)
        recon = sum(
            c * np.kron(data.left_basis[:, k], data.right_basis[:, k])
            for k, c in enumerate(data.coefficients)
        )
        assert np.allclose(recon, state.amplitudes, atol=1e-12)


class TestMaxOverlap:
    def test_bell_top_coefficient(self):
        assert max_overlap_sr_k(bell_state(), 1) == pytest.approx(0.5, abs=1e-12)

    def test_full_rank_saturates(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            state = random_state(rng, (d, d))
            assert max_overlap_sr_k(state, d) == pytest.approx(1.0, abs=1e-10)

    def test_max_entangled_rank_two_overlap(self):
        for d in (2, 3, 4, 5):
            phi = MultipartiteState(max_entangled_state(d), (d, d))
            assert max_overlap_sr_k(phi, 2) == pytest.approx(2.0 / d, abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(6)
        state = random_state(rng, (4, 4))
        vals = [max_overlap_sr_k(state, k) for k in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            max_overlap_sr_k(bell_state(), 0)
        with pytest.raises(ValueError):
            max_overlap_sr_k(bell_state(), 3)


class TestMaxOverlapOracle:
    def test_bell_rank_one(self):
        found = max_overlap_oracle(bell_state(), 1, restarts=20, seed=0)
        assert found == pytest.approx(0.5, abs=1e-6)

    def test_random_state_matches_analytic(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, (3, 3))
        analytic = max_overlap_sr_k(state, 2)
        found = max_overlap_oracle(state, 2, restarts=20, seed=1)
        assert analytic - 1e-6 <= found <= analytic + 1e-9

    def test_full_rank(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, (3, 3))
        assert max_overlap_oracle(state, 3, restarts=5, seed=2) == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_analytic(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            state = random_state(rng, (4, 4))
            for k in (1, 2, 3):
                analytic = max_overlap_sr_k(state, k)
                found = max_overlap_oracle(state, k, restarts=10, seed=3)
                assert found <= analytic + 1e-9

    def test_matches_serial_restarts(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            for k in (1, 2):
                for seed in range(4):
                    state = random_state(rng, (d, d))
                    stacked = max_overlap_oracle(state, k, restarts=20, seed=seed)
                    assert abs(stacked - serial_overlap_oracle(state, k, 20, seed)) <= 1e-15

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must lie in 1..2"):
            max_overlap_oracle(bell_state(), k, restarts=2, seed=0)

    def test_restarts_must_be_positive(self):
        for restarts in (0, -3):
            with pytest.raises(ValueError):
                max_overlap_oracle(bell_state(), 1, restarts=restarts, seed=0)


class TestInvariants:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(10)
        for d in (2, 3):
            state = random_state(rng, (d, d))
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            rotated = MultipartiteState(np.kron(u, v) @ state.amplitudes, (d, d))
            drift = np.max(
                np.abs(
                    schmidt_decompose(state).coefficients
                    - schmidt_decompose(rotated).coefficients
                )
            )
            assert drift < 1e-10

    def test_aligned_submatrices_inherit_rank_bound(self):
        from distill_lab.distill import random_rank_two

        rng = np.random.default_rng(11)
        for d in (2, 3):
            rt = random_rank_two(rng, d * d)
            big = rt.assemble()
            for i in range(d):
                for j in range(d):
                    block = big[i * d : (i + 1) * d, j * d : (j + 1) * d]
                    s = np.linalg.svd(block, compute_uv=False)
                    if s[0] > 1e-12:
                        assert np.sum(s > 1e-9 * s[0]) <= 2
