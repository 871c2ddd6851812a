import math

import numpy as np
import pytest

from distill_lab.errors import ShapeError
from distill_lab.linalg import partial_transpose
from distill_lab.states import (
    WernerParams,
    beta_bound,
    ge_operator,
    max_entangled_state,
    swap_operator,
    werner_partial_transpose,
    werner_state,
)


class TestWernerParams:
    def test_validation(self):
        with pytest.raises(ShapeError):
            WernerParams(1, 0.0)
        with pytest.raises(ShapeError):
            WernerParams(2, 1.5)
        with pytest.raises(ShapeError):
            WernerParams(2, -1.0001)

    def test_edge_betas_allowed(self):
        WernerParams(2, -1.0)
        WernerParams(2, 1.0)


class TestSwapOperator:
    def test_d2_exchanges_middle_basis_elements(self):
        f = swap_operator(2).data
        expect = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(f, expect)

    def test_involution(self):
        for d in (2, 3, 4):
            f = swap_operator(d).data
            assert np.array_equal(f @ f, np.eye(d * d))
            assert np.array_equal(f, f.conj().T)

    def test_rejects_local_dimension_one(self):
        with pytest.raises(ShapeError):
            swap_operator(1)

    def test_trace_by_direct_summation(self):
        for d in (2, 3, 4):
            f = swap_operator(d).data
            diag_sum = sum(f[i * d + i, i * d + i] for i in range(d))
            assert np.trace(f) == pytest.approx(d)
            assert diag_sum == pytest.approx(d)


class TestGeOperator:
    def test_d2_entries(self):
        g = ge_operator(2).data
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[0, 3] = expect[3, 0] = expect[3, 3] = 1.0
        assert np.array_equal(g, expect)

    def test_scaled_projector(self):
        for d in (2, 3):
            g = ge_operator(d).data / d
            assert np.allclose(g @ g, g, atol=1e-14)
            assert np.linalg.matrix_rank(g) == 1

    def test_trace(self):
        assert np.trace(ge_operator(3).data) == pytest.approx(3.0)

    def test_rejects_local_dimension_one(self):
        with pytest.raises(ShapeError):
            ge_operator(1)

    def test_partial_transpose_gives_swap(self):
        out = partial_transpose(ge_operator(3), 0)
        assert np.array_equal(out.data, swap_operator(3).data)


class TestWernerState:
    def test_beta_zero_is_maximally_mixed(self):
        rho = werner_state(WernerParams(2, 0.0))
        assert np.allclose(rho.data, np.eye(4) / 4.0)

    def test_beta_one_is_symmetric_projector_scaled(self):
        rho = werner_state(WernerParams(2, 1.0))
        assert np.allclose(rho.data, (np.eye(4) + swap_operator(2).data) / 6.0)
        # eigendecomposition oracle: (I+F)/2 projects onto the symmetric subspace
        sym = (np.eye(4) + swap_operator(2).data) / 2.0
        assert np.allclose(rho.data, sym / 3.0)

    def test_trace_one_on_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            beta = float(rng.uniform(-1.0, 1.0))
            rho = werner_state(WernerParams(d, beta)).data
            assert abs(np.trace(rho) - 1.0) < 1e-13
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14

    def test_psd_across_parameter_grid(self):
        for d in (2, 3, 4):
            for beta in np.linspace(-1.0, 1.0, 21):
                rho = werner_state(WernerParams(d, float(beta)))
                assert np.linalg.eigvalsh(rho.data)[0] >= -1e-12


class TestWernerPartialTranspose:
    def test_min_eigenvalue_formula(self):
        val = np.linalg.eigvalsh(werner_partial_transpose(WernerParams(3, -0.5)).data)[0]
        assert val == pytest.approx((1 - 1.5) / (9 - 1.5), abs=1e-12)
        assert val == pytest.approx(-1.0 / 15.0, abs=1e-12)

    def test_beta_zero(self):
        out = werner_partial_transpose(WernerParams(2, 0.0))
        assert np.allclose(out.data, np.eye(4) / 4.0)

    def test_matches_partial_transpose_of_state(self):
        for d in (2, 3, 4):
            for beta in (-0.9, -0.3, 0.4, 1.0):
                direct = werner_partial_transpose(WernerParams(d, beta)).data
                routed = partial_transpose(werner_state(WernerParams(d, beta)), 0).data
                assert np.max(np.abs(direct - routed)) < 1e-14

    def test_min_eigenvector_is_max_entangled_for_negative_beta(self):
        for d in (2, 3, 4):
            params = WernerParams(d, -0.7)
            mat = werner_partial_transpose(params).data
            evals, evecs = np.linalg.eigh(mat)
            assert evals[0] == pytest.approx(
                (1 + params.beta * d) / params.normalization, abs=1e-10
            )
            overlap = abs(np.vdot(evecs[:, 0], max_entangled_state(d)))
            assert overlap == pytest.approx(1.0, abs=1e-10)


class TestBetaBound:
    def test_single_copy_root(self):
        assert beta_bound(1) == pytest.approx(-0.5, abs=1e-12)

    def test_two_copy_root(self):
        assert beta_bound(2) == pytest.approx(-0.25, abs=1e-12)

    def test_three_copy_against_expanded_polynomial(self):
        # bisection on the independently expanded cubic 2 b^3 + 6 b + 1
        def cubic(b):
            return 2.0 * b**3 + 6.0 * b + 1.0

        lo, hi = -1.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cubic(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert beta_bound(3, tol=1e-12) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_residual_below_tolerance(self):
        for n in range(1, 11):
            root = beta_bound(n, tol=1e-12)
            assert abs(1.0 + (1.0 + root) ** n - (1.0 - root) ** n) < 1e-12

    def test_strictly_increasing_and_bracketed(self):
        roots = [beta_bound(n) for n in range(1, 11)]
        assert all(b > a for a, b in zip(roots, roots[1:]))
        assert roots[0] == pytest.approx(-0.5, abs=1e-12)
        assert all(-0.5 < r < 0.0 for r in roots[1:])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            beta_bound(0)
        with pytest.raises(ValueError):
            beta_bound(3, tol=0.0)
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError):
                beta_bound(3, tol=tol)
