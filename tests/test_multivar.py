import numpy as np
import pytest

from distill_lab import linalg, multivar
from distill_lab.bundles import read_bundle
from distill_lab.distill import f_bilinear
from distill_lab.errors import ShapeError
from distill_lab.linalg import ComplexMatrix, _child_seed
from distill_lab.multivar import (
    RankOnePoint,
    f_real,
    fd_gradient,
    fd_hessian,
    g_value_stack,
    grad_g,
    hessian_g,
    hessian_g_stack,
    hessian_spectrum_sweep,
    nonconvexity_demo,
)


def unit(n, idx):
    v = np.zeros(n)
    v[idx] = 1.0
    return v


def normalized(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def g_value(w, x, y, z, beta):
    """g at one point (w, x) with parameters (y, z): the stack of one."""
    return float(g_value_stack(w[None], x[None], y, z, beta)[0])


class TestRankOnePoint:
    def test_length_must_be_square(self):
        with pytest.raises(ShapeError):
            RankOnePoint(np.ones(3), np.ones(3), np.ones(3), np.ones(3))

    def test_vectors_must_share_length(self):
        with pytest.raises(ShapeError):
            RankOnePoint(np.ones(4), np.ones(4), np.ones(4), np.ones(9))

    def test_rejects_nonfinite(self):
        bad = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            RankOnePoint(bad, np.ones(4), np.ones(4), np.ones(4))


class TestFReal:
    @pytest.mark.parametrize("y_len, match", [(9, "share one length"), (5, "not a perfect square")])
    def test_rejects_bad_lengths(self, y_len, match):
        e0 = unit(4, 0)
        with pytest.raises(ShapeError, match=match):
            f_real((e0, e0), (np.ones(y_len), np.ones(y_len)), -0.5)

    def test_hand_expanded_value_at_shared_unit(self):
        for d in (2, 3):
            e0 = unit(d * d, 0)
            for beta in (-1.0, -0.5, 0.3):
                assert f_real((e0, e0), (e0, e0), beta) == pytest.approx(
                    1.0 + 2.0 * beta + beta * beta, abs=1e-13
                )

    def test_beta_zero_is_plain_inner_product(self):
        rng = np.random.default_rng(0)
        n = 9
        w, x, y, z = (rng.standard_normal(n) for _ in range(4))
        assert f_real((w, x), (y, z), 0.0) == pytest.approx(float(w @ y) * float(x @ z), abs=1e-12)

    def test_matches_complex_polarized_form(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            n = d * d
            for _ in range(50):
                w, x, y, z = (rng.standard_normal(n) for _ in range(4))
                beta = float(rng.uniform(-1.0, 0.5))
                cm = ComplexMatrix(np.outer(w, x), (d, d), (d, d))
                dm = ComplexMatrix(np.outer(y, z), (d, d), (d, d))
                expect = f_bilinear(cm, dm, beta)
                assert abs(expect.imag) < 1e-12
                assert f_real((w, x), (y, z), beta) == pytest.approx(expect.real, abs=1e-12)


class TestGValue:
    def test_vanishes_at_reference_point(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.standard_normal(9)
            z = rng.standard_normal(9)
            assert abs(g_value(y, z, y, z, -0.5)) < 1e-12

    def test_orthogonal_point_at_beta_zero(self):
        n = 4
        w, y = unit(n, 0), unit(n, 1)
        x = z = unit(n, 2)
        val = g_value(w, x, y, z, 0.0)
        assert val == pytest.approx(1.0)  # ||C||^2 ||D0||^2 with zero overlap
        assert val >= 0

    def test_composition_from_f_real(self):
        rng = np.random.default_rng(3)
        w, x, y, z = (rng.standard_normal(4) for _ in range(4))
        beta = -0.5
        expect = (
            f_real((w, x), (w, x), beta) * f_real((y, z), (y, z), beta)
            - f_real((w, x), (y, z), beta) ** 2
        )
        assert g_value(w, x, y, z, beta) == pytest.approx(expect, abs=1e-12)


class TestGValueStack:
    def test_rows_match_stacks_of_one_bitwise(self):
        rng = np.random.default_rng(23)
        for d in (2, 3):
            n = d * d
            w, x = rng.standard_normal((2, 11, n))
            y, z = rng.standard_normal((2, n))
            stack = g_value_stack(w, x, y, z, -0.4)
            assert stack.shape == (11,)
            for s in range(11):
                assert stack[s] == g_value_stack(w[s : s + 1], x[s : s + 1], y, z, -0.4)[0]

    def test_column_views_give_the_same_bits(self):
        # the finite-difference callers pass the two halves of each probe row
        rng = np.random.default_rng(24)
        n = 9
        v = rng.standard_normal((6, 2 * n))
        y, z = rng.standard_normal((2, n))
        views = g_value_stack(v[:, :n], v[:, n:], y, z, -0.5)
        copies = g_value_stack(v[:, :n].copy(), v[:, n:].copy(), y, z, -0.5)
        assert np.array_equal(views, copies)


class TestGradG:
    def test_zero_at_critical_points(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            for _ in range(100):
                y = rng.standard_normal(d * d)
                z = rng.standard_normal(d * d)
                for beta in (-1.0, -0.5, -0.25, 0.0):
                    g = grad_g(RankOnePoint(y, z, y, z), beta)
                    assert np.max(np.abs(g)) < 1e-10

    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        n = 4
        for _ in range(10):
            w, x, y, z = (rng.standard_normal(n) for _ in range(4))
            beta = -0.5

            def fn(v):
                return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

            analytic = grad_g(RankOnePoint(w, x, y, z), beta)
            numeric = fd_gradient(fn, np.concatenate([w, x]))
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-5

    def test_scaling_degrees_per_component(self):
        # g is homogeneous of degree (2, 2) in (w, x): the w-gradient scales
        # linearly with w and quadratically with x
        rng = np.random.default_rng(6)
        n = 9
        w, x, y, z = (rng.standard_normal(n) for _ in range(4))
        beta = -0.5
        t = 1.7
        base = grad_g(RankOnePoint(w, x, y, z), beta)
        scaled = grad_g(RankOnePoint(t * w, x, y, z), beta)
        assert np.allclose(scaled[:n], t * base[:n], rtol=1e-12)
        scaled_x = grad_g(RankOnePoint(w, t * x, y, z), beta)
        assert np.allclose(scaled_x[:n], t * t * base[:n], rtol=1e-12)


class TestHessianG:
    def test_requires_critical_point(self):
        rng = np.random.default_rng(7)
        w, x, y, z = (rng.standard_normal(4) for _ in range(4))
        with pytest.raises(ShapeError):
            hessian_g(RankOnePoint(w, x, y, z), -0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            y = normalized(rng, d * d)
            z = normalized(rng, d * d)
            h = hessian_g(RankOnePoint(y, z, y, z), -0.5)
            assert np.max(np.abs(h - h.T)) < 1e-10

    def test_matches_central_difference_hessian(self):
        for d in (2, 3, 4):
            rng = np.random.default_rng((9, d))
            n = d * d
            for beta in (-1.0, -0.5, -0.4, 0.3):
                for _ in range(5):
                    y = normalized(rng, n)
                    z = normalized(rng, n)
                    analytic = hessian_g(RankOnePoint(y, z, y, z), beta)

                    def fn(v):
                        return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

                    numeric = fd_hessian(fn, np.concatenate([y, z]))
                    rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
                    assert rel < 1e-4, (d, beta, rel)

    def test_scaling_directions_are_in_the_kernel(self):
        # every point t C of the line through C = D0 is critical, so moving
        # either factor along itself leaves the gradient at zero
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            n = d * d
            zero = np.zeros(n)
            for beta in (-1.0, -0.5, -0.4, 0.3):
                for _ in range(10):
                    y = normalized(rng, n)
                    z = normalized(rng, n)
                    h = hessian_g(RankOnePoint(y, z, y, z), beta)
                    assert np.linalg.norm(h @ np.concatenate([y, zero])) <= 1e-12
                    assert np.linalg.norm(h @ np.concatenate([zero, z])) <= 1e-12

    def test_reference_parameter_choice_is_psd(self):
        # single off-diagonal unit entry for both parameters
        e1 = unit(4, 1)
        h = hessian_g(RankOnePoint(e1, e1, e1, e1), -0.5)
        assert np.linalg.eigvalsh(h)[0] >= -1e-8


class TestHessianGStack:
    def test_rows_match_single_points_bitwise(self):
        rng = np.random.default_rng(21)
        count, n = 7, 9
        y = rng.standard_normal((count, n))
        z = rng.standard_normal((count, n))
        # variables off the parameters by less than CRITICAL_POINT_TOL: the
        # Hessian is built from the critical point (y, z) alone
        w = y + 1e-13 * rng.uniform(-1.0, 1.0, (count, n))
        stack = hessian_g_stack(y, z, -0.4)
        assert stack.shape == (count, 2 * n, 2 * n)
        for s in range(count):
            assert np.array_equal(stack[s], hessian_g_stack(y[s : s + 1], z[s : s + 1], -0.4)[0])
            assert np.array_equal(stack[s], hessian_g(RankOnePoint(w[s], z[s], y[s], z[s]), -0.4))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((5, 16))
        z = rng.standard_normal((5, 16))
        stack = hessian_g_stack(y, z, -0.5)
        assert np.array_equal(stack, np.swapaxes(stack, -1, -2))


class TestFiniteDifferences:
    """Both routes on the quadratic v -> v^T M v + b^T v, whose gradient is
    2 M v + b for symmetric M and whose Hessian is 2 M."""

    @staticmethod
    def quadratic(rng, m):
        a = rng.standard_normal((m, m))
        mat = (a + a.T) / 2
        b = rng.standard_normal(m)
        calls = []

        def func(v):
            calls.append(v.shape)
            return np.einsum("si,ij,sj->s", v, mat, v) + v @ b

        return mat, b, func, calls

    def test_gradient_of_quadratic_in_one_call(self):
        rng = np.random.default_rng(25)
        for m in (1, 4, 18):
            mat, b, func, calls = self.quadratic(rng, m)
            v = rng.standard_normal(m)
            grad = fd_gradient(func, v)
            assert np.allclose(grad, 2 * mat @ v + b, rtol=0, atol=1e-6)
            assert calls == [(2 * m, m)]

    def test_hessian_of_quadratic_in_one_call(self):
        rng = np.random.default_rng(26)
        for m in (1, 4, 18):
            mat, b, func, calls = self.quadratic(rng, m)
            hess = fd_hessian(func, rng.standard_normal(m))
            assert np.allclose(hess, 2 * mat, rtol=0, atol=1e-6)
            assert np.array_equal(hess, hess.T)
            assert calls == [(1 + 2 * m + 2 * m * (m - 1), m)]


class TestNonconvexityDemo:
    def test_midpoint_gradient_parallels_pattern(self):
        grad, cosine, _ = nonconvexity_demo(3)
        assert np.linalg.norm(grad) > 1e-6
        assert cosine == pytest.approx(1.0, abs=1e-8)

    def test_endpoints_are_critical(self):
        n = 9
        e0, e1 = unit(n, 0), unit(n, 1)
        ends = [
            float(np.max(np.abs(grad_g(point, -0.5))))
            for point in (RankOnePoint(e1, e1, e1, e1), RankOnePoint(e0, e0, e1, e1))
        ]
        assert max(ends) < 1e-10
        assert nonconvexity_demo(3)[2] == tuple(ends)

    def test_larger_dimension_same_outcome(self):
        grad, cosine, _ = nonconvexity_demo(4)
        assert np.linalg.norm(grad) > 1e-6
        assert cosine == pytest.approx(1.0, abs=1e-8)

    def test_requires_d_at_least_three(self):
        with pytest.raises(ShapeError):
            nonconvexity_demo(2)


class TestHessianSpectrumSweep:
    def test_deterministic_given_seed(self):
        a = hessian_spectrum_sweep(2, 20, seed=5)
        b = hessian_spectrum_sweep(2, 20, seed=5)
        assert [(r.point_id, r.seed, r.min_eigenvalue) for r in a] == [
            (r.point_id, r.seed, r.min_eigenvalue) for r in b
        ]

    def test_row_count_and_conjecture_consistency(self):
        rows = hessian_spectrum_sweep(2, 50, seed=6)
        assert len(rows) == 50
        assert all(r.min_eigenvalue >= -1e-8 for r in rows)

    def test_symmetric_parameters_need_no_special_case(self):
        rows = hessian_spectrum_sweep(2, 1, seed=7)
        y = np.random.default_rng(rows[0].seed).standard_normal(4)
        y /= np.linalg.norm(y)
        h = hessian_g(RankOnePoint(y, y, y, y), -0.5)
        assert np.linalg.eigvalsh(h)[0] >= -1e-8

    def test_forced_findings_emit_bundles(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multivar, "HESSIAN_FINDING_THRESHOLD", np.inf)
        rows = hessian_spectrum_sweep(2, 2, seed=8, bundle_dir=tmp_path)
        files = sorted(tmp_path.glob("hessian-*.bundle"))
        assert len(files) == 2
        bundle = read_bundle(files[0])
        assert bundle.kind == "hessian-counterexample"
        assert set(bundle.vectors) == {"y", "z"}
        assert len(rows) == 2

    def test_needs_a_sample(self):
        with pytest.raises(ShapeError, match="at least one sample"):
            hessian_spectrum_sweep(2, 0, seed=0)

    def test_dimension_cap(self):
        with pytest.raises(ShapeError):
            hessian_spectrum_sweep(5, 1, seed=0)

    def test_rows_do_not_depend_on_block_size(self, monkeypatch):
        # Hessians of side 32 at d = 4: 150 samples fill three default blocks
        assert list(linalg._sample_blocks(150, 16 * 32**2)) == [64, 64, 22]
        default = [(r.point_id, r.seed, r.min_eigenvalue) for r in hessian_spectrum_sweep(4, 150, seed=9)]
        monkeypatch.setattr(linalg, "LIFT_BLOCK_BYTES", 1)
        single = [(r.point_id, r.seed, r.min_eigenvalue) for r in hessian_spectrum_sweep(4, 150, seed=9)]
        assert single == default

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rows_match_the_single_point_route(self, d):
        rows = hessian_spectrum_sweep(d, 60, seed=10)
        for idx, row in enumerate(rows):
            assert (row.point_id, row.seed) == (idx, _child_seed(10, idx))
            rng = np.random.default_rng(row.seed)
            y = rng.standard_normal(d * d)
            y /= np.linalg.norm(y)
            z = rng.standard_normal(d * d)
            z /= np.linalg.norm(z)
            hess = hessian_g(RankOnePoint(y, z, y, z), multivar.DEFAULT_BETA)
            assert row.min_eigenvalue == float(np.linalg.eigvalsh(hess)[0])
