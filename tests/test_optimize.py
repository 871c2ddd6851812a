import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.distill import RankTwoFactors, f_bilinear, q_functional
from distill_lab.errors import DimensionLimitError, ShapeError
from distill_lab.linalg import ComplexMatrix
from distill_lab.optimize import (
    SearchConfig,
    _armijo_step,
    _minimize_single,
    _Point,
    _QForm,
    _retract,
    _tangent_gradient,
    grad_q,
    minimize_q,
    report_dumps,
    report_loads,
    witness_tensor,
)


@st.composite
def slot_dims(draw):
    """One to six slot dimensions, each >= 2, with composite side <= 64."""
    dims = [draw(st.integers(2, 8))]
    while math.prod(dims) <= 32 and draw(st.booleans()):
        dims.append(draw(st.integers(2, min(8, 64 // math.prod(dims)))))
    return tuple(dims)


def analytic_optimum_point(d):
    """Balanced two-direction diagonal: the single-copy minimizer."""
    e = np.eye(d, dtype=complex)
    u = np.column_stack([e[0], e[1]])
    return _Point(theta=math.pi / 4.0, u=u.copy(), v=u.copy())


class TestQForm:
    def test_value_matches_public_subset_sum(self):
        rng = np.random.default_rng(42)
        for dims in ((2, 2), (3,), (2, 2, 2)):
            size = int(np.prod(dims))
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            form = _QForm(dims, -0.5)
            public = q_functional(ComplexMatrix(raw, dims, dims), -0.5)
            assert form.value(raw) == pytest.approx(public, abs=1e-12)

    def test_lift_is_self_adjoint_pairing(self):
        rng = np.random.default_rng(43)
        # three or more slots exercise non-involutive slot reorderings
        for dims in ((2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)):
            size = int(np.prod(dims))
            form = _QForm(dims, -0.5)
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            lhs = np.vdot(x, form.lift(y))
            rhs = np.vdot(form.lift(x), y)
            assert lhs == pytest.approx(rhs, abs=1e-11)
            assert np.vdot(x, form.lift(x)).real == pytest.approx(form.value(x), abs=1e-11)

    @pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
    def test_lift_polarizes_to_public_bilinear(self, dims):
        rng = np.random.default_rng(44)
        size = int(np.prod(dims))
        for beta in (-0.5, -1.0, 0.7):
            form = _QForm(dims, beta)
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            public = f_bilinear(ComplexMatrix(x, dims, dims), ComplexMatrix(y, dims, dims), beta)
            assert np.vdot(x, form.lift(y)) == pytest.approx(public, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(slot_dims(), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    def test_value_matches_subset_sum_on_random_dims(self, dims, beta, seed):
        rng = np.random.default_rng(seed)
        size = math.prod(dims)
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        x /= np.linalg.norm(x)
        public = q_functional(ComplexMatrix(x, dims, dims), beta)
        # |value| <= prod(1 + |beta| d_i) for unit x; allow rounding on that scale
        scale = math.prod(1.0 + abs(beta) * d for d in dims)
        assert _QForm(dims, beta).value(x) == pytest.approx(public, abs=1e-13 * scale)

    def test_reused_lift_gives_the_fresh_gradient(self):
        cfg = SearchConfig(d=2, n=3, beta=-0.6)
        form = _QForm(cfg.dims, cfg.beta)
        rng = np.random.default_rng(45)
        point = _Point(
            theta=0.3,
            u=np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0],
            v=np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0],
        )
        value, y = form.value_and_lift(point.assemble())
        for _ in range(5):
            grad = _tangent_gradient(point, y)
            point, value, y, _step = _armijo_step(form, point, value, grad, grad.norm_sq(), 1.0)
            fresh = _tangent_gradient(point, form.lift(point.assemble()))
            reused = _tangent_gradient(point, y)
            assert value == form.value(point.assemble())
            assert reused.theta == fresh.theta
            assert np.array_equal(reused.u, fresh.u)
            assert np.array_equal(reused.v, fresh.v)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ShapeError):
            SearchConfig(d=1, n=1, beta=-0.5)
        with pytest.raises(ShapeError):
            SearchConfig(d=2, n=0, beta=-0.5)
        with pytest.raises(ShapeError):
            SearchConfig(d=2, n=1, beta=-0.5, restarts=0)
        with pytest.raises(ShapeError):
            SearchConfig(d=2, n=1, beta=-0.5, grad_tol=0.0)
        with pytest.raises(ShapeError, match="max_iters"):
            SearchConfig(d=2, n=1, beta=-0.5, max_iters=0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -7.0, -1.0 - 1e-12, 1.5])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ShapeError, match="beta"):
            SearchConfig(d=2, n=1, beta=beta)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
    def test_accepts_closed_range_endpoints(self, beta):
        assert SearchConfig(d=2, n=1, beta=beta).beta == beta

    def test_side_cap(self):
        with pytest.raises(DimensionLimitError):
            SearchConfig(d=4, n=5, beta=-0.5)


class TestMinimizeQ:
    def test_single_copy_boundary_value(self):
        report = minimize_q(SearchConfig(d=3, n=1, beta=-0.5, restarts=12, seed=101))
        assert abs(report.best_value) < 1e-6

    def test_single_copy_below_boundary(self):
        report = minimize_q(SearchConfig(d=3, n=1, beta=-0.6, restarts=12, seed=102))
        assert report.best_value == pytest.approx(1 + 2 * (-0.6), abs=1e-6)

    def test_two_copy_floor_region(self):
        report = minimize_q(SearchConfig(d=2, n=2, beta=-0.25, restarts=12, seed=103))
        assert report.best_value >= -1e-8

    def test_beta_zero_objective_is_constant(self):
        report = minimize_q(SearchConfig(d=2, n=2, beta=0.0, restarts=4, seed=104))
        assert report.best_value == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.4, restarts=6, seed=105)
        a = minimize_q(cfg)
        b = minimize_q(cfg)
        assert a.best_value == b.best_value
        assert a.per_restart == b.per_restart
        assert np.array_equal(a.best_point.u1, b.best_point.u1)
        assert np.array_equal(a.best_point.v2, b.best_point.v2)

    def test_best_value_is_min_over_restarts(self):
        report = minimize_q(SearchConfig(d=3, n=1, beta=-0.7, restarts=8, seed=107))
        assert report.best_value == min(r.final_value for r in report.per_restart)

    def test_best_point_reproduces_best_value(self):
        cfg = SearchConfig(d=3, n=1, beta=-0.7, restarts=8, seed=108)
        report = minimize_q(cfg)
        recomputed = q_functional(report.best_point.to_matrix(cfg.dims), cfg.beta)
        assert recomputed == pytest.approx(report.best_value, abs=1e-10)

    def test_dominates_analytic_witness(self):
        beta = -0.6
        report = minimize_q(SearchConfig(d=2, n=2, beta=beta, restarts=12, seed=109))
        witness_value = q_functional(witness_tensor(beta, 2), beta)
        assert report.best_value <= witness_value + 1e-9

    def test_three_slot_search_reaches_product_witness(self):
        # a traceless third factor leaves the two-slot witness value intact,
        # so the three-slot minimum must reach 1 + 2*beta as well
        beta = -0.6
        report = minimize_q(SearchConfig(d=2, n=3, beta=beta, restarts=12, seed=113))
        assert report.best_value <= (1 + 2 * beta) + 1e-9
        recomputed = q_functional(report.best_point.to_matrix((2, 2, 2)), beta)
        assert recomputed == pytest.approx(report.best_value, abs=1e-10)

    def test_monotone_descent_history(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.5, restarts=1, seed=110)
        history = []
        _minimize_single(_QForm(cfg.dims, cfg.beta), cfg, seed=12345, history=history)
        assert len(history) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_restart_record_reproducible_standalone(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.5, restarts=3, seed=111)
        report = minimize_q(cfg)
        record = report.per_restart[1]
        value, _, iters = _minimize_single(_QForm(cfg.dims, cfg.beta), cfg, seed=record.seed)
        assert value == record.final_value
        assert iters == record.iterations


class TestGradQ:
    def test_zero_at_analytic_optimum(self):
        point = analytic_optimum_point(3)
        rt = RankTwoFactors(
            sigma1=math.cos(point.theta),
            sigma2=math.sin(point.theta),
            u1=point.u[:, 0],
            v1=point.v[:, 0],
            u2=point.u[:, 1],
            v2=point.v[:, 1],
        )
        assert grad_q(rt, 3, 1, -0.5).norm() < 1e-7

    def test_beta_zero_gradient_vanishes(self):
        rng = np.random.default_rng(0)
        from distill_lab.distill import random_rank_two

        rt = random_rank_two(rng, 4)
        assert grad_q(rt, 2, 2, 0.0).norm() < 1e-12

    @pytest.mark.parametrize("n_slots", [2, 3])
    def test_directional_derivative_matches_finite_differences(self, n_slots):
        rng = np.random.default_rng(1)
        from distill_lab.distill import random_rank_two

        form = _QForm((2,) * n_slots, -0.5)
        for _ in range(10):
            rt = random_rank_two(rng, 2**n_slots)
            point = _Point(
                theta=math.atan2(rt.sigma2, rt.sigma1),
                u=np.column_stack([rt.u1, rt.u2]),
                v=np.column_stack([rt.v1, rt.v2]),
            )
            grad = grad_q(rt, 2, n_slots, -0.5)
            # random tangent direction: project an ambient perturbation
            from distill_lab.optimize import _project_stiefel

            du = _project_stiefel(
                point.u, rng.standard_normal(point.u.shape) + 1j * rng.standard_normal(point.u.shape)
            )
            dv = _project_stiefel(
                point.v, rng.standard_normal(point.v.shape) + 1j * rng.standard_normal(point.v.shape)
            )
            dtheta = float(rng.standard_normal())
            from distill_lab.optimize import TangentGradient

            direction = TangentGradient(theta=dtheta, u=du, v=dv)
            eps = 1e-6
            up = form.value(_retract(point, direction, eps).assemble())
            down = form.value(_retract(point, direction, -eps).assemble())
            numeric = (up - down) / (2 * eps)
            analytic = float(
                grad.theta * dtheta
                + np.sum(grad.u.conj() * du).real
                + np.sum(grad.v.conj() * dv).real
            )
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_length_validation(self):
        rng = np.random.default_rng(2)
        from distill_lab.distill import random_rank_two

        rt = random_rank_two(rng, 4)
        with pytest.raises(ShapeError):
            grad_q(rt, 3, 1, -0.5)


class TestWitnessTensor:
    def test_value_below_threshold(self):
        w = witness_tensor(-0.6, 2)
        assert q_functional(w, -0.6) == pytest.approx(-0.08, abs=1e-12)

    def test_boundary_values_vanish(self):
        assert q_functional(witness_tensor(-0.5, 2), -0.5) == pytest.approx(0.0, abs=1e-12)
        assert q_functional(witness_tensor(-1.0, 2), -1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonnegative_region(self):
        with pytest.raises(ValueError):
            witness_tensor(-0.4, 2)
        with pytest.raises(ValueError):
            witness_tensor(-1.1, 2)

    def test_unit_norm_and_dims(self):
        w = witness_tensor(-0.7, 3)
        assert w.row_dims == (3, 3)
        assert np.linalg.norm(w.data) == pytest.approx(1.0, abs=1e-12)


class TestReportSerialization:
    def test_json_round_trip(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.6, restarts=3, seed=112)
        report = minimize_q(cfg)
        loaded = report_loads(report_dumps(report))
        assert loaded.best_value == report.best_value
        assert loaded.config == report.config
        assert loaded.per_restart == report.per_restart
        assert np.array_equal(loaded.best_point.u1, report.best_point.u1)
        assert np.array_equal(loaded.best_point.v2, report.best_point.v2)
