import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.distill import RankTwoFactors, f_bilinear, q_functional
from distill_lab.errors import DimensionLimitError, ShapeError
from distill_lab.linalg import ComplexMatrix, _child_seed, _qf
from distill_lab.optimize import (
    ARMIJO_C,
    ARMIJO_FACTOR,
    MAX_BACKTRACKS,
    STOP_REASONS,
    SearchConfig,
    _descend,
    _evaluate,
    _project_stiefel,
    _QForm,
    grad_q,
    minimize_q,
    report_from_json,
    report_to_json,
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
    s = math.sqrt(0.5)
    return RankTwoFactors(sigma1=s, sigma2=s, u1=e[0], v1=e[0], u2=e[1], v2=e[1])


def assemble(theta, u, v):
    """Matrix cos(theta) u1 v1^H + sin(theta) u2 v2^H of a factored point."""
    return math.cos(theta) * np.outer(u[:, 0], v[:, 0].conj()) + math.sin(theta) * np.outer(
        u[:, 1], v[:, 1].conj()
    )


def form_value(form, x):
    return float(np.vdot(x, form.lift(x)).real)


def serial_descent(form, cfg, seed):
    """One restart of the search written serially on 2-D arrays: the
    reference for the stacked loop.  Returns (value, iterations, stop_reason)."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi / 2.0)
    u = _qf(rng.standard_normal((form.size, 2)) + 1j * rng.standard_normal((form.size, 2)))
    v = _qf(rng.standard_normal((form.size, 2)) + 1j * rng.standard_normal((form.size, 2)))

    def evaluate(theta, u, v):
        x = assemble(theta, u, v)
        y = form.lift(x)
        s1, s2 = math.cos(theta), math.sin(theta)
        yv, yhu = y @ v, y.conj().T @ u
        gtheta = 2.0 * (-s2 * np.vdot(u[:, 0], yv[:, 0]) + s1 * np.vdot(u[:, 1], yv[:, 1])).real
        gu = _project_stiefel(u, 2.0 * yv * [s1, s2])
        gv = _project_stiefel(v, 2.0 * yhu * [s1, s2])
        gn2 = gtheta**2 + np.sum(np.abs(gu) ** 2) + np.sum(np.abs(gv) ** 2)
        return np.vdot(x, y).real, (gtheta, gu, gv), gn2

    value, grad, gn2 = evaluate(theta, u, v)
    step = 1.0
    for iterations in range(cfg.max_iters):
        if math.sqrt(gn2) <= cfg.grad_tol:
            return value, iterations, "grad_tol"
        t = min(1.0, 2.0 * step)
        for _ in range(MAX_BACKTRACKS):
            cand = (theta - t * grad[0], _qf(u - t * grad[1]), _qf(v - t * grad[2]))
            cand_value, cand_grad, cand_gn2 = evaluate(*cand)
            if cand_value <= value - ARMIJO_C * t * gn2:
                break
            t *= ARMIJO_FACTOR
        else:
            return value, iterations, "line_search"
        (theta, u, v), value, grad, gn2, step = cand, cand_value, cand_grad, cand_gn2, t
    return value, cfg.max_iters, "max_iters"


class TestQForm:
    def test_value_matches_public_subset_sum(self):
        rng = np.random.default_rng(42)
        for dims in ((2, 2), (3,), (2, 2, 2)):
            size = int(np.prod(dims))
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            form = _QForm(dims, -0.5)
            public = q_functional(ComplexMatrix(raw, dims, dims), -0.5)
            assert form_value(form, raw) == pytest.approx(public, abs=1e-12)

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
        assert form_value(_QForm(dims, beta), x) == pytest.approx(public, abs=1e-13 * scale)

    def test_reused_lift_gives_the_fresh_gradient(self):
        # A restart carries the value and gradient evaluated with its accepted
        # candidate into the next step.  So each step must be an exact
        # retraction, by a power of two, along the fresh gradient at the point
        # the step left.
        form = _QForm((2, 2, 2), -0.6)
        seeds = [45, 46, 47]
        steps = [2.0**-j for j in range(61)]
        capped = STOP_REASONS.index("max_iters")
        before = _descend(form, SearchConfig(d=2, n=3, beta=-0.6, max_iters=1), seeds)
        for k in range(2, 7):
            after = _descend(form, SearchConfig(d=2, n=3, beta=-0.6, max_iters=k), seeds)
            value, theta, frames, _, stop = before
            assert list(stop) == [capped] * len(seeds)
            for r in range(len(seeds)):
                fresh_value, gtheta, gframes, _ = _evaluate(form, theta[r : r + 1], frames[r : r + 1])
                assert fresh_value[0] == value[r]
                assert any(
                    theta[r] - t * gtheta[0] == after[1][r]
                    and np.array_equal(_qf(frames[r] - t * gframes[0]), after[2][r])
                    for t in steps
                )
            before = after

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3, 2)])
    def test_stacked_evaluation_matches_each_point_alone(self, dims):
        size = math.prod(dims)
        form = _QForm(dims, -0.7)
        rng = np.random.default_rng(46)
        theta = rng.uniform(0.0, math.pi / 2.0, 5)
        raw = rng.standard_normal((5, 2, size, 2)) + 1j * rng.standard_normal((5, 2, size, 2))
        frames = _qf(raw)
        x = np.stack([assemble(t, f[0], f[1]) for t, f in zip(theta, frames)])
        lifts = form.lift(x)
        stacked = _evaluate(form, theta, frames)
        for r in range(5):
            assert np.array_equal(lifts[r], form.lift(x[r]))
            assert np.array_equal(frames[r, 1], _qf(raw[r, 1]))
            alone = _evaluate(form, theta[r : r + 1], frames[r : r + 1])
            for whole, single in zip(stacked, alone):
                assert np.array_equal(whole[r], single[0])
            public = q_functional(ComplexMatrix(x[r], dims, dims), -0.7)
            assert stacked[0][r] == pytest.approx(public, abs=1e-12)


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
        with pytest.raises(DimensionLimitError, match=r"3\^16777216"):
            SearchConfig(d=3, n=2**24, beta=-0.5)
        assert SearchConfig(d=2, n=8, beta=-0.5).side == 256


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

    def test_monotone_descent_in_max_iters(self):
        # a trajectory does not depend on the cap it runs under, so raising
        # max_iters can only extend it, and every accepted step descends
        values = [
            minimize_q(SearchConfig(d=2, n=2, beta=-0.5, restarts=3, max_iters=k, seed=110))
            for k in range(1, 41)
        ]
        for before, after in zip(values, values[1:]):
            assert after.best_value <= before.best_value
            for a, b in zip(before.per_restart, after.per_restart):
                assert b.final_value <= a.final_value
        assert values[-1].best_value < values[0].best_value

    @pytest.mark.parametrize(
        "d,n,beta,max_iters", [(2, 2, -0.4, 60), (3, 2, -0.4, 60), (2, 3, -0.6, 120), (3, 1, -0.6, 12)]
    )
    def test_restarts_follow_the_serial_descent(self, d, n, beta, max_iters):
        # the stacked loop regroups the arithmetic, so values agree to
        # rounding while every restart takes the same steps and stops alike
        cfg = SearchConfig(d=d, n=n, beta=beta, restarts=6, max_iters=max_iters, seed=116)
        form = _QForm(cfg.dims, cfg.beta)
        for record in minimize_q(cfg).per_restart:
            value, iterations, stop_reason = serial_descent(form, cfg, record.seed)
            assert record.final_value == pytest.approx(value, abs=1e-12)
            assert (record.iterations, record.stop_reason) == (iterations, stop_reason)

    def test_restart_record_reproducible_standalone(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.5, restarts=3, seed=111)
        report = minimize_q(cfg)
        record = report.per_restart[1]
        value, _, _, iters, stop = _descend(_QForm(cfg.dims, cfg.beta), cfg, [record.seed])
        assert float(value[0]) == record.final_value
        assert int(iters[0]) == record.iterations
        assert STOP_REASONS[stop[0]] == record.stop_reason

    @pytest.mark.parametrize(
        "d,n,beta,restarts,max_iters",
        [(2, 2, -0.4, 6, 2000), (3, 2, -0.6, 6, 300), (2, 7, -0.6, 5, 4), (2, 8, -0.25, 3, 2)],
    )
    def test_records_do_not_depend_on_the_restart_count(self, d, n, beta, restarts, max_iters):
        # side 128 stacks 4 restarts per block and side 256 one, so the
        # larger runs cross block boundaries
        def records(r):
            cfg = SearchConfig(d=d, n=n, beta=beta, restarts=r, max_iters=max_iters, seed=114)
            return minimize_q(cfg).per_restart

        full = records(restarts)
        for k in (1, 3):
            assert records(k) == full[:k]

    def test_stop_reasons(self):
        capped = minimize_q(SearchConfig(d=3, n=2, beta=-0.6, restarts=4, max_iters=3, seed=115))
        assert {r.stop_reason for r in capped.per_restart} == {"max_iters"}
        assert {r.iterations for r in capped.per_restart} == {3}
        flat = minimize_q(SearchConfig(d=2, n=2, beta=0.0, restarts=2, seed=115))
        assert [(r.stop_reason, r.iterations) for r in flat.per_restart] == [("grad_tol", 0)] * 2
        # converged restarts stall at rounding level: the gradient test or
        # the line search ends them, well before the cap
        done = minimize_q(SearchConfig(d=3, n=1, beta=-0.6, restarts=12, seed=115))
        assert {r.stop_reason for r in done.per_restart} <= {"grad_tol", "line_search"}
        assert max(r.iterations for r in done.per_restart) < 2000

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_value_raises_with_its_seed(self, monkeypatch):
        monkeypatch.setattr(_QForm, "lift", lambda self, x: x * np.nan)
        cfg = SearchConfig(d=2, n=1, beta=-0.3, restarts=3, seed=115)
        with pytest.raises(FloatingPointError, match=rf"restart 0 \(seed {_child_seed(115, 0)}\)"):
            minimize_q(cfg)


class TestGradQ:
    def test_zero_at_analytic_optimum(self):
        assert grad_q(analytic_optimum_point(3), 3, 1, -0.5).norm() < 1e-7

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
            theta = math.atan2(rt.sigma2, rt.sigma1)
            u = np.column_stack([rt.u1, rt.u2])
            v = np.column_stack([rt.v1, rt.v2])
            grad = grad_q(rt, 2, n_slots, -0.5)
            # random tangent direction: project an ambient perturbation
            du = _project_stiefel(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
            dv = _project_stiefel(v, rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
            dtheta = float(rng.standard_normal())
            eps = 1e-6

            def retracted_value(h):
                # QR retraction, as the descent steps use
                return form_value(form, assemble(theta + h * dtheta, _qf(u + h * du), _qf(v + h * dv)))

            up = retracted_value(eps)
            down = retracted_value(-eps)
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
        loaded = report_from_json(json.loads(json.dumps(report_to_json(report))))
        assert loaded.best_value == report.best_value
        assert loaded.config == report.config
        assert loaded.per_restart == report.per_restart
        assert np.array_equal(loaded.best_point.u1, report.best_point.u1)
        assert np.array_equal(loaded.best_point.v2, report.best_point.v2)

    @pytest.mark.parametrize("keep", [0, 2])
    def test_restart_record_count_must_match_config(self, keep):
        report = minimize_q(SearchConfig(d=2, n=1, beta=-0.3, restarts=3, seed=112))
        data = json.loads(json.dumps(report_to_json(report)))
        data["per_restart"] = data["per_restart"][:keep]
        with pytest.raises(ShapeError, match=f"{keep} per-restart records for 3 restarts"):
            report_from_json(data)

    def test_loads_reports_without_stop_reasons(self):
        report = minimize_q(SearchConfig(d=2, n=2, beta=-0.6, restarts=2, max_iters=5, seed=112))
        data = json.loads(json.dumps(report_to_json(report)))
        assert [r["stop_reason"] for r in data["per_restart"]] == ["max_iters"] * 2
        for r in data["per_restart"]:
            del r["stop_reason"]
        loaded = report_from_json(data)
        assert [r.stop_reason for r in loaded.per_restart] == [None, None]
        assert [r.final_value for r in loaded.per_restart] == [r.final_value for r in report.per_restart]
