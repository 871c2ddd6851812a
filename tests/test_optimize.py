import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab import optimize
from distill_lab.distill import (
    RankTwoFactors,
    _rank_two_draw,
    _real_inner,
    f_bilinear,
    q_functional,
    random_rank_two,
    sandwich_evaluator,
)
from distill_lab.errors import DimensionLimitError, ShapeError
from distill_lab.linalg import ComplexMatrix, MultipartiteState, _child_seed, _qf
from distill_lab.optimize import (
    ARMIJO_C,
    ARMIJO_FACTOR,
    BB_MAX_STEP,
    BB_MIN_STEP,
    ROUNDING_STOP,
    STOP_REASONS,
    SearchConfig,
    _bb_step,
    _canonical_factors,
    _descend_block,
    _evaluate,
    _lift,
    _project_stiefel,
    grad_q,
    minimize_q,
    report_from_json,
    report_to_json,
)
from distill_lab.states import WernerParams


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


def product_witness(d):
    """Balanced diagonal (E00 + E11)/sqrt(2) on the first copy times E00 on
    the second: the subset sum factorizes to (1 + 2*beta)(1 + beta)."""
    left = np.zeros((d, d))
    left[0, 0] = left[1, 1] = math.sqrt(0.5)
    right = np.zeros((d, d))
    right[0, 0] = 1.0
    return ComplexMatrix(np.kron(left, right), (d, d), (d, d))


def assemble(sigma, u, v):
    """Matrix sigma1 u1 v1^H + sigma2 u2 v2^H of a factored point."""
    return sigma[0] * np.outer(u[:, 0], v[:, 0].conj()) + sigma[1] * np.outer(u[:, 1], v[:, 1].conj())


def normalized(sigma):
    """Each row of a stack of singular-value pairs put back on the unit
    circle, as the search retracts its sigma step."""
    return sigma / np.sqrt((sigma * sigma).sum(-1, keepdims=True))


def form_value(x, dims, beta):
    return float(np.vdot(x, _lift(x, dims, beta)).real)


def serial_descent(cfg, seed):
    """One restart of the search written serially: the reference for the
    stacked loop.  Returns (value, iterations, stop_reason).

    A converged restart ends with a run of Armijo tests on rounding noise,
    so its iteration count is reproducible only under the same rounding.
    The reference therefore evaluates through ``_evaluate`` on stacks of one
    (a row's arithmetic does not depend on its stack) and checks each
    evaluation against the gradient written out on 2-D arrays.
    """
    rng = np.random.default_rng(seed)
    theta = np.array([rng.uniform(0.0, math.pi / 2.0)])
    sigma = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    u = _qf(rng.standard_normal((cfg.side, 2)) + 1j * rng.standard_normal((cfg.side, 2)))
    v = _qf(rng.standard_normal((cfg.side, 2)) + 1j * rng.standard_normal((cfg.side, 2)))
    frames = np.stack([u, v])[None]

    def evaluate(sigma, frames):
        value, gsigma, gframes, gn2 = _evaluate(cfg.dims, cfg.beta, sigma, frames)
        (u, v), s = frames[0], sigma[0]
        x = assemble(s, u, v)
        y = _lift(x, cfg.dims, cfg.beta)
        yv, yhu = y @ v, y.conj().T @ u
        q = np.vdot(x, y).real
        assert value[0] == pytest.approx(q, abs=1e-12)
        # the sigma gradient 2a, projected onto the circle's tangent at s
        a = np.array([np.vdot(u[:, k], yv[:, k]).real for k in range(2)])
        assert np.allclose(gsigma[0], 2.0 * (a - q * s), rtol=0, atol=1e-12)
        assert abs(gsigma[0] @ s) <= 1e-12
        assert np.allclose(gframes[0, 0], _project_stiefel(u, 2.0 * yv * s), rtol=0, atol=1e-12)
        assert np.allclose(gframes[0, 1], _project_stiefel(v, 2.0 * yhu * s), rtol=0, atol=1e-12)
        return value[0], gsigma, gframes, gn2[0]

    value, gsigma, gframes, gn2 = evaluate(sigma, frames)
    t = 1.0
    iterations = 0
    while iterations < cfg.max_iters:
        if math.sqrt(gn2) <= cfg.grad_tol:
            return value, iterations, "grad_tol"
        cand = (normalized(sigma - t * gsigma), _qf(frames - t * gframes))
        cand_value, cand_gsigma, cand_gframes, cand_gn2 = evaluate(*cand)
        if cand_value <= value - ARMIJO_C * t * gn2:
            inner = _real_inner(gsigma, cand_gsigma)[0] + _real_inner(gframes, cand_gframes)[0]
            t = float(_bb_step(t, gn2, cand_gn2, inner))
            (sigma, frames), value, gsigma, gframes, gn2 = cand, cand_value, cand_gsigma, cand_gframes, cand_gn2
            iterations += 1
        elif t * gn2 <= ROUNDING_STOP * max(1.0, abs(value)):
            return value, iterations, "line_search"
        else:
            t *= ARMIJO_FACTOR
    return value, cfg.max_iters, "max_iters"


class TestQForm:
    def test_value_matches_public_subset_sum(self):
        rng = np.random.default_rng(42)
        for dims in ((2, 2), (3,), (2, 2, 2)):
            size = int(np.prod(dims))
            raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            public = q_functional(ComplexMatrix(raw, dims, dims), -0.5)
            assert form_value(raw, dims, -0.5) == pytest.approx(public, abs=1e-12)

    def test_lift_is_self_adjoint_pairing(self):
        rng = np.random.default_rng(43)
        # three or more slots exercise non-involutive slot reorderings
        for dims in ((2, 2), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)):
            size = int(np.prod(dims))
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            lhs = np.vdot(x, _lift(y, dims, -0.5))
            rhs = np.vdot(_lift(x, dims, -0.5), y)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    @pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
    def test_lift_polarizes_to_public_bilinear(self, dims):
        rng = np.random.default_rng(44)
        size = int(np.prod(dims))
        for beta in (-0.5, -1.0, 0.7):
            x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            y = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            public = f_bilinear(ComplexMatrix(x, dims, dims), ComplexMatrix(y, dims, dims), beta)
            assert np.vdot(x, _lift(y, dims, beta)) == pytest.approx(public, abs=1e-11)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
    @pytest.mark.parametrize("beta", [-0.5, -0.25, 0.3])
    def test_value_matches_sandwich_operator(self, d, n, beta):
        # the sandwich operator is built by kron and permutation alone, so it
        # checks the lift by a route that takes no partial trace
        rng = np.random.default_rng(47)
        dims = (d,) * n
        params = WernerParams(d, beta)
        for _ in range(5):
            x = random_rank_two(rng, d**n).assemble()
            psi = MultipartiteState(x.reshape(-1), (d,) * (2 * n))
            sandwich = sandwich_evaluator(psi, params, n) * params.normalization**n
            assert form_value(x, dims, beta) == pytest.approx(sandwich, rel=1e-12, abs=0)

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
        assert form_value(x, dims, beta) == pytest.approx(public, abs=1e-13 * scale)

    def test_reused_lift_gives_the_fresh_gradient(self):
        # A restart carries the value and gradient evaluated with its accepted
        # candidate into the next step.  So each step must be an exact
        # retraction along the fresh gradient at the point the step left, by
        # a step from the row's trial sequence: its trial (1 at the start,
        # then the BB2 step of the move before) halved j times.
        dims, beta, seeds = (2, 2, 2), -0.6, [45, 46, 47]
        capped = STOP_REASONS.index("max_iters")
        sigma, frames = _rank_two_draw([np.random.default_rng(s) for s in seeds], 8)
        before = (_evaluate(dims, beta, sigma, frames)[0], sigma, frames)
        trials = [1.0] * len(seeds)
        moves = [None] * len(seeds)
        for k in range(1, 7):
            after = _descend_block(SearchConfig(d=2, n=3, beta=beta, max_iters=k), seeds)
            assert list(after[4]) == [capped] * len(seeds)
            value, sigma, frames = before
            for r in range(len(seeds)):
                fresh_value, gsigma, gframes, gn2 = _evaluate(dims, beta, sigma[r : r + 1], frames[r : r + 1])
                assert fresh_value[0] == value[r]
                if moves[r] is not None:
                    t, g_sigma, g_frames, g_n2 = moves[r]
                    inner = _real_inner(g_sigma, gsigma) + _real_inner(g_frames, gframes)
                    trials[r] = float(_bb_step(t, g_n2, gn2, inner)[0])
                t = next(
                    (
                        t
                        for t in (trials[r] * 2.0**-j for j in range(80))
                        if np.array_equal(normalized(sigma[r : r + 1] - t * gsigma), after[1][r : r + 1])
                        and np.array_equal(_qf(frames[r] - t * gframes[0]), after[2][r])
                    ),
                    None,
                )
                assert t is not None
                moves[r] = (t, gsigma, gframes, gn2)
            before = after[:3]

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3, 2)])
    def test_stacked_evaluation_matches_each_point_alone(self, dims):
        size = math.prod(dims)
        rng = np.random.default_rng(46)
        # anywhere on the circle, as the descent leaves sigma
        sigma = normalized(rng.standard_normal((5, 2)))
        raw = rng.standard_normal((5, 2, size, 2)) + 1j * rng.standard_normal((5, 2, size, 2))
        frames = _qf(raw)
        x = np.stack([assemble(s, f[0], f[1]) for s, f in zip(sigma, frames)])
        lifts = _lift(x, dims, -0.7)
        stacked = _evaluate(dims, -0.7, sigma, frames)
        for r in range(5):
            assert np.array_equal(lifts[r], _lift(x[r], dims, -0.7))
            assert np.array_equal(frames[r, 1], _qf(raw[r, 1]))
            alone = _evaluate(dims, -0.7, sigma[r : r + 1], frames[r : r + 1])
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
        with pytest.raises(ShapeError, match="grad_tol"):
            SearchConfig(d=2, n=1, beta=-0.5, grad_tol=math.inf)
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
        witness_value = q_functional(product_witness(2), beta)
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
        # the stacked loop keeps only live rows and writes accepted rows by
        # mask; each restart still takes the serial steps bit for bit
        cfg = SearchConfig(d=d, n=n, beta=beta, restarts=6, max_iters=max_iters, seed=116)
        for record in minimize_q(cfg).per_restart:
            value, iterations, stop_reason = serial_descent(cfg, record.seed)
            assert record.final_value == value
            assert (record.iterations, record.stop_reason) == (iterations, stop_reason)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 5)])
    def test_a_restart_starts_at_the_rank_two_sampler_draw(self, d, n):
        # a gradient tolerance no start can fail stops the restart where it began
        cfg = SearchConfig(d=d, n=n, beta=-0.4, restarts=1, grad_tol=1e300, seed=117)
        report = minimize_q(cfg)
        assert report.per_restart[0].iterations == 0
        drawn = random_rank_two(np.random.default_rng(_child_seed(117, 0)), cfg.side)
        assert np.max(np.abs(report.best_point.assemble() - drawn.assemble())) <= 1e-15

    def test_restart_record_reproducible_standalone(self):
        cfg = SearchConfig(d=2, n=2, beta=-0.5, restarts=3, seed=111)
        report = minimize_q(cfg)
        record = report.per_restart[1]
        value, _, _, iters, stop = _descend_block(cfg, [record.seed])
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

    @pytest.mark.parametrize(
        "d,n,beta,restarts",
        [(2, 1, -0.5, 8), (2, 2, -1.0, 8), (3, 2, -0.4, 20), (5, 2, -0.45, 20), (3, 3, -0.4, 8)],
    )
    def test_reaches_the_product_reference_where_steepest_descent_stalled(self, d, n, beta, restarts):
        # r(n, beta) = min(1, 1+2b, (1+2b)(1+b)^(n-1)); with trial steps
        # capped at 1 every restart at (2, 1, -0.5) and (2, 2, -1) ran to the
        # 2000-iteration cap 1.2e-4 and 2.5e-4 above it.  In the NPT window
        # (-1/2, 0) about half the two-copy restarts stall at 1+2b > r, so
        # those cases take 20.
        floor = min(1.0, 1.0 + 2.0 * beta, (1.0 + 2.0 * beta) * (1.0 + beta) ** (n - 1))
        report = minimize_q(SearchConfig(d=d, n=n, beta=beta, restarts=restarts, seed=118))
        assert report.best_value == pytest.approx(floor, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_value_raises_with_its_seed(self, monkeypatch):
        monkeypatch.setattr(optimize, "_lift", lambda x, dims, beta: x * np.nan)
        cfg = SearchConfig(d=2, n=1, beta=-0.3, restarts=3, seed=115)
        with pytest.raises(FloatingPointError, match=rf"restart 0 \(seed {_child_seed(115, 0)}\)"):
            minimize_q(cfg)


class TestBBStep:
    def test_is_the_bb2_quotient(self):
        # s = -t g and y = g_new - g give <s, y>/<y, y>
        g, g_new, t = np.array([3.0, -1.0]), np.array([1.0, 0.5]), 0.25
        s, y = -t * g, g_new - g
        step = _bb_step(t, g @ g, g_new @ g_new, g @ g_new)
        assert step == pytest.approx((s @ y) / (y @ y), rel=1e-15)

    @pytest.mark.parametrize(
        "g_new",
        [[3.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
        ids=["negative-numerator", "no-change", "zero-numerator"],
    )
    def test_non_positive_curvature_doubles(self, g_new):
        g, g_new = np.array([1.0, 1.0]), np.array(g_new)
        assert _bb_step(0.125, g @ g, g_new @ g_new, g @ g_new) == 0.25

    def test_clipped(self):
        t, g = 1.0, np.array([1.0, 0.0])
        # the gradient barely shrinks along the move: quotient 1e6
        g_new = (1.0 - 1e-6) * g
        assert _bb_step(t, g @ g, g_new @ g_new, g @ g_new) == BB_MAX_STEP
        # a huge new gradient orthogonal to the old: quotient 1e-30
        g_new = np.array([0.0, 1e15])
        assert _bb_step(t, g @ g, g_new @ g_new, g @ g_new) == BB_MIN_STEP
        # the doubling is not: the Armijo test bounds it
        assert _bb_step(8.0, g @ g, g @ g, g @ g) == 16.0

    def test_each_row_takes_its_own_branch(self):
        steps = _bb_step(np.array([1.0, 0.5]), np.array([1.0, 4.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert steps.tolist() == [2.0, 0.5 * 4.0 / 5.0]


class TestGradQ:
    def test_zero_at_analytic_optimum(self):
        assert grad_q(analytic_optimum_point(3), 3, 1, -0.5).norm() < 1e-7

    def test_beta_zero_gradient_vanishes(self):
        rng = np.random.default_rng(0)
        rt = random_rank_two(rng, 4)
        assert grad_q(rt, 2, 2, 0.0).norm() < 1e-12

    @pytest.mark.parametrize("n_slots", [2, 3])
    def test_directional_derivative_matches_finite_differences(self, n_slots):
        rng = np.random.default_rng(1)
        dims = (2,) * n_slots
        for _ in range(10):
            rt = random_rank_two(rng, 2**n_slots)
            sigma = np.array([rt.sigma1, rt.sigma2])
            u = np.column_stack([rt.u1, rt.u2])
            v = np.column_stack([rt.v1, rt.v2])
            grad = grad_q(rt, 2, n_slots, -0.5)
            # random tangent direction: project an ambient perturbation
            du = _project_stiefel(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
            dv = _project_stiefel(v, rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
            dsigma = rng.standard_normal(2)
            dsigma -= (dsigma @ sigma) * sigma
            eps = 1e-6

            def retracted_value(h):
                # normalization and QR retractions, as the descent steps use
                x = assemble(normalized(sigma + h * dsigma), _qf(u + h * du), _qf(v + h * dv))
                return form_value(x, dims, -0.5)

            up = retracted_value(eps)
            down = retracted_value(-eps)
            numeric = (up - down) / (2 * eps)
            analytic = float(
                grad.sigma @ dsigma
                + np.sum(grad.u.conj() * du).real
                + np.sum(grad.v.conj() * dv).real
            )
            assert numeric == pytest.approx(analytic, rel=1e-5, abs=1e-8)

    def test_length_validation(self):
        rng = np.random.default_rng(2)
        rt = random_rank_two(rng, 4)
        with pytest.raises(ShapeError):
            grad_q(rt, 3, 1, -0.5)


class TestCanonicalFactors:
    @pytest.mark.parametrize("quadrant", [0, 1, 2, 3])
    @pytest.mark.parametrize("offset", [0.2, 1.2])
    def test_nonnegative_descending_and_same_point(self, quadrant, offset):
        # the descent leaves sigma anywhere on the circle
        theta = quadrant * math.pi / 2.0 + offset
        sigma = np.array([math.cos(theta), math.sin(theta)])
        rng = np.random.default_rng(quadrant)
        frames = _qf(rng.standard_normal((2, 6, 2)) + 1j * rng.standard_normal((2, 6, 2)))
        point = _canonical_factors(sigma, frames)
        assert point.sigma1 >= point.sigma2 >= 0.0
        assert sorted(np.abs(sigma)) == [point.sigma2, point.sigma1]
        expect = assemble(sigma, frames[0], frames[1])
        assert np.max(np.abs(point.assemble() - expect)) <= 1e-15


class TestWitnessTensor:
    def test_value_below_threshold(self):
        assert q_functional(product_witness(2), -0.6) == pytest.approx(-0.08, abs=1e-12)
        assert q_functional(product_witness(3), -0.7) == pytest.approx(-0.4 * 0.3, abs=1e-12)

    def test_boundary_values_vanish(self):
        assert q_functional(product_witness(2), -0.5) == pytest.approx(0.0, abs=1e-12)
        assert q_functional(product_witness(2), -1.0) == pytest.approx(0.0, abs=1e-12)


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
