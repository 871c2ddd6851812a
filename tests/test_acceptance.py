"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Random draws are seeded, so the suite is reproducible.
"""

import json

import numpy as np
import pytest

from distill_lab import cli, multivar, verify
from distill_lab.distill import q_functional, random_rank_two, sandwich_evaluator
from distill_lab.iterate import certify_iterate, e_step, initial_iterate
from distill_lab.linalg import (
    ComplexMatrix,
    MultipartiteState,
    SubsystemPermutation,
    permutation_matrix,
)
from distill_lab.multivar import (
    RankOnePoint,
    fd_gradient,
    fd_hessian,
    g_value_stack,
    grad_g,
    hessian_g,
    hessian_spectrum_sweep,
    nonconvexity_demo,
)
from distill_lab.optimize import SearchConfig, minimize_q, witness_tensor
from distill_lab.schmidt import max_overlap_oracle, max_overlap_sr_k, random_state
from distill_lab.states import WernerParams, beta_bound
from distill_lab.verify import rank2_slack_sampling

SEED = 0xD157


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_single_copy_threshold():
    at_half = minimize_q(SearchConfig(d=3, n=1, beta=-0.5, restarts=50, seed=SEED))
    below = minimize_q(SearchConfig(d=3, n=1, beta=-0.6, restarts=50, seed=SEED))
    err_half = abs(at_half.best_value)
    err_below = abs(below.best_value - (1 + 2 * (-0.6)))
    report(
        1,
        err_half <= 1e-6 and err_below <= 1e-6,
        f"minimum at beta=-0.5 within {err_half:.2e} of 0; at beta=-0.6 within {err_below:.2e} of 1+2*beta",
    )


def test_criterion_02_bound_values():
    b1 = beta_bound(1)
    b2 = beta_bound(2)
    ok_exact = abs(b1 + 0.5) <= 1e-12 and abs(b2 + 0.25) <= 1e-12

    # independent oracle: dense grid scan of the expanded cubic 2b^3 + 6b + 1,
    # refined by bisection on the same expanded form
    def cubic(b):
        return 2.0 * b**3 + 6.0 * b + 1.0

    grid = np.linspace(-1.0, 0.0, 200_001)
    vals = cubic(grid)
    idx = int(np.argmax(vals >= 0.0))
    lo, hi = grid[idx - 1], grid[idx]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cubic(mid) < 0:
            lo = mid
        else:
            hi = mid
    oracle_root = 0.5 * (lo + hi)
    ok_three = abs(beta_bound(3) - oracle_root) <= 1e-10

    roots = [beta_bound(n) for n in range(1, 11)]
    ok_monotone = all(b > a for a, b in zip(roots, roots[1:]))
    report(
        2,
        ok_exact and ok_three and ok_monotone,
        f"roots -0.5/-0.25 exact, n=3 matches grid oracle within {abs(beta_bound(3) - oracle_root):.2e}, "
        f"strictly increasing over n=1..10",
    )


def test_criterion_03_sandwich_subset_sum_equivalence():
    rng = np.random.default_rng(SEED)
    n = 2
    worst = 0.0
    for d in (2, 3):
        for beta in (-0.5, -0.25, 0.3):
            params = WernerParams(d, beta)
            scale = params.normalization**n
            for _ in range(100):
                rt = random_rank_two(rng, d**n)
                xm = rt.to_matrix((d,) * n)
                psi = MultipartiteState(xm.data.reshape(-1), (d,) * (2 * n))
                diff = abs(sandwich_evaluator(psi, params, n) * scale - q_functional(xm, beta))
                worst = max(worst, diff)
    report(3, worst < 1e-10, f"max |sandwich*scale - subset sum| = {worst:.3e} over 600 states")


def test_criterion_04_overlap_oracle():
    rng = np.random.default_rng(SEED + 4)
    worst_low, worst_high = 0.0, 0.0
    for i in range(20):
        state = random_state(rng, (4, 4))
        for k in (1, 2):
            analytic = max_overlap_sr_k(state, k)
            found = max_overlap_oracle(state, k, restarts=20, seed=SEED + i)
            worst_low = max(worst_low, analytic - found)
            worst_high = max(worst_high, found - analytic)
    report(
        4,
        worst_low <= 1e-6 and worst_high <= 1e-9,
        f"oracle within [analytic - {worst_low:.2e}, analytic + {worst_high:.2e}] on 20 d=4 states",
    )


def test_criterion_05_trace_contraction():
    from distill_lab.linalg import partial_trace

    rng = np.random.default_rng(SEED + 5)
    worst = -np.inf
    for d in (2, 3, 4):
        w = rng.standard_normal((10_000, d, d)) + 1j * rng.standard_normal((10_000, d, d))
        x = rng.standard_normal((10_000, d, d)) + 1j * rng.standard_normal((10_000, d, d))
        full = np.linalg.norm(w, axis=(1, 2)) * np.linalg.norm(x, axis=(1, 2))
        tr2 = np.linalg.norm(np.einsum("sij,skj->sik", w, x.conj()), axis=(1, 2))
        tr1 = np.linalg.norm(np.einsum("sij,sil->sjl", w, x.conj()), axis=(1, 2))
        worst = max(worst, float(np.max(tr1 - full)), float(np.max(tr2 - full)))
        # route the first few samples through the audited partial trace
        for s in range(5):
            outer = np.outer(w[s].reshape(-1), x[s].conj().reshape(-1))
            xm = ComplexMatrix(outer, (d, d), (d, d))
            assert np.linalg.norm(partial_trace(xm, [1]).data) == pytest.approx(tr2[s], rel=1e-12)
            assert np.linalg.norm(partial_trace(xm, [0]).data) == pytest.approx(tr1[s], rel=1e-12)
    report(
        5,
        worst <= 1e-12,
        f"partial-trace norms exceed the full norm by at most {worst:.3e} over 3x10^4 rank-one samples",
    )


def test_criterion_06_critical_points_and_gradient():
    rng = np.random.default_rng(SEED + 6)
    worst_critical = 0.0
    for d in (2, 3):
        for _ in range(100):
            y = rng.standard_normal(d * d)
            y /= np.linalg.norm(y)
            z = rng.standard_normal(d * d)
            z /= np.linalg.norm(z)
            for beta in (-0.5, -0.25):
                g = grad_g(RankOnePoint(y, z, y, z), beta)
                worst_critical = max(worst_critical, float(np.max(np.abs(g))))
    worst_rel = 0.0
    assert multivar.FD_GRAD_STEP == 1e-5
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        n = d * d
        w, x, y, z = (rng.standard_normal(n) for _ in range(4))
        beta = -0.5

        def fn(v):
            return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

        analytic = grad_g(RankOnePoint(w, x, y, z), beta)
        numeric = fd_gradient(fn, np.concatenate([w, x]))
        worst_rel = max(worst_rel, float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)))
    report(
        6,
        worst_critical < 1e-10 and worst_rel < 1e-5,
        f"critical gradients bounded by {worst_critical:.2e}; finite-difference relative error {worst_rel:.2e}",
    )


def test_criterion_07_hessian():
    rng = np.random.default_rng(SEED + 7)
    worst_sym, worst_rel = 0.0, 0.0
    assert multivar.FD_HESS_STEP == 1e-4
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        n = d * d
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
        z = rng.standard_normal(n)
        z /= np.linalg.norm(z)
        beta = -0.5
        analytic = hessian_g(RankOnePoint(y, z, y, z), beta)
        worst_sym = max(worst_sym, float(np.max(np.abs(analytic - analytic.T))))

        def fn(v):
            return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

        numeric = fd_hessian(fn, np.concatenate([y, z]))
        worst_rel = max(worst_rel, float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)))
    report(
        7,
        worst_sym < 1e-10 and worst_rel < 1e-4,
        f"Hessian symmetric within {worst_sym:.2e}, finite-difference relative error {worst_rel:.2e} on 50 points",
    )


def test_criterion_08_nonconvexity():
    grad, cosine, _ = nonconvexity_demo(3)
    n = 9
    e0 = np.zeros(n)
    e0[0] = 1.0
    e1 = np.zeros(n)
    e1[1] = 1.0
    end1 = float(np.max(np.abs(grad_g(RankOnePoint(e1, e1, e1, e1), -0.5))))
    end2 = float(np.max(np.abs(grad_g(RankOnePoint(e0, e0, e1, e1), -0.5))))
    ok = (
        float(np.linalg.norm(grad)) > 1e-6
        and abs(cosine - 1.0) <= 1e-8
        and end1 < 1e-10
        and end2 < 1e-10
    )
    report(
        8,
        ok,
        f"midpoint gradient nonzero with cosine {cosine:.12f}; endpoint gradients {end1:.1e}, {end2:.1e}",
    )


def test_criterion_09_witness_construction(tmp_path):
    beta = -0.6
    value = q_functional(witness_tensor(beta, 2), beta)
    ok_value = abs(value - (-0.08)) <= 1e-12
    out = tmp_path / "report.json"
    code = cli.main(
        ["minimize", "--d", "2", "--n", "2", "--beta", "-0.6", "--restarts", "20",
         "--seed", str(SEED), "--out", str(out)]
    )
    best = json.loads(out.read_text())["report"]["best_value"]
    ok_cli = code == 3 and best <= -0.08 + 1e-9
    report(
        9,
        ok_value and ok_cli,
        f"witness value {value:+.17g}; minimize exited {code} with best {best:.6f} <= -0.08 + 1e-9",
    )


def test_criterion_10_iterate_consistency():
    s0 = initial_iterate(WernerParams(2, -0.4))
    s1 = e_step(s0)
    mat = permutation_matrix(SubsystemPermutation((0, 2, 1, 3), (2, 2, 2, 2))).data
    doubled = np.kron(s0.matrix.data, s0.matrix.data)
    exact = np.array_equal(s1.matrix.data, mat @ doubled @ mat.conj().T)

    params = WernerParams(3, -0.25)
    min_value, _, _ = certify_iterate(params, 1, restarts=20, seed=SEED)
    report(
        10,
        exact and min_value >= -1e-9,
        f"doubling step equals explicit conjugation exactly; k=1 certification minimum {min_value:.3e} >= -1e-9",
    )


def test_criterion_11_conjecture_sweeps(tmp_path):
    # Hessian spectrum sweep: completes, emits CSV, bundles any finding.
    hess_csv = tmp_path / "hessian.csv"
    code = cli.main(
        ["hessian", "--d", "2", "--samples", "1000", "--seed", str(SEED),
         "--out", str(hess_csv), "--bundle-dir", str(tmp_path / "hb")]
    )
    rows = hessian_spectrum_sweep(2, 1000, SEED)
    hess_findings = [r for r in rows if r.min_eigenvalue < -1e-6]
    hess_bundles = list((tmp_path / "hb").glob("*.bundle")) if (tmp_path / "hb").exists() else []
    hess_ok = (
        code == 0
        and hess_csv.exists()
        and len(hess_csv.read_text().splitlines()) == 1003
        and len(hess_bundles) == len(hess_findings)
    )

    # Rank-two slack sampling: completes, emits CSV, bundles any finding.
    assert verify.SLACK_FINDING_THRESHOLD == 1e-9
    slack_rows, slack_bundles = rank2_slack_sampling(3, 10_000, SEED, bundle_dir=tmp_path / "sb")
    slack_csv = tmp_path / "slack.csv"
    lines = ["# distill-lab slack sampling d=3 samples=10000 seed=%d" % SEED, "point_id,seed,slack"]
    lines += [f"{r.point_id},{r.seed},{r.slack:.17g}" for r in slack_rows]
    slack_csv.write_text("\n".join(lines) + "\n")
    slack_findings = [r for r in slack_rows if r.slack > 1e-9]
    slack_ok = (
        len(slack_rows) == 10_000
        and slack_csv.exists()
        and len(slack_bundles) == len(slack_findings)
    )
    report(
        11,
        hess_ok and slack_ok,
        f"hessian sweep: {len(hess_findings)} finding(s), {len(hess_bundles)} bundle(s); "
        f"slack sampling: {len(slack_findings)} finding(s), {len(slack_bundles)} bundle(s)",
    )
