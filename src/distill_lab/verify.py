"""Named re-runnable checks behind the ``verify`` subcommand.

Each check returns (ok, detail).  Theorem-backed checks fail on violation
(after serializing a reproduction bundle when a directory is supplied);
conjecture-class checks never fail the run — a finding is recorded as a
bundle and reported in the detail string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundles import write_bundle
from .distill import (
    CERTIFY_TOL,
    RankTwoFactors,
    _discriminant_slack,
    _pair_forms,
    _real_inner,
    assemble_stack,
    check_rank2_inequality,
    f_bilinear,
    merge_operator,
    pqr,
    pqr_stack,
    q_functional,
    q_functional_stack,
    random_rank_two,
    random_rank_two_stack,
    sandwich_evaluator,
)
from .iterate import certify_iterate, e_step, initial_iterate, iterate_partial_transpose
from .linalg import (
    ComplexMatrix,
    MultipartiteState,
    SubsystemPermutation,
    _adjoint,
    _sample_blocks,
    _seed_blocks,
    partial_trace,
    permutation_matrix,
)
from .multivar import (
    RankOnePoint,
    fd_gradient,
    fd_hessian,
    g_value_stack,
    grad_g,
    hessian_g,
    nonconvexity_demo,
    _h1,
    _h2,
)
from .optimize import DEFAULT_SEED
from .schmidt import max_overlap_oracle, max_overlap_sr_k, random_state, schmidt_decompose
from .states import WernerParams, beta_bound, max_entangled_state

# Discriminant slack above which ``rank2_slack_sampling`` records a finding.
SLACK_FINDING_THRESHOLD = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def run_suite(suite: str, seed: int = DEFAULT_SEED, bundle_dir=None) -> list[CheckResult]:
    if suite == "all":
        out = []
        for name in SUITES:
            out.extend(run_suite(name, seed=seed, bundle_dir=bundle_dir))
        return out
    try:
        checks = SUITES[suite]
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES) + ['all']}")
    results = []
    for name, fn in checks:
        ok, detail = fn(seed, bundle_dir)
        results.append(CheckResult(name=name, ok=ok, detail=detail))
    return results


# -- equivalence ---------------------------------------------------------


def _check_sandwich_equivalence(seed, bundle_dir):
    rng = np.random.default_rng((seed, 101))
    worst = 0.0
    n = 2
    for d in (2, 3):
        for beta in (-0.5, -0.25, 0.3):
            params = WernerParams(d, beta)
            scale = params.normalization**n
            for _ in range(25):
                rt = random_rank_two(rng, d**n)
                xm = rt.to_matrix((d,) * n)
                psi = MultipartiteState(xm.data.reshape(-1), (d,) * (2 * n))
                diff = abs(sandwich_evaluator(psi, params, n) * scale - q_functional(xm, beta))
                worst = max(worst, diff)
    return worst < 1e-10, f"max |sandwich*scale - subset sum| = {worst:.3e}"


def _check_polar_identity(seed, bundle_dir):
    rng = np.random.default_rng((seed, 102))
    worst = 0.0
    for d, n in ((2, 1), (3, 1), (2, 2), (3, 2)):
        dims = (d,) * n
        size = d**n
        for beta in (-0.5, 0.3):
            for _ in range(10):
                raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                x = ComplexMatrix(raw / np.linalg.norm(raw), dims, dims)
                diff = abs(f_bilinear(x, x, beta) - q_functional(x, beta))
                worst = max(worst, diff)
    return worst < 1e-12, f"max |f(x,x) - q(x)| = {worst:.3e}"


def _check_pqr_identity(seed, bundle_dir):
    rng = np.random.default_rng((seed, 103))
    worst = 0.0
    for d in (2, 3):
        for _ in range(50):
            rt = random_rank_two(rng, d * d)
            p, q, r = pqr(rt, d)
            lhs = rt.sigma1**2 * p + rt.sigma2**2 * q + rt.sigma1 * rt.sigma2 * r
            xm = rt.to_matrix((d, d))
            tr1 = partial_trace(xm, [0]).data
            tr2 = partial_trace(xm, [1]).data
            tr = np.trace(xm.data)
            rhs = (
                float(np.vdot(tr1, tr1).real)
                + float(np.vdot(tr2, tr2).real)
                - abs(tr) ** 2 / 2.0
            )
            worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"max quadratic-form identity residual = {worst:.3e}"


def _check_angle_scan(seed, bundle_dir):
    rng = np.random.default_rng((seed, 104))
    angles = np.linspace(0.0, 2.0 * math.pi, 4001)
    cos, sin = np.cos(angles), np.sin(angles)
    agree = True
    worst_gap = 0.0
    for _ in range(50):
        rt = random_rank_two(rng, 9)
        holds, slack = check_rank2_inequality(rt, 3)
        p, q, r = pqr(rt, 3)
        scan_min = float(np.min(2.0 - (cos**2 * p + sin**2 * q + cos * sin * r)))
        analytic_min = 2.0 - ((p + q) / 2.0 + math.hypot((p - q) / 2.0, r / 2.0))
        worst_gap = max(worst_gap, abs(scan_min - analytic_min))
        if holds != (analytic_min >= -1e-12):
            agree = False
    ok = agree and worst_gap < 1e-6
    return ok, f"discriminant vs angle scan agreement, scan gap {worst_gap:.2e}"


def _check_rank_one_pair_scan(seed, bundle_dir):
    rng = np.random.default_rng((seed, 105))
    angles = np.linspace(0.0, 2.0 * math.pi, 4001)
    cos, sin = np.cos(angles), np.sin(angles)
    agree = True
    for d in (2, 3):
        for _ in range(40):
            f11, f22, f12 = _pair_forms(random_rank_two(rng, d * d), d)
            scan_min = float(np.min(cos**2 * f11 + sin**2 * f22 + 2 * cos * sin * f12))
            cs = f12**2 <= f11 * f22 + 1e-12
            if (scan_min >= -1e-9) != cs:
                agree = False
    return agree, "pairwise nonnegativity matches the product condition on both routes"


# -- schmidt --------------------------------------------------------------


def _check_overlap_oracle(seed, bundle_dir):
    rng = np.random.default_rng((seed, 201))
    worst_low, worst_high = 0.0, 0.0
    for d in (2, 3, 4):
        for k in (1, 2):
            for _ in range(5):
                state = random_state(rng, (d, d))
                analytic = max_overlap_sr_k(state, k)
                found = max_overlap_oracle(state, k, restarts=20, seed=int(rng.integers(2**32)))
                worst_low = max(worst_low, analytic - found)
                worst_high = max(worst_high, found - analytic)
    ok = worst_low < 1e-6 and worst_high < 1e-9
    return ok, f"oracle within [-{worst_low:.2e}, +{worst_high:.2e}] of the analytic overlap"


def _check_local_unitary_invariance(seed, bundle_dir):
    rng = np.random.default_rng((seed, 202))
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(5):
            state = random_state(rng, (d, d))
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            rotated = MultipartiteState(np.kron(u, v) @ state.amplitudes, (d, d))
            before = schmidt_decompose(state).coefficients
            after = schmidt_decompose(rotated).coefficients
            worst = max(worst, float(np.max(np.abs(before - after))))
    return worst < 1e-10, f"max coefficient drift under local unitaries = {worst:.3e}"


def _check_submatrix_rank(seed, bundle_dir):
    rng = np.random.default_rng((seed, 203))
    ok = True
    for d in (2, 3):
        for _ in range(10):
            rt = random_rank_two(rng, d * d)
            big = rt.assemble()
            for i in range(d):
                for j in range(d):
                    sub = big[i * d : (i + 1) * d, j * d : (j + 1) * d]
                    s = np.linalg.svd(sub, compute_uv=False)
                    if s[0] > 1e-12 and np.sum(s > 1e-9 * s[0]) > 2:
                        ok = False
    return ok, "every aligned extraction of a rank-2 coefficient matrix has rank <= 2"


def _check_overlap_monotone(seed, bundle_dir):
    rng = np.random.default_rng((seed, 204))
    ok = True
    for d in (2, 3, 4):
        for _ in range(5):
            state = random_state(rng, (d, d))
            vals = [max_overlap_sr_k(state, k) for k in range(1, d + 1)]
            if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
                ok = False
            if abs(vals[-1] - 1.0) > 1e-10:
                ok = False
    return ok, "overlaps nondecreasing in k and saturating at full rank"


# -- multivar -------------------------------------------------------------


def _check_critical_gradient(seed, bundle_dir):
    rng = np.random.default_rng((seed, 301))
    worst = 0.0
    for d in (2, 3):
        for _ in range(50):
            y = rng.standard_normal(d * d)
            y /= np.linalg.norm(y)
            z = rng.standard_normal(d * d)
            z /= np.linalg.norm(z)
            for beta in (-1.0, -0.5, -0.25, 0.0):
                g = grad_g(RankOnePoint(y, z, y, z), beta)
                worst = max(worst, float(np.max(np.abs(g))))
    return worst < 1e-10, f"max gradient entry over critical points = {worst:.3e}"


def _check_gradient_fd(seed, bundle_dir):
    rng = np.random.default_rng((seed, 302))
    worst = 0.0
    for d in (2, 3):
        n = d * d
        for _ in range(10):
            w, x, y, z = (rng.standard_normal(n) for _ in range(4))
            beta = -0.5

            def fn(v):
                return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

            analytic = grad_g(RankOnePoint(w, x, y, z), beta)
            fd = fd_gradient(fn, np.concatenate([w, x]))
            rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30))
            worst = max(worst, rel)
    return worst < 1e-5, f"max relative gradient error vs central differences = {worst:.3e}"


def _check_hessian_fd(seed, bundle_dir):
    rng = np.random.default_rng((seed, 303))
    worst_rel, worst_sym = 0.0, 0.0
    for d in (2, 3):
        n = d * d
        for _ in range(5):
            y = rng.standard_normal(n)
            y /= np.linalg.norm(y)
            z = rng.standard_normal(n)
            z /= np.linalg.norm(z)
            beta = -0.5
            analytic = hessian_g(RankOnePoint(y, z, y, z), beta)
            worst_sym = max(worst_sym, float(np.max(np.abs(analytic - analytic.T))))

            def fn(v):
                return g_value_stack(v[:, :n], v[:, n:], y, z, beta)

            fd = fd_hessian(fn, np.concatenate([y, z]))
            rel = float(np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
            worst_rel = max(worst_rel, rel)
    ok = worst_rel < 1e-4 and worst_sym < 1e-10
    return ok, f"Hessian FD rel err {worst_rel:.3e}, symmetry deviation {worst_sym:.3e}"


def _check_nonconvexity(seed, bundle_dir):
    grad, cosine, (end1, end2) = nonconvexity_demo(3)
    ok = (
        float(np.linalg.norm(grad)) > 1e-6
        and abs(cosine - 1.0) < 1e-8
        and end1 < 1e-10
        and end2 < 1e-10
    )
    return ok, f"midpoint |grad|={np.linalg.norm(grad):.3e} cosine={cosine:.12f}, endpoints {end1:.1e}/{end2:.1e}"


def _check_h_identity(seed, bundle_dir):
    rng = np.random.default_rng((seed, 305))
    worst = 0.0
    for d in (2, 3):
        for _ in range(20):
            w = rng.standard_normal((d, d))
            x = rng.standard_normal((d, d))
            for beta in (-0.5, 0.7):
                worst = max(worst, float(np.max(np.abs(_h1(w, x, beta) - 2.0 * _h2(w, x, x, beta)))))
                worst = max(worst, float(np.max(np.abs(_h1(x, w, beta) - 2.0 * _h2(x, w, w, beta)))))
    return worst < 1e-12, f"max |h1 - 2 h2| entry = {worst:.3e}"


# -- iterate --------------------------------------------------------------


def _check_estep_explicit(seed, bundle_dir):
    rng = np.random.default_rng((seed, 401))
    perm = SubsystemPermutation((0, 2, 1, 3), (2, 2, 2, 2))
    mat = permutation_matrix(perm).data
    ok = True
    for _ in range(20):
        beta = float(rng.uniform(-1.0, 1.0))
        s0 = initial_iterate(WernerParams(2, beta))
        s1 = e_step(s0)
        doubled = np.kron(s0.matrix.data, s0.matrix.data)
        if not np.array_equal(s1.matrix.data, mat @ doubled @ mat.conj().T):
            ok = False
        if abs(np.trace(s1.matrix.data) - 1.0) > 1e-12:
            ok = False
    return ok, "doubling step equals explicit 16x16 permutation conjugation, trace preserved"


def _check_iterate_merge(seed, bundle_dir):
    params = WernerParams(2, -0.4)
    s = initial_iterate(params)
    ok = True
    for k in (1, 2):
        s = e_step(s)
        lhs = iterate_partial_transpose(s).data
        rhs = merge_operator(params, 2**k).data
        if not np.allclose(lhs, rhs, atol=1e-13):
            ok = False
    return ok, "iterated exchanges match the one-shot copy merge at k = 1, 2"


def _check_iterate_spectrum(seed, bundle_dir):
    params = WernerParams(2, 0.3)
    s0 = initial_iterate(params)
    s1 = e_step(s0)
    ev0 = np.linalg.eigvalsh(s0.matrix.data)
    ev1 = np.linalg.eigvalsh(s1.matrix.data)
    products = np.sort(np.outer(ev0, ev0).reshape(-1))
    ok = bool(np.allclose(np.sort(ev1), products, atol=1e-12))
    return ok, "step-1 spectrum equals pairwise products of the base spectrum"


def _check_certify_sign_grid(seed, bundle_dir):
    ok = True
    details = []
    for beta in (-0.6, -0.5, -0.3, -0.25, -0.1):
        params = WernerParams(2, beta)
        s1 = e_step(initial_iterate(params))
        min_value, point, _ = certify_iterate(params, 1, restarts=12, seed=seed, bundle_dir=bundle_dir)
        # returned point must reproduce the raw quadratic form on the operator
        psi = point.assemble().reshape(-1)
        direct = float(np.vdot(psi, iterate_partial_transpose(s1).data @ psi).real)
        if not abs(direct - min_value) < 1e-10:
            ok = False
        details.append(f"{beta:+.2f}:{min_value:+.2e}")
    return ok, "certified minimum reproduced on the materialized step-1 operator (" + " ".join(details) + ")"


# -- lemmas ---------------------------------------------------------------


def _check_lemma_overlap(seed, bundle_dir):
    rng = np.random.default_rng((seed, 501))
    ok = True
    for d in (2, 3, 4):
        phi = MultipartiteState(max_entangled_state(d), (d, d))
        if abs(max_overlap_sr_k(phi, min(2, d)) - 2.0 / d) > 1e-12:
            ok = False
        state = random_state(rng, (d, d))
        analytic = max_overlap_sr_k(state, 2)
        found = max_overlap_oracle(state, 2, restarts=20, seed=int(rng.integers(2**32)))
        if not (analytic - 1e-6 <= found <= analytic + 1e-9):
            ok = False
    return ok, "top-k overlap formula confirmed by ascent oracle and the entangled-state case"


def _check_lemma_trace_contraction(seed, bundle_dir):
    rng = np.random.default_rng((seed, 502))
    worst = -np.inf
    for d in (2, 3, 4):
        for count in _sample_blocks(10_000 // 3 + 1, 64 * (d * d) ** 2):
            w, x = _complex_pairs(rng, count, d * d)
            wm = w.reshape(count, d, d)
            xm = x.reshape(count, d, d)
            full = _norms(w) * _norms(x)
            t2 = _norms(wm @ _adjoint(xm))
            t1 = _norms(np.swapaxes(wm, -1, -2) @ xm.conj())
            worst = max(worst, float(np.max(t1 - full)), float(np.max(t2 - full)))
    return worst <= 1e-12, f"max partial-trace norm excess over the full norm = {worst:.3e}"


def _check_copy_floor(seed, bundle_dir):
    rng = np.random.default_rng((seed, 503))
    ok = True
    detail = "subset sum stays above -1e-9 at and above the root bound"
    for n in (2, 3):
        floor_beta = beta_bound(n)
        for d in (2, 3):
            dims = (d,) * n
            for beta in (floor_beta, floor_beta + 0.1, 0.0):
                for count in _sample_blocks(1500, 64 * (d**n) ** 2):
                    stack = random_rank_two_stack([rng] * count, d**n)
                    values = q_functional_stack(assemble_stack(*stack), dims, beta)
                    for row in np.flatnonzero(values < -CERTIFY_TOL):
                        ok = False
                        rt = RankTwoFactors.from_stack(*stack, row)
                        val = float(values[row])
                        path = None
                        if bundle_dir is not None:
                            bundle = rt.to_bundle(
                                "copy-floor-violation", d=d, n=n, beta=float(beta), seed=seed, value=val
                            )
                            path = write_bundle(bundle, Path(bundle_dir) / f"floor-{d}-{n}.bundle")
                        detail = f"floor violated: q={val:.3e} at d={d} n={n} beta={beta} (bundle: {path})"
    return ok, detail


def _check_rank_one_positivity(seed, bundle_dir):
    rng = np.random.default_rng((seed, 504))
    ok = True
    detail = "polarized form nonnegative on random rank-one points at the -1/2 guess"
    for n in (1, 2, 3):
        for d in (2, 3):
            dims = (d,) * n
            size = d**n
            for count in _sample_blocks(3400, 64 * size**2):
                u, v = _complex_pairs(rng, count, size)
                u /= _norms(u)[:, None]
                v /= _norms(v)[:, None]
                values = q_functional_stack(u[:, :, None] * v.conj()[:, None, :], dims, -0.5)
                for val in values[values < -CERTIFY_TOL]:
                    ok = False
                    detail = f"rank-one value {val:.3e} below floor at d={d} n={n}"
    return ok, detail


def _complex_pairs(rng: np.random.Generator, count: int, size: int):
    """``count`` pairs of complex Gaussian vectors of ``size`` as two stacks.

    One draw for the block; the values are those of ``count`` rows each
    drawing ``normal(size) + 1j * normal(size)`` twice in turn.
    """
    g = rng.standard_normal((count, 4, size))
    return g[:, 0] + 1j * g[:, 1], g[:, 2] + 1j * g[:, 3]


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each row of a stack, independent of the stack."""
    return np.sqrt(_real_inner(stack, stack))


def _check_rank_two_discriminant_sampling(seed, bundle_dir):
    rows, findings = rank2_slack_sampling(3, 1000, seed, bundle_dir=bundle_dir)
    worst = max(r.slack for r in rows)
    detail = f"max slack over {len(rows)} samples = {worst:.3e}"
    if findings:
        detail += f"; {len(findings)} finding(s) recorded as bundles (conjecture-class, not a failure)"
    return True, detail


@dataclass(frozen=True)
class SlackRow:
    point_id: int
    seed: int
    slack: float


def rank2_slack_sampling(
    d: int,
    samples: int,
    seed: int,
    bundle_dir=None,
) -> tuple[list[SlackRow], list[Path]]:
    """Sample the rank-two discriminant slack; positive slack is a finding.

    The inequality behind the slack is conjectural, so findings never raise:
    they are serialized as bundles (when a directory is given) and returned.
    Each sample draws from its own child seed of ``seed``, as
    ``random_rank_two`` would; the samples run in blocks
    (``linalg._seed_blocks``), one QR and one ``pqr_stack`` per block, and a
    row equals
    ``_discriminant_slack(*pqr(random_rank_two(rng, d * d), d))`` whatever
    its block.  ``check_rank2_inequality`` takes the polarized route to the
    same slack and agrees to rounding.
    """
    d = int(d)
    samples = int(samples)
    rows = []
    findings = []
    for seeds in _seed_blocks(seed, samples, 64 * (d * d) ** 2):
        sigma, frames = random_rank_two_stack([np.random.default_rng(child) for child in seeds], d * d)
        p, q, r = pqr_stack(frames, d)
        slacks = _discriminant_slack(p, q, r)
        for row, (child, slack) in enumerate(zip(seeds, slacks.tolist())):
            rows.append(SlackRow(point_id=len(rows), seed=child, slack=slack))
            if slack > SLACK_FINDING_THRESHOLD and bundle_dir is not None:
                rt = RankTwoFactors.from_stack(sigma, frames, row)
                bundle = rt.to_bundle("rank2-slack-finding", d=d, n=2, beta=-0.5, seed=child, slack=slack)
                findings.append(write_bundle(bundle, Path(bundle_dir) / f"slack-{child}.bundle"))
    return rows, findings


SUITES = {
    "equivalence": [
        ("sandwich-subset-sum", _check_sandwich_equivalence),
        ("polar-identity", _check_polar_identity),
        ("pqr-identity", _check_pqr_identity),
        ("discriminant-angle-scan", _check_angle_scan),
        ("rank-one-pair-scan", _check_rank_one_pair_scan),
    ],
    "schmidt": [
        ("overlap-oracle", _check_overlap_oracle),
        ("local-unitary-invariance", _check_local_unitary_invariance),
        ("submatrix-rank", _check_submatrix_rank),
        ("overlap-monotone", _check_overlap_monotone),
    ],
    "multivar": [
        ("critical-gradient-zero", _check_critical_gradient),
        ("gradient-finite-difference", _check_gradient_fd),
        ("hessian-finite-difference", _check_hessian_fd),
        ("nonconvexity-demo", _check_nonconvexity),
        ("first-second-derivative-identity", _check_h_identity),
    ],
    "iterate": [
        ("exchange-explicit-matrix", _check_estep_explicit),
        ("iterate-merge-consistency", _check_iterate_merge),
        ("iterate-spectrum-products", _check_iterate_spectrum),
        ("certify-sign-grid", _check_certify_sign_grid),
    ],
    "lemmas": [
        ("max-overlap-bound", _check_lemma_overlap),
        ("partial-trace-contraction", _check_lemma_trace_contraction),
        ("copy-count-floor", _check_copy_floor),
        ("rank-one-positivity", _check_rank_one_positivity),
        ("rank-two-slack-sampling", _check_rank_two_discriminant_sampling),
    ],
}
