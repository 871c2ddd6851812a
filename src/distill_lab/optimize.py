"""Random-restart minimization of the subset-sum functional over unit-norm
rank-<=2 matrices in factored coordinates.

A point is (sigma, U, V): singular values on the unit circle, plus two
orthonormal frames holding the left/right factor pairs as columns.  This
parameterization stays exactly on the rank-<=2 manifold the functional is
quantified over; descent steps are retracted back onto it, sigma by
normalization and the frames by QR.

The search holds its restarts on a leading stack axis in the layout of
``distill.random_rank_two_stack``: sigma of shape (R, 2) and frames of shape
(R, 2, N, 2), with U = frames[:, 0] and V = frames[:, 1].  Rows share no
arithmetic, so a restart's trajectory does not depend on which other
restarts run beside it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .distill import RankTwoFactors, _rank_two_draw, _real_inner
from .errors import DimensionLimitError, ShapeError
from .linalg import ComplexMatrix, _adjoint, _qf, _seed_blocks, _trace_slot

# Largest composite side d^n the factored search will handle.
MINIMIZE_SIDE_CAP = 256

DEFAULT_SEED = 0xD157

# Armijo sufficient-decrease constant and the factor a rejected trial step
# is cut by.  An accepted step sets the next trial by Barzilai-Borwein
# (``_bb_step``), its quotient clipped to [BB_MIN_STEP, BB_MAX_STEP].  A
# rejected trial t ends the restart with ``line_search`` once its
# first-order decrease t * |g|^2 is at most ROUNDING_STOP * max(1, |value|):
# below that the Armijo test compares rounding noise.
ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
BB_MIN_STEP = 1e-12
BB_MAX_STEP = 10.0
ROUNDING_STOP = 4.0 * np.finfo(np.float64).eps

# Why a restart stopped; RestartRecord.stop_reason holds one of these.
STOP_REASONS = ("grad_tol", "max_iters", "line_search")
_LIVE, _GRAD_TOL, _MAX_ITERS, _LINE_SEARCH = -1, 0, 1, 2


@dataclass(frozen=True)
class SearchConfig:
    """Problem and search parameters; fully determines the report."""

    d: int
    n: int
    beta: float
    restarts: int = 20
    max_iters: int = 2000
    grad_tol: float = 1e-9
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "restarts", int(self.restarts))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "grad_tol", float(self.grad_tol))
        object.__setattr__(self, "seed", int(self.seed))
        if self.d < 2:
            raise ShapeError(f"local dimension must be >= 2, got {self.d}")
        if self.n < 1:
            raise ShapeError(f"copy count must be >= 1, got {self.n}")
        if not -1.0 <= self.beta <= 1.0:
            raise ShapeError(f"beta must be finite and lie in [-1, 1], got {self.beta}")
        if self.restarts < 1:
            raise ShapeError(f"need at least one restart, got {self.restarts}")
        if self.max_iters < 1:
            raise ShapeError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ShapeError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        # d >= 2, so n past log2 of the cap exceeds it without computing d**n.
        if self.n > MINIMIZE_SIDE_CAP.bit_length() - 1 or self.d**self.n > MINIMIZE_SIDE_CAP:
            raise DimensionLimitError(
                f"side {self.d}^{self.n} exceeds the search cap {MINIMIZE_SIDE_CAP}"
            )

    @property
    def side(self) -> int:
        return self.d**self.n

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d,) * self.n


@dataclass(frozen=True)
class RestartRecord:
    seed: int
    final_value: float
    iterations: int
    stop_reason: str | None  # one of STOP_REASONS; None in reports written before it existed


@dataclass(frozen=True)
class SearchReport:
    config: SearchConfig
    best_value: float
    best_point: RankTwoFactors
    per_restart: tuple[RestartRecord, ...]
    wall_time_s: float


@dataclass(frozen=True)
class TangentGradient:
    """Projected gradient at a factored point: sigma and frame components."""

    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def norm_sq(self) -> float:
        return float(
            np.sum(self.sigma**2) + np.sum(np.abs(self.u) ** 2) + np.sum(np.abs(self.v) ** 2)
        )

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def minimize_q(cfg: SearchConfig) -> SearchReport:
    """Random-restart projected gradient descent on the subset-sum functional.

    Each restart draws its start with ``distill._rank_two_draw``, then runs
    Armijo-backtracked descent with Barzilai-Borwein trial steps, retracting
    sigma by normalization and the frames by QR, stopping at
    ``grad_tol``, at ``max_iters`` or when a rejected trial promised a
    decrease below the value's rounding level; its record names which.  The
    report is deterministic given the config (restart seeds derive from
    ``cfg.seed``; the best restart is the first one with the least value),
    except for the recorded wall time.
    A restart that ends at a non-finite value raises ``FloatingPointError``.
    """
    start = time.perf_counter()
    # Restarts run in blocks of one lift (16 side^2 bytes) each; results do
    # not depend on the blocking.
    blocks = list(_seed_blocks(cfg.seed, cfg.restarts, 16 * cfg.side**2))
    seeds = [s for block in blocks for s in block]
    parts = [_descend_block(cfg, block) for block in blocks]
    value, sigma, frames, iterations, stop = (np.concatenate(arrays) for arrays in zip(*parts))
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        r = int(bad[0])
        raise FloatingPointError(f"restart {r} (seed {seeds[r]}) ended at non-finite value {value[r]}")
    records = tuple(
        RestartRecord(seed=s, final_value=float(v), iterations=int(k), stop_reason=STOP_REASONS[c])
        for s, v, k, c in zip(seeds, value, iterations, stop)
    )
    best = int(np.argmin(value))
    return SearchReport(
        config=cfg,
        best_value=float(value[best]),
        best_point=_canonical_factors(sigma[best], frames[best]),
        per_restart=records,
        wall_time_s=time.perf_counter() - start,
    )


def grad_q(rt: RankTwoFactors, d: int, n: int, beta: float) -> TangentGradient:
    """Projected gradient of the functional at a factored point.

    Matches the derivative of the functional along retracted curves: for any
    tangent direction xi, d/dt q(R(point, t*xi)) at t=0 equals the real inner
    product <grad, xi>.
    """
    d = int(d)
    n = int(n)
    if rt.dim != d**n:
        raise ShapeError(f"factor length {rt.dim} does not equal {d}^{n}")
    _, gsigma, gframes, _ = _evaluate((d,) * n, beta, *rt.stack())
    return TangentGradient(sigma=gsigma[0], u=gframes[0, 0], v=gframes[0, 1])


def witness_tensor(beta: float, d: int) -> ComplexMatrix:
    """Two-slot product witness with functional value (1+2*beta)*(1+beta).

    The left factor is the balanced rank-two diagonal (unit entries at 00 and
    11 over sqrt(2)), the right a single matrix unit; the subset sum
    factorizes over the tensor product, giving a strictly negative value for
    beta in (-1, -1/2) and zero at both endpoints.  Rejects beta > -1/2,
    where the construction is not negative.
    """
    beta = float(beta)
    d = int(d)
    if d < 2:
        raise ShapeError(f"local dimension must be >= 2, got {d}")
    if beta > -0.5 or beta < -1.0:
        raise ValueError(f"witness requires beta in [-1, -1/2], got {beta}")
    left = np.zeros((d, d), dtype=np.complex128)
    left[0, 0] = left[1, 1] = 1.0 / math.sqrt(2.0)
    right = np.zeros((d, d), dtype=np.complex128)
    right[0, 0] = 1.0
    return ComplexMatrix(np.kron(left, right), (d, d), (d, d))


def report_to_json(report: SearchReport) -> dict:
    """JSON-serializable form; complex vectors become [re, im] pair lists."""
    point = report.best_point
    return {
        "config": asdict(report.config),
        "best_value": report.best_value,
        "best_point": {
            "sigma1": point.sigma1,
            "sigma2": point.sigma2,
            "u1": _vec_to_pairs(point.u1),
            "v1": _vec_to_pairs(point.v1),
            "u2": _vec_to_pairs(point.u2),
            "v2": _vec_to_pairs(point.v2),
        },
        "per_restart": [asdict(r) for r in report.per_restart],
        "wall_time_s": report.wall_time_s,
    }


def report_from_json(data: dict) -> SearchReport:
    cfg = SearchConfig(**data["config"])
    bp = data["best_point"]
    point = RankTwoFactors(
        sigma1=bp["sigma1"],
        sigma2=bp["sigma2"],
        u1=_pairs_to_vec(bp["u1"]),
        v1=_pairs_to_vec(bp["v1"]),
        u2=_pairs_to_vec(bp["u2"]),
        v2=_pairs_to_vec(bp["v2"]),
    )
    records = tuple(
        RestartRecord(
            seed=int(r["seed"]),
            final_value=float(r["final_value"]),
            iterations=int(r["iterations"]),
            stop_reason=r.get("stop_reason"),
        )
        for r in data["per_restart"]
    )
    if len(records) != cfg.restarts:
        raise ShapeError(f"{len(records)} per-restart records for {cfg.restarts} restarts")
    for r in records:
        if r.stop_reason is not None and r.stop_reason not in STOP_REASONS:
            raise ShapeError(f"unknown stop_reason {r.stop_reason!r}, expected one of {STOP_REASONS}")
    return SearchReport(
        config=cfg,
        best_value=float(data["best_value"]),
        best_point=point,
        per_restart=records,
        wall_time_s=float(data["wall_time_s"]),
    )


def _descend_block(cfg: SearchConfig, seeds: list[int]):
    """Armijo descent from one ``_rank_two_draw`` start per seed, the
    restarts advancing as one stack, one candidate per live row per round.

    Returns per-restart arrays ``(value, sigma, frames, iterations, stop)``,
    ``stop`` indexing ``STOP_REASONS``.  Each row keeps its own trial step
    and stop flag, so it runs exactly the serial algorithm: the first trial
    is 1; an accepted candidate becomes the point, hands over the value and
    gradient evaluated with it and sets the next trial by ``_bb_step``; a
    rejected one halves the trial, and the row stops with ``line_search``
    once the rejected trial promised a decrease t * |g|^2 below the value's
    rounding level.  The working arrays hold only the live rows; a row's
    final state is written out when it stops.
    """
    sigma, frames = _rank_two_draw([np.random.default_rng(seed) for seed in seeds], cfg.side)
    value, gsigma, gframes, gn2 = _evaluate(cfg.dims, cfg.beta, sigma, frames)
    rows = np.arange(len(seeds))
    step = np.ones(len(seeds))
    iterations = np.zeros(len(seeds), dtype=np.int64)
    stop = np.where(np.sqrt(gn2) <= cfg.grad_tol, _GRAD_TOL, _LIVE)
    out = tuple(np.empty_like(a) for a in (value, sigma, frames, iterations, stop))
    while True:
        done = stop != _LIVE
        if done.any():
            for dest, src in zip(out, (value, sigma, frames, iterations, stop)):
                dest[rows[done]] = src[done]
            keep = ~done
            rows, sigma, frames, value, gsigma, gframes, gn2, step, iterations = (
                a[keep] for a in (rows, sigma, frames, value, gsigma, gframes, gn2, step, iterations)
            )
        if not rows.size:
            return out
        t = step
        cand_sigma = sigma - t[:, None] * gsigma
        cand_sigma /= np.sqrt((cand_sigma * cand_sigma).sum(-1, keepdims=True))
        cand_frames = _qf(frames - t[:, None, None, None] * gframes)
        cand_value, cand_gsigma, cand_gframes, cand_gn2 = _evaluate(cfg.dims, cfg.beta, cand_sigma, cand_frames)
        ok = cand_value <= value - ARMIJO_C * t * gn2
        inner = (gsigma * cand_gsigma).sum(-1) + _real_inner(gframes, cand_gframes)
        step = np.where(ok, _bb_step(t, gn2, cand_gn2, inner), ARMIJO_FACTOR * t)
        if ok.all():
            stop = _LIVE
            sigma, frames, value, gsigma, gframes, gn2 = (
                cand_sigma, cand_frames, cand_value, cand_gsigma, cand_gframes, cand_gn2
            )
        else:
            # a negated test, so that a non-finite value stalls at once
            stalled = ~ok & ~(t * gn2 > ROUNDING_STOP * np.maximum(1.0, np.abs(value)))
            stop = np.where(stalled, _LINE_SEARCH, _LIVE)
            for dest, src in zip((sigma, frames, value, gsigma, gframes, gn2),
                                 (cand_sigma, cand_frames, cand_value, cand_gsigma, cand_gframes, cand_gn2)):
                np.copyto(dest, src, where=ok[(...,) + (None,) * (src.ndim - 1)])
        iterations += ok
        stop = np.where(np.sqrt(gn2) <= cfg.grad_tol, _GRAD_TOL, stop)
        stop = np.where(iterations == cfg.max_iters, _MAX_ITERS, stop)


def _bb_step(t, gn2, new_gn2, inner):
    """Next trial step after an accepted move s = -t g, with y = g_new - g.

    The Barzilai-Borwein (BB2) step <s, y>/<y, y> = t (|g|^2 - <g, g_new>) /
    (|g|^2 + |g_new|^2 - 2 <g, g_new>), from ``gn2`` = |g|^2, ``new_gn2`` =
    |g_new|^2 and ``inner`` = <g, g_new>, clipped to [``BB_MIN_STEP``,
    ``BB_MAX_STEP``].  Where the numerator or the denominator is not
    positive (no positive curvature seen along the move, as near a saddle)
    the step doubles instead, unclipped; the Armijo test bounds it.
    """
    num = gn2 - inner
    den = gn2 + new_gn2 - 2.0 * inner
    curved = (num > 0.0) & (den > 0.0)
    bb = np.minimum(np.maximum(t * num / np.where(curved, den, 1.0), BB_MIN_STEP), BB_MAX_STEP)
    return np.where(curved, bb, 2.0 * t)


def _evaluate(dims: tuple[int, ...], beta: float, sigma: np.ndarray, frames: np.ndarray):
    """Value, projected gradient and its squared norm at stacked points.

    Returns ``(value, gsigma, gframes, gn2)``.

    One lift Y = L(X) per point gives both: with a_k = Re(U^H Y V)_kk the
    value is Re tr(X^H Y) = <sigma, a>, and the Euclidean gradient under
    Re<.,.> is 2a for sigma, 2 Y V diag(sigma) for U and 2 Y^H U diag(sigma)
    for V.  Projected onto the unit circle, sigma's is 2(a - value sigma).
    """
    s = sigma[:, None, :]
    u, v = frames[:, 0], frames[:, 1]
    y = _lift((u * s) @ _adjoint(v), dims, beta)
    yv = y @ v
    uhy = _adjoint(u) @ y
    a = np.diagonal(uhy @ v, axis1=-2, axis2=-1).real
    value = (sigma * a).sum(-1)
    gsigma = 2.0 * (a - value[:, None] * sigma)
    euclid = np.stack([yv, _adjoint(uhy)], axis=1) * (2.0 * s[:, None])
    gframes = _project_stiefel(frames, euclid)
    gn2 = (gsigma * gsigma).sum(-1) + _real_inner(gframes, gframes)
    return value, gsigma, gframes, gn2


def _lift(x: np.ndarray, dims: tuple[int, ...], beta: float) -> np.ndarray:
    """Self-adjoint map L with <X, L(X)> equal to the functional value.

    L = sum_S beta^|S| I_S (x) Tr_S is the product over slots i of
    (I + beta * Phi_i) with Phi_i(X) = I_i (x) Tr_i X, since the Phi_i act
    on distinct slots and commute.  Applying the factors one slot at a time
    costs n traces instead of 2^n.  ``x`` is (..., side, side); the leading
    axes are a stack of independent matrices.
    """
    lead = x.shape[:-2]
    t = x.copy()
    for i, d in enumerate(dims):
        tr = _trace_slot(t, dims, i)[0]
        tr *= beta
        # The (pre, d, post, pre, d, post) view _trace_slot reads; beta * Tr_i
        # goes back onto each diagonal block of slot i.
        pre, post = math.prod(dims[:i]), math.prod(dims[i + 1 :])
        blocks = t.reshape(lead + (pre, d, post, pre, d, post))
        tr = tr.reshape(lead + (pre, post, pre, post))
        for c in range(d):
            blocks[..., c, :, :, c, :] += tr
    return t


def _project_stiefel(frame: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Tangent projection onto the frames' Stiefel manifolds, over leading axes."""
    m = _adjoint(frame) @ grad
    return grad - frame @ ((m + _adjoint(m)) / 2.0)


def _canonical_factors(sigma: np.ndarray, frames: np.ndarray) -> RankTwoFactors:
    """The search point ``(sigma, frames)`` of one restart, with singular
    values made nonnegative (a negative one flips its U column) and sorted
    in descending order, ties kept in place."""
    frames = frames.copy()
    frames[0] *= np.where(sigma < 0, -1.0, 1.0)
    sigma = np.abs(sigma)
    order = np.argsort(-sigma, kind="stable")
    return RankTwoFactors.from_stack(sigma[None, order], frames[None, ..., order])


def _vec_to_pairs(vec: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(vec).reshape(-1)]


def _pairs_to_vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
