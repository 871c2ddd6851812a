"""Random-restart minimization of the subset-sum functional over unit-norm
rank-<=2 matrices in factored coordinates.

A point is (theta, U, V): a singular angle with sigma = (cos, sin), plus two
orthonormal frames holding the left/right factor pairs as columns.  This
parameterization stays exactly on the rank-<=2 manifold the functional is
quantified over; descent steps are retracted back onto it by QR.

The search holds its restarts on a leading stack axis: thetas of shape
(R,) and frames of shape (R, 2, N, 2), with U = frames[:, 0] and
V = frames[:, 1].  Rows share no arithmetic, so a restart's trajectory does
not depend on which other restarts run beside it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .distill import RankTwoFactors
from .errors import DimensionLimitError, ShapeError
from .linalg import ComplexMatrix, _child_seed, _complex_normal, _qf

# Largest composite side d^n the factored search will handle.
MINIMIZE_SIDE_CAP = 256

DEFAULT_SEED = 0xD157

ARMIJO_C = 1e-4
ARMIJO_FACTOR = 0.5
MAX_BACKTRACKS = 60

# Restarts advance together in blocks whose stacked lift stays under this
# many bytes.  Stacking pays at small sides, where numpy call overhead
# dominates; a lift of side 256 is already 1 MiB, and stacks of two or more
# of them cost 40-150% more per lift than one at a time.  The sample blocks
# of the oracles (``_sample_blocks``) share this budget.
LIFT_BLOCK_BYTES = 1 << 20

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
        if not self.grad_tol > 0:
            raise ShapeError(f"grad_tol must be positive, got {self.grad_tol}")
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
    """Projected gradient at a factored point: angle and frame components."""

    theta: float
    u: np.ndarray
    v: np.ndarray

    def norm_sq(self) -> float:
        return float(
            self.theta**2 + np.sum(np.abs(self.u) ** 2) + np.sum(np.abs(self.v) ** 2)
        )

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


class _QForm:
    """Lift of the subset-sum functional on raw arrays, fixed (dims, beta)."""

    def __init__(self, dims: tuple[int, ...], beta: float):
        self.dims = tuple(int(d) for d in dims)
        self.n = len(self.dims)
        self.beta = float(beta)
        self.size = math.prod(self.dims)

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Self-adjoint map L with <X, L(X)> equal to the functional value.

        L = sum_S beta^|S| I_S (x) Tr_S is the product over slots i of
        (I + beta * Phi_i) with Phi_i(X) = I_i (x) Tr_i X, since the Phi_i act
        on distinct slots and commute.  Applying the factors one slot at a
        time costs n traces instead of 2^n.  ``x`` is (..., side, side); the
        leading axes are a stack of independent matrices.
        """
        n = self.n
        lead = x.shape[:-2]
        k = len(lead)
        t = x.reshape(lead + self.dims + self.dims).copy()
        for i, d in enumerate(self.dims):
            # blocks[a, b] is the slice with row index a and column index b in
            # slot i; whole-slice adds keep numpy's inner loops long.
            blocks = np.moveaxis(t, (k + i, k + n + i), (0, 1))
            tr = blocks[0, 0].copy()
            for c in range(1, d):
                tr += blocks[c, c]
            tr *= self.beta
            for c in range(d):
                blocks[c, c] += tr
        return t.reshape(lead + (self.size, self.size))


def minimize_q(cfg: SearchConfig) -> SearchReport:
    """Random-restart projected gradient descent on the subset-sum functional.

    Each restart draws Haar frames and a uniform singular angle, then runs
    Armijo-backtracked descent with QR re-orthonormalization, stopping at
    ``grad_tol``, at ``max_iters`` or when ``MAX_BACKTRACKS`` halvings all
    fail; its record names which.  The report is deterministic given the
    config (restart seeds derive from ``cfg.seed``; the best restart is the
    first one with the least value), except for the recorded wall time.
    A restart that ends at a non-finite value raises ``FloatingPointError``.
    """
    start = time.perf_counter()
    seeds = [_child_seed(cfg.seed, i) for i in range(cfg.restarts)]
    value, theta, frames, iterations, stop = _descend(_QForm(cfg.dims, cfg.beta), cfg, seeds)
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
        best_point=_canonical_factors(theta[best], frames[best]),
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
    theta = np.array([math.atan2(rt.sigma2, rt.sigma1)])
    frames = np.array([[np.column_stack([rt.u1, rt.u2]), np.column_stack([rt.v1, rt.v2])]])
    _, gtheta, gframes, _ = _evaluate(_QForm((d,) * n, beta), theta, frames)
    return TangentGradient(theta=float(gtheta[0]), u=gframes[0, 0], v=gframes[0, 1])


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
    cfg = report.config
    point = report.best_point
    return {
        "config": {
            "d": cfg.d,
            "n": cfg.n,
            "beta": cfg.beta,
            "restarts": cfg.restarts,
            "max_iters": cfg.max_iters,
            "grad_tol": cfg.grad_tol,
            "seed": cfg.seed,
        },
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
    return SearchReport(
        config=cfg,
        best_value=float(data["best_value"]),
        best_point=point,
        per_restart=records,
        wall_time_s=float(data["wall_time_s"]),
    )


def _sample_blocks(samples: int, side: int):
    """Block sizes covering ``samples`` samples of a per-sample oracle.

    Each sample is costed as four complex matrices of ``side`` (for the
    subset sum: the stack, a temporary of assembling it, one of the squared
    norms, and the factors with their QR work at small sides), so a block's
    working set stays under ``LIFT_BLOCK_BYTES``.  Callers keep every
    sample's result independent of its block.
    """
    block = max(1, LIFT_BLOCK_BYTES // (4 * 16 * side * side))
    for start in range(0, samples, block):
        yield min(block, samples - start)


def _descend(form: _QForm, cfg: SearchConfig, seeds: list[int]):
    """Armijo descent from one random start per seed.

    Returns per-restart arrays ``(value, theta, frames, iterations, stop)``,
    ``stop`` indexing ``STOP_REASONS``.  Restarts run in blocks sized by
    ``LIFT_BLOCK_BYTES``; results do not depend on the blocking.
    """
    block = max(1, LIFT_BLOCK_BYTES // (16 * form.size**2))
    parts = [_descend_block(form, cfg, seeds[i : i + block]) for i in range(0, len(seeds), block)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _descend_block(form: _QForm, cfg: SearchConfig, seeds: list[int]):
    """Advance a stack of restarts together, one Armijo candidate per live row per round.

    Each row keeps its own trial step, backtrack count and stop flag, so it
    runs exactly the serial algorithm: an accepted candidate becomes the
    point, hands over the value and gradient evaluated with it and doubles
    the trial step (at most 1); a rejected one halves it.
    """
    size = form.size
    theta = np.empty(len(seeds))
    raw = np.empty((len(seeds), 2, size, 2), dtype=np.complex128)
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        theta[r] = rng.uniform(0.0, math.pi / 2.0)
        raw[r, 0] = _complex_normal(rng, (size, 2))
        raw[r, 1] = _complex_normal(rng, (size, 2))
    frames = _qf(raw)
    value, gtheta, gframes, gn2 = _evaluate(form, theta, frames)
    step = np.ones(len(seeds))
    iterations = np.zeros(len(seeds), dtype=np.int64)
    backtracks = np.zeros(len(seeds), dtype=np.int64)
    stop = np.where(np.sqrt(gn2) <= cfg.grad_tol, _GRAD_TOL, _LIVE)
    live = np.flatnonzero(stop == _LIVE)
    while live.size:
        t = step[live]
        cand_theta = theta[live] - t * gtheta[live]
        cand_frames = _qf(frames[live] - t[:, None, None, None] * gframes[live])
        cand_value, cand_gtheta, cand_gframes, cand_gn2 = _evaluate(form, cand_theta, cand_frames)
        ok = cand_value <= value[live] - ARMIJO_C * t * gn2[live]
        acc = live[ok]
        theta[acc] = cand_theta[ok]
        frames[acc] = cand_frames[ok]
        value[acc] = cand_value[ok]
        gtheta[acc] = cand_gtheta[ok]
        gframes[acc] = cand_gframes[ok]
        gn2[acc] = cand_gn2[ok]
        iterations[acc] += 1
        backtracks[live] = np.where(ok, 0, backtracks[live] + 1)
        step[live] = np.where(ok, np.minimum(1.0, 2.0 * t), ARMIJO_FACTOR * t)
        stop[live] = np.select(
            [
                iterations[live] == cfg.max_iters,
                np.sqrt(gn2[live]) <= cfg.grad_tol,
                backtracks[live] == MAX_BACKTRACKS,
            ],
            [_MAX_ITERS, _GRAD_TOL, _LINE_SEARCH],
            _LIVE,
        )
        live = live[stop[live] == _LIVE]
    return value, theta, frames, iterations, stop


def _evaluate(form: _QForm, theta: np.ndarray, frames: np.ndarray):
    """Value, projected gradient and its squared norm at stacked points.

    Returns ``(value, gtheta, gframes, gn2)``.

    One lift Y = L(X) per point gives both: the value is
    Re tr(X^H Y) = sum_k sigma_k Re(U^H Y V)_kk, and the Euclidean gradient
    under Re<.,.> is 2 Y V diag(sigma) for U and 2 Y^H U diag(sigma) for V.
    """
    s = np.stack([np.cos(theta), np.sin(theta)], axis=-1)[:, None, :]
    u, v = frames[:, 0], frames[:, 1]
    y = form.lift((u * s) @ _adjoint(v))
    yv = y @ v
    uhy = _adjoint(u) @ y
    a = np.diagonal(uhy @ v, axis1=-2, axis2=-1).real
    s1, s2 = s[:, 0, 0], s[:, 0, 1]
    value = s1 * a[:, 0] + s2 * a[:, 1]
    gtheta = 2.0 * (-s2 * a[:, 0] + s1 * a[:, 1])
    euclid = np.stack([yv, _adjoint(uhy)], axis=1) * (2.0 * s[:, None])
    gframes = _project_stiefel(frames, euclid)
    gn2 = gtheta**2 + np.sum(gframes.real**2 + gframes.imag**2, axis=(1, 2, 3))
    return value, gtheta, gframes, gn2


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _project_stiefel(frame: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Tangent projection onto the frames' Stiefel manifolds, over leading axes."""
    m = _adjoint(frame) @ grad
    return grad - frame @ ((m + _adjoint(m)) / 2.0)


def _canonical_factors(theta: float, frames: np.ndarray) -> RankTwoFactors:
    cols = []
    for idx, s in enumerate((float(np.cos(theta)), float(np.sin(theta)))):
        u = frames[0][:, idx]
        v = frames[1][:, idx]
        if s < 0:
            s, u = -s, -u
        cols.append((s, u, v))
    if cols[0][0] < cols[1][0]:
        cols.reverse()
    (s1, u1, v1), (s2, u2, v2) = cols
    return RankTwoFactors(sigma1=s1, sigma2=s2, u1=u1, v1=v1, u2=u2, v2=v2)


def _vec_to_pairs(vec: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(vec).reshape(-1)]


def _pairs_to_vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
