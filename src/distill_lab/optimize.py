"""Random-restart minimization of the subset-sum functional over unit-norm
rank-<=2 matrices in factored coordinates.

A point is (theta, U, V): a singular angle with sigma = (cos, sin), plus two
orthonormal frames holding the left/right factor pairs as columns.  This
parameterization stays exactly on the rank-<=2 manifold the functional is
quantified over; descent steps are retracted back onto it by QR.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

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
        if self.d**self.n > MINIMIZE_SIDE_CAP:
            raise DimensionLimitError(
                f"side {self.d**self.n} exceeds the search cap {MINIMIZE_SIDE_CAP}"
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
    """Subset-sum functional and its lift on raw arrays, fixed (dims, beta)."""

    def __init__(self, dims: tuple[int, ...], beta: float):
        self.dims = tuple(int(d) for d in dims)
        self.n = len(self.dims)
        self.beta = float(beta)
        self.size = math.prod(self.dims)

    def value(self, x: np.ndarray) -> float:
        return self.value_and_lift(x)[0]

    def value_and_lift(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        y = self.lift(x)
        return float(np.vdot(x, y).real), y

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Self-adjoint map L with <X, L(X)> equal to the functional value.

        L = sum_S beta^|S| I_S (x) Tr_S is the product over slots i of
        (I + beta * Phi_i) with Phi_i(X) = I_i (x) Tr_i X, since the Phi_i act
        on distinct slots and commute.  Applying the factors one slot at a
        time costs n traces instead of 2^n.
        """
        n = self.n
        t = x.reshape(self.dims + self.dims).copy()
        for i, d in enumerate(self.dims):
            tr = np.trace(t, axis1=i, axis2=n + i)
            diag = np.arange(d)
            np.moveaxis(t, (i, n + i), (-2, -1))[..., diag, diag] += self.beta * tr[..., None]
        return t.reshape(self.size, self.size)


@dataclass
class _Point:
    theta: float
    u: np.ndarray  # (size, 2), orthonormal columns
    v: np.ndarray  # (size, 2), orthonormal columns

    def sigmas(self) -> tuple[float, float]:
        return math.cos(self.theta), math.sin(self.theta)

    def assemble(self) -> np.ndarray:
        s1, s2 = self.sigmas()
        return s1 * np.outer(self.u[:, 0], self.v[:, 0].conj()) + s2 * np.outer(
            self.u[:, 1], self.v[:, 1].conj()
        )


def minimize_q(cfg: SearchConfig) -> SearchReport:
    """Random-restart projected gradient descent on the subset-sum functional.

    Each restart draws Haar frames and a uniform singular angle, then runs
    Armijo-backtracked descent with QR re-orthonormalization, stopping at
    ``grad_tol`` or ``max_iters``.  The report is deterministic given the
    config (restart seeds derive from ``cfg.seed``; the merge scans restarts
    in index order and keeps strict improvements only), except for the
    recorded wall time.
    """
    start = time.perf_counter()
    form = _QForm(cfg.dims, cfg.beta)
    child_seeds = [_child_seed(cfg.seed, i) for i in range(cfg.restarts)]
    results = [_minimize_single(form, cfg, s) for s in child_seeds]
    records = []
    best_idx = 0
    for idx, (value, _point, iters) in enumerate(results):
        records.append(RestartRecord(seed=child_seeds[idx], final_value=value, iterations=iters))
        if value < results[best_idx][0]:
            best_idx = idx
    best_value, best_point, _ = results[best_idx]
    return SearchReport(
        config=cfg,
        best_value=best_value,
        best_point=_canonical_factors(best_point),
        per_restart=tuple(records),
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
    form = _QForm((d,) * n, beta)
    point = _Point(
        theta=math.atan2(rt.sigma2, rt.sigma1),
        u=np.column_stack([rt.u1, rt.u2]),
        v=np.column_stack([rt.v1, rt.v2]),
    )
    return _tangent_gradient(point, form.lift(point.assemble()))


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
        "per_restart": [
            {"seed": r.seed, "final_value": r.final_value, "iterations": r.iterations}
            for r in report.per_restart
        ],
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
        RestartRecord(seed=int(r["seed"]), final_value=float(r["final_value"]), iterations=int(r["iterations"]))
        for r in data["per_restart"]
    )
    return SearchReport(
        config=cfg,
        best_value=float(data["best_value"]),
        best_point=point,
        per_restart=records,
        wall_time_s=float(data["wall_time_s"]),
    )


def report_dumps(report: SearchReport) -> str:
    return json.dumps(report_to_json(report), indent=2)


def report_loads(text: str) -> SearchReport:
    return report_from_json(json.loads(text))


def _minimize_single(form: _QForm, cfg: SearchConfig, seed: int, history: list | None = None):
    rng = np.random.default_rng(seed)
    point = _Point(
        theta=float(rng.uniform(0.0, math.pi / 2.0)),
        u=_qf(_complex_normal(rng, (form.size, 2))),
        v=_qf(_complex_normal(rng, (form.size, 2))),
    )
    value, y = form.value_and_lift(point.assemble())
    if history is not None:
        history.append(value)
    step = 1.0
    iterations = 0
    for _ in range(cfg.max_iters):
        grad = _tangent_gradient(point, y)
        gn2 = grad.norm_sq()
        if math.sqrt(gn2) <= cfg.grad_tol:
            break
        accepted = _armijo_step(form, point, value, grad, gn2, min(1.0, 2.0 * step))
        if accepted is None:
            break
        point, value, y, step = accepted
        if history is not None:
            history.append(value)
        iterations += 1
    return value, point, iterations


def _armijo_step(form: _QForm, point: _Point, value: float, grad: TangentGradient, gn2: float, t: float):
    """Backtrack from step ``t`` until the Armijo condition holds.

    Returns the accepted ``(point, value, lift, step)``, whose lift the next
    gradient reuses, or None when ``MAX_BACKTRACKS`` halvings all fail.
    """
    for _ in range(MAX_BACKTRACKS):
        cand = _retract(point, grad, -t)
        cand_value, cand_y = form.value_and_lift(cand.assemble())
        if cand_value <= value - ARMIJO_C * t * gn2:
            return cand, cand_value, cand_y, t
        t *= ARMIJO_FACTOR
    return None


def _tangent_gradient(point: _Point, y: np.ndarray) -> TangentGradient:
    """Projected gradient at ``point`` from the lift ``y`` of its matrix."""
    yh = y.conj().T
    s1, s2 = point.sigmas()
    u1, u2 = point.u[:, 0], point.u[:, 1]
    v1, v2 = point.v[:, 0], point.v[:, 1]
    # Euclidean gradient under the real inner product Re<.,.>.
    gu = np.column_stack([2.0 * s1 * (y @ v1), 2.0 * s2 * (y @ v2)])
    gv = np.column_stack([2.0 * s1 * (yh @ u1), 2.0 * s2 * (yh @ u2)])
    gtheta = 2.0 * float((-s2 * np.vdot(u1, y @ v1) + s1 * np.vdot(u2, y @ v2)).real)
    return TangentGradient(
        theta=gtheta,
        u=_project_stiefel(point.u, gu),
        v=_project_stiefel(point.v, gv),
    )


def _retract(point: _Point, direction: TangentGradient, scale: float) -> _Point:
    return _Point(
        theta=point.theta + scale * direction.theta,
        u=_qf(point.u + scale * direction.u),
        v=_qf(point.v + scale * direction.v),
    )


def _project_stiefel(frame: np.ndarray, grad: np.ndarray) -> np.ndarray:
    m = frame.conj().T @ grad
    return grad - frame @ ((m + m.conj().T) / 2.0)


def _canonical_factors(point: _Point) -> RankTwoFactors:
    s1, s2 = point.sigmas()
    cols = []
    for idx, s in enumerate((s1, s2)):
        u = point.u[:, idx]
        v = point.v[:, idx]
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
