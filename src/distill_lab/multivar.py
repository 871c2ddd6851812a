"""Real two-copy functional as a multivariable function of rank-one factors.

Variables are the entries of two real vectors w, x of length d^2 (the factor
pair of C = w x^T); a second pair y, z fixes the reference point D0 = y z^T.
Entry (i, j) of the d x d coefficient matrix sits at vector component i*d + j.

The analytic gradient and Hessian below follow from differentiating

    f(C, D) = tr(C^T D) + beta * (tr(C1^T D1) + tr(C2^T D2))
              + beta^2 * tr(C) * tr(D)
    g(C)    = f(C, C) f(D0, D0) - f(C, D0)^2

where C1/C2 are the two partial traces of C.  The Hessian blocks are only
stated on the critical manifold C = D0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionLimitError, ShapeError
from .linalg import DEFAULT_DIM_CAP, _child_seed
from .states import WernerParams

DEFAULT_BETA = -0.5

# Gradient/Hessian finite-difference steps used by the verification suites.
FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4

CRITICAL_POINT_TOL = 1e-12
HESSIAN_FINDING_THRESHOLD = -1e-6


@dataclass(frozen=True)
class RankOnePoint:
    """Variables (w, x) and parameters (y, z), all real vectors of length d^2."""

    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        length = None
        for name in ("w", "x", "y", "z"):
            vec = np.array(getattr(self, name), dtype=np.float64, copy=True).reshape(-1)
            if not np.all(np.isfinite(vec)):
                raise ShapeError(f"{name} must be finite")
            if length is None:
                length = vec.size
            elif vec.size != length:
                raise ShapeError("all four vectors must share one length")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        d = math.isqrt(length)
        if d * d != length or d < 2:
            raise ShapeError(f"vector length {length} is not a perfect square >= 4")
        object.__setattr__(self, "_d", d)

    @property
    def d(self) -> int:
        return self._d

    def is_critical(self) -> bool:
        return (
            float(np.max(np.abs(self.w - self.y))) <= CRITICAL_POINT_TOL
            and float(np.max(np.abs(self.x - self.z))) <= CRITICAL_POINT_TOL
        )


def f_real(c_pair, d_pair, beta: float) -> float:
    """Two-copy functional on real rank-one matrices given by factor pairs."""
    w, x = (_as_square_vec(v) for v in c_pair)
    y, z = (_as_square_vec(v) for v in d_pair)
    if not w.size == x.size == y.size == z.size:
        raise ShapeError("factor vectors must share one length")
    d = math.isqrt(w.size)
    wm, xm, ym, zm = (v.reshape(d, d) for v in (w, x, y, z))
    beta = float(beta)
    plain = float(w @ y) * float(x @ z)
    left = float(np.sum((wm @ xm.T) * (ym @ zm.T)))
    right = float(np.sum((wm.T @ xm) * (ym.T @ zm)))
    traces = float(w @ x) * float(y @ z)
    return plain + beta * (left + right) + beta * beta * traces


def g_value(p: RankOnePoint, beta: float) -> float:
    """f(C,C) f(D0,D0) - f(C,D0)^2; zero whenever C == D0."""
    f_cc = f_real((p.w, p.x), (p.w, p.x), beta)
    f_dd = f_real((p.y, p.z), (p.y, p.z), beta)
    f_cd = f_real((p.w, p.x), (p.y, p.z), beta)
    return f_cc * f_dd - f_cd * f_cd


def grad_g(p: RankOnePoint, beta: float) -> np.ndarray:
    """Gradient of g in the 2*d^2 variables (w entries, then x entries).

    Vanishes identically on the critical manifold C = D0 for every choice of
    parameters and beta.
    """
    d = p.d
    wm, xm, ym, zm = (v.reshape(d, d) for v in (p.w, p.x, p.y, p.z))
    beta = float(beta)
    f_dd = f_real((p.y, p.z), (p.y, p.z), beta)
    f_cd = f_real((p.w, p.x), (p.y, p.z), beta)
    gw = f_dd * _h1(wm, xm, beta) - 2.0 * f_cd * _h2(ym, zm, xm, beta)
    gx = f_dd * _h1(xm, wm, beta) - 2.0 * f_cd * _h2(zm, ym, wm, beta)
    return np.concatenate([gw.reshape(-1), gx.reshape(-1)])


def hessian_g(p: RankOnePoint, beta: float) -> np.ndarray:
    """Analytic Hessian of g at a critical point C = D0, as a symmetric
    2*d^2 x 2*d^2 block matrix [[ww, wx], [wx^T, xx]].

    Raises off the critical manifold: the block formulas are only valid at
    C = D0.
    """
    if not p.is_critical():
        raise ShapeError("analytic Hessian is only defined at critical points (w == y, x == z)")
    d = p.d
    beta = float(beta)
    wm = p.w.reshape(d, d)
    xm = p.x.reshape(d, d)
    f0 = f_real((p.y, p.z), (p.y, p.z), beta)
    a = _h2(wm, xm, xm, beta).reshape(-1)  # d f(C,D0) / dw at the point
    b = _h2(xm, wm, wm, beta).reshape(-1)  # d f(C,D0) / dx at the point
    h_ww = f0 * _h3(xm, beta) - 2.0 * np.outer(a, a)
    h_xx = f0 * _h3(wm, beta) - 2.0 * np.outer(b, b)
    h_wx = f0 * _h4(wm, xm, beta) - 2.0 * f0 * _h5(wm, xm, beta) - 2.0 * np.outer(a, b)
    top = np.hstack([h_ww, h_wx])
    bottom = np.hstack([h_wx.T, h_xx])
    return np.vstack([top, bottom])


def nonconvexity_demo(d: int, beta: float = DEFAULT_BETA) -> tuple[np.ndarray, float]:
    """Gradient at the midpoint of two known minima, against the sparse pattern.

    The two endpoints put a single unit entry at vector position 1 (both w
    and x equal to the parameter vectors) and at position 0.  Their
    unnormalized midpoint has a nonzero gradient parallel to the 0/1 pattern
    with ones at w00, w01, x00, x01 — so the minimum set is not convex.
    Normalizing the midpoint would only rescale the gradient, so it is
    omitted.  Returns ``(gradient, cosine_to_pattern)``.
    """
    d = int(d)
    if d < 3:
        raise ShapeError(f"demo pattern requires d >= 3, got {d}")
    if d * d > DEFAULT_DIM_CAP:
        raise DimensionLimitError(f"demo vector length {d * d} exceeds cap {DEFAULT_DIM_CAP}")
    beta = WernerParams(d, beta).beta
    n = d * d
    e0 = np.zeros(n)
    e0[0] = 1.0
    e1 = np.zeros(n)
    e1[1] = 1.0
    mid = e0 + e1
    grad = grad_g(RankOnePoint(mid, mid, e1, e1), beta)
    pattern = np.zeros(2 * n)
    pattern[[0, 1, n, n + 1]] = 1.0
    denom = float(np.linalg.norm(grad) * np.linalg.norm(pattern))
    cosine = float(grad @ pattern) / denom if denom > 0 else 0.0
    return grad, cosine


@dataclass(frozen=True)
class SweepRow:
    """One Hessian spectrum sample: id, per-sample seed, min eigenvalue."""

    point_id: int
    seed: int
    min_eigenvalue: float


def hessian_spectrum_sweep(
    d: int,
    samples: int,
    seed: int,
    beta: float = DEFAULT_BETA,
    bundle_dir: "Path | str | None" = None,
) -> list[SweepRow]:
    """Sample random critical points and record the Hessian's least eigenvalue.

    Draws normalized Gaussian parameter pairs (y, z), assembles the analytic
    Hessian at C = D0, and reports the minimum eigenvalue per sample.  Any
    value below ``HESSIAN_FINDING_THRESHOLD`` is written out as a reproduction
    bundle when ``bundle_dir`` is given; the sweep itself always completes —
    a finding is data, not an error.  Per-sample seeds derive from ``seed``.
    """
    d = int(d)
    samples = int(samples)
    if d > 4:
        raise ShapeError(f"sweep is capped at d <= 4, got {d}")
    if samples < 1:
        raise ShapeError(f"need at least one sample, got {samples}")
    beta = WernerParams(d, beta).beta

    def run(idx: int) -> SweepRow:
        child = _child_seed(seed, idx)
        rng = np.random.default_rng(child)
        y = rng.standard_normal(d * d)
        y /= np.linalg.norm(y)
        z = rng.standard_normal(d * d)
        z /= np.linalg.norm(z)
        hess = hessian_g(RankOnePoint(y, z, y, z), beta)
        min_eig = float(np.linalg.eigvalsh(hess)[0])
        if min_eig < HESSIAN_FINDING_THRESHOLD and bundle_dir is not None:
            from .bundles import Bundle, write_bundle

            bundle = Bundle(
                kind="hessian-counterexample",
                params={
                    "d": d,
                    "n": 2,
                    "beta": float(beta),
                    "seed": child,
                    "min_eigenvalue": min_eig,
                },
                vectors={"y": y, "z": z},
            )
            write_bundle(bundle, Path(bundle_dir) / f"hessian-{child}.bundle")
        return SweepRow(point_id=idx, seed=child, min_eigenvalue=min_eig)

    return [run(i) for i in range(samples)]


def fd_gradient(func, x0: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, step ``FD_GRAD_STEP``."""
    step = FD_GRAD_STEP
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = step
        out[i] = (func(x0 + e) - func(x0 - e)) / (2.0 * step)
    return out


def fd_hessian(func, x0: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of a scalar function, step ``FD_HESS_STEP``."""
    step = FD_HESS_STEP
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    out = np.zeros((n, n))
    f0 = func(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (func(x0 + 2 * ei) - 2 * f0 + func(x0 - 2 * ei)) / (4.0 * step * step)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            val = (
                func(x0 + ei + ej)
                - func(x0 + ei - ej)
                - func(x0 - ei + ej)
                + func(x0 - ei - ej)
            ) / (4.0 * step * step)
            out[i, j] = val
            out[j, i] = val
    return out


def _h1(wm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """d f(C,C) / dw as a d x d array (h1 with arguments swapped gives d/dx)."""
    sx2 = float(np.sum(xm * xm))
    swx = float(np.sum(wm * xm))
    return 2.0 * (
        wm * sx2 + beta * (wm @ xm.T @ xm + xm @ xm.T @ wm) + beta * beta * xm * swx
    )


def _h2(ym: np.ndarray, zm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """d f(C,D0) / dw as a d x d array, parameters (y, z), variable x."""
    sxz = float(np.sum(xm * zm))
    syz = float(np.sum(ym * zm))
    return ym * sxz + beta * (ym @ zm.T @ xm + xm @ zm.T @ ym) + beta * beta * xm * syz


def _h3(xm: np.ndarray, beta: float) -> np.ndarray:
    """Second derivative of f(C,C) within one factor, as a d^2 x d^2 block."""
    d = xm.shape[0]
    eye = np.eye(d)
    vec = xm.reshape(-1)
    return 2.0 * (
        float(np.sum(xm * xm)) * np.eye(d * d)
        + beta * (np.kron(eye, xm.T @ xm) + np.kron(xm @ xm.T, eye))
        + beta * beta * np.outer(vec, vec)
    )


def _h4(wm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """Mixed second derivative of f(C,C) across the two factors.

    Every beta term carries the factor 2 produced by differentiating the
    squared partial-trace norms twice; symmetry check: _h4(w, x) equals
    _h4(x, w) transposed.
    """
    d = wm.shape[0]
    eye = np.eye(d)
    w = wm.reshape(-1)
    x = xm.reshape(-1)
    cross_a = np.einsum("il,kj->ijkl", wm, xm).reshape(d * d, d * d)
    cross_b = np.einsum("il,kj->ijkl", xm, wm).reshape(d * d, d * d)
    return (
        4.0 * np.outer(w, x)
        + 2.0 * beta * (np.kron(wm @ xm.T, eye) + cross_a + np.kron(eye, wm.T @ xm) + cross_b)
        + 2.0 * beta * beta * (float(np.sum(wm * xm)) * np.eye(d * d) + np.outer(x, w))
    )


def _h5(ym: np.ndarray, zm: np.ndarray, beta: float) -> np.ndarray:
    """Mixed second derivative of f(C,D0) across the two variable factors."""
    d = ym.shape[0]
    eye = np.eye(d)
    y = ym.reshape(-1)
    z = zm.reshape(-1)
    return (
        np.outer(y, z)
        + beta * (np.kron(ym @ zm.T, eye) + np.kron(eye, ym.T @ zm))
        + beta * beta * float(np.sum(ym * zm)) * np.eye(d * d)
    )


def _as_square_vec(v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64).reshape(-1)
    d = math.isqrt(vec.size)
    if d * d != vec.size:
        raise ShapeError(f"vector length {vec.size} is not a perfect square")
    return vec
