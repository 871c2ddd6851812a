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

from .bundles import Bundle, write_bundle
from .errors import DimensionLimitError, ShapeError
from .linalg import DEFAULT_DIM_CAP, _seed_blocks
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
    """Two-copy functional on real rank-one matrices given by factor pairs.

    This is ``f_real_stack`` on a stack of one.
    """
    w, x = (_as_square_vec(v) for v in c_pair)
    y, z = (_as_square_vec(v) for v in d_pair)
    if not w.size == x.size == y.size == z.size:
        raise ShapeError("factor vectors must share one length")
    return float(f_real_stack(w[None], x[None], y[None], z[None], beta)[0])


def f_real_stack(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, beta: float
) -> np.ndarray:
    """``f_real((w, x), (y, z), beta)`` for each row of stacks ``(S, d^2)``.

    A stack of one row broadcasts against the others.  Returns ``(S,)``;
    row s depends only on the vectors of row s.
    """
    d = math.isqrt(w.shape[-1])
    wm, xm, ym, zm = (v.reshape(-1, d, d) for v in (w, x, y, z))
    beta = float(beta)
    plain = _dot(w, y) * _dot(x, z)
    left = _msum((wm @ _t(xm)) * (ym @ _t(zm)))[:, 0, 0]
    right = _msum((_t(wm) @ xm) * (_t(ym) @ zm))[:, 0, 0]
    traces = _dot(w, x) * _dot(y, z)
    return plain + beta * (left + right) + beta * beta * traces


def g_value(p: RankOnePoint, beta: float) -> float:
    """f(C,C) f(D0,D0) - f(C,D0)^2; zero whenever C == D0.

    This is ``g_value_stack`` on a stack of one.
    """
    return float(g_value_stack(p.w[None], p.x[None], p.y, p.z, beta)[0])


def g_value_stack(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, beta: float
) -> np.ndarray:
    """``g_value`` at each row of two stacks ``(S, d^2)`` of variables (w, x).

    The parameters (y, z) are one pair of length-d^2 vectors shared by every
    row.  Returns ``(S,)``; row s depends only on w[s] and x[s].
    """
    y = y[None]
    z = z[None]
    f_cc = f_real_stack(w, x, w, x, beta)
    f_dd = f_real_stack(y, z, y, z, beta)
    f_cd = f_real_stack(w, x, y, z, beta)
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
    C = D0.  This is ``hessian_g_stack`` on a stack of one.
    """
    if not p.is_critical():
        raise ShapeError("analytic Hessian is only defined at critical points (w == y, x == z)")
    return hessian_g_stack(p.w[None], p.x[None], p.y[None], p.z[None], beta)[0]


def hessian_g_stack(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray, beta: float
) -> np.ndarray:
    """``hessian_g`` at each row of four stacks ``(S, d^2)`` of critical points.

    Rows are the vectors of ``RankOnePoint``s the caller knows to be critical;
    f(D0, D0) comes from (y, z) and every other term from (w, x).  Returns
    ``(S, 2*d^2, 2*d^2)``; row s depends only on the vectors of row s.
    """
    count, n = w.shape
    d = math.isqrt(n)
    beta = float(beta)
    wm = w.reshape(count, d, d)
    xm = x.reshape(count, d, d)
    f0 = f_real_stack(y, z, y, z, beta)[:, None, None]
    a = _h2(wm, xm, xm, beta).reshape(count, n)  # d f(C,D0) / dw at the point
    b = _h2(xm, wm, wm, beta).reshape(count, n)  # d f(C,D0) / dx at the point
    h_ww = f0 * _h3(xm, beta) - 2.0 * _outer(a, a)
    h_xx = f0 * _h3(wm, beta) - 2.0 * _outer(b, b)
    h_wx = f0 * _h4(wm, xm, beta) - 2.0 * f0 * _h5(wm, xm, beta) - 2.0 * _outer(a, b)
    return np.block([[h_ww, h_wx], [_t(h_wx), h_xx]])


def nonconvexity_demo(
    d: int, beta: float = DEFAULT_BETA
) -> tuple[np.ndarray, float, tuple[float, float]]:
    """Gradient at the midpoint of two known minima, against the sparse pattern.

    The two endpoints put a single unit entry at vector position 1 (both w
    and x equal to the parameter vectors) and at position 0.  Their
    unnormalized midpoint has a nonzero gradient parallel to the 0/1 pattern
    with ones at w00, w01, x00, x01 — so the minimum set is not convex.
    Normalizing the midpoint would only rescale the gradient, so it is
    omitted.  Returns ``(gradient, cosine_to_pattern, endpoint_maxima)``, the
    last holding the largest absolute gradient entry at each endpoint.
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
    ends = tuple(
        float(np.max(np.abs(grad_g(point, beta))))
        for point in (RankOnePoint(e1, e1, e1, e1), RankOnePoint(e0, e0, e1, e1))
    )
    return grad, cosine, ends


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
    a finding is data, not an error.  Each sample draws from its own child
    seed of ``seed``; the samples run in blocks (``linalg._seed_blocks``), one
    ``hessian_g_stack`` and one stacked ``eigvalsh`` per block, and a row does
    not depend on the block it ran in.
    """
    d = int(d)
    samples = int(samples)
    if d > 4:
        raise ShapeError(f"sweep is capped at d <= 4, got {d}")
    if samples < 1:
        raise ShapeError(f"need at least one sample, got {samples}")
    beta = WernerParams(d, beta).beta
    n = d * d
    rows = []
    # a sample's real Hessian of side 2 d^2 and its temporaries (``linalg._sample_blocks``)
    for seeds in _seed_blocks(seed, samples, 16 * (2 * n) ** 2):
        yz = np.empty((2, len(seeds), n))
        for r, child in enumerate(seeds):
            yz[:, r] = np.random.default_rng(child).standard_normal((2, n))
        # the stacked 1 x n by n x 1 products are the dots np.linalg.norm takes
        yz /= np.sqrt(yz[:, :, None, :] @ yz[:, :, :, None])[:, :, 0]
        y, z = yz
        min_eigs = np.linalg.eigvalsh(hessian_g_stack(y, z, y, z, beta))[:, 0]
        for r, (child, min_eig) in enumerate(zip(seeds, min_eigs.tolist())):
            if min_eig < HESSIAN_FINDING_THRESHOLD and bundle_dir is not None:
                bundle = Bundle(
                    kind="hessian-counterexample",
                    params={
                        "d": d,
                        "n": 2,
                        "beta": float(beta),
                        "seed": child,
                        "min_eigenvalue": min_eig,
                    },
                    vectors={"y": y[r], "z": z[r]},
                )
                write_bundle(bundle, Path(bundle_dir) / f"hessian-{child}.bundle")
            rows.append(SweepRow(point_id=len(rows), seed=child, min_eigenvalue=min_eig))
    return rows


def fd_gradient(func, x0: np.ndarray) -> np.ndarray:
    """Central-difference gradient at a point ``x0`` of length m, step ``FD_GRAD_STEP``.

    ``func`` is stacked: it maps points ``(S, m)`` to their values ``(S,)``.
    All 2m probe points ``x0 +- step e_i`` go to it in one call.
    """
    step = FD_GRAD_STEP
    x0 = np.asarray(x0, dtype=np.float64)
    m = x0.size
    shifts = step * np.eye(m)
    values = func(np.concatenate([x0 + shifts, x0 - shifts]))
    return (values[:m] - values[m:]) / (2.0 * step)


def fd_hessian(func, x0: np.ndarray) -> np.ndarray:
    """Central-difference Hessian at a point ``x0`` of length m, step ``FD_HESS_STEP``.

    ``func`` is stacked: it maps points ``(S, m)`` to their values ``(S,)``.
    All 1 + 2m + 2m(m - 1) probe points (``x0``, ``x0 +- 2 step e_i`` and
    ``x0 +- step e_i +- step e_j`` for i < j) go to it in one call.
    """
    step = FD_HESS_STEP
    x0 = np.asarray(x0, dtype=np.float64)
    m = x0.size
    e = step * np.eye(m)
    i, j = np.triu_indices(m, 1)
    ei, ej = e[i], e[j]
    probes = [x0[None], x0 + 2 * e, x0 - 2 * e, x0 + ei + ej, x0 + ei - ej, x0 - ei + ej, x0 - ei - ej]
    values = func(np.concatenate(probes))
    f0 = values[0]
    plus, minus = values[1 : m + 1], values[m + 1 : 2 * m + 1]
    pp, pm, mp, mm = values[2 * m + 1 :].reshape(4, -1)
    out = np.empty((m, m))
    out[np.diag_indices(m)] = (plus - 2 * f0 + minus) / (4.0 * step * step)
    off = (pp - pm - mp + mm) / (4.0 * step * step)
    out[i, j] = off
    out[j, i] = off
    return out


def _h1(wm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """d f(C,C) / dw as a d x d array (h1 with arguments swapped gives d/dx)."""
    sx2 = float(np.sum(xm * xm))
    swx = float(np.sum(wm * xm))
    return 2.0 * (
        wm * sx2 + beta * (wm @ xm.T @ xm + xm @ xm.T @ wm) + beta * beta * xm * swx
    )


def _h2(ym: np.ndarray, zm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """d f(C,D0) / dw as a d x d array, parameters (y, z), variable x.

    Takes one d x d matrix per argument or stacks ``(S, d, d)`` of them.
    """
    sxz = _msum(xm * zm)
    syz = _msum(ym * zm)
    return ym * sxz + beta * (ym @ _t(zm) @ xm + xm @ _t(zm) @ ym) + beta * beta * xm * syz


# The second-derivative blocks below take stacks ``(S, d, d)`` and return
# stacks ``(S, d^2, d^2)``, one d^2 x d^2 block per sample.


def _h3(xm: np.ndarray, beta: float) -> np.ndarray:
    """Second derivative of f(C,C) within one factor, as a d^2 x d^2 block."""
    count, d, _ = xm.shape
    eye = np.eye(d)
    vec = xm.reshape(count, d * d)
    return 2.0 * (
        _msum(xm * xm) * np.eye(d * d)
        + beta * (_kron(eye, _t(xm) @ xm) + _kron(xm @ _t(xm), eye))
        + beta * beta * _outer(vec, vec)
    )


def _h4(wm: np.ndarray, xm: np.ndarray, beta: float) -> np.ndarray:
    """Mixed second derivative of f(C,C) across the two factors.

    Every beta term carries the factor 2 produced by differentiating the
    squared partial-trace norms twice; symmetry check: _h4(w, x) equals
    _h4(x, w) transposed.
    """
    count, d, _ = wm.shape
    eye = np.eye(d)
    w = wm.reshape(count, d * d)
    x = xm.reshape(count, d * d)
    cross_a = np.einsum("sil,skj->sijkl", wm, xm).reshape(count, d * d, d * d)
    cross_b = np.einsum("sil,skj->sijkl", xm, wm).reshape(count, d * d, d * d)
    return (
        4.0 * _outer(w, x)
        + 2.0 * beta * (_kron(wm @ _t(xm), eye) + cross_a + _kron(eye, _t(wm) @ xm) + cross_b)
        + 2.0 * beta * beta * (_msum(wm * xm) * np.eye(d * d) + _outer(x, w))
    )


def _h5(ym: np.ndarray, zm: np.ndarray, beta: float) -> np.ndarray:
    """Mixed second derivative of f(C,D0) across the two variable factors."""
    count, d, _ = ym.shape
    eye = np.eye(d)
    y = ym.reshape(count, d * d)
    z = zm.reshape(count, d * d)
    return (
        _outer(y, z)
        + beta * (_kron(ym @ _t(zm), eye) + _kron(eye, _t(ym) @ zm))
        + beta * beta * _msum(ym * zm) * np.eye(d * d)
    )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of each matrix pair of two stacks ``(S, d, d)``; either
    may be one d x d matrix shared by every sample."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, i, k, j, l = out.shape
    return out.reshape(*lead, i * k, j * l)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer`` of each row pair of two stacks ``(S, n)``."""
    return a[:, :, None] * b[:, None, :]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[s] @ b[s]`` for each row; the same BLAS dot as one vector pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _msum(m: np.ndarray) -> np.ndarray:
    """Entry sum of each trailing d x d matrix, kept as a trailing (1, 1).

    One reduction along a contiguous row per matrix, as ``np.sum`` of a
    single matrix, so a sum does not depend on the stack.
    """
    return np.sum(m.reshape(*m.shape[:-2], -1), axis=-1)[..., None, None]


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of each trailing matrix."""
    return np.swapaxes(m, -1, -2)


def _as_square_vec(v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64).reshape(-1)
    d = math.isqrt(vec.size)
    if d * d != vec.size:
        raise ShapeError(f"vector length {vec.size} is not a perfect square")
    return vec
