"""Core undistillability functionals over rank-constrained matrices.

Everything here revolves around the subset-sum functional

    q(X, beta) = sum_S beta^|S| * ||Tr_S(X)||_F^2

over matrices with an N-fold composite index structure, its bilinear
polarization, the rank-two reduction to the scalar triple (P, Q, R), and the
direct operator-sandwich evaluator used as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundles import Bundle
from .errors import DimensionLimitError, ShapeError
from .linalg import (
    DEFAULT_DIM_CAP,
    ComplexMatrix,
    MultipartiteState,
    SubsystemPermutation,
    _adjoint,
    _qf,
    _trace_slot,
    kron,
    permute_subsystems,
)
from .states import WernerParams, werner_partial_transpose

# Subset enumeration is exponential in the number of copy slots.
MAX_SUBSET_SLOTS = 12

# A functional value of a unit-norm matrix below -CERTIFY_TOL counts as
# negative: a witness for a search, a violation for a sampled floor check.
CERTIFY_TOL = 1e-9


@dataclass(frozen=True)
class RankTwoFactors:
    """Singular-value parameterization of a unit-norm rank-<=2 matrix.

    The matrix is ``sigma1 * outer(u1, conj(v1)) + sigma2 * outer(u2, conj(v2))``
    with sigma1^2 + sigma2^2 == 1, unit-norm vectors, and <u1,u2> = <v1,v2> = 0.
    """

    sigma1: float
    sigma2: float
    u1: np.ndarray
    v1: np.ndarray
    u2: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma1", float(self.sigma1))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        length = None
        for name in ("u1", "v1", "u2", "v2"):
            vec = np.array(getattr(self, name), dtype=np.complex128, copy=True).reshape(-1)
            if length is None:
                length = vec.size
            elif vec.size != length:
                raise ShapeError("all four factor vectors must share one length")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        _check_rank_two(*self.stack())

    @property
    def dim(self) -> int:
        return self.u1.size

    def stack(self) -> tuple[np.ndarray, np.ndarray]:
        """The factors as a stack of one ``(sigma, frames)``, shaped as
        ``random_rank_two_stack`` returns."""
        # frames[0, 0] = U = (u1, u2) and frames[0, 1] = V = (v1, v2) as columns
        frames = np.stack([[self.u1, self.v1], [self.u2, self.v2]], axis=-1)
        return np.array([[self.sigma1, self.sigma2]]), frames[None]

    @staticmethod
    def from_stack(sigma: np.ndarray, frames: np.ndarray, row: int = 0) -> "RankTwoFactors":
        """Sample ``row`` of a stack shaped as ``random_rank_two_stack`` returns."""
        (u1, u2), (v1, v2) = frames[row].swapaxes(-1, -2)
        return RankTwoFactors(sigma[row, 0], sigma[row, 1], u1, v1, u2, v2)

    def assemble(self) -> np.ndarray:
        """Dense matrix sigma1*u1 v1^dag + sigma2*u2 v2^dag."""
        return assemble_stack(*self.stack())[0]

    def to_matrix(self, dims) -> ComplexMatrix:
        dims = tuple(int(d) for d in dims)
        if math.prod(dims) != self.dim:
            raise ShapeError(f"dims {dims} do not multiply to vector length {self.dim}")
        return ComplexMatrix(self.assemble(), dims, dims)

    def to_bundle(self, kind: str, **params) -> Bundle:
        """A finding at this point: ``params`` in the order given, then
        ``sigma1`` and ``sigma2``, with vectors ``u1 v1 u2 v2``."""
        return Bundle(
            kind=kind,
            params={**params, "sigma1": self.sigma1, "sigma2": self.sigma2},
            vectors={"u1": self.u1, "v1": self.v1, "u2": self.u2, "v2": self.v2},
        )


def random_rank_two(rng: np.random.Generator, dim: int) -> RankTwoFactors:
    """Sample unit-norm rank-<=2 factors as the search draws a restart's
    start (the sample ``random_rank_two_stack([rng], dim)`` holds;
    ``RankTwoFactors`` runs the checks)."""
    return RankTwoFactors.from_stack(*_rank_two_draw([rng], int(dim)))


def random_rank_two_stack(rngs, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One ``random_rank_two`` sample per generator of ``rngs``, as a stack
    ``(sigma, frames)``.

    ``sigma`` is (R, 2) holding (sigma1, sigma2) on the unit circle;
    ``frames`` is (R, 2, dim, 2), the search's layout, with
    U = frames[:, 0] holding (u1, u2) and V = frames[:, 1] holding (v1, v2)
    as columns.  Generators draw in turn (``_rank_two_draw``), so
    ``[rng] * count`` consumes one generator exactly as ``count`` successive
    ``random_rank_two(rng, dim)`` calls and gives the same samples.  The QR
    runs once over the stack, and every sample passes the
    ``RankTwoFactors`` checks.
    """
    sigma, frames = _rank_two_draw(rngs, int(dim))
    _check_rank_two(sigma, frames)
    return sigma, frames


def _rank_two_draw(rngs, side: int):
    """One random unit-norm rank-<=2 point per generator of ``rngs``.

    Returns ``(sigma, frames)`` laid out as ``random_rank_two_stack``
    returns them.  Each generator draws in turn a uniform angle in
    [0, pi/2), whose cosine and sine are the row's sigma, then the complex
    Gaussian U and V with one ``standard_normal`` call (U.re, U.im, V.re,
    V.im, the values of four ``(side, 2)`` calls); ``linalg._qf``
    orthonormalizes the stack, which makes the frames Haar distributed.  A
    row depends only on its generator.  The search starts its restarts here.
    """
    theta = np.empty(len(rngs))
    # (R, U/V, re/im, side, 2)
    raw = np.empty((len(rngs), 2, 2, side, 2))
    for r, rng in enumerate(rngs):
        theta[r] = rng.uniform(0.0, math.pi / 2.0)
        rng.standard_normal(out=raw[r])
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1), _qf(raw[:, :, 0] + 1j * raw[:, :, 1])


def assemble_stack(sigma: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Dense (R, dim, dim) matrices sigma1 u1 v1^H + sigma2 u2 v2^H of a
    stack ``(sigma, frames)`` shaped as ``random_rank_two_stack`` returns;
    row r depends only on sample r."""
    u, v = frames[:, 0], frames[:, 1]
    out = u[:, :, None, 0] * v[:, None, :, 0].conj()
    out *= sigma[:, 0, None, None]
    two = u[:, :, None, 1] * v[:, None, :, 1].conj()
    two *= sigma[:, 1, None, None]
    out += two
    return out


def q_functional(x: ComplexMatrix, beta: float) -> float:
    """Subset sum ``sum_S beta^|S| ||Tr_S(x)||_F^2`` over all 2^N slot subsets.

    The empty subset contributes ``||x||_F^2``; the full subset ``|tr x|^2``.
    This is ``q_functional_stack`` on a stack of one.
    """
    _require_square_slots(x)
    return float(q_functional_stack(x.data[None], x.row_dims, beta)[0])


def q_functional_stack(data: np.ndarray, dims, beta: float) -> np.ndarray:
    """``q_functional`` of each matrix in a stack ``(R, side, side)``.

    Rows and columns of every matrix factor as ``dims``.  Subsets are
    enumerated in increasing bitmask order, and each multi-slot trace is taken
    as iterated single-slot partial traces in ascending order: 2^N - 1
    single-slot traces in all.  Row r of the result depends only on
    ``data[r]``.
    """
    dims = tuple(int(d) for d in dims)
    data = np.ascontiguousarray(data, dtype=np.complex128)
    side = math.prod(dims)
    if data.ndim != 3 or data.shape[1:] != (side, side):
        raise ShapeError(f"expected a stack of shape (R, {side}, {side}), got {data.shape}")
    beta = float(beta)
    total = np.zeros(data.shape[0])
    for size, traced in _subset_traces(data, dims):
        total += beta**size * _real_inner(traced, traced)
    return total


def f_bilinear(x: ComplexMatrix, y: ComplexMatrix, beta: float) -> complex:
    """Polarized form ``sum_S beta^|S| tr[Tr_S(x)^dag Tr_S(y)]``.

    Conjugate-symmetric and antilinear in the first argument;
    ``f_bilinear(x, x, beta) == q_functional(x, beta)``.
    """
    _require_square_slots(x)
    _require_square_slots(y)
    if x.row_dims != y.row_dims:
        raise ShapeError(f"operands carry different slot dims: {x.row_dims} vs {y.row_dims}")
    beta = float(beta)
    total = 0.0 + 0.0j
    for size, traced in _subset_traces(np.stack([x.data, y.data]), x.row_dims):
        tx, ty = traced[:1], traced[1:]
        imag = np.sum(tx.real * ty.imag - tx.imag * ty.real)
        total += beta**size * complex(_real_inner(tx, ty)[0], imag)
    return complex(total)


def pqr(rt: RankTwoFactors, d: int) -> tuple[float, float, float]:
    """Scalar reduction of the two-slot functional at the rank-two point.

    With U_i, V_i the d x d coefficient matrices of the factor vectors,

        P = tr(U1' V1 V1' U1) + tr(V1 U1' U1 V1') - |tr(U1 V1')|^2 / 2

    (primes denoting conjugate transpose), Q the same with index 2, and R the
    real cross term.  The quadratic form sigma1^2 P + sigma2^2 Q +
    sigma1 sigma2 R reproduces ||Tr_1(X)||^2 + ||Tr_2(X)||^2 - |tr X|^2/2 for
    the assembled matrix X.  This is ``pqr_stack`` on a stack of one.
    """
    p, q, r = pqr_stack(rt.stack()[1], d)
    return float(p[0]), float(q[0]), float(r[0])


def pqr_stack(frames: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``pqr`` of each sample of ``frames`` (R, 2, d*d, 2), laid out as
    ``random_rank_two_stack`` returns; the scalars do not depend on the
    singular values.  Row r depends only on sample r."""
    d = int(d)
    if frames.shape[2] != d * d:
        raise ShapeError(f"factor vectors of length {frames.shape[2]} do not reshape to {d}x{d}")

    def coeffs(frame, col):
        # contiguous, so every product below runs through BLAS as for one matrix
        return np.ascontiguousarray(frame[:, :, col]).reshape(len(frame), d, d)

    def trace(m):
        return np.trace(m, axis1=-2, axis2=-1)

    def re_dot(a, b):
        # Re(conj(a) b) from real products and sums: elementwise, so the
        # same for any stack size
        return a.real * b.real + a.imag * b.imag

    u, v = frames[:, 0], frames[:, 1]
    u1, v1, u2, v2 = coeffs(u, 0), coeffs(v, 0), coeffs(u, 1), coeffs(v, 1)
    t1 = trace(u1 @ _adjoint(v1))
    t2 = trace(u2 @ _adjoint(v2))

    def diag_part(u, v, t):
        a = trace(_adjoint(u) @ v @ _adjoint(v) @ u).real
        b = trace(v @ _adjoint(u) @ u @ _adjoint(v)).real
        return a + b - re_dot(t, t) / 2.0

    p = diag_part(u1, v1, t1)
    q = diag_part(u2, v2, t2)
    cross = (
        trace(v1 @ _adjoint(u1) @ u2 @ _adjoint(v2)).real
        + trace(_adjoint(u1) @ v1 @ _adjoint(v2) @ u2).real
    )
    r = 2.0 * (cross - re_dot(t1, t2) / 2.0)
    return p, q, r


def check_rank2_inequality(rt: RankTwoFactors, d: int) -> tuple[bool, float]:
    """Evaluate the discriminant condition R^2 <= 4(2-P)(2-Q) at one point.

    Returns ``(holds, slack)`` with ``slack = R^2 - 4(2-P)(2-Q)``; negative
    slack means the quadratic form stays below its ceiling for every singular
    angle, equivalently the functional is nonnegative on the whole rank-two
    circle through the factors.  The condition belongs to beta = -1/2, the
    only beta at which the triple means (P, Q, R).  The scalars come from
    the polarized functional there, a second route to the explicit trace
    formulas of ``pqr``.
    """
    d = int(d)
    if rt.dim != d * d:
        raise ShapeError(f"factor vectors of length {rt.dim} do not reshape to {d}x{d}")
    f11, f22, f12 = _pair_forms(rt, d)
    p = 2.0 * (1.0 - f11)
    q = 2.0 * (1.0 - f22)
    r = -4.0 * f12
    slack = _discriminant_slack(p, q, r)
    return slack <= 0.0, float(slack)


def _pair_forms(rt: RankTwoFactors, d: int):
    """Real polarized functional ``(f11, f22, f12)`` at beta = -1/2 of the
    rank-one terms ``x_k = u_k v_k^H`` of a factored point on ``(d, d)``:
    the real parts of ``f_bilinear`` from one subset pass over (x1, x2)."""
    pair = np.stack([np.outer(rt.u1, rt.v1.conj()), np.outer(rt.u2, rt.v2.conj())])
    forms = np.zeros(3)
    for size, traced in _subset_traces(pair, (d, d)):
        forms += (-0.5) ** size * _real_inner(traced[[0, 1, 0]], traced[[0, 1, 1]])
    return tuple(forms.tolist())


def _discriminant_slack(p, q, r):
    """``R^2 - 4(2-P)(2-Q)`` for scalars or arrays of the triple."""
    return r * r - 4.0 * (2.0 - p) * (2.0 - q)


def m_n_permutation(n: int) -> tuple[int, ...]:
    """Slot relabeling A1 B1 ... An Bn -> A1 ... An B1 ... Bn (scatter form)."""
    n = int(n)
    if n < 1:
        raise ShapeError(f"copy count must be >= 1, got {n}")
    perm = [0] * (2 * n)
    for j in range(n):
        perm[2 * j] = j
        perm[2 * j + 1] = n + j
    return tuple(perm)


def merge_operator(params: WernerParams, n: int) -> ComplexMatrix:
    """The n-fold partial-transposed Werner tensor power, conjugated by the
    copy-merging permutation so A slots precede B slots."""
    n = int(n)
    d = params.d
    if d ** (2 * n) > DEFAULT_DIM_CAP:
        raise DimensionLimitError(
            f"operator side {d ** (2 * n)} exceeds per-side cap {DEFAULT_DIM_CAP}"
        )
    single = werner_partial_transpose(params)
    op = single
    for _ in range(n - 1):
        op = kron(op, single)
    perm = SubsystemPermutation(m_n_permutation(n), (d,) * (2 * n))
    return permute_subsystems(op, perm)


def sandwich_evaluator(psi: MultipartiteState, params: WernerParams, n: int) -> float:
    """Quadratic form of the merged Werner tensor power on a 2n-part state.

    For a state whose coefficient matrix is X this equals
    ``q_functional(X, beta) / (d^2 + beta*d)^n``.
    """
    n = int(n)
    d = params.d
    if psi.dims != (d,) * (2 * n):
        raise ShapeError(f"state dims {psi.dims} do not match {2 * n} slots of dim {d}")
    op = merge_operator(params, n)
    vec = psi.amplitudes
    return float(np.vdot(vec, op.data @ vec).real)


def _require_square_slots(x: ComplexMatrix):
    if not x.is_square_composite():
        raise ShapeError(
            f"expected row_dims == col_dims, got {x.row_dims} vs {x.col_dims}"
        )


def _check_rank_two(sigma: np.ndarray, frames: np.ndarray):
    """Raise ShapeError unless every sample of a stack ``(sigma, frames)`` is
    a unit-norm rank-<=2 factorization; shapes as in
    ``random_rank_two_stack``.  NaN fails every check."""
    if not np.all(sigma >= 0):
        raise ShapeError(f"singular values must be nonnegative, got minimum {float(np.min(sigma))!r}")
    dev = np.abs(sigma[:, 0] * sigma[:, 0] + sigma[:, 1] * sigma[:, 1] - 1.0)
    if not np.all(dev <= 1e-12):
        raise ShapeError(f"sigma1^2 + sigma2^2 must be 1 within 1e-12, off by {float(np.max(dev))!r}")
    # both frames at once: axis 2 runs along each factor vector
    dev = np.abs(np.linalg.norm(frames, axis=2) - 1.0)
    if not np.all(dev <= 1e-12):
        raise ShapeError(f"u1, u2, v1 and v2 must be unit norm within 1e-12, off by {float(np.max(dev))!r}")
    overlap = np.abs(np.sum(frames[..., 0].conj() * frames[..., 1], axis=2))
    if not np.all(overlap <= 1e-10):
        raise ShapeError("u1, u2 and v1, v2 must be orthogonal within 1e-10")


def _subset_traces(data: np.ndarray, dims: tuple[int, ...]):
    """Yield ``(|S|, Tr_S data)`` over slot subsets S in increasing mask order.

    ``data`` is a stack (R, side, side).  Tr_S is one single-slot trace of
    Tr_P, where P is S without its highest slot and so an earlier mask.
    """
    if len(dims) > MAX_SUBSET_SLOTS:
        raise DimensionLimitError(
            f"{len(dims)} slots exceed the subset-enumeration cap {MAX_SUBSET_SLOTS}"
        )
    traces = [(data, dims)]
    yield 0, data
    for mask in range(1, 1 << len(dims)):
        high = mask.bit_length() - 1
        parent = mask ^ (1 << high)
        parent_data, parent_dims = traces[parent]
        # every slot traced out of the parent lies below ``high``
        traces.append(_trace_slot(parent_data, parent_dims, high - parent.bit_count()))
        yield mask.bit_count(), traces[mask][0]


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re <a[r], b[r]>`` for each matrix of two equal-shape stacks.

    A reduction along each contiguous row keeps every row's sum independent
    of the stack; ``einsum`` buffers long rows and is not.
    """
    fa = np.ascontiguousarray(a).reshape(len(a), -1).view(np.float64)
    fb = np.ascontiguousarray(b).reshape(len(b), -1).view(np.float64)
    return np.sum(fa * fb, axis=1)
