"""Dense complex linear algebra over composite index spaces.

Composite index convention used everywhere in this package: the leftmost
subsystem is the most significant digit of the flattened index (base-d
positional encoding).  A matrix entry ``m[i, j]`` with ``row_dims = (2, 3)``
therefore refers to row multi-index ``(i // 3, i % 3)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionLimitError, ShapeError

# Per-side cap on composite dimensions; guards against accidental blowup of
# repeated tensor powers.
DEFAULT_DIM_CAP = 1 << 16

HERMITICITY_TOL = 1e-10
NORMALIZATION_TOL = 1e-12

# Restarts and samples advance together in blocks whose working set stays
# under this many bytes.  Stacking pays at small sides, where numpy call
# overhead dominates; a search lift of side 256 is already 1 MiB, and stacks
# of two or more of them cost 40-150% more per lift than one at a time.
LIFT_BLOCK_BYTES = 1 << 20


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if any(d <= 0 for d in out):
        raise ShapeError(f"subsystem dimensions must be positive, got {out}")
    return out


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense complex matrix with explicit composite dimension metadata.

    ``row_dims`` and ``col_dims`` record how the flat row/column indices
    factor into subsystem indices; their products must equal the matrix
    shape.  Instances are immutable: the backing array is marked read-only.

    Copy policy: ``ComplexMatrix(data, ...)`` always copies ``data``, so a
    caller's array can change afterwards without touching the matrix.  The
    operations of this module (``kron``, ``partial_trace``,
    ``partial_transpose``, ``permute_subsystems``) and ``iterate.e_step``
    instead take over the array they have just built, through ``_adopt``:
    no other reference to it can write, so marking it read-only suffices.
    """

    data: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        self._freeze(np.array(self.data, dtype=np.complex128, order="C", copy=True))

    def _freeze(self, arr: np.ndarray) -> None:
        """Validate ``arr`` against the dims, mark it read-only and keep it."""
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
        row_dims = _as_dims(self.row_dims)
        col_dims = _as_dims(self.col_dims)
        if math.prod(row_dims) != arr.shape[0]:
            raise ShapeError(
                f"row_dims {row_dims} do not multiply to {arr.shape[0]} rows"
            )
        if math.prod(col_dims) != arr.shape[1]:
            raise ShapeError(
                f"col_dims {col_dims} do not multiply to {arr.shape[1]} columns"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "row_dims", row_dims)
        object.__setattr__(self, "col_dims", col_dims)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def is_square_composite(self) -> bool:
        return self.row_dims == self.col_dims

    def as_tensor(self) -> np.ndarray:
        """Read-only view shaped ``row_dims + col_dims``."""
        return self.data.reshape(self.row_dims + self.col_dims)


def _adopt(arr: np.ndarray, row_dims, col_dims) -> ComplexMatrix:
    """A ``ComplexMatrix`` that takes over ``arr`` without the defensive copy.

    Only for an array the caller has just built and holds no writable
    reference to, or a view of another matrix's read-only data.  It is
    copied only if it is not already a C-contiguous complex128 array; the
    dims are validated as the constructor does.
    """
    m = object.__new__(ComplexMatrix)
    object.__setattr__(m, "row_dims", row_dims)
    object.__setattr__(m, "col_dims", col_dims)
    m._freeze(np.ascontiguousarray(arr, dtype=np.complex128))
    return m


@dataclass(frozen=True)
class MultipartiteState:
    """Normalized pure state vector with an ordered list of subsystem dims."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        dims = _as_dims(self.dims)
        if math.prod(dims) != vec.size:
            raise ShapeError(
                f"dims {dims} do not multiply to vector length {vec.size}"
            )
        nrm = float(np.linalg.norm(vec))
        # written so that a NaN norm fails it too
        if not abs(nrm - 1.0) <= NORMALIZATION_TOL:
            raise ShapeError(
                f"state must be normalized within {NORMALIZATION_TOL}, norm={nrm!r}"
            )
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class SubsystemPermutation:
    """Relabeling of subsystem slots: source slot ``i`` moves to ``perm[i]``."""

    perm: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        dims = _as_dims(self.dims)
        if len(perm) != len(dims):
            raise ShapeError("perm and dims must have equal length")
        if sorted(perm) != list(range(len(dims))):
            raise ShapeError(f"perm must be a bijection on 0..{len(dims) - 1}, got {perm}")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "dims", dims)

    def target_dims(self) -> tuple[int, ...]:
        inv = np.argsort(self.perm)
        return tuple(self.dims[a] for a in inv)


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product; dim lists concatenate (left operand most significant)."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:
        raise DimensionLimitError(
            f"kron result {rows}x{cols} exceeds per-side cap {DEFAULT_DIM_CAP}"
        )
    return _adopt(np.kron(a.data, b.data), a.row_dims + b.row_dims, a.col_dims + b.col_dims)


def partial_trace(m: ComplexMatrix, subsystems: Iterable[int]) -> ComplexMatrix:
    """Trace out the listed subsystem slots of a square-composite matrix.

    The full trace is preserved: ``trace(out) == trace(m)``.  Tracing every
    slot yields a 1x1 matrix holding the scalar trace.  Several slots are
    traced as iterated single-slot traces in ascending slot order.
    """
    if not m.is_square_composite():
        raise ShapeError(
            f"partial_trace requires row_dims == col_dims, got {m.row_dims} vs {m.col_dims}"
        )
    n = len(m.row_dims)
    slots = sorted({int(s) for s in subsystems})
    for s in slots:
        if not 0 <= s < n:
            raise ShapeError(f"subsystem index {s} out of range for {n} slots")
    if not slots:
        return m
    data, dims = m.data, m.row_dims
    for removed, s in enumerate(slots):
        data, dims = _trace_slot(data, dims, s - removed)
    return _adopt(data, dims, dims)


def _trace_slot(a: np.ndarray, dims: tuple[int, ...], slot: int):
    """Trace one slot of a stack of square-composite matrices.

    ``a`` is (..., side, side) with rows and columns both factoring as
    ``dims``; returns the traced stack and ``dims`` without ``slot``.  The
    diagonal blocks are added one after another, so each matrix's result does
    not depend on the others in the stack.
    """
    pre = math.prod(dims[:slot])
    d = dims[slot]
    post = math.prod(dims[slot + 1 :])
    lead = a.shape[:-2]
    t = a.reshape(lead + (pre, d, post, pre, d, post))
    out = t[..., 0, :, :, 0, :].copy()
    for c in range(1, d):
        out += t[..., c, :, :, c, :]
    return out.reshape(lead + (pre * post, pre * post)), dims[:slot] + dims[slot + 1 :]


def partial_transpose(m: ComplexMatrix, subsystem: int) -> ComplexMatrix:
    """Transpose the indices of one subsystem only.  Involution: applying
    twice returns the input exactly."""
    if not m.is_square_composite():
        raise ShapeError(
            f"partial_transpose requires row_dims == col_dims, got {m.row_dims} vs {m.col_dims}"
        )
    n = len(m.row_dims)
    s = int(subsystem)
    if not 0 <= s < n:
        raise ShapeError(f"subsystem index {s} out of range for {n} slots")
    t = np.swapaxes(m.as_tensor(), s, n + s)
    return _adopt(t.reshape(m.rows, m.cols), m.row_dims, m.col_dims)


def permute_subsystems(m: ComplexMatrix, p: SubsystemPermutation) -> ComplexMatrix:
    """Relabel the composite row and column indices of a matrix by ``p``.

    Pure index bookkeeping: preserves the Frobenius norm exactly and equals
    conjugation by ``permutation_matrix(p)`` on small instances.
    """
    if not isinstance(m, ComplexMatrix):
        raise TypeError(f"cannot permute object of type {type(m).__name__}")
    if m.row_dims != p.dims or m.col_dims != p.dims:
        raise ShapeError(
            f"matrix dims {m.row_dims}/{m.col_dims} do not match permutation dims {p.dims}"
        )
    axes = tuple(int(a) for a in np.argsort(p.perm))
    n = len(p.dims)
    new_dims = p.target_dims()
    t = np.transpose(m.as_tensor(), axes + tuple(a + n for a in axes))
    size = math.prod(new_dims)
    return _adopt(t.reshape(size, size), new_dims, new_dims)


def permutation_matrix(p: SubsystemPermutation) -> ComplexMatrix:
    """Explicit 0/1 matrix realizing ``p``: ``permute(v) == P @ v``.

    Materializes the full operator; meant for small oracle checks only.
    """
    new_dims = p.target_dims()
    size = math.prod(p.dims)
    mat = np.zeros((size, size), dtype=np.complex128)
    strides_new = np.ones(len(new_dims), dtype=np.int64)
    for i in range(len(new_dims) - 2, -1, -1):
        strides_new[i] = strides_new[i + 1] * new_dims[i + 1]
    for src, idx in enumerate(np.ndindex(*p.dims)):
        dest = sum(int(strides_new[p.perm[k]]) * idx[k] for k in range(len(idx)))
        mat[dest, src] = 1.0
    return ComplexMatrix(mat, new_dims, p.dims)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., m, k), as a view."""
    return a.conj().swapaxes(-1, -2)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex Gaussian array of ``shape`` from one ``standard_normal`` call:
    the real parts, then the imaginary parts, as two successive calls of
    ``shape`` would draw them."""
    g = rng.standard_normal((2, *shape))
    return g[0] + 1j * g[1]


def _qf(a: np.ndarray) -> np.ndarray:
    """QR orthonormalization with the phase of R's diagonal absorbed.

    ``a`` is (..., m, k); leading axes are a stack of independent matrices.
    """
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def _child_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th restart or sample, independent of run order."""
    return int(np.random.SeedSequence((int(seed), int(index))).generate_state(1, np.uint64)[0])


def _sample_blocks(count: int, item_bytes: int):
    """Sizes of consecutive blocks covering ``count`` items of ``item_bytes`` each.

    A block's working set stays under ``LIFT_BLOCK_BYTES``, and a block holds
    one item at least.  A search restart costs its lift, one complex matrix
    of its side: 16 side^2 bytes.  A complex oracle sample costs four (the
    stack, a temporary of assembling it, one of the squared norms, and the
    factors with their QR work at small sides): 64 side^2 bytes.  A Hessian
    sample of the sweep is real: its float64 Hessian and one temporary of
    building it, 16 side^2 bytes.  Callers keep every item's result
    independent of its block.
    """
    block = max(1, LIFT_BLOCK_BYTES // item_bytes)
    for start in range(0, count, block):
        yield min(block, count - start)


def _seed_blocks(seed: int, count: int, item_bytes: int):
    """The child seeds ``_child_seed(seed, i)`` of items ``0..count-1``, as
    one list per block of ``_sample_blocks(count, item_bytes)``.

    Every blocked restart and sample of the lab gets its seed here (the
    ascent oracle, not blocked, takes ``_child_seed`` directly): item i
    draws from ``default_rng`` of its own child seed, so its draw does not
    depend on the block it runs in or on how many items run.
    """
    start = 0
    for size in _sample_blocks(count, item_bytes):
        yield [_child_seed(seed, i) for i in range(start, start + size)]
        start += size

