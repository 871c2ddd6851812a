"""State-operator isomorphism, Schmidt decomposition, and best low-rank overlap.

The isomorphism maps the amplitude of ``|ij>`` to matrix entry ``(i, j)``;
Schmidt coefficients of a bipartite pure state coincide with the singular
values of its image, and Schmidt rank with the matrix rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import ComplexMatrix, MultipartiteState, _adjoint, _child_seed, _complex_normal, _qf

# Relative cutoff separating genuine rank from double-precision noise.
RANK_TOL = 1e-9

# Iteration cap and stopping gain of each ascent restart in ``max_overlap_oracle``.
OVERLAP_MAX_ITERS = 200
OVERLAP_TOL = 1e-12


@dataclass(frozen=True)
class SchmidtData:
    """Descending coefficients plus orthonormal left/right basis columns."""

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    rank: int


def psi_iso(state: MultipartiteState) -> ComplexMatrix:
    """Map a two-part equal-dimension state to its coefficient matrix."""
    if len(state.dims) != 2 or state.dims[0] != state.dims[1]:
        raise ShapeError(
            f"expected two subsystems of equal dimension, got dims {state.dims}"
        )
    d = state.dims[0]
    return ComplexMatrix(state.amplitudes.reshape(d, d), (d,), (d,))


def schmidt_decompose(state: MultipartiteState) -> SchmidtData:
    """Schmidt coefficients and bases via SVD of the coefficient matrix.

    The state reconstructs as ``sum_k c_k * kron(left[:, k], right[:, k])``.
    """
    u, s, vh = np.linalg.svd(psi_iso(state).data, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    return SchmidtData(coefficients=s, left_basis=u, right_basis=vh.T, rank=rank)


def max_overlap_sr_k(state: MultipartiteState, k: int) -> float:
    """Largest squared overlap with any state of Schmidt rank <= k.

    Equals the sum of the k largest squared Schmidt coefficients.
    """
    s = schmidt_decompose(state).coefficients
    k = int(k)
    if not 1 <= k <= s.size:
        raise ValueError(f"k must lie in 1..{s.size}, got {k}")
    return float(np.sum(s[:k] ** 2))


def max_overlap_oracle(
    state: MultipartiteState,
    k: int,
    restarts: int = 20,
    seed: int = 0,
) -> float:
    """Numerically maximize the rank-<=k squared overlap from random starts.

    Alternates QR-orthonormalized frame updates ``P <- qf(A Q)``,
    ``Q <- qf(A^dag P)``; each half-step is monotone in the attained value
    ``||P^dag A Q||_F^2``, which at the optimum equals the analytic answer.
    Uses only matrix-vector algebra on the coefficient matrix, never its SVD.

    Restart r starts from ``default_rng(_child_seed(seed, r))``, the seed
    policy of every restart and sample in the lab.  The restarts advance
    as one stack ``(restarts, d, k)``: each live row takes one ascent step
    per round and stops on its own, when its value gains less than
    ``OVERLAP_TOL`` or after ``OVERLAP_MAX_ITERS`` steps.  A row's arithmetic
    is that of the restart run alone.  Returns the largest final value.
    """
    a = psi_iso(state).data
    d = a.shape[0]
    k = int(k)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    restarts = int(restarts)
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    a_h = _adjoint(a)
    starts = [_complex_normal(np.random.default_rng(_child_seed(seed, r)), (d, k)) for r in range(restarts)]
    q = _qf(np.stack(starts))
    value = np.full(restarts, -np.inf)
    live = np.arange(restarts)
    for _ in range(OVERLAP_MAX_ITERS):
        p = _qf(a @ q[live])
        q_live = _qf(a_h @ p)
        q[live] = q_live
        attained = _frobenius_sq(_adjoint(p) @ a @ q_live)
        stalled = attained - value[live] < OVERLAP_TOL
        value[live] = attained
        live = live[~stalled]
        if live.size == 0:
            break
    return float(np.max(value))


def random_state(rng: np.random.Generator, dims) -> MultipartiteState:
    """Complex standard-normal amplitudes, normalized (unitarily invariant)."""
    dims = tuple(int(d) for d in dims)
    vec = _complex_normal(rng, (math.prod(dims),))
    return MultipartiteState(vec / np.linalg.norm(vec), dims)


def _frobenius_sq(m: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(m[r]) ** 2`` for each matrix of a complex stack.

    Takes the same two BLAS dots per matrix as ``np.linalg.norm`` (real
    parts, then imaginary parts), so a row does not depend on the stack.
    """
    re = m.real.reshape(len(m), 1, -1)
    im = m.imag.reshape(len(m), 1, -1)
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[:, 0, 0]) ** 2
