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
from .linalg import ComplexMatrix, MultipartiteState, _complex_normal, _qf, svd

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
    mat = psi_iso(state)
    s, u, v = svd(mat)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    return SchmidtData(coefficients=s, left_basis=u, right_basis=v.conj(), rank=rank)


def max_overlap_sr_k(state: MultipartiteState, k: int) -> float:
    """Largest squared overlap with any state of Schmidt rank <= k.

    Equals the sum of the k largest squared Schmidt coefficients.
    """
    d = _bipartite_dim(state)
    k = int(k)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    s, _, _ = svd(psi_iso(state))
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
    """
    d = _bipartite_dim(state)
    k = int(k)
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in 1..{d}, got {k}")
    a = psi_iso(state).data
    best = 0.0
    for r in range(int(restarts)):
        rng = np.random.default_rng((int(seed), r))
        q = _qf(_complex_normal(rng, (d, k)))
        value = 0.0
        prev = -np.inf
        for _ in range(OVERLAP_MAX_ITERS):
            p = _qf(a @ q)
            q = _qf(a.conj().T @ p)
            value = float(np.linalg.norm(p.conj().T @ a @ q) ** 2)
            if value - prev < OVERLAP_TOL:
                break
            prev = value
        best = max(best, value)
    return best


def random_state(rng: np.random.Generator, dims) -> MultipartiteState:
    """Complex standard-normal amplitudes, normalized (unitarily invariant)."""
    dims = tuple(int(d) for d in dims)
    vec = _complex_normal(rng, (math.prod(dims),))
    return MultipartiteState(vec / np.linalg.norm(vec), dims)


def _bipartite_dim(state: MultipartiteState) -> int:
    if len(state.dims) != 2 or state.dims[0] != state.dims[1]:
        raise ShapeError(
            f"expected two subsystems of equal dimension, got dims {state.dims}"
        )
    return state.dims[0]
