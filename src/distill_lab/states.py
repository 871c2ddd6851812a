"""Werner-family states, their partial transposes, and the copy-count root bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import ComplexMatrix


@dataclass(frozen=True)
class WernerParams:
    """Local dimension d >= 2 and mixing parameter beta in [-1, 1]."""

    d: int
    beta: float

    def __post_init__(self):
        d = int(self.d)
        beta = float(self.beta)
        if d < 2:
            raise ShapeError(f"local dimension must be >= 2, got {d}")
        if not -1.0 <= beta <= 1.0:
            raise ShapeError(f"beta must lie in [-1, 1], got {beta}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "beta", beta)

    @property
    def normalization(self) -> float:
        return self.d * self.d + self.beta * self.d


def swap_operator(d: int) -> ComplexMatrix:
    """Flip operator exchanging the two tensor factors: |ij> -> |ji>.

    Hermitian involution with trace d.
    """
    d = int(d)
    if d < 2:
        raise ShapeError(f"local dimension must be >= 2, got {d}")
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return ComplexMatrix(f, (d, d), (d, d))


def ge_operator(d: int) -> ComplexMatrix:
    """Rank-one operator sum_{ij} |ii><jj| = d * projector onto the
    maximally entangled state; trace d."""
    d = int(d)
    if d < 2:
        raise ShapeError(f"local dimension must be >= 2, got {d}")
    g = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            g[i * d + i, j * d + j] = 1.0
    return ComplexMatrix(g, (d, d), (d, d))


def max_entangled_state(d: int) -> np.ndarray:
    """Amplitudes of the maximally entangled state sum_i |ii>/sqrt(d)."""
    d = int(d)
    vec = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        vec[i * d + i] = 1.0 / math.sqrt(d)
    return vec


def werner_state(p: WernerParams) -> ComplexMatrix:
    """Density matrix (I + beta*F) / (d^2 + beta*d); PSD for all beta in [-1, 1]."""
    d = p.d
    f = swap_operator(d).data
    rho = (np.eye(d * d, dtype=np.complex128) + p.beta * f) / p.normalization
    return ComplexMatrix(rho, (d, d), (d, d))


def werner_partial_transpose(p: WernerParams) -> ComplexMatrix:
    """Partial transpose (I + beta*G) / (d^2 + beta*d) of the Werner state.

    Its minimum eigenvalue is (1 + beta*d) / (d^2 + beta*d) for beta < 0,
    attained on the maximally entangled state.
    """
    d = p.d
    g = ge_operator(d).data
    rho = (np.eye(d * d, dtype=np.complex128) + p.beta * g) / p.normalization
    return ComplexMatrix(rho, (d, d), (d, d))


def beta_bound(n: int, tol: float = 1e-12) -> float:
    """Root in [-1, 0] of 1 + (1+beta)^n - (1-beta)^n, by bisection.

    For beta above this value the n-copy nonnegativity functional has a
    guaranteed floor; the root is independent of the local dimension.  The
    function is strictly increasing on [-1, 0] with a sign change across the
    bracket, so bisection converges unconditionally.
    """
    n = int(n)
    if n < 1:
        raise ShapeError(f"copy count must be >= 1, got {n}")
    if not 0 < tol < math.inf:
        raise ShapeError(f"tolerance must be positive and finite, got {tol}")

    def phi(b: float) -> float:
        return 1.0 + (1.0 + b) ** n - (1.0 - b) ** n

    lo, hi = -1.0, 0.0
    mid = -0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = phi(mid)
        if abs(val) < tol:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    return mid
