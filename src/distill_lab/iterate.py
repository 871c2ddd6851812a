"""Repeated copy-doubling: conjugate two copies by the middle-slot exchange.

One step takes a bipartite density matrix on D x D parts to one on
D^2 x D^2 parts by tensoring it with itself and relabeling the middle two of
the four merged slots; certifying nonnegativity of the partial transpose on
Schmidt-rank-<=2 states at step k amounts to a 2^k-copy statement about the
starting state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bundles import write_bundle
from .distill import CERTIFY_TOL, RankTwoFactors
from .errors import DimensionLimitError, ShapeError, SymmetryError
from .linalg import (
    HERMITICITY_TOL,
    ComplexMatrix,
    SubsystemPermutation,
    _adopt,
    kron,
    partial_transpose,
    permute_subsystems,
)
from .optimize import DEFAULT_SEED, MINIMIZE_SIDE_CAP, SearchConfig, minimize_q
from .states import WernerParams, werner_state

DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = -1e-10

# Side of the square tiles in which the Hermiticity check reads a matrix: a
# complex tile and its mirror take 512 KiB.
HERMITICITY_TILE = 128

# Exchange of the middle two slots of the four merged parts.
EXCHANGE_PERM = (0, 2, 1, 3)


@dataclass(frozen=True)
class IterateState:
    """Density matrix after k doubling steps, with its per-side local dimension.

    The matrix keeps the merged two-part structure (A block, B block) in its
    composite dims so the next exchange acts on the right slots.

    ``spectrum`` holds the matrix's eigenvalues in ascending order, read-only,
    and positivity is decided on it: the smallest must be at least
    ``DENSITY_PSD_TOL``.  It is not a constructor argument, so no caller can
    hand in values the check would trust.  A state built here takes it from
    ``np.linalg.eigvalsh`` of its own matrix; ``e_step`` derives its output's
    from the parent's (see there).  Trace and Hermiticity are checked on the
    matrix itself, in that order, before positivity.
    """

    k: int
    matrix: ComplexMatrix
    local_dim: int
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check(None)

    def _check(self, spectrum: "np.ndarray | None") -> None:
        """Validate the state and keep ``spectrum``, or the matrix's own
        eigenvalues when it is None."""
        k = int(self.k)
        local_dim = int(self.local_dim)
        m = self.matrix
        if k < 0:
            raise ShapeError(f"iteration count must be >= 0, got {k}")
        if m.row_dims != (local_dim, local_dim) or m.col_dims != (local_dim, local_dim):
            raise ShapeError(
                f"matrix dims {m.row_dims}/{m.col_dims} do not match two parts of dim {local_dim}"
            )
        # Each comparison is written so that NaN fails it: a non-finite entry
        # makes the trace or the Hermiticity deviation NaN or infinite.
        tr = complex(np.trace(m.data))
        if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
            raise ShapeError(f"density matrix trace must be 1 within {DENSITY_TRACE_TOL}, got {tr}")
        # A real matrix is checked in real arithmetic: max|m - m^H| is then
        # max|r - r^T|, and eigvalsh of r is the spectrum of m, so the
        # decisions match the complex route at a fraction of its cost.
        a = m.data if m.data.imag.any() else m.data.real
        dev = _hermitian_deviation(a)
        if not dev <= HERMITICITY_TOL:
            raise SymmetryError(f"density matrix must be Hermitian, deviation {dev:.3e}")
        if spectrum is None:
            spectrum = np.linalg.eigvalsh(a)
        spectrum.setflags(write=False)
        min_eig = float(spectrum[0])
        if not min_eig >= DENSITY_PSD_TOL:
            raise ShapeError(
                f"density matrix must be PSD within {DENSITY_PSD_TOL}, min eig {min_eig:.3e}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "local_dim", local_dim)
        object.__setattr__(self, "spectrum", spectrum)


def _derived(k: int, matrix: ComplexMatrix, local_dim: int, spectrum: np.ndarray) -> IterateState:
    """An ``IterateState`` that takes ``spectrum`` as its matrix's eigenvalues.

    Only for ``e_step``, whose output spectrum follows exactly from its
    parent's; the state is otherwise checked as the constructor checks it.
    """
    s = object.__new__(IterateState)
    object.__setattr__(s, "k", k)
    object.__setattr__(s, "matrix", matrix)
    object.__setattr__(s, "local_dim", local_dim)
    s._check(spectrum)
    return s


def _hermitian_deviation(a: np.ndarray) -> float:
    """max |a - a^H| of a square array, or NaN if an entry is not finite.

    Each tile at or above the diagonal is compared with its mirror below it,
    so both are read in small blocks and no full-size temporary is built;
    the deviation of an entry and of its mirror are equal.
    """
    side = a.shape[0]
    tile = HERMITICITY_TILE
    devs = []
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which np.max keeps
        for i in range(0, side, tile):
            for j in range(i, side, tile):
                upper = a[i : i + tile, j : j + tile]
                lower = a[j : j + tile, i : i + tile]
                devs.append(np.max(np.abs(upper - lower.conj().T)))
    return float(np.max(devs))


def initial_iterate(params: WernerParams) -> IterateState:
    """Step-zero state: the Werner density matrix itself."""
    return IterateState(k=0, matrix=werner_state(params), local_dim=params.d)


def e_step(s: IterateState) -> IterateState:
    """One doubling step: exchange-conjugated self-tensoring.

    Trace, Hermiticity, and positivity survive (the relabeling is unitary),
    and the partial transpose of the output equals the exchange conjugation
    of the tensored partial transposes: transposing both A slots commutes
    with a permutation that never mixes A and B slots.

    The output's spectrum is the sorted pairwise products of the parent's
    eigenvalues: ``rho (x) rho`` has eigenvalues ``l_i * l_j``, and conjugating
    by a permutation keeps them.  Positivity is decided on those products,
    so no spectrum or factor of the output (side D^2 for a parent of side D)
    is computed; trace and Hermiticity are still checked on the output
    itself.  The permutation moves entries without rounding them, and each
    entry of the computed Kronecker product of a real ``rho`` is one rounded
    product, so by Weyl's inequality every eigenvalue of the materialized
    output lies within ``u * ||rho||_F^2`` of the exact products (``u`` the
    unit roundoff, 2^-53; a complex ``rho`` adds a small constant factor).
    With ``||rho||_F <= 1`` for a density matrix, that is far below the
    tolerance.
    """
    d = s.local_dim
    new_local = d * d
    # kron rejects a side past DEFAULT_DIM_CAP before it allocates
    perm = SubsystemPermutation(EXCHANGE_PERM, (d, d, d, d))
    exchanged = permute_subsystems(kron(s.matrix, s.matrix), perm)
    # the relabel shares the exchanged buffer, which nothing else can write
    merged = _adopt(exchanged.data, (new_local, new_local), (new_local, new_local))
    spectrum = np.sort(np.multiply.outer(s.spectrum, s.spectrum), axis=None)
    return _derived(s.k + 1, merged, new_local, spectrum)


def certify_iterate(
    params: WernerParams,
    k: int,
    restarts: int = 20,
    seed: int = DEFAULT_SEED,
    bundle_dir: "Path | str | None" = None,
) -> tuple[float, RankTwoFactors, bool]:
    """Minimize the partial-transpose quadratic form of the k-step iterate
    of the Werner state with ``params`` over rank-<=2 states.

    The minimization runs over coefficient matrices with 2^k copy slots
    (never materializing the large operator).  Returns
    ``(min_value, point, witness)``: the minimum rescaled by the Werner
    normalization to the raw quadratic-form value, the point, and whether
    it is a distillation witness, which the search's unit-norm value
    decides by ``distill.CERTIFY_TOL``.  When ``bundle_dir`` is set, a
    witness point is serialized there.
    """
    cfg = certify_config(params, k, restarts, seed)
    report = minimize_q(cfg)
    min_value = report.best_value / params.normalization**cfg.n
    witness = report.best_value < -CERTIFY_TOL
    if witness and bundle_dir is not None:
        bundle = report.best_point.to_bundle(
            "distillation-witness", d=params.d, n=cfg.n, beta=params.beta, seed=cfg.seed, min_value=min_value
        )
        write_bundle(bundle, witness_bundle_path(bundle_dir, k, cfg.seed))
    return min_value, report.best_point, witness


def certify_config(params: WernerParams, k: int, restarts: int, seed: int) -> SearchConfig:
    """The search ``certify_iterate`` runs at step ``k``: 2^k copy slots of
    the local dimension of ``params``.  Raises as ``SearchConfig`` does on
    settings it rejects."""
    k = int(k)
    if k < 0:
        raise ShapeError(f"iteration count must be >= 0, got {k}")
    # 2^k slots of d >= 2 exceed the cap long before k passes its bit
    # length; rejecting such k here keeps a huge one from computing 2^k.
    if k > MINIMIZE_SIDE_CAP.bit_length():
        raise DimensionLimitError(f"{k} doubling steps exceed the search cap {MINIMIZE_SIDE_CAP}")
    return SearchConfig(d=params.d, n=2**k, beta=params.beta, restarts=restarts, seed=seed)


def witness_bundle_path(bundle_dir: "Path | str", k: int, seed: int) -> Path:
    """Where ``certify_iterate`` writes the witness it finds at step ``k``."""
    return Path(bundle_dir) / f"witness-k{int(k)}-{int(seed)}.bundle"


def iterate_partial_transpose(s: IterateState) -> ComplexMatrix:
    """Partial transpose over the merged A part (slot 0)."""
    return partial_transpose(s.matrix, 0)
