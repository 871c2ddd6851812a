"""Repeated copy-doubling: conjugate two copies by the middle-slot exchange.

One step takes a bipartite density matrix on D x D parts to one on
D^2 x D^2 parts by tensoring it with itself and relabeling the middle two of
the four merged slots; certifying nonnegativity of the partial transpose on
Schmidt-rank-<=2 states at step k amounts to a 2^k-copy statement about the
starting state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distill import RankTwoFactors
from .errors import DimensionLimitError, ShapeError, SymmetryError
from .linalg import (
    DEFAULT_DIM_CAP,
    HERMITICITY_TOL,
    ComplexMatrix,
    SubsystemPermutation,
    kron,
    permute_subsystems,
)
from .optimize import DEFAULT_SEED, SearchConfig, minimize_q
from .states import WernerParams, werner_state

DENSITY_TRACE_TOL = 1e-10
DENSITY_PSD_TOL = -1e-10
CERTIFY_TOL = 1e-9

# Exchange of the middle two slots of the four merged parts.
EXCHANGE_PERM = (0, 2, 1, 3)


@dataclass(frozen=True)
class IterateState:
    """Density matrix after k doubling steps, with its per-side local dimension.

    The matrix keeps the merged two-part structure (A block, B block) in its
    composite dims so the next exchange acts on the right slots.
    """

    k: int
    matrix: ComplexMatrix
    local_dim: int

    def __post_init__(self):
        k = int(self.k)
        local_dim = int(self.local_dim)
        m = self.matrix
        if k < 0:
            raise ShapeError(f"iteration count must be >= 0, got {k}")
        if m.row_dims != (local_dim, local_dim) or m.col_dims != (local_dim, local_dim):
            raise ShapeError(
                f"matrix dims {m.row_dims}/{m.col_dims} do not match two parts of dim {local_dim}"
            )
        tr = complex(np.trace(m.data))
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ShapeError(f"density matrix trace must be 1 within {DENSITY_TRACE_TOL}, got {tr}")
        dev = float(np.max(np.abs(m.data - m.data.conj().T)))
        if dev > HERMITICITY_TOL:
            raise SymmetryError(f"density matrix must be Hermitian, deviation {dev:.3e}")
        # The smallest eigenvalue is at least DENSITY_PSD_TOL exactly when the
        # diagonally shifted matrix has a Cholesky factor (up to rounding far
        # below the tolerance).  That takes about a quarter of the flops of
        # eigvalsh, which runs only to report a rejection.
        shifted = np.array(m.data)
        shifted.flat[:: m.rows + 1] -= DENSITY_PSD_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(m.data)[0])
            if min_eig < DENSITY_PSD_TOL:
                raise ShapeError(
                    f"density matrix must be PSD within {DENSITY_PSD_TOL}, min eig {min_eig:.3e}"
                ) from None
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "local_dim", local_dim)


def initial_iterate(params: WernerParams) -> IterateState:
    """Step-zero state: the Werner density matrix itself."""
    return IterateState(k=0, matrix=werner_state(params), local_dim=params.d)


def e_step(s: IterateState) -> IterateState:
    """One doubling step: exchange-conjugated self-tensoring.

    Trace, Hermiticity, and positivity survive (the relabeling is unitary),
    and the partial transpose of the output equals the exchange conjugation
    of the tensored partial transposes: transposing both A slots commutes
    with a permutation that never mixes A and B slots.
    """
    d = s.local_dim
    new_local = d * d
    if new_local * new_local > DEFAULT_DIM_CAP:
        raise DimensionLimitError(
            f"step would produce side {new_local * new_local}, exceeding cap {DEFAULT_DIM_CAP}"
        )
    perm = SubsystemPermutation(EXCHANGE_PERM, (d, d, d, d))
    exchanged = permute_subsystems(kron(s.matrix, s.matrix), perm)
    merged = ComplexMatrix(exchanged.data, (new_local, new_local), (new_local, new_local))
    # Each intermediate is as large as the output: free it before the new
    # state's positivity check allocates its own copies.
    del exchanged
    return IterateState(k=s.k + 1, matrix=merged, local_dim=new_local)


def certify_iterate(
    params: WernerParams,
    k: int,
    restarts: int = 20,
    seed: int = DEFAULT_SEED,
    bundle_dir: "Path | str | None" = None,
) -> tuple[float, RankTwoFactors]:
    """Minimize the partial-transpose quadratic form of the k-step iterate
    of the Werner state with ``params`` over rank-<=2 states.

    The minimization runs over coefficient matrices with 2^k copy slots
    (never materializing the large operator) and the result is rescaled by
    the Werner normalization to the raw quadratic-form value.  A minimum
    below -1e-9 is a distillation witness; when ``bundle_dir`` is set, the
    witness point is serialized there.
    """
    k = int(k)
    if k < 0:
        raise ShapeError(f"iteration count must be >= 0, got {k}")
    n_copies = 2**k
    cfg = SearchConfig(d=params.d, n=n_copies, beta=params.beta, restarts=restarts, seed=seed)
    report = minimize_q(cfg)
    scale = params.normalization**n_copies
    min_value = report.best_value / scale
    if min_value < -CERTIFY_TOL and bundle_dir is not None:
        from .bundles import Bundle, write_bundle

        point = report.best_point
        bundle = Bundle(
            kind="distillation-witness",
            params={
                "d": params.d,
                "n": n_copies,
                "beta": params.beta,
                "seed": cfg.seed,
                "sigma1": point.sigma1,
                "sigma2": point.sigma2,
                "min_value": min_value,
            },
            vectors={"u1": point.u1, "v1": point.v1, "u2": point.u2, "v2": point.v2},
        )
        write_bundle(bundle, witness_bundle_path(bundle_dir, k, cfg.seed))
    return min_value, report.best_point


def witness_bundle_path(bundle_dir: "Path | str", k: int, seed: int) -> Path:
    """Where ``certify_iterate`` writes the witness it finds at step ``k``."""
    return Path(bundle_dir) / f"witness-k{int(k)}-{int(seed)}.bundle"


def iterate_partial_transpose(s: IterateState) -> ComplexMatrix:
    """Partial transpose over the merged A part (slot 0)."""
    from .linalg import partial_transpose

    return partial_transpose(s.matrix, 0)
