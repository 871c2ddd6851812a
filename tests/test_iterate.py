import tracemalloc

import numpy as np
import pytest

from distill_lab import iterate
from distill_lab.bundles import read_bundle
from distill_lab.distill import merge_operator
from distill_lab.errors import DimensionLimitError, ShapeError, SymmetryError
from distill_lab.iterate import (
    IterateState,
    _hermitian_deviation,
    certify_config,
    certify_iterate,
    e_step,
    initial_iterate,
    iterate_partial_transpose,
)
from distill_lab.linalg import (
    ComplexMatrix,
    SubsystemPermutation,
    kron,
    permutation_matrix,
    permute_subsystems,
)
from distill_lab.optimize import SearchConfig
from distill_lab.states import WernerParams, werner_partial_transpose, werner_state


class TestIterateState:
    def test_rejects_negative_k(self):
        with pytest.raises(ShapeError, match="iteration count"):
            IterateState(-1, ComplexMatrix(np.eye(4) / 4, (2, 2), (2, 2)), 2)

    def test_rejects_unnormalized_trace(self):
        with pytest.raises(ShapeError):
            IterateState(0, ComplexMatrix(np.eye(4), (2, 2), (2, 2)), 2)

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ShapeError):
            IterateState(0, ComplexMatrix(bad, (2, 2), (2, 2)), 2)

    def test_rejects_mismatched_local_dim(self):
        rho = werner_state(WernerParams(2, 0.0))
        with pytest.raises(ShapeError):
            IterateState(0, rho, 3)

    @staticmethod
    def _forbid_spectrum(monkeypatch):
        """Accepted states must pass on the Cholesky route alone."""

        def no_spectrum(a):
            raise AssertionError("eigvalsh runs only to report a rejection")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)

    def test_accepts_rank_deficient_pure_state(self, monkeypatch):
        psi = np.zeros(4, dtype=np.complex128)
        psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(rho)  # singular: only the shifted matrix has a factor
        self._forbid_spectrum(monkeypatch)
        IterateState(0, ComplexMatrix(rho, (2, 2), (2, 2)), 2)

    @staticmethod
    def _with_smallest_eigenvalue(lam, real=False):
        """Trace-one Hermitian 4x4 with spectrum (0.6, 0.4 - lam, 0, lam) in a
        random unitary basis, or a random orthogonal one when ``real``."""
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(raw if real else raw + 1j * rng.normal(size=(4, 4)))
        m = q @ np.diag([0.6, 0.4 - lam, 0.0, lam]) @ q.conj().T
        return ComplexMatrix((m + m.conj().T) / 2.0, (2, 2), (2, 2))

    def test_psd_tolerance_boundary(self, monkeypatch):
        # the complex basis takes the complex route, the orthogonal one the real
        for real in (False, True):
            below = self._with_smallest_eigenvalue(-2e-10, real)
            assert below.data.imag.any() != real
            with pytest.raises(ShapeError, match="min eig"):
                IterateState(0, below, 2)
        self._forbid_spectrum(monkeypatch)
        for real in (False, True):
            IterateState(0, self._with_smallest_eigenvalue(-0.5e-10, real), 2)

    def test_hermiticity_checked_before_positivity(self):
        # a real and a complex non-Hermitian entry; both inputs are also not
        # PSD, but the Hermiticity check comes first
        for offdiag in (1e-3, 1e-3j):
            bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(np.complex128)
            bad[0, 1] = offdiag
            with pytest.raises(SymmetryError):
                IterateState(0, ComplexMatrix(bad, (2, 2), (2, 2)), 2)

    def test_real_matrices_are_factored_in_real_arithmetic(self, monkeypatch):
        seen = []
        cholesky = np.linalg.cholesky

        def recording(a):
            seen.append(a.dtype)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        e_step(initial_iterate(WernerParams(3, -0.25)))
        assert seen == [np.float64, np.float64]
        seen.clear()
        # Hermitian with a nonzero imaginary part: the complex route
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
        rho[0, 1], rho[1, 0] = 0.05j, -0.05j
        IterateState(0, ComplexMatrix(rho, (2, 2), (2, 2)), 2)
        assert seen == [np.complex128]

    @staticmethod
    def _with_entries(entries):
        m = np.eye(4, dtype=np.complex128) / 4.0
        for (i, j), v in entries.items():
            m[i, j] = v
        return ComplexMatrix(m, (2, 2), (2, 2))

    @pytest.mark.parametrize(
        "entries",
        [
            {(i, j): np.nan for i in range(4) for j in range(4)},
            {(1, 1): np.nan},
            {(0, 1): np.inf, (1, 0): np.inf},
        ],
        ids=["all-nan", "nan-diagonal", "inf-pair"],
    )
    def test_rejects_non_finite_entries(self, entries):
        # NaN fails every check: none of these is a density matrix
        with pytest.raises((ShapeError, SymmetryError)):
            IterateState(0, self._with_entries(entries), 2)


class TestTiledHermiticity:
    """The check reads tiles of ``HERMITICITY_TILE``; a tile of 5 on side 16
    gives tiles of 5, 5, 5 and 1 rows, so a side that is not a multiple."""

    @staticmethod
    def _mixed(side=16):
        return np.eye(side) / side

    @staticmethod
    def _state(m):
        local = int(round(np.sqrt(m.shape[0])))
        return IterateState(0, ComplexMatrix(m, (local, local), (local, local)), local)

    @pytest.mark.parametrize("tile", [5, 16, 128])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_equals_the_full_deviation(self, tile, cplx, monkeypatch):
        monkeypatch.setattr(iterate, "HERMITICITY_TILE", tile)
        rng = np.random.default_rng(tile)
        for side in (1, 4, 16, 17):
            a = rng.standard_normal((side, side))
            if cplx:
                a = a + 1j * rng.standard_normal((side, side))
            a = a + a.conj().T
            a[rng.integers(side), rng.integers(side)] += 1e-3
            assert _hermitian_deviation(a) == float(np.max(np.abs(a - a.conj().T)))

    def test_rejects_an_entry_past_the_first_off_diagonal_tile(self, monkeypatch):
        monkeypatch.setattr(iterate, "HERMITICITY_TILE", 5)
        m = self._mixed()
        m[12, 3] = 1e-3  # tile (2, 0); its mirror (3, 12) is in tile (0, 2)
        with pytest.raises(SymmetryError, match=r"deviation 1\.000e-03"):
            self._state(m)
        m[15, 11] = 2e-3  # the last tile row, one row high
        with pytest.raises(SymmetryError, match=r"deviation 2\.000e-03"):
            self._state(m)
        m = self._mixed()
        m[12, 3] = m[3, 12] = 1e-3
        self._state(m)

    @pytest.mark.parametrize(
        "entries",
        [{(12, 3): np.nan}, {(3, 12): np.inf, (12, 3): np.inf}],
        ids=["nan-off-diagonal", "inf-pair"],
    )
    def test_rejects_non_finite_entries_in_later_tiles(self, entries, monkeypatch):
        monkeypatch.setattr(iterate, "HERMITICITY_TILE", 5)
        m = self._mixed()
        for idx, value in entries.items():
            m[idx] = value
        assert np.isnan(_hermitian_deviation(m))
        with pytest.raises(SymmetryError, match="deviation nan"):
            self._state(m)

    def test_complex_route(self, monkeypatch):
        monkeypatch.setattr(iterate, "HERMITICITY_TILE", 5)
        m = self._mixed().astype(np.complex128)
        m[12, 3], m[3, 12] = 0.01j, -0.01j
        self._state(m)
        m[3, 12] = 0.01j  # a symmetric, not Hermitian, pair: deviation 0.02
        with pytest.raises(SymmetryError, match=r"deviation 2\.000e-02"):
            self._state(m)

    def test_default_tile_on_a_side_that_is_not_a_multiple(self):
        # side 144 = 128 + 16 at the default tile
        m = self._mixed(144)
        m[140, 7] = 1e-3
        with pytest.raises(SymmetryError, match=r"deviation 1\.000e-03"):
            self._state(m)


class TestEStep:
    def test_maximally_mixed_fixed_point(self):
        s0 = initial_iterate(WernerParams(2, 0.0))
        s1 = e_step(s0)
        assert s1.k == 1 and s1.local_dim == 4
        assert np.allclose(s1.matrix.data, np.eye(16) / 16.0)

    def test_equals_explicit_permutation_conjugation(self):
        s0 = initial_iterate(WernerParams(2, -0.4))
        s1 = e_step(s0)
        mat = permutation_matrix(SubsystemPermutation((0, 2, 1, 3), (2, 2, 2, 2))).data
        doubled = np.kron(s0.matrix.data, s0.matrix.data)
        assert np.array_equal(s1.matrix.data, mat @ doubled @ mat.conj().T)

    def test_trace_preserved_on_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            beta = float(rng.uniform(-1.0, 1.0))
            s1 = e_step(initial_iterate(WernerParams(2, beta)))
            assert abs(np.trace(s1.matrix.data) - 1.0) < 1e-12

    def test_partial_transpose_commutes_with_exchange(self):
        params = WernerParams(2, -0.35)
        s1 = e_step(initial_iterate(params))
        lhs = iterate_partial_transpose(s1).data
        pt = werner_partial_transpose(params)
        doubled = kron(pt, pt)
        perm = SubsystemPermutation((0, 2, 1, 3), (2, 2, 2, 2))
        rhs = permute_subsystems(doubled, perm).data
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_matches_one_shot_merge_at_higher_step(self):
        params = WernerParams(2, -0.4)
        s = initial_iterate(params)
        for k in (1, 2):
            s = e_step(s)
            assert np.allclose(
                iterate_partial_transpose(s).data,
                merge_operator(params, 2**k).data,
                atol=1e-13,
            )

    def test_spectrum_is_pairwise_products(self):
        s0 = initial_iterate(WernerParams(2, 0.6))
        s1 = e_step(s0)
        ev0 = np.linalg.eigvalsh(s0.matrix.data)
        ev1 = np.linalg.eigvalsh(s1.matrix.data)
        assert np.allclose(np.sort(ev1), np.sort(np.outer(ev0, ev0).reshape(-1)), atol=1e-12)

    def test_frees_intermediates_before_the_check(self):
        # the kron result and its exchange, which the output shares, peak at
        # twice the output's size; the check's real shifted copy and factor are
        # half of it each.  One more output-sized copy alive would show here.
        s0 = initial_iterate(WernerParams(5, -0.25))
        tracemalloc.start()
        try:
            s1 = e_step(s0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * s1.matrix.data.nbytes

    def test_output_is_read_only(self):
        s1 = e_step(initial_iterate(WernerParams(2, -0.4)))
        assert not s1.matrix.data.flags.writeable
        with pytest.raises(ValueError):
            s1.matrix.data[0, 0] = 1.0

    def test_dimension_cap(self):
        # d = 17 would step to side 17^4 = 83521, past DEFAULT_DIM_CAP = 2^16
        s0 = initial_iterate(WernerParams(17, 0.0))
        with pytest.raises(DimensionLimitError):
            e_step(s0)


class TestCertifyIterate:
    def test_distillable_region_yields_negative_minimum(self):
        params = WernerParams(2, -0.6)
        min_value, point, witness = certify_iterate(params, 0, restarts=10, seed=1)
        assert witness
        expect = (1 + 2 * params.beta) / params.normalization
        assert min_value == pytest.approx(expect, abs=1e-8)
        # witness reproduces the raw quadratic form
        psi = point.assemble().reshape(-1)
        direct = float(
            np.vdot(psi, werner_partial_transpose(params).data @ psi).real
        )
        assert direct == pytest.approx(min_value, abs=1e-10)

    def test_two_copy_floor_region_nonnegative(self):
        min_value, _, witness = certify_iterate(WernerParams(3, -0.25), 1, restarts=10, seed=2)
        assert min_value >= -1e-9 and not witness

    def test_separable_point_trivially_nonnegative(self):
        min_value, _, _ = certify_iterate(WernerParams(2, 0.0), 1, restarts=4, seed=3)
        assert min_value >= 0.0

    def test_rejects_negative_k(self):
        with pytest.raises(ShapeError, match="iteration count"):
            certify_iterate(WernerParams(2, -0.25), -1)

    def test_rejects_a_huge_k_before_computing_its_copy_count(self):
        with pytest.raises(DimensionLimitError, match="doubling steps exceed the search cap"):
            certify_iterate(WernerParams(2, -0.25), 10**15)

    def test_witness_bundle_written_on_violation(self, tmp_path):
        params = WernerParams(2, -0.7)
        min_value, _, witness = certify_iterate(params, 0, restarts=6, seed=5, bundle_dir=tmp_path)
        assert witness and min_value < -1e-9
        files = list(tmp_path.glob("witness-k0-*.bundle"))
        assert len(files) == 1
        bundle = read_bundle(files[0])
        assert bundle.kind == "distillation-witness"
        assert bundle.params["d"] == 2 and bundle.params["n"] == 1

    def test_step_one_is_the_direct_search(self):
        for beta in (-0.6, -0.5, -0.3, -0.25, -0.1):
            cfg = certify_config(WernerParams(2, beta), 1, 8, 6)
            assert cfg == SearchConfig(d=2, n=2, beta=beta, restarts=8, seed=6)
