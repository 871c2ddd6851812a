import tracemalloc

import numpy as np
import pytest

from distill_lab.bundles import read_bundle
from distill_lab.distill import merge_operator
from distill_lab.errors import DimensionLimitError, ShapeError, SymmetryError
from distill_lab.iterate import (
    IterateState,
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
from distill_lab.states import WernerParams, werner_partial_transpose, werner_state


class TestIterateState:
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
    def _with_smallest_eigenvalue(lam):
        """Trace-one Hermitian 4x4 with spectrum (0.6, 0.4 - lam, 0, lam) in a random basis."""
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = q @ np.diag([0.6, 0.4 - lam, 0.0, lam]) @ q.conj().T
        return ComplexMatrix((m + m.conj().T) / 2.0, (2, 2), (2, 2))

    def test_psd_tolerance_boundary(self, monkeypatch):
        with pytest.raises(ShapeError, match="min eig"):
            IterateState(0, self._with_smallest_eigenvalue(-2e-10), 2)
        self._forbid_spectrum(monkeypatch)
        IterateState(0, self._with_smallest_eigenvalue(-0.5e-10), 2)

    def test_hermiticity_checked_before_positivity(self):
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(np.complex128)
        bad[0, 1] = 1e-3  # also not PSD, but the Hermiticity check comes first
        with pytest.raises(SymmetryError):
            IterateState(0, ComplexMatrix(bad, (2, 2), (2, 2)), 2)


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
        # the kron and exchange copies and the check's shifted copy and factor
        # each match the output's size; keeping one more alive would show here
        s0 = initial_iterate(WernerParams(5, -0.25))
        tracemalloc.start()
        try:
            s1 = e_step(s0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * s1.matrix.data.nbytes

    def test_dimension_cap(self):
        # d = 17 would step to side 17^4 = 83521, past DEFAULT_DIM_CAP = 2^16
        s0 = initial_iterate(WernerParams(17, 0.0))
        with pytest.raises(DimensionLimitError):
            e_step(s0)


class TestCertifyIterate:
    def test_distillable_region_yields_negative_minimum(self):
        params = WernerParams(2, -0.6)
        min_value, point = certify_iterate(params, 0, restarts=10, seed=1)
        expect = (1 + 2 * params.beta) / params.normalization
        assert min_value == pytest.approx(expect, abs=1e-8)
        # witness reproduces the raw quadratic form
        psi = point.assemble().reshape(-1)
        direct = float(
            np.vdot(psi, werner_partial_transpose(params).data @ psi).real
        )
        assert direct == pytest.approx(min_value, abs=1e-10)

    def test_two_copy_floor_region_nonnegative(self):
        min_value, _ = certify_iterate(WernerParams(3, -0.25), 1, restarts=10, seed=2)
        assert min_value >= -1e-9

    def test_separable_point_trivially_nonnegative(self):
        min_value, _ = certify_iterate(WernerParams(2, 0.0), 1, restarts=4, seed=3)
        assert min_value >= 0.0

    def test_rejects_negative_k(self):
        with pytest.raises(ShapeError, match="iteration count"):
            certify_iterate(WernerParams(2, -0.25), -1)

    def test_witness_bundle_written_on_violation(self, tmp_path):
        params = WernerParams(2, -0.7)
        min_value, _ = certify_iterate(params, 0, restarts=6, seed=5, bundle_dir=tmp_path)
        assert min_value < -1e-9
        files = list(tmp_path.glob("witness-k0-*.bundle"))
        assert len(files) == 1
        bundle = read_bundle(files[0])
        assert bundle.kind == "distillation-witness"
        assert bundle.params["d"] == 2 and bundle.params["n"] == 1

    def test_sign_agreement_with_direct_minimization(self):
        from distill_lab.optimize import SearchConfig, minimize_q

        for beta in (-0.6, -0.5, -0.3, -0.25, -0.1):
            min_value, _ = certify_iterate(WernerParams(2, beta), 1, restarts=8, seed=6)
            report = minimize_q(SearchConfig(d=2, n=2, beta=beta, restarts=8, seed=6))
            assert (min_value < -1e-9) == (report.best_value < -1e-9)
