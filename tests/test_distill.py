import math

import numpy as np
import pytest

from distill_lab import linalg, verify
from distill_lab.bundles import read_bundle
from distill_lab.distill import (
    RankTwoFactors,
    _discriminant_slack,
    _pair_forms,
    _rank_two_draw,
    assemble_stack,
    check_rank2_inequality,
    f_bilinear,
    m_n_permutation,
    pqr,
    pqr_stack,
    q_functional,
    q_functional_stack,
    random_rank_two,
    random_rank_two_stack,
    sandwich_evaluator,
)
from distill_lab.errors import DimensionLimitError, ShapeError
from distill_lab.linalg import ComplexMatrix, MultipartiteState, _child_seed, _qf, partial_trace
from distill_lab.states import WernerParams, max_entangled_state
from distill_lab.verify import rank2_slack_sampling


def unit_matrix(arr, dims):
    arr = np.asarray(arr, dtype=complex)
    return ComplexMatrix(arr / np.linalg.norm(arr), dims, dims)


def reference_haar_frames(rng, dim):
    """One draw with its own QR per frame: the reference for the block
    sampler.  The angle comes first, then U and V; each QR factor takes the
    phases of R's diagonal, which makes it Haar.  Returns
    (sigma1, sigma2, U, V) with the pairs as columns."""

    def haar(g):
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    angle = rng.uniform(0.0, math.pi / 2.0)
    qu = haar(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    qv = haar(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
    return math.cos(angle), math.sin(angle), qu, qv


def balanced_rank_two(d):
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0 / math.sqrt(2.0)
    return ComplexMatrix(m, (d,), (d,))


class TestRankTwoFactors:
    def test_invariants_enforced(self):
        e0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        RankTwoFactors(1 / math.sqrt(2), 1 / math.sqrt(2), e0, e0, e1, e1)
        with pytest.raises(ShapeError):
            RankTwoFactors(1.0, 0.1, e0, e0, e1, e1)  # sigma norm
        with pytest.raises(ShapeError):
            RankTwoFactors(1 / math.sqrt(2), 1 / math.sqrt(2), e0, e0, e0, e1)  # orthogonality
        with pytest.raises(ShapeError):
            RankTwoFactors(1 / math.sqrt(2), 1 / math.sqrt(2), 2 * e0, e0, e1, e1)  # unit norm
        with pytest.raises(ShapeError):
            RankTwoFactors(math.nan, 0.0, e0, e0, e1, e1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda e0, e1: RankTwoFactors(1.0, 0.0, e0, e0, e1, e1[:3]),
            lambda e0, e1: RankTwoFactors(1.0, 0.0, e0, e0, e1, e1).to_matrix((2, 3)),
        ],
        ids=["unequal-lengths", "to-matrix-dims"],
    )
    def test_rejects_bad_lengths(self, call):
        e0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ShapeError):
            call(e0, e1)

    def test_invariants_enforced_on_the_v_frame(self):
        # one check covers both frames: break V alone, U stays valid
        e0, e1 = np.eye(4, dtype=complex)[:2]
        s = 1 / math.sqrt(2)
        with pytest.raises(ShapeError, match="unit norm"):
            RankTwoFactors(s, s, e0, e0, e1, 2 * e1)  # v2
        with pytest.raises(ShapeError, match="orthogonal"):
            RankTwoFactors(s, s, e0, e0, e1, (e0 + e1) / math.sqrt(2))  # v1, v2

    def test_stack_round_trips_bitwise(self):
        rt = random_rank_two(np.random.default_rng(5), 9)
        sigma, frames = rt.stack()
        assert sigma.shape == (1, 2) and frames.shape == (1, 2, 9, 2)
        back = RankTwoFactors.from_stack(sigma, frames)
        for name in ("sigma1", "sigma2", "u1", "v1", "u2", "v2"):
            assert np.array_equal(getattr(back, name), getattr(rt, name))


class TestQFunctional:
    def test_single_slot_identity_value(self):
        for d in (2, 3, 4):
            x = ComplexMatrix(np.eye(d) / math.sqrt(d), (d,), (d,))
            for beta in (-1.0, -0.5, 0.3):
                assert q_functional(x, beta) == pytest.approx(1.0 + beta * d, abs=1e-12)

    def test_boundary_rank_two_vanishes(self):
        # balanced two-dimensional diagonal saturates the single-copy bound
        assert abs(q_functional(balanced_rank_two(3), -0.5)) < 1e-12

    def test_tensor_factorization(self):
        beta = -0.6
        y2 = balanced_rank_two(2)
        z = np.zeros((2, 2), dtype=complex)
        z[0, 0] = 1.0
        x = ComplexMatrix(np.kron(y2.data, z), (2, 2), (2, 2))
        direct = q_functional(x, beta)
        assert direct == pytest.approx((1 + 2 * beta) * (1 + beta), abs=1e-12)
        # factorization against the two single-slot values
        left = q_functional(y2, beta)
        right = q_functional(ComplexMatrix(z, (2,), (2,)), beta)
        assert direct == pytest.approx(left * right, abs=1e-12)

    def test_slot_cap(self):
        x = ComplexMatrix(np.eye(1), (1,) * 13, (1,) * 13)
        with pytest.raises(DimensionLimitError):
            q_functional(x, -0.5)

    def test_requires_square_slots(self):
        with pytest.raises(ShapeError):
            q_functional(ComplexMatrix(np.ones((4, 2)), (2, 2), (2,)), -0.5)


class TestQFunctionalStack:
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("dims", [(2,), (3, 3), (2, 3, 2), (2,) * 7])
    def test_rows_equal_single_evaluation_bitwise(self, dims, count):
        rng = np.random.default_rng(len(dims) * 10 + count)
        side = math.prod(dims)
        raw = rng.standard_normal((count, side, side)) + 1j * rng.standard_normal((count, side, side))
        values = q_functional_stack(raw, dims, -0.35)
        assert values.shape == (count,)
        for row, value in zip(raw, values):
            assert value == q_functional(ComplexMatrix(row, dims, dims), -0.35)

    def test_blocks_crossing_a_boundary_match_single_draws(self):
        # 22 matrices of side 27 fit one block, so 30 samples take two
        dims = (3, 3, 3)
        blocks = list(linalg._sample_blocks(30, 64 * 27**2))
        assert blocks == [22, 8]
        block_rng = np.random.default_rng(8)
        single_rng = np.random.default_rng(8)
        for count in blocks:
            stack = random_rank_two_stack([block_rng] * count, 27)
            for value in q_functional_stack(assemble_stack(*stack), dims, -0.3):
                assert value == q_functional(random_rank_two(single_rng, 27).to_matrix(dims), -0.3)

    def test_matches_per_subset_reference(self):
        rng = np.random.default_rng(9)
        for dims in ((2,), (3, 2), (2, 2, 3)):
            side = math.prod(dims)
            raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
            x = ComplexMatrix(raw, dims, dims)
            for beta in (-0.5, 0.3):
                expect = 0.0
                for mask in range(1 << len(dims)):
                    slots = tuple(i for i in range(len(dims)) if mask >> i & 1)
                    traced = partial_trace(x, slots).data
                    expect += beta**mask.bit_count() * float(np.vdot(traced, traced).real)
                assert q_functional(x, beta) == pytest.approx(expect, rel=1e-13)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            q_functional_stack(np.zeros((4, 4)), (2, 2), -0.5)
        with pytest.raises(ShapeError):
            q_functional_stack(np.zeros((1, 4, 4)), (2,), -0.5)
        with pytest.raises(DimensionLimitError):
            q_functional_stack(np.ones((1, 1, 1)), (1,) * 13, -0.5)


class TestRandomRankTwoStack:
    @pytest.mark.parametrize("dim", [4, 9, 27])
    def test_block_reproduces_successive_draws_bitwise(self, dim):
        block_rng, single_rng, reference_rng = (np.random.default_rng(21) for _ in range(3))
        stack = random_rank_two_stack([block_rng] * 12, dim)
        matrices = assemble_stack(*stack)
        for row in range(12):
            s1, s2, qu, qv = reference_haar_frames(reference_rng, dim)
            expect = s1 * np.outer(qu[:, 0], qv[:, 0].conj()) + s2 * np.outer(qu[:, 1], qv[:, 1].conj())
            for rt in (random_rank_two(single_rng, dim), RankTwoFactors.from_stack(*stack, row)):
                assert (rt.sigma1, rt.sigma2) == (s1, s2)
                assert np.array_equal(np.stack([rt.u1, rt.u2], axis=-1), qu)
                assert np.array_equal(np.stack([rt.v1, rt.v2], axis=-1), qv)
                assert np.array_equal(rt.assemble(), expect)
            assert np.array_equal(matrices[row], expect)
        assert block_rng.random() == single_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("dim", [4, 9])
    def test_frames_take_both_signs(self, dim):
        # Haar frames are invariant under a phase on each column, so the real
        # part of a leading entry is as often negative as positive.  QR
        # without the phase correction makes it negative every time.
        rng = np.random.default_rng(dim)
        draws = [random_rank_two(rng, dim) for _ in range(400)]
        for name in ("u1", "v1"):
            lead = np.array([getattr(rt, name)[0].real for rt in draws])
            assert np.any(lead > 0) and np.any(lead < 0)


class TestRankTwoDraw:
    @staticmethod
    def _per_call_draw(rngs, side):
        """The draw made call by call: an angle, then U.re, U.im, V.re, V.im
        as four ``(side, 2)`` Gaussian calls; sigma is the angles' (cos, sin)
        and one stacked ``_qf`` makes the frames."""
        theta = np.empty(len(rngs))
        raw = np.empty((len(rngs), 2, side, 2), dtype=np.complex128)
        for r, rng in enumerate(rngs):
            theta[r] = rng.uniform(0.0, math.pi / 2.0)
            for frame in (0, 1):
                re = rng.standard_normal((side, 2))
                raw[r, frame] = re + 1j * rng.standard_normal((side, 2))
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1), _qf(raw)

    @pytest.mark.parametrize("side", [4, 27, 64])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    def test_equals_the_per_call_draw_bitwise(self, side, shared):
        def generators():
            if shared:
                return [np.random.default_rng(31)] * 5
            return [np.random.default_rng(_child_seed(31, r)) for r in range(5)]

        drawn, expect = generators(), generators()
        sigma, frames = _rank_two_draw(drawn, side)
        sigma_ref, frames_ref = self._per_call_draw(expect, side)
        assert sigma.shape == (5, 2)
        assert sigma.tobytes() == sigma_ref.tobytes()
        assert frames.shape == (5, 2, side, 2)
        assert frames.tobytes() == frames_ref.tobytes()
        # each generator is left where the per-call draw leaves it
        assert [g.random() for g in drawn] == [g.random() for g in expect]


class TestPqrStack:
    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_match_pqr_bitwise(self, d):
        sigma, frames = random_rank_two_stack([np.random.default_rng(d)] * 25, d * d)
        p, q, r = pqr_stack(frames, d)
        for row in range(25):
            assert (p[row], q[row], r[row]) == pqr(RankTwoFactors.from_stack(sigma, frames, row), d)

    def test_length_must_reshape(self):
        _, frames = random_rank_two_stack([np.random.default_rng(0)] * 2, 9)
        with pytest.raises(ShapeError):
            pqr_stack(frames, 2)


class TestFBilinear:
    def test_definitional_identity(self):
        rng = np.random.default_rng(3)
        for dims in ((2, 2), (3,), (2, 3, 2)):
            side = math.prod(dims)
            for _ in range(20):
                raw = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
                x = unit_matrix(raw, dims)
                for beta in (-0.5, 0.3):
                    assert f_bilinear(x, x, beta) == q_functional(x, beta)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        x = unit_matrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (2, 2))
        y = unit_matrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (2, 2))
        assert f_bilinear(x, y, -0.5) == pytest.approx(np.conj(f_bilinear(y, x, -0.5)))

    def test_orthogonal_units_vanish_at_beta_zero(self):
        e00 = np.zeros((4, 4), dtype=complex)
        e00[0, 0] = 1.0
        e23 = np.zeros((4, 4), dtype=complex)
        e23[2, 3] = 1.0
        x = ComplexMatrix(e00, (4,), (4,))
        y = ComplexMatrix(e23, (4,), (4,))
        assert f_bilinear(x, y, 0.0) == 0.0

    def test_sesquilinear_in_first_argument(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = unit_matrix(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), (2, 2))
        alpha = 0.8 - 1.3j
        x = ComplexMatrix(raw, (2, 2), (2, 2))
        ax = ComplexMatrix(alpha * raw, (2, 2), (2, 2))
        assert f_bilinear(ax, y, -0.5) == pytest.approx(np.conj(alpha) * f_bilinear(x, y, -0.5))

    def test_dims_mismatch(self):
        x = ComplexMatrix(np.eye(4), (2, 2), (2, 2))
        y = ComplexMatrix(np.eye(4), (4,), (4,))
        with pytest.raises(ShapeError):
            f_bilinear(x, y, -0.5)


class TestPqr:
    def test_quadratic_form_identity_on_random_points(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(25):
                rt = random_rank_two(rng, d * d)
                p, q, r = pqr(rt, d)
                xm = rt.to_matrix((d, d))
                t1 = partial_trace(xm, [0]).data
                t2 = partial_trace(xm, [1]).data
                tr = np.trace(xm.data)
                rhs = np.vdot(t1, t1).real + np.vdot(t2, t2).real - abs(tr) ** 2 / 2
                lhs = rt.sigma1**2 * p + rt.sigma2**2 * q + rt.sigma1 * rt.sigma2 * r
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_equal_factor_rank_one_case(self):
        # sigma2 = 0 and U1 == V1 reduces P to the stated trace combination
        d = 2
        rng = np.random.default_rng(7)
        herm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        herm = herm + herm.conj().T
        u1 = herm.reshape(-1) / np.linalg.norm(herm)
        u2 = np.zeros(d * d, dtype=complex)
        idx = int(np.argmin(np.abs(u1)))
        u2[idx] = 1.0
        u2 -= np.vdot(u1, u2) * u1
        u2 /= np.linalg.norm(u2)
        rt = RankTwoFactors(1.0, 0.0, u1, u1, u2, u2)
        p, _, _ = pqr(rt, d)
        um = u1.reshape(d, d)
        expect = 2 * np.trace((um.conj().T @ um) @ (um.conj().T @ um)).real - abs(np.trace(um @ um.conj().T)) ** 2 / 2
        assert p == pytest.approx(expect, abs=1e-12)

    def test_cross_term_vanishes_for_disjoint_traceless_supports(self):
        d = 2
        e = np.eye(d, dtype=complex)
        u1 = np.outer(e[0], e[0]).reshape(-1)  # E00
        v1 = np.outer(e[1], e[1]).reshape(-1)  # E11
        u2 = np.outer(e[0], e[1]).reshape(-1)  # E01
        v2 = np.outer(e[1], e[0]).reshape(-1)  # E10
        rt = RankTwoFactors(1 / math.sqrt(2), 1 / math.sqrt(2), u1, v1, u2, v2)
        _, _, r = pqr(rt, d)
        assert r == pytest.approx(0.0, abs=1e-14)

    def test_vector_length_must_match(self):
        rng = np.random.default_rng(8)
        rt = random_rank_two(rng, 9)
        with pytest.raises(ShapeError):
            pqr(rt, 2)


class TestCheckRankTwoInequality:
    def test_normal_plus_rank_one_special_case(self):
        # the proved configuration: equal normal first factors
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = 3
            herm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            herm = herm + herm.conj().T
            u1 = herm.reshape(-1) / np.linalg.norm(herm)
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            a -= (np.vdot(herm.reshape(d, d) @ b, a) / np.vdot(herm.reshape(d, d) @ b, herm.reshape(d, d) @ b)) * (
                herm.reshape(d, d) @ b
            )
            u2 = np.outer(a, b.conj()).reshape(-1)
            u2 -= np.vdot(u1, u2) * u1  # keep the frame exactly orthogonal
            u2 /= np.linalg.norm(u2)
            rt = RankTwoFactors(1 / math.sqrt(2), 1 / math.sqrt(2), u1, u1, u2, u2)
            holds, slack = check_rank2_inequality(rt, d)
            assert holds and slack <= 1e-9

    def test_random_sampling_finds_no_violation(self):
        rows, findings = rank2_slack_sampling(3, 300, seed=11)
        assert len(rows) == 300
        assert max(r.slack for r in rows) <= 1e-9
        assert findings == []

    def test_finding_path_writes_parseable_bundles(self, tmp_path, monkeypatch):
        # force every sample to count as a finding to exercise the machinery
        monkeypatch.setattr(verify, "SLACK_FINDING_THRESHOLD", -np.inf)
        rows, findings = rank2_slack_sampling(2, 3, seed=12, bundle_dir=tmp_path)
        assert len(findings) == 3
        bundle = read_bundle(findings[0])
        assert bundle.kind == "rank2-slack-finding"
        assert bundle.params["d"] == 2
        assert set(bundle.vectors) == {"u1", "v1", "u2", "v2"}
        assert bundle.params["slack"] == pytest.approx(rows[0].slack, abs=0.0)

    def test_rows_do_not_depend_on_block_size(self, monkeypatch):
        assert list(linalg._sample_blocks(500, 64 * 9**2)) == [202, 202, 96]
        default = [(r.point_id, r.seed, r.slack) for r in rank2_slack_sampling(3, 500, seed=14)[0]]
        monkeypatch.setattr(linalg, "LIFT_BLOCK_BYTES", 1)
        single = [(r.point_id, r.seed, r.slack) for r in rank2_slack_sampling(3, 500, seed=14)[0]]
        assert single == default

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_match_the_single_point_route(self, d):
        rows, _ = rank2_slack_sampling(d, 300, seed=15)
        for idx, row in enumerate(rows):
            child = _child_seed(15, idx)
            rt = random_rank_two(np.random.default_rng(child), d * d)
            assert (row.point_id, row.seed) == (idx, child)
            assert row.slack == _discriminant_slack(*pqr(rt, d))
            assert row.slack == pytest.approx(check_rank2_inequality(rt, d)[1], rel=1e-12)

    def test_vector_length_must_match(self):
        rt = random_rank_two(np.random.default_rng(8), 9)
        with pytest.raises(ShapeError):
            check_rank2_inequality(rt, 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_forms_are_the_real_polarized_forms_bitwise(self, d):
        rng = np.random.default_rng(16)
        dims = (d, d)
        for _ in range(50):
            rt = random_rank_two(rng, d * d)
            x1 = ComplexMatrix(np.outer(rt.u1, rt.v1.conj()), dims, dims)
            x2 = ComplexMatrix(np.outer(rt.u2, rt.v2.conj()), dims, dims)
            expect = tuple(f_bilinear(a, b, -0.5).real for a, b in ((x1, x1), (x2, x2), (x1, x2)))
            assert _pair_forms(rt, d) == expect

    def test_polarized_slack_matches_the_trace_formulas(self):
        # at -1/2 the polarized route and the explicit trace formulas meet
        rng = np.random.default_rng(13)
        for _ in range(400):
            rt = random_rank_two(rng, 9)
            _, slack = check_rank2_inequality(rt, 3)
            assert slack == pytest.approx(_discriminant_slack(*pqr(rt, 3)), rel=1e-12)


class TestSandwichEvaluator:
    def test_max_entangled_single_copy(self):
        psi = MultipartiteState(max_entangled_state(3), (3, 3))
        val = sandwich_evaluator(psi, WernerParams(3, -0.5), 1)
        assert val == pytest.approx(-1.0 / 15.0, abs=1e-12)

    def test_beta_zero_gives_uniform_value(self):
        rng = np.random.default_rng(14)
        d, n = 2, 2
        rt = random_rank_two(rng, d**n)
        psi = MultipartiteState(rt.assemble().reshape(-1), (d,) * (2 * n))
        val = sandwich_evaluator(psi, WernerParams(d, 0.0), n)
        assert val == pytest.approx((1.0 / d**2) ** n, abs=1e-12)

    def test_matches_subset_sum_on_random_rank_two(self):
        rng = np.random.default_rng(15)
        n = 2
        for d in (2, 3):
            for beta in (-0.5, -0.25, 0.3):
                params = WernerParams(d, beta)
                for _ in range(20):
                    rt = random_rank_two(rng, d**n)
                    xm = rt.to_matrix((d,) * n)
                    psi = MultipartiteState(xm.data.reshape(-1), (d,) * (2 * n))
                    sval = sandwich_evaluator(psi, params, n)
                    assert sval * params.normalization**n == pytest.approx(
                        q_functional(xm, beta), abs=1e-10
                    )

    def test_dims_validation(self):
        psi = MultipartiteState(max_entangled_state(2), (2, 2))
        with pytest.raises(ShapeError):
            sandwich_evaluator(psi, WernerParams(3, -0.5), 1)

    def test_dimension_cap(self):
        # nine copies of d = 2 need an operator of side 2^18, past DEFAULT_DIM_CAP
        amplitudes = np.zeros(2**18)
        amplitudes[0] = 1.0
        psi = MultipartiteState(amplitudes, (2,) * 18)
        with pytest.raises(DimensionLimitError):
            sandwich_evaluator(psi, WernerParams(2, -0.5), 9)


class TestMnPermutation:
    def test_two_copies_is_middle_exchange(self):
        assert m_n_permutation(2) == (0, 2, 1, 3)

    def test_three_copies(self):
        assert m_n_permutation(3) == (0, 3, 1, 4, 2, 5)

    def test_rejects_zero_copies(self):
        with pytest.raises(ShapeError):
            m_n_permutation(0)
