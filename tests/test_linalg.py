import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distill_lab.errors import DimensionLimitError, ShapeError
from distill_lab.linalg import (
    ComplexMatrix,
    MultipartiteState,
    SubsystemPermutation,
    _complex_normal,
    kron,
    partial_trace,
    partial_transpose,
    permutation_matrix,
    permute_subsystems,
)
from distill_lab.states import WernerParams, ge_operator, swap_operator, werner_partial_transpose


def random_matrix(rng, dims):
    size = int(np.prod(dims))
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return ComplexMatrix(raw, dims, dims)


class TestComplexMatrix:
    def test_dims_must_multiply_to_shape(self):
        with pytest.raises(ShapeError):
            ComplexMatrix(np.eye(4), (2, 3), (2, 2))
        with pytest.raises(ShapeError):
            ComplexMatrix(np.eye(4), (2, 2), (5,))

    def test_rejects_non_matrix_array(self):
        with pytest.raises(ShapeError, match="2-D"):
            ComplexMatrix(np.ones(4), (2, 2), (1,))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ShapeError):
            ComplexMatrix(np.eye(1), (0,), (1,))

    def test_data_is_frozen(self):
        m = ComplexMatrix(np.eye(2), (2,), (2,))
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    def test_copies_the_callers_array(self):
        raw = np.eye(2, dtype=np.complex128)
        m = ComplexMatrix(raw, (2,), (2,))
        raw[0, 1] = 7.0
        assert raw.flags.writeable
        assert np.array_equal(m.data, np.eye(2))

    def test_identity_constructor(self):
        m = ComplexMatrix.identity((2, 3))
        assert m.rows == 6 and m.row_dims == (2, 3)
        assert np.array_equal(m.data, np.eye(6))


class TestMultipartiteState:
    def test_requires_normalization(self):
        with pytest.raises(ShapeError):
            MultipartiteState(np.array([1.0, 1.0]), (2,))

    def test_requires_matching_dims(self):
        with pytest.raises(ShapeError):
            MultipartiteState(np.array([1.0, 0.0]), (3,))

    def test_rejects_a_nan_amplitude(self):
        with pytest.raises(ShapeError, match="normalized"):
            MultipartiteState(np.array([1.0, np.nan]), (2,))


_OPERATIONS = {
    "kron": lambda m: kron(m, m),
    "permute_subsystems": lambda m: permute_subsystems(m, SubsystemPermutation((1, 0), (2, 3))),
    # an identity relabel shares the input's read-only buffer
    "permute_subsystems-identity": lambda m: permute_subsystems(m, SubsystemPermutation((0, 1), (2, 3))),
    "partial_trace": lambda m: partial_trace(m, [1]),
    "partial_transpose": lambda m: partial_transpose(m, 0),
}


@pytest.mark.parametrize("name", sorted(_OPERATIONS))
def test_operation_results_are_read_only(name):
    # the operations take over the array they build instead of copying it
    out = _OPERATIONS[name](random_matrix(np.random.default_rng(11), (2, 3)))
    assert not out.data.flags.writeable
    with pytest.raises(ValueError):
        out.data[0, 0] = 5.0


class TestKron:
    def test_identity_case(self):
        out = kron(ComplexMatrix.identity((2,)), ComplexMatrix.identity((2,)))
        assert np.array_equal(out.data, np.eye(4))
        assert out.row_dims == (2, 2)

    def test_diagonal_product(self):
        a = ComplexMatrix(np.diag([1.0, 2.0]), (2,), (2,))
        b = ComplexMatrix(np.diag([3.0, 4.0]), (2,), (2,))
        assert np.array_equal(kron(a, b).data, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_swap_kron_against_index_loop(self):
        # entrywise quadruple loop over all 16x16 index tuples
        f = swap_operator(2)
        out = kron(f, f)
        expect = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                for p in range(4):
                    for q in range(4):
                        expect[i * 4 + p, j * 4 + q] = f.data[i, j] * f.data[p, q]
        assert np.array_equal(out.data, expect)
        assert out.row_dims == (2, 2, 2, 2)

    def test_dimension_cap(self):
        # 257 x 256 rows is just past DEFAULT_DIM_CAP = 2^16; the check runs first
        with pytest.raises(DimensionLimitError):
            kron(ComplexMatrix.identity((257,)), ComplexMatrix.identity((256,)))


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, (2,))
        b = random_matrix(rng, (2,))
        out = partial_trace(kron(a, b), [1])
        assert np.allclose(out.data, a.data * np.trace(b.data))

    def test_identity_with_two_slots(self):
        out = partial_trace(ComplexMatrix.identity((2, 2)), [0])
        assert np.allclose(out.data, 2.0 * np.eye(2))
        assert out.row_dims == (2,)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, (3, 3))
        out = partial_trace(m, [0])
        expect = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            for l in range(3):
                for i in range(3):
                    expect[j, l] += m.data[i * 3 + j, i * 3 + l]
        assert np.max(np.abs(out.data - expect)) < 1e-14

    def test_trace_all_slots_gives_scalar_trace(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, (2, 3))
        out = partial_trace(m, [0, 1])
        assert out.data.shape == (1, 1)
        assert abs(out.data[0, 0] - np.trace(m.data)) < 1e-13

    def test_full_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, (2, 2, 3))
        out = partial_trace(m, [2])
        assert abs(np.trace(out.data) - np.trace(m.data)) < 1e-13

    def test_product_input_factorizes_across_operands(self):
        rng = np.random.default_rng(4)
        a = random_matrix(rng, (2, 3))
        b = random_matrix(rng, (2, 2))
        joint = partial_trace(kron(a, b), [1, 2])
        split = kron(partial_trace(a, [1]), partial_trace(b, [0]))
        assert np.allclose(joint.data, split.data, atol=1e-12)

    def test_rejects_nonsquare_composite(self):
        m = ComplexMatrix(np.ones((4, 4)), (2, 2), (4,))
        with pytest.raises(ShapeError):
            partial_trace(m, [0])

    def test_rejects_bad_slot(self):
        with pytest.raises(ShapeError):
            partial_trace(ComplexMatrix.identity((2, 2)), [2])


class TestPartialTranspose:
    def test_involution_is_exact(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, (2, 3))
        assert np.array_equal(partial_transpose(partial_transpose(m, 0), 0).data, m.data)

    def test_swap_and_entangled_projector_exchange(self):
        for d in (2, 3):
            g = ge_operator(d)
            f = swap_operator(d)
            assert np.array_equal(partial_transpose(g, 0).data, f.data)
            assert np.array_equal(partial_transpose(f, 0).data, g.data)

    def test_product_rule(self):
        rng = np.random.default_rng(6)
        a = random_matrix(rng, (3,))
        b = random_matrix(rng, (2,))
        out = partial_transpose(kron(a, b), 0)
        expect = np.kron(a.data.T, b.data)
        assert np.allclose(out.data, expect, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, (2, 2))
        assert abs(np.trace(partial_transpose(m, 1).data) - np.trace(m.data)) < 1e-13

    def test_rejects_bad_subsystem(self):
        with pytest.raises(ShapeError):
            partial_transpose(ComplexMatrix.identity((2, 2)), 5)

    def test_rejects_nonsquare_composite(self):
        with pytest.raises(ShapeError):
            partial_transpose(ComplexMatrix(np.ones((4, 4)), (2, 2), (4,)), 0)


class TestPermuteSubsystems:
    def test_identity_permutation(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, (2, 3))
        p = SubsystemPermutation((0, 1), (2, 3))
        assert np.array_equal(permute_subsystems(m, p).data, m.data)

    def test_exchange_matches_explicit_matrix(self):
        rng = np.random.default_rng(9)
        rho = werner_partial_transpose(WernerParams(2, -0.3))
        doubled = kron(rho, rho)
        p = SubsystemPermutation((0, 2, 1, 3), (2, 2, 2, 2))
        out = permute_subsystems(doubled, p)
        mat = permutation_matrix(p).data
        assert np.allclose(out.data, mat @ doubled.data @ mat.conj().T, atol=1e-14)

    def test_non_involutive_permutation_against_matrix(self):
        # distinct dims catch axis-order mistakes that involutions hide
        rng = np.random.default_rng(10)
        dims = (2, 3, 4)
        m = random_matrix(rng, dims)
        p = SubsystemPermutation((1, 2, 0), dims)
        out = permute_subsystems(m, p)
        assert out.row_dims == out.col_dims == (4, 2, 3)
        mat = permutation_matrix(p).data
        assert np.allclose(out.data, mat @ m.data @ mat.conj().T, atol=1e-14)

    def test_inverse_composition_roundtrip(self):
        rng = np.random.default_rng(11)
        dims = (2, 2, 3)
        m = random_matrix(rng, dims)
        p = SubsystemPermutation((2, 0, 1), dims)
        out = permute_subsystems(m, p)
        back = permute_subsystems(out, SubsystemPermutation(np.argsort(p.perm), out.row_dims))
        assert back.row_dims == dims
        assert np.array_equal(back.data, m.data)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, (2, 3))
        p = SubsystemPermutation((1, 0), (2, 3))
        out = permute_subsystems(m, p)
        assert np.linalg.norm(out.data) == np.linalg.norm(m.data)

    def test_dims_mismatch(self):
        m = ComplexMatrix.identity((2, 2))
        with pytest.raises(ShapeError):
            permute_subsystems(m, SubsystemPermutation((0, 1), (2, 3)))

    @pytest.mark.parametrize("kind", ["array", "state"])
    def test_rejects_non_matrix(self, kind):
        p = SubsystemPermutation((1, 0), (2, 2))
        obj = np.eye(4)
        if kind == "state":
            obj = MultipartiteState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
        with pytest.raises(TypeError):
            permute_subsystems(obj, p)

    def test_perm_must_be_bijection(self):
        with pytest.raises(ShapeError):
            SubsystemPermutation((0, 0), (2, 2))

    def test_perm_and_dims_lengths_must_match(self):
        with pytest.raises(ShapeError, match="equal length"):
            SubsystemPermutation((1, 0), (2, 2, 2))


@st.composite
def square_composite_matrices(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return ComplexMatrix(raw, dims, dims), draw(st.integers(0, len(dims) - 1))


@settings(max_examples=40, deadline=None)
@given(square_composite_matrices())
def test_partial_trace_preserves_full_trace(case):
    m, slot = case
    out = partial_trace(m, [slot])
    assert abs(np.trace(out.data) - np.trace(m.data)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(square_composite_matrices(), st.integers(0, 2**32 - 1))
def test_random_permutations_preserve_frobenius_norm(case, perm_seed):
    m, _ = case
    perm = tuple(np.random.default_rng(perm_seed).permutation(len(m.row_dims)).tolist())
    p = SubsystemPermutation(perm, m.row_dims)
    out = permute_subsystems(m, p)
    # entries are relabeled, never recomputed: the multiset is preserved exactly
    assert np.array_equal(np.sort(out.data.reshape(-1)), np.sort(m.data.reshape(-1)))
    assert np.linalg.norm(out.data) == pytest.approx(np.linalg.norm(m.data), rel=1e-15)


@pytest.mark.parametrize("shape", [(3,), (5, 2), (4, 3, 2)])
def test_complex_normal_equals_two_successive_calls(shape):
    drawn, expect = np.random.default_rng(41), np.random.default_rng(41)
    values = _complex_normal(drawn, shape)
    re = expect.standard_normal(shape)
    ref = re + 1j * expect.standard_normal(shape)
    assert values.shape == shape
    assert values.tobytes() == ref.tobytes()
    assert drawn.random() == expect.random()
