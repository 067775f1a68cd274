import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthorank import ConfigError, ShapeError
from orthorank.tensor_core import (
    _matmul_cols,
    as_f32,
    as_f64,
    attention_scale,
    matmul,
    rms_norm,
    rope_apply,
    silu,
    softmax_causal,
)

import reference as ref


def rand(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


class TestMatmul:
    def test_identity(self):
        a = rand((5, 5))
        assert np.array_equal(matmul(a, np.eye(5, dtype=np.float32)), a)

    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[0.0], [1.0]], dtype=np.float32)
        assert matmul(a, b).tolist() == [[2.0], [4.0]]

    def test_one_by_one(self):
        out = matmul(np.array([[2.0]]), np.array([[3.0]]))
        assert out.tolist() == [[6.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(rand((2, 3)), rand((4, 2)))
        with pytest.raises(ShapeError):
            matmul(rand((2, 3)), rand((3,), seed=1))

    def test_matches_f64_reference(self):
        a, b = rand((7, 5)), rand((5, 9), seed=1)
        expect = as_f64(a) @ as_f64(b)
        assert np.allclose(matmul(a, b), expect, atol=1e-5)

    def test_deterministic(self):
        a, b = rand((17, 13)), rand((13, 8), seed=2)
        assert np.array_equal(matmul(a, b), matmul(a, b))

    def test_dtype_preserved(self):
        assert matmul(rand((2, 2)), rand((2, 2), seed=1)).dtype == np.float32
        assert matmul(rand((2, 2), dtype=np.float64),
                      rand((2, 2), seed=1, dtype=np.float64)).dtype == np.float64

    def test_row_truncation_stability(self):
        # the causality guarantee rests on this: dropping trailing rows of a
        # must leave the remaining output rows bit-identical
        a, b = rand((33, 12)), rand((12, 7), seed=3)
        full = matmul(a, b)
        for m in (1, 2, 16, 32):
            assert np.array_equal(matmul(a[:m], b), full[:m])

    def test_trailing_zero_columns_exact(self):
        # appending zero columns to a (and zero rows to b) is a no-op bitwise
        a, b = rand((6, 10)), rand((10, 4), seed=4)
        a_pad = np.concatenate([a, np.zeros((6, 5), np.float32)], axis=1)
        b_pad = np.concatenate([b, rand((5, 4), seed=5)], axis=0)
        b_pad[10:] = 0.0
        assert np.array_equal(matmul(a_pad, b_pad), matmul(a, b))

    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=1, max_side=8),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_identity_property(self, a):
        eye = np.eye(a.shape[1], dtype=np.float32)
        assert np.array_equal(matmul(a, eye), a)

    @pytest.mark.parametrize("shape", [(0, 5, 3), (4, 5, 0), (0, 0, 0)])
    def test_empty_product_is_zeros(self, shape):
        m, k, n = shape
        out = matmul(rand((m, k)), rand((k, n), seed=1))
        assert out.shape == (m, n) and out.dtype == np.float32

    def test_zero_inner_dimension(self):
        out = matmul(rand((3, 0)), rand((0, 4), seed=1))
        assert np.array_equal(out, np.zeros((3, 4), np.float32))

    def test_transposed_operands(self):
        # strided and transposed views give the rows of their contiguous copies
        base = rand((40, 3, 300), seed=6)
        a, b = base[:9, 0, :], base[:, 2, :].T
        expect = matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert np.array_equal(matmul(a, b), expect)
        assert np.array_equal(matmul(np.asfortranarray(a), b), expect)

    @given(m=st.integers(1, 129),
           n=st.one_of(st.just(1), st.integers(1, 40).map(lambda v: 2 * v + 1),
                       st.integers(2, 200)),
           k=st.one_of(st.integers(1, 64), st.integers(257, 1100)),
           dtype=st.sampled_from([np.float32, np.float64]),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_shape_invariance_property(self, m, n, k, dtype, data):
        # a row's result depends on nothing but that row, b and the nonzero K
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        full = matmul(a, b)
        assert full.dtype == dtype
        # the float64 product within the summation-order error bound k*eps*(|a| @ |b|)
        bound = k * np.finfo(dtype).eps * (np.abs(as_f64(a)) @ np.abs(as_f64(b)))
        assert np.all(np.abs(full - as_f64(a) @ as_f64(b)) <= bound)
        rows = data.draw(st.integers(1, m), label="rows")
        assert np.array_equal(matmul(a[:rows], b), full[:rows])
        subset = np.sort(rng.choice(m, size=data.draw(st.integers(1, m), label="subset"),
                                    replace=False))
        assert np.array_equal(matmul(a[subset], b), full[subset])
        cols = data.draw(st.integers(1, n), label="cols")
        assert np.array_equal(matmul(a, b[:, :cols]), full[:, :cols])
        zeros = data.draw(st.integers(1, 300), label="zero_k")
        a_pad = np.concatenate([a, np.zeros((m, zeros), dtype)], axis=1)
        b_pad = np.concatenate([b, np.zeros((zeros, n), dtype)], axis=0)
        assert np.array_equal(matmul(a_pad, b_pad), full)


    @given(m=st.integers(1, 129), k=st.one_of(st.integers(1, 64), st.integers(257, 600)),
           n=st.integers(1, 200), spare=st.integers(0, 40), row_gap=st.integers(0, 20),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_column_layout_entry_property(self, m, k, n, spare, row_gap, dtype, data):
        # b already in the kernel's layout, as the KV cache keeps keys: unit
        # column stride, capacity >= n rounded up to 16 columns, any row
        # stride, and anything past column n, NaN and inf included
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        capacity = -(-n // 16) * 16 + spare
        a = rng.standard_normal((m, k)).astype(dtype)
        rows = rng.standard_normal((k, capacity + row_gap)).astype(dtype)
        junk = rng.choice(np.array([np.nan, np.inf, -np.inf, 1e30, 0.0], dtype),
                          size=(k, capacity + row_gap - n))
        rows[:, n:] = np.where(rng.random(junk.shape) < 0.5, junk, rows[:, n:])
        b = rows[:, :capacity]
        with np.errstate(invalid="ignore", over="ignore"):  # the junk columns' own products
            got = _matmul_cols(a, b, n)
        assert got.flags.c_contiguous and got.dtype == dtype
        assert np.array_equal(got, matmul(a, b[:, :n]))


class TestRmsNorm:
    def test_constant_vector(self):
        x = np.full((3, 8), 2.0, dtype=np.float32)
        out = rms_norm(x, np.ones(8, dtype=np.float32), 1e-5)
        assert np.allclose(out, 1.0, atol=1e-5)

    def test_zero_gain(self):
        out = rms_norm(rand((4, 8)), np.zeros(8, dtype=np.float32))
        assert np.array_equal(out, np.zeros((4, 8), dtype=np.float32))

    def test_scalar_reference(self):
        x = rand((5, 16))
        gain = rand(16, seed=1) + 2.0
        got = rms_norm(x, gain, 1e-5)
        expect = ref.ref_rms_norm(x.tolist(), gain.tolist(), 1e-5)
        assert np.allclose(got, expect, atol=1e-6)

    def test_unit_rms_before_gain(self):
        x = rand((50, 32)) * 10.0
        out = rms_norm(x, np.ones(32, dtype=np.float32), 1e-5)
        rms = np.sqrt(np.mean(np.square(as_f64(out)), axis=1))
        assert np.allclose(rms, 1.0, atol=1e-5)

    def test_single_vector_input(self):
        x = rand(8)
        out = rms_norm(x, np.ones(8, dtype=np.float32))
        assert out.shape == (8,)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            rms_norm(rand((2, 4)), np.ones(4, dtype=np.float32), 0.0)

    def test_gain_length_mismatch(self):
        with pytest.raises(ShapeError):
            rms_norm(rand((2, 4)), np.ones(5, dtype=np.float32))


class TestSoftmaxCausal:
    def test_symmetric_pair(self):
        out = softmax_causal(np.zeros((1, 2), np.float32), [1])
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_fully_masked_except_one(self):
        out = softmax_causal(rand((1, 6)), [0])
        assert out[0, 0] == 1.0
        assert np.array_equal(out[0, 1:], np.zeros(5, np.float32))

    def test_scalar_reference(self):
        scores = rand((4, 4), seed=2)
        out = softmax_causal(scores, np.arange(4))
        for r in range(4):
            expect = ref.ref_softmax(scores[r, :r + 1].tolist())
            assert np.allclose(out[r, :r + 1], expect, atol=1e-6)

    def test_rows_sum_to_one_masked_zero(self):
        scores = rand((8, 8), seed=3) * 5
        out = softmax_causal(scores, np.arange(8))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out[np.triu_indices(8, k=1)] == 0.0)

    def test_key_positions_subsequence(self):
        # keys at absolute positions [0, 2, 5]; a query at position 4 may
        # only see the first two
        scores = np.zeros((1, 3), np.float32)
        out = softmax_causal(scores, [4], key_positions=[0, 2, 5])
        assert out[0, 2] == 0.0
        assert np.allclose(out[0, :2], 0.5, atol=1e-7)

    def test_row_length_stability(self):
        # appending masked columns must not change earlier columns bitwise
        scores = rand((5, 9), seed=4)
        short = softmax_causal(scores[:, :5], np.arange(5))
        long = softmax_causal(scores, np.arange(5))
        assert np.array_equal(long[:, :5], short)
        assert np.all(long[:, 5:] == 0.0)
        row = rand((1, 664), seed=5) * 4
        for length in range(1, 601):
            short = softmax_causal(row[:, :length], [length - 1])
            for extra in (1, 5, 64):
                long = softmax_causal(row[:, :length + extra], [length - 1])
                assert np.array_equal(long[:, :length], short), (length, extra)
                assert np.all(long[:, length:] == 0.0)

    def test_negative_position_rejected(self):
        with pytest.raises(ShapeError):
            softmax_causal(np.zeros((1, 1), np.float32), [-1])

    @pytest.mark.parametrize("n_keys", [0, 3])
    def test_empty_query_batch(self, n_keys):
        out = softmax_causal(np.zeros((0, n_keys), np.float32), [],
                             key_positions=np.arange(n_keys))
        assert out.shape == (0, n_keys)


def whole_matrix_softmax(scores, q_pos, k_pos):
    """The causal softmax with its mask built over every column at once."""
    masked = np.where(k_pos[None, :] <= q_pos[:, None], scores, -np.inf)
    exp = np.exp(masked - np.max(masked, axis=1, keepdims=True, initial=-np.inf))
    return exp / matmul(exp, np.ones((exp.shape[1], 1), exp.dtype))


class TestSoftmaxMaskEquivalence:
    @given(st.data(), st.sampled_from([np.float32, np.float64]), st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_equals_whole_matrix_mask(self, data, dtype, stack):
        # key positions: an ascending subset of the context (selective KV);
        # query positions: ascending, not contiguous, at or after the first
        # key, possibly on it (the only allowed key is the row's own), and
        # tiled as the GQA-stacked heads pass them
        k_pos = np.array(sorted(data.draw(st.sets(st.integers(0, 400), min_size=1,
                                                  max_size=300))), dtype=np.int64)
        q_set = data.draw(st.sets(st.integers(int(k_pos[0]), int(k_pos[-1]) + 3), max_size=40))
        q_pos = np.tile(np.array(sorted(q_set), dtype=np.int64), stack)
        seed = data.draw(st.integers(0, 2**31))
        scores = rand((q_pos.size, k_pos.size), seed=seed, dtype=dtype) * 8
        out = softmax_causal(scores, q_pos, key_positions=k_pos)
        assert out.dtype == scores.dtype
        assert np.array_equal(out, whole_matrix_softmax(scores, q_pos, k_pos))

    def test_own_key_only(self):
        k_pos = np.array([3, 9, 10, 40])
        scores = rand((2, 4), seed=6)
        out = softmax_causal(scores, [3, 3], key_positions=k_pos)
        assert out.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 2

    @pytest.mark.parametrize("n_keys", [0, 5])
    def test_empty_row_batch_equals_whole_matrix_mask(self, n_keys):
        k_pos = np.arange(n_keys, dtype=np.int64)
        scores = np.zeros((0, n_keys), np.float32)
        out = softmax_causal(scores, np.zeros(0, np.int64), key_positions=k_pos)
        assert np.array_equal(out, whole_matrix_softmax(scores, np.zeros(0, np.int64), k_pos))

    def test_input_not_modified(self):
        scores = rand((3, 6), seed=7)
        before = scores.copy()
        softmax_causal(scores, [0, 2, 4])
        assert np.array_equal(scores, before)


class TestRopeApply:
    def test_position_zero_identity(self):
        x = rand((1, 2, 8))
        assert np.array_equal(rope_apply(x, [0], 10000.0), x)

    def test_norm_preserved(self):
        x = rand((6, 3, 8), seed=1)
        out = rope_apply(x, np.arange(6), 10000.0)
        assert np.allclose(np.linalg.norm(out, axis=-1),
                           np.linalg.norm(x, axis=-1), atol=1e-6)

    def test_exact_one_radian(self):
        # d_head=2 at position 1: the single pair rotates by exactly 1 radian
        x = np.array([[[1.0, 0.0]]], dtype=np.float32)
        out = rope_apply(x, [1], 10000.0)
        assert np.allclose(out[0, 0], [math.cos(1.0), math.sin(1.0)], atol=1e-7)

    def test_scalar_reference(self):
        x = rand((4, 2, 8), seed=2)
        out = rope_apply(x, np.arange(4), 10000.0)
        for t in range(4):
            for h in range(2):
                expect = ref._rope_row(x[t, h].tolist(), t, 10000.0)
                assert np.allclose(out[t, h], expect, atol=1e-6)

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError):
            rope_apply(rand((1, 1, 3)), [0], 10000.0)

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            rope_apply(rand((2, 4)), [0, 1], 10000.0)


class TestSilu:
    def test_matches_sigmoid_form(self):
        x = np.linspace(-20, 20, 101).astype(np.float32)
        expect = [ref.ref_silu(float(v)) for v in x]
        assert np.allclose(silu(x), expect, atol=1e-6)

    def test_finite_for_large_inputs(self):
        x = np.array([-1e4, 1e4], dtype=np.float32)
        assert np.all(np.isfinite(silu(x)))


def test_attention_scale():
    assert attention_scale(64) == 0.125
    assert attention_scale(16) == 0.25


def test_casts():
    x = [[1.0, 2.0]]
    assert as_f32(x).dtype == np.float32
    assert as_f64(x).dtype == np.float64
