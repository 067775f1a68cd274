import inspect
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthorank import ShapeError
from orthorank import tensor_core
from orthorank.tensor_core import (
    _matmul_cols,
    _rms_norm,
    _rope_apply,
    _rope_rows,
    _softmax_in_place,
    matmul,
    silu,
)

import reference as ref
from helpers import (mean_rms_norm, peak_bytes, per_call_rope, rope_angles,
                     whole_matrix_softmax)


def rand(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


def softmax(scores, q_pos, k_pos=None):
    """``_softmax_in_place`` on a copy of ``scores``; keys sit at 0..keys-1 by default."""
    k_pos = np.arange(scores.shape[-1]) if k_pos is None else k_pos
    return _softmax_in_place(scores.copy(), np.asarray(q_pos, np.int64),
                             np.asarray(k_pos, np.int64))


def rope(x, positions, theta_base=10000.0):
    """``_rope_apply`` of (T, heads, d_head) ``x`` with the ``_rope_rows`` of its positions."""
    pos = np.asarray(positions, dtype=np.intp)
    return _rope_apply(x, *_rope_rows(pos, theta_base, x.shape[-1], x.dtype))


def test_public_functions_pinned():
    # the layer loop calls private kernels that trust their arguments; a
    # public checked twin of one would be a second form of the same kernel
    public = {name for name, value in vars(tensor_core).items()
              if not name.startswith("_") and inspect.isfunction(value)
              and value.__module__ == tensor_core.__name__}
    assert public == {"matmul", "silu"}


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
        expect = f64(a) @ f64(b)
        assert np.allclose(matmul(a, b), expect, atol=1e-5)

    def test_deterministic(self):
        a, b = rand((17, 13)), rand((13, 8), seed=2)
        assert np.array_equal(matmul(a, b), matmul(a, b))

    def test_dtype_preserved(self):
        assert matmul(rand((2, 2)), rand((2, 2), seed=1)).dtype == np.float32
        assert matmul(rand((2, 2), dtype=np.float64),
                      rand((2, 2), seed=1, dtype=np.float64)).dtype == np.float64

    def test_mixed_dtypes_promote(self):
        # float32 x float64 runs in float64, as the float64 copy of the
        # float32 operand would
        a, cols = rand((9, 300)), rand((300, 32), seed=1, dtype=np.float64)
        b = cols[:, :20]
        for got, expect in ((matmul(a, b), matmul(f64(a), b)),
                            (matmul(b.T, a.T), matmul(b.T, f64(a.T))),
                            (_matmul_cols(a, cols, 20), matmul(f64(a), b))):
            assert got.dtype == np.float64 and np.array_equal(got, expect)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_k_chunks_added_in_order(self, lead):
        # k > 2 chunks: the first chunk's product, then each later chunk's
        # product added in order, over a's own rows
        m, k, n = 5, 2 * tensor_core._K_CHUNK + 40, 32
        a, b = rand((*lead, m, k)), rand((*lead, k, n), seed=1)
        chunk = tensor_core._K_CHUNK
        expect = np.matmul(a[..., :chunk], b[..., :chunk, :])
        for c in range(chunk, k, chunk):
            expect = expect + np.matmul(a[..., c:c + chunk], b[..., c:c + chunk, :])
        assert np.array_equal(_matmul_cols(a, b, n), expect)

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
        bound = k * np.finfo(dtype).eps * (np.abs(f64(a)) @ np.abs(f64(b)))
        assert np.all(np.abs(full - f64(a) @ f64(b)) <= bound)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [48, 64, 1024])
    @pytest.mark.parametrize("k", [256, 700, 1024])
    @pytest.mark.parametrize("m", [700, 1024, 1100, 2000])
    def test_row_invariance_at_prompt_sizes(self, m, k, n, dtype):
        # one BLAS call takes all rows of a K chunk, so BLAS partitions them
        # among its threads itself; its split must not reach any row's value
        rng = np.random.default_rng(m * 7 + k * 3 + n)
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        full = matmul(a, b)
        for r in (0, 1, m // 2, m - 1):
            assert np.array_equal(matmul(a[r:r + 1], b), full[r:r + 1]), r
        for rows in (9, m // 2 + 3, m - 1):
            assert np.array_equal(matmul(a[:rows], b), full[:rows]), rows
        subset = np.sort(rng.choice(m, size=m // 3, replace=False))
        assert np.array_equal(matmul(a[subset], b), full[subset])
        a_pad = np.concatenate([a, np.zeros((m, 300), dtype)], axis=1)
        b_pad = np.concatenate([b, np.zeros((300, n), dtype)], axis=0)
        assert np.array_equal(matmul(a_pad, b_pad), full)


class TestStackedMatmul:
    """The kernel over stacked operands: each matrix is its own 2-D product."""

    @given(lead=st.lists(st.integers(1, 3), max_size=2),
           m=st.one_of(st.integers(1, 70), st.integers(250, 320)),
           k=st.one_of(st.integers(1, 48), st.integers(257, 600)), n=st.integers(1, 50),
           dtype=st.sampled_from([np.float32, np.float64]), transposed=st.booleans(),
           layout=st.sampled_from(["any", "columns"]), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_each_matrix_equals_its_2d_product(self, lead, m, k, n, dtype, transposed,
                                               layout, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lead = tuple(lead)
        if transposed:  # rows of one matrix interleave with the others', as q.transpose(1, 0, 2)
            a = np.moveaxis(rng.standard_normal((m, *lead, k)).astype(dtype), 0, -2)
        else:
            a = rng.standard_normal((*lead, m, k)).astype(dtype)
        # b broadcasts: each leading axis is its own or 1, or b is one 2-D matrix
        b_lead = tuple(s if data.draw(st.booleans(), label="own axis") else 1 for s in lead)
        if data.draw(st.booleans(), label="2-D b"):
            b_lead = ()
        b = rng.standard_normal((*b_lead, k, n)).astype(dtype)
        if layout == "any":
            got = _matmul_cols(a, b, n)
        else:  # the KV arena's layout: spare columns of junk past n
            capacity = -(-n // 16) * 16 + data.draw(st.integers(0, 20), label="spare")
            cols = np.full((*b_lead, k, capacity), np.nan, dtype)
            cols[..., :n] = b
            with np.errstate(invalid="ignore"):
                got = _matmul_cols(a, cols, n)
        assert got.shape == (*lead, m, n) and got.dtype == dtype and got.flags.c_contiguous
        for idx in np.ndindex(*lead):
            b_idx = tuple(i if s > 1 else 0 for i, s in zip(idx[len(idx) - len(b_lead):], b_lead))
            assert np.array_equal(got[idx], matmul(np.ascontiguousarray(a[idx]), b[b_idx])), idx

    @pytest.mark.parametrize("shape", [(2, 0, 5, 3), (2, 4, 5, 0)])
    def test_empty_stack_is_zeros(self, shape):
        lead, m, k, n = shape[:1], *shape[1:]
        # the stack sits on a, then on b: the result has the broadcast stack
        for a_lead, b_lead in ((lead, ()), ((), lead)):
            out = _matmul_cols(rand((*a_lead, m, k)), rand((*b_lead, k, n), seed=1), n)
            assert out.shape == (*lead, m, n) and not out.any()


# The benchmark model's products: a's leading axes, the inner dimension, b's
# shape (or the row-sum ones table) and n. The weights are 2-D; the decode
# fold's score and context products stack its 2 KV heads over 1,030 keys (the
# score reads a key arena of 1,040 columns), and its row sums take both
# heads' folded rows as one matrix.
BENCHMARK_PRODUCTS = {
    "k_v": ((), 256, (256, 64), 64),
    "q_o": ((), 256, (256, 256), 256),
    "gate_up": ((), 256, (256, 1024), 1024),
    "down": ((), 1024, (1024, 256), 256),
    "head": ((), 256, (256, 512), 512),
    "score": ((2, 1), 32, (2, 1, 32, 1040), 1030),
    "context": ((2, 1), 1030, (2, 1, 1030, 32), 32),
    "row_sum": ((), 1030, None, 1),
}
ROW_COUNTS = [*range(1, 18), 85, 341]


class TestRowCounts:
    """Each row of any row count equals that row inside a 64-row product."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("product", sorted(BENCHMARK_PRODUCTS))
    def test_rows_equal_their_64_row_product(self, product, dtype, monkeypatch):
        lead, k, b_shape, n = BENCHMARK_PRODUCTS[product]
        rng = np.random.default_rng(0)
        a = rng.standard_normal((*lead, 384, k)).astype(dtype)
        if b_shape is None:
            b = tensor_core._ones_rows(k, np.dtype(dtype))
        else:
            b = rng.standard_normal(b_shape).astype(dtype)
        want = np.concatenate([_matmul_cols(a[..., r:r + 64, :], b, n)
                               for r in range(0, 384, 64)], axis=-2)
        real, rows = np.matmul, []

        def spy(x, y, **kwargs):
            rows.append(x.shape[-2])
            return real(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for m in ROW_COUNTS:
            rows.clear()
            got = _matmul_cols(np.ascontiguousarray(a[..., :m, :]), b, n)
            assert np.array_equal(got, want[..., :m, :]), m
            # BLAS gets a one-row a as two rows and any other a as it is
            assert rows and set(rows) == {max(m, 2)}, (m, rows)


def _kernel_shapes():
    """50 seeded (m, k, n) shapes plus fixed cases: 1 x 1 x 1, whole row, column
    and K blocks, one past each, and a transposed b that BLAS rounds differently."""
    rng = np.random.default_rng(0)
    shapes = [(int(rng.integers(1, 130)), int(rng.integers(1, 600)), int(rng.integers(1, 80)))
              for _ in range(50)]
    return shapes + [(1, 1, 1), (8, 256, 32), (9, 257, 33), (66, 345, 16)]


class TestKernelLayout:
    """``_matmul_cols`` reads a ``b`` in its column layout in place and copies any other."""

    @staticmethod
    def operand(kind, k, n, rng):
        if kind == "transposed":
            return rng.standard_normal((n, k)).astype(np.float32).T
        if kind == "contiguous":
            return rng.standard_normal((k, n)).astype(np.float32)
        if kind == "float64":
            return rng.standard_normal((k, n))
        cols = np.full((k, -(-n // 16) * 16 + 16), np.nan, np.float32)  # the KV arena's keys
        cols[:, :n] = rng.standard_normal((k, n))
        return cols

    @pytest.mark.parametrize("kind", ["transposed", "contiguous", "float64", "arena"])
    def test_equals_the_product_with_a_contiguous_b(self, kind, monkeypatch):
        real, seen = np.matmul, []

        def recording(x, y, **kwargs):
            seen.append(y)
            return real(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        for m, k, n in _kernel_shapes():
            if kind == "contiguous":
                n |= 1  # n % 16 != 0: fewer columns than the layout needs
            rng = np.random.default_rng([m, k, n])
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = self.operand(kind, k, n, rng)
            want = matmul(a, np.ascontiguousarray(b[..., :n]))
            seen.clear()
            with np.errstate(invalid="ignore"):  # the NaN columns' own products
                got = _matmul_cols(a, b, n)
            assert got.dtype == want.dtype and np.array_equal(got, want), (m, k, n)
            # the layout: the result dtype, unit column stride, n rounded up to 16 columns
            in_layout = (b.dtype == got.dtype and b.strides[-1] == b.itemsize
                         and b.shape[-1] >= -(-n // 16) * 16)
            assert seen and all(np.shares_memory(y, b) == in_layout for y in seen), (m, k, n)


class TestRmsNorm:
    def test_constant_vector(self):
        x = np.full((3, 8), 2.0, dtype=np.float32)
        out = _rms_norm(x, np.ones(8, dtype=np.float32), 1e-5)
        assert np.allclose(out, 1.0, atol=1e-5)

    def test_zero_gain(self):
        out = _rms_norm(rand((4, 8)), np.zeros(8, dtype=np.float32), 1e-5)
        assert np.array_equal(out, np.zeros((4, 8), dtype=np.float32))

    def test_scalar_reference(self):
        x = rand((5, 16))
        gain = rand(16, seed=1) + 2.0
        got = _rms_norm(x, gain, 1e-5)
        expect = ref.ref_rms_norm(x.tolist(), gain.tolist(), 1e-5)
        assert np.allclose(got, expect, atol=1e-6)

    def test_unit_rms_before_gain(self):
        x = rand((50, 32)) * 10.0
        out = _rms_norm(x, np.ones(32, dtype=np.float32), 1e-5)
        rms = np.sqrt(np.mean(np.square(f64(out)), axis=1))
        assert np.allclose(rms, 1.0, atol=1e-5)

    def test_single_vector_input(self):
        x = rand(8)
        out = _rms_norm(x, np.ones(8, dtype=np.float32), 1e-5)
        assert out.shape == (8,)

    @pytest.mark.parametrize("x_dtype, gain_dtype", [(np.float32, np.float32),
                                                     (np.float64, np.float64),
                                                     (np.float32, np.float64),
                                                     (np.float16, np.float16)])
    @pytest.mark.parametrize("shape", [(256,), (7, 256), (3, 33)])
    def test_equals_mean_formula(self, shape, x_dtype, gain_dtype):
        # bit for bit the np.mean form, whose reduction the kernel runs
        # itself for float32 and float64 (float16 takes np.mean)
        x = rand(shape, seed=2, dtype=x_dtype) * 3.0
        gain = rand(shape[-1], seed=3, dtype=gain_dtype) + 1.0
        got = _rms_norm(x, gain, 1e-5)
        expect = mean_rms_norm(x, gain, 1e-5)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_integer_input_equals_mean_formula(self):
        x = np.arange(-6, 6).reshape(3, 4)
        expect = x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + 1e-5)
        assert np.array_equal(_rms_norm(x, np.ones(4, dtype=np.int64), 1e-5), expect)

    def test_one_working_array(self):
        # the squares' buffer becomes the result: no array of x's size beside it
        x, gain = rand((256, 256), seed=6), rand(256, seed=7)
        assert peak_bytes(_rms_norm, x, gain, 1e-5) <= 1.25 * x.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_independent(self, dtype):
        x, gain = rand((9, 256), seed=4, dtype=dtype), rand(256, seed=5, dtype=dtype)
        full = _rms_norm(x, gain, 1e-5)
        for r in range(len(x)):
            assert np.array_equal(_rms_norm(x[r], gain, 1e-5), full[r])
            assert np.array_equal(_rms_norm(x[r:r + 1], gain, 1e-5), full[r:r + 1])
        assert np.array_equal(_rms_norm(x[[1, 4, 8]], gain, 1e-5), full[[1, 4, 8]])


class TestCheckedKernels:
    """The layer loop's kernels, checked bit for bit against independent oracles."""

    @given(dtype=st.sampled_from([np.float32, np.float64]), rows=st.integers(0, 300),
           d=st.sampled_from([1, 8, 33, 256]), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_rms_norm_kernel(self, dtype, rows, d, seed):
        x = rand((rows, d), seed=seed, dtype=dtype) * 3.0
        gain = rand(d, seed=seed + 1, dtype=dtype) + 1.0
        got = _rms_norm(x, gain, 1e-5)
        want = mean_rms_norm(x, gain, 1e-5)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           pos_dtype=st.sampled_from([np.int32, np.int64, np.uint32, np.intp]),
           positions=st.lists(st.integers(0, 3 * tensor_core._ROPE_ROWS), max_size=300),
           heads=st.sampled_from([(1, 1), (2, 8), (3, 12)]), d_head=st.sampled_from([2, 8, 32]),
           seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_rope_kernel(self, dtype, pos_dtype, positions, heads, d_head, seed):
        # rows gathered once serve tensors of any head count at those positions,
        # as K's rows serve Q in a layer whose query rows are its key rows
        pos = np.array(positions, dtype=pos_dtype)
        rows = _rope_rows(pos.astype(np.intp), 10000.0, d_head, np.dtype(dtype))
        for n_heads in heads:
            x = rand((len(pos), n_heads, d_head), seed=seed + n_heads, dtype=dtype)
            got = _rope_apply(x, *rows)
            assert got.dtype == x.dtype
            assert np.array_equal(got, per_call_rope(x, pos, 10000.0))


class TestSoftmaxCausal:
    def test_symmetric_pair(self):
        out = softmax(np.zeros((1, 2), np.float32), [1])
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_fully_masked_except_one(self):
        out = softmax(rand((1, 6)), [0])
        assert out[0, 0] == 1.0
        assert np.array_equal(out[0, 1:], np.zeros(5, np.float32))

    def test_scalar_reference(self):
        scores = rand((4, 4), seed=2)
        out = softmax(scores, np.arange(4))
        for r in range(4):
            expect = ref.ref_softmax(scores[r, :r + 1].tolist())
            assert np.allclose(out[r, :r + 1], expect, atol=1e-6)

    def test_rows_sum_to_one_masked_zero(self):
        scores = rand((8, 8), seed=3) * 5
        out = softmax(scores, np.arange(8))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out[np.triu_indices(8, k=1)] == 0.0)

    def test_key_positions_subsequence(self):
        # keys at absolute positions [0, 2, 5]; a query at position 4 may
        # only see the first two
        scores = np.zeros((1, 3), np.float32)
        out = softmax(scores, [4], [0, 2, 5])
        assert out[0, 2] == 0.0
        assert np.allclose(out[0, :2], 0.5, atol=1e-7)

    def test_row_length_stability(self):
        # appending masked columns must not change earlier columns bitwise
        scores = rand((5, 9), seed=4)
        short = softmax(scores[:, :5], np.arange(5))
        long = softmax(scores, np.arange(5))
        assert np.array_equal(long[:, :5], short)
        assert np.all(long[:, 5:] == 0.0)
        row = rand((1, 664), seed=5) * 4
        for length in range(1, 601):
            short = softmax(row[:, :length], [length - 1])
            assert np.array_equal(short, whole_matrix_softmax(
                row[:, :length], np.array([length - 1]), np.arange(length))), length
            for extra in (1, 5, 64):
                long = softmax(row[:, :length + extra], [length - 1])
                assert np.array_equal(long[:, :length], short), (length, extra)
                assert np.all(long[:, length:] == 0.0)

    @pytest.mark.parametrize("n_keys", [0, 3])
    def test_empty_query_batch(self, n_keys):
        out = softmax(np.zeros((0, n_keys), np.float32), [], np.arange(n_keys))
        assert out.shape == (0, n_keys)


class TestSoftmaxMaskEquivalence:
    @given(st.data(), st.sampled_from([np.float32, np.float64]), st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_equals_whole_matrix_mask(self, data, dtype, stack):
        # key positions: an ascending subset of the context (selective KV);
        # query positions: ascending, not contiguous, at or after the first
        # key, possibly on it (the only allowed key is the row's own), and
        # each repeated as a GQA group's folded heads pass them
        k_pos = np.array(sorted(data.draw(st.sets(st.integers(0, 400), min_size=1,
                                                  max_size=300))), dtype=np.int64)
        q_set = data.draw(st.sets(st.integers(int(k_pos[0]), int(k_pos[-1]) + 3), max_size=40))
        q_pos = np.repeat(np.array(sorted(q_set), dtype=np.int64), stack)
        seed = data.draw(st.integers(0, 2**31))
        scores = rand((q_pos.size, k_pos.size), seed=seed, dtype=dtype) * 8
        out = softmax(scores, q_pos, k_pos)
        assert out.dtype == scores.dtype
        assert np.array_equal(out, whole_matrix_softmax(scores, q_pos, k_pos))

    def test_own_key_only(self):
        k_pos = np.array([3, 9, 10, 40])
        scores = rand((2, 4), seed=6)
        out = softmax(scores, [3, 3], k_pos)
        assert out.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 2

    @pytest.mark.parametrize("n_keys", [0, 5])
    def test_empty_row_batch_equals_whole_matrix_mask(self, n_keys):
        k_pos = np.arange(n_keys, dtype=np.int64)
        scores = np.zeros((0, n_keys), np.float32)
        out = softmax(scores, np.zeros(0, np.int64), k_pos)
        assert np.array_equal(out, whole_matrix_softmax(scores, np.zeros(0, np.int64), k_pos))

    @given(st.data(), st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(1, 3), min_size=1, max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_stacked_equals_per_matrix_calls(self, data, dtype, lead):
        # every matrix of a stack shares the query and key positions
        k_pos = np.array(sorted(data.draw(st.sets(st.integers(0, 300), min_size=1,
                                                  max_size=200))), dtype=np.int64)
        q_pos = np.array(sorted(data.draw(st.sets(st.integers(int(k_pos[0]), int(k_pos[-1]) + 3),
                                                  max_size=30))), dtype=np.int64)
        scores = rand((*lead, q_pos.size, k_pos.size), seed=data.draw(st.integers(0, 2**31)),
                      dtype=dtype) * 8
        want = [softmax(scores[idx], q_pos, k_pos) for idx in np.ndindex(*lead)]
        stacked = scores.copy()
        got = _softmax_in_place(stacked, q_pos, k_pos)
        assert got is stacked
        for idx, expect in zip(np.ndindex(*lead), want):
            assert np.array_equal(got[idx], expect)
            assert np.array_equal(expect, whole_matrix_softmax(scores[idx], q_pos, k_pos))


def ascending_positions(data, past: bool):
    """Ascending query positions and ascending key positions that every query admits.

    With ``past`` some key lies past the first query (the block diagonal of
    a prefill); without, every key lies at or before it (a decode row).
    """
    q_pos = np.array(sorted(data.draw(st.sets(st.integers(0, 300), max_size=40))), np.int64)
    first = int(q_pos[0]) if q_pos.size else 300
    hi = int(q_pos[-1]) + 5 if past and q_pos.size else first
    keys = data.draw(st.sets(st.integers(0, hi), min_size=1, max_size=300))
    keys.add(data.draw(st.integers(0, first)))  # a key every query admits
    if past:
        keys.add(first + 1)
    return q_pos, np.array(sorted(keys), dtype=np.int64)


class TestSoftmaxKernel:
    """``_softmax_in_place`` on the stacks attention passes it, against the whole-matrix oracle."""

    @pytest.mark.parametrize("past", [False, True])
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           lead=st.lists(st.integers(1, 3), max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_equals_whole_matrix_softmax(self, past, data, dtype, lead):
        q_pos, k_pos = ascending_positions(data, past)
        assert not q_pos.size or (k_pos[-1] > q_pos[0]) == past
        scores = rand((*lead, q_pos.size, k_pos.size), seed=data.draw(st.integers(0, 2**31)),
                      dtype=dtype) * 8
        got = _softmax_in_place(scores.copy(), q_pos, k_pos)
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], whole_matrix_softmax(scores[idx], q_pos, k_pos))

    @given(rows=st.integers(1, 12), lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           keys=st.integers(1, 700), dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_folded_row_sums_equal_per_matrix(self, rows, lead, keys, dtype, seed):
        # the softmax takes every matrix's row sums as rows of one matrix
        stack = np.exp(rand((*lead, rows, keys), seed=seed, dtype=dtype))
        ones = tensor_core._ones_rows(keys, np.dtype(dtype))
        folded = _matmul_cols(stack.reshape(-1, keys), ones, 1).reshape(*lead, rows, 1)
        for idx in np.ndindex(*lead):
            assert np.array_equal(folded[idx], _matmul_cols(stack[idx], ones, 1))
            assert np.array_equal(folded[idx], matmul(stack[idx], np.ones((keys, 1), dtype)))


class TestRopeApply:
    def test_position_zero_identity(self):
        x = rand((1, 2, 8))
        assert np.array_equal(rope(x, [0]), x)

    def test_norm_preserved(self):
        x = rand((6, 3, 8), seed=1)
        out = rope(x, np.arange(6))
        assert np.allclose(np.linalg.norm(out, axis=-1),
                           np.linalg.norm(x, axis=-1), atol=1e-6)

    def test_exact_one_radian(self):
        # d_head=2 at position 1: the single pair rotates by exactly 1 radian
        x = np.array([[[1.0, 0.0]]], dtype=np.float32)
        out = rope(x, [1])
        assert np.allclose(out[0, 0], [math.cos(1.0), math.sin(1.0)], atol=1e-7)

    def test_scalar_reference(self):
        x = rand((4, 2, 8), seed=2)
        out = rope(x, np.arange(4))
        for t in range(4):
            for h in range(2):
                expect = ref._rope_row(x[t, h].tolist(), t, 10000.0)
                assert np.allclose(out[t, h], expect, atol=1e-6)

    def test_empty_positions(self):
        assert rope(rand((0, 2, 4)), []).shape == (0, 2, 4)


class TestRopeTable:
    """Table rows equal per-call cos/sin bit for bit: a property of this build's libm/SIMD."""

    @given(dtype=st.sampled_from([np.float32, np.float64]), d_head=st.sampled_from([2, 8, 16, 32]),
           theta=st.sampled_from([10000.0, 500000.0, 10.0]),
           positions=st.lists(st.integers(0, 3 * tensor_core._ROPE_ROWS), min_size=1,
                              max_size=64),
           fresh=st.booleans(), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_table_equals_per_call(self, dtype, d_head, theta, positions, fresh, seed):
        x = rand((len(positions), 2, d_head), seed=seed, dtype=dtype)
        # a fresh table starts at its first size and grows past it for the
        # larger positions; otherwise whatever earlier calls left is read
        with mock.patch.dict(tensor_core._ROPE, clear=fresh):
            got = rope(x, positions, theta)
            cos, sin = tensor_core._rope_table(theta, d_head, np.dtype(dtype), 1)
        assert np.array_equal(got, per_call_rope(x, positions, theta))
        angles = rope_angles(positions, d_head, theta)
        want_cos, want_sin = np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)
        assert not cos.flags.writeable and not sin.flags.writeable
        assert np.array_equal(cos[positions], np.concatenate([want_cos, want_cos], axis=1))
        assert np.array_equal(sin[positions], np.concatenate([-want_sin, want_sin], axis=1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_position_sets(self, dtype):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t = int(rng.integers(1, 300))
            positions = np.sort(rng.choice(4 * tensor_core._ROPE_ROWS, size=t, replace=False))
            x = rng.standard_normal((t, 2, 32)).astype(dtype)
            assert np.array_equal(rope(x, positions), per_call_rope(x, positions, 10000.0))

    def test_threads_growing_shared_tables(self):
        # a Model is shareable across threads: readers keep the table they
        # looked up while other threads grow and replace it
        results, errors = [], []

        def work(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(25):
                    t = int(rng.integers(1, 40))
                    positions = np.sort(rng.choice(6 * tensor_core._ROPE_ROWS, t, replace=False))
                    x = rng.standard_normal((t, 2, 8)).astype(np.float32)
                    k_pos = np.arange(int(positions[-1]) % 700 + 1)
                    scores = rng.standard_normal((3, k_pos.size)).astype(np.float32)
                    q_pos = np.full(3, k_pos[-1])
                    results.append((rope(x, positions), per_call_rope(x, positions, 10000.0)))
                    results.append((softmax(scores, q_pos, k_pos),
                                    whole_matrix_softmax(scores, q_pos, k_pos)))
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.dict(tensor_core._ROPE, clear=True), \
                    mock.patch.dict(tensor_core._ONES, clear=True):
                threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(results) == 8 * 25 * 2
        for got, want in results:
            assert np.array_equal(got, want)

    def test_growth_replaces_the_table(self):
        with mock.patch.dict(tensor_core._ROPE, clear=True):
            first = tensor_core._rope_table(10000.0, 8, np.dtype(np.float32), 5)
            assert len(first[0]) == tensor_core._ROPE_ROWS
            assert tensor_core._rope_table(10000.0, 8, np.dtype(np.float32), 5) is first
            grown = tensor_core._rope_table(10000.0, 8, np.dtype(np.float32),
                                            tensor_core._ROPE_ROWS + 1)
            assert len(grown[0]) == 2 * tensor_core._ROPE_ROWS
            # readers holding the old table keep it whole
            for old, new in zip(first, grown):
                assert np.array_equal(new[:len(old)], old) and not old.flags.writeable


class TestSilu:
    def test_matches_sigmoid_form(self):
        x = np.linspace(-20, 20, 101).astype(np.float32)
        expect = [ref.ref_silu(float(v)) for v in x]
        assert np.allclose(silu(x), expect, atol=1e-6)

    def test_finite_for_large_inputs(self):
        x = np.array([-1e4, 1e4], dtype=np.float32)
        assert np.all(np.isfinite(silu(x)))

