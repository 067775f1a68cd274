import copy
import re
from pathlib import Path

import numpy as np
import pytest

from orthorank import (
    ConfigError,
    KVCache,
    Model,
    ModelConfig,
    ShapeError,
    StateError,
    UsageError,
    decode_step_dense,
    decode_step_with_plan,
    detect_sink_layer,
    forward_dense,
    forward_with_plan,
    generate_synthetic_model,
    lm_head_logits,
)
from orthorank import model_runtime, selection
from orthorank import tensor_core
from orthorank.checkpoint_io import _synthetic_weights
from orthorank.model_runtime import ATTN_ROWS, ROW_BLOCK, block_forward
from orthorank.selection import DEFAULT_CRITERION, select_topk, selection_keys
from orthorank.trace import HiddenTrace, dump_trace_csv

import helpers
import reference as ref
from helpers import make_tokens, mean_rms_norm


class TestForwardDense:
    def test_single_token_shapes(self, tiny_model, tiny_config):
        logits, _, cache = forward_dense(tiny_model, [3])
        assert logits.shape == (1, tiny_config.vocab_size)
        assert cache.n_tokens == 1
        assert all(k.shape[0] == 1 for k in cache.keys)

    def test_deterministic(self, tiny_model, tiny_tokens):
        a, _, _ = forward_dense(tiny_model, tiny_tokens)
        b, _, _ = forward_dense(tiny_model, tiny_tokens)
        assert np.array_equal(a, b)

    def test_matches_scalar_reference(self, micro_model, micro_config):
        tokens = [1, 4, 0, 9, 2, 7]
        logits, _, _ = forward_dense(micro_model, tokens)
        expect = ref.ref_forward(micro_config, micro_model.weights, tokens)
        assert np.max(np.abs(logits - np.array(expect))) < 1e-4

    def test_untied_matches_scalar_reference(self, uniform_model):
        # exercises the explicit lm_head path of the reference as well
        tokens = [1, 4, 0, 9]
        logits, _, _ = forward_dense(uniform_model, tokens)
        expect = ref.ref_forward(uniform_model.config, uniform_model.weights, tokens)
        assert np.max(np.abs(logits - np.array(expect))) < 1e-4

    @pytest.mark.parametrize("shape", [lambda d: (2, d + 1), lambda d: (d,),
                                       lambda d: (1, 2, d)])
    def test_lm_head_logits_checks_its_states(self, tiny_model, tiny_config, shape):
        x = np.ones(shape(tiny_config.d_model), np.float32)
        with pytest.raises(ShapeError):
            lm_head_logits(tiny_model, x)

    def test_empty_input_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            forward_dense(tiny_model, [])

    def test_out_of_range_token_rejected(self, tiny_model, tiny_config):
        with pytest.raises(UsageError):
            forward_dense(tiny_model, [0, tiny_config.vocab_size])
        with pytest.raises(UsageError):
            forward_dense(tiny_model, [-1])

    def test_causality_bitwise(self, tiny_model, tiny_tokens, tiny_config):
        full, _, _ = forward_dense(tiny_model, tiny_tokens)
        for cut in (1, 2, 7, 12, len(tiny_tokens) - 1):
            part, _, _ = forward_dense(tiny_model, tiny_tokens[:cut])
            assert np.array_equal(part, full[:cut]), f"cut={cut}"
        # every prefix of a sequence long enough to cross the K chunk of the
        # attention products and the GQA stacking; the prefixes take every
        # row count from 1 to 129
        tokens = make_tokens(130, tiny_config.vocab_size, seed=3)
        full, _, _ = forward_dense(tiny_model, tokens)
        for cut in range(1, len(tokens)):
            part, _, _ = forward_dense(tiny_model, tokens[:cut])
            assert np.array_equal(part, full[:cut]), f"cut={cut}"
        # prefixes on both sides of an attention and an FFN row block
        tokens = make_tokens(300, tiny_config.vocab_size, seed=4)
        full, _, _ = forward_dense(tiny_model, tokens)
        for cut in (ATTN_ROWS - 1, ATTN_ROWS, ATTN_ROWS + 1, ROW_BLOCK - 1, ROW_BLOCK,
                    ROW_BLOCK + 1, 300):
            part, _, _ = forward_dense(tiny_model, tokens[:cut])
            assert np.array_equal(part, full[:cut]), f"cut={cut}"
        # prompt-sized prefixes: each matmul hands BLAS all rows of a K chunk
        # in one call, and BLAS splits them among its threads by the row count
        tokens = make_tokens(1100, tiny_config.vocab_size, seed=5)
        full, _, _ = forward_dense(tiny_model, tokens)
        for cut in (1024, 1025, 1100):
            part, _, _ = forward_dense(tiny_model, tokens[:cut])
            assert np.array_equal(part, full[:cut]), f"cut={cut}"

    def test_causality_bitwise_under_plan(self, tiny_model, tiny_config):
        # the same prompt-sized prefixes through the selective path; a plan
        # that keeps every row, since top-k with p < 1 ranks the whole window
        tokens = make_tokens(1100, tiny_config.vocab_size, seed=5)
        full, _, _ = forward_with_plan(tiny_model, tokens, [1, 2], 1.0)
        for cut in (1024, 1025, 1100):
            part, _, _ = forward_with_plan(tiny_model, tokens[:cut], [1, 2], 1.0)
            assert np.array_equal(part, full[:cut]), f"cut={cut}"

    def test_cache_lengths(self, tiny_model, tiny_tokens, tiny_config):
        _, _, cache = forward_dense(tiny_model, tiny_tokens)
        t = len(tiny_tokens)
        assert cache.n_tokens == t
        for layer in range(tiny_config.n_layers):
            assert cache.keys[layer].shape == (t, tiny_config.n_kv_heads, tiny_config.d_head)
            assert cache.values[layer].shape == (t, tiny_config.n_kv_heads, tiny_config.d_head)
            assert cache.positions[layer].tolist() == list(range(t))


class TestHiddenTrace:
    def test_trace_invariant_bitwise(self, tiny_model, tiny_tokens):
        _, trace, _ = forward_dense(tiny_model, tiny_tokens, HiddenTrace())
        for j, layer in enumerate(trace.layers):
            gain = tiny_model.weights[f"layers.{layer}.attn_norm.gain"]
            expect = mean_rms_norm(trace.hidden[j], gain, tiny_model.config.norm_eps)
            assert np.array_equal(trace.normalized[j], expect)

    def test_attn_to_sink_in_unit_interval(self, tiny_model, tiny_tokens):
        _, trace, _ = forward_dense(tiny_model, tiny_tokens,
                                    HiddenTrace(hidden=None, attn_to_sink=[]))
        for attn0 in trace.attn_to_sink:
            assert np.all(attn0 >= 0.0) and np.all(attn0 <= 1.0 + 1e-6)
            # position 0 attends only to itself
            assert attn0[0] == pytest.approx(1.0, abs=1e-6)

    def test_trace_csv_dump(self, tiny_model, tiny_tokens, tmp_path):
        _, trace, _ = forward_dense(tiny_model, tiny_tokens, HiddenTrace())
        states = tmp_path / "states.csv"
        dump_trace_csv(trace, states)
        lines = states.read_text().splitlines()
        d = tiny_model.config.d_model
        assert lines[0].split(",")[:2] == ["layer", "position"]
        assert len(lines[0].split(",")) == 2 + d
        assert len(lines) == 1 + len(trace.layers) * len(tiny_tokens)


class TestDecodeDense:
    def test_prefill_then_decode_matches_full(self, tiny_model, tiny_tokens):
        toks = tiny_tokens[:5]
        full, _, _ = forward_dense(tiny_model, toks)
        _, _, cache = forward_dense(tiny_model, toks[:4])
        logits, cache = decode_step_dense(tiny_model, cache, int(toks[4]))
        assert logits.shape == (1, tiny_model.config.vocab_size)
        assert np.array_equal(logits[0], full[4])
        cache.check()

    def test_empty_cache_is_length_one_prefill(self, tiny_model):
        full, _, _ = forward_dense(tiny_model, [7])
        logits, cache = decode_step_dense(tiny_model, KVCache(tiny_model.config), 7)
        assert np.array_equal(logits, full)
        assert cache.n_tokens == 1

    def test_two_decodes_match_two_token_extension(self, tiny_model, tiny_tokens):
        toks = tiny_tokens[:8]
        full, _, _ = forward_dense(tiny_model, toks)
        _, _, cache = forward_dense(tiny_model, toks[:6])
        l6, cache = decode_step_dense(tiny_model, cache, int(toks[6]))
        l7, cache = decode_step_dense(tiny_model, cache, int(toks[7]))
        assert np.array_equal(l6[0], full[6])
        assert np.array_equal(l7[0], full[7])

    def test_all_decode_64_tokens(self, tiny_model, tiny_config):
        toks = make_tokens(64, tiny_config.vocab_size, seed=11)
        full, _, _ = forward_dense(tiny_model, toks)
        cache = KVCache(tiny_model.config)
        differing = []
        for i, t in enumerate(toks):
            logits, cache = decode_step_dense(tiny_model, cache, int(t))
            if not np.array_equal(logits[0], full[i]):
                differing.append(i)
        assert differing == []
        cache.check()

    def test_cache_layer_mismatch(self, tiny_model, micro_model):
        _, _, cache = forward_dense(micro_model, [1, 2])
        with pytest.raises(StateError):
            decode_step_dense(tiny_model, cache, 0)


class TestDetectSinkLayer:
    def test_crafted_sink_at_layer_two(self, sink_probe_model):
        tokens = helpers.sink_probe_tokens()
        assert detect_sink_layer(sink_probe_model, tokens, 0.3) == 2

    def test_attention_maps_confirm_construction(self, sink_probe_model):
        tokens = helpers.sink_probe_tokens()
        _, trace, _ = forward_dense(sink_probe_model, tokens,
                                    HiddenTrace(hidden=None, attn_to_sink=[]))
        means = [float(np.mean(a[1:])) for a in trace.attn_to_sink]
        assert means[2] >= 0.5
        assert all(m < 0.3 for l, m in enumerate(means) if l != 2)

    def test_tau_one_gives_sentinel(self, sink_probe_model):
        tokens = helpers.sink_probe_tokens()
        assert detect_sink_layer(sink_probe_model, tokens, 1.0) == 5

    def test_uniform_attention_gives_sentinel(self, uniform_model):
        # zero q/k projections: every layer's attention is uniform
        tokens = make_tokens(32, uniform_model.config.vocab_size, seed=2)
        assert detect_sink_layer(uniform_model, tokens, 0.3) == uniform_model.config.n_layers

    def test_tau_domain(self, sink_probe_model):
        tokens = helpers.sink_probe_tokens()
        with pytest.raises(UsageError):
            detect_sink_layer(sink_probe_model, tokens, 0.0)
        with pytest.raises(UsageError):
            detect_sink_layer(sink_probe_model, tokens, 1.5)

    def test_detection_norms_each_layer_once(self, tmp_path, monkeypatch):
        # attention masses only: no trace copies and no second attention norm
        config = ModelConfig(n_layers=8, d_model=16, n_heads=2, n_kv_heads=1,
                             d_head=8, d_ffn=32, vocab_size=40)
        generate_synthetic_model(config, 4, tmp_path / "m8")
        model = Model.from_checkpoint(tmp_path / "m8")
        calls = []
        real = tensor_core._rms_norm  # the layer loop's RMSNorm kernel

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor_core, "_rms_norm", counting)
        detect_sink_layer(model, make_tokens(32, config.vocab_size), 0.3)
        assert len(calls) == 2 * config.n_layers + 1
        _, trace, _ = forward_dense(model, make_tokens(16, config.vocab_size),
                                    HiddenTrace(hidden=None, attn_to_sink=[]))
        assert trace.layers == list(range(8)) and len(trace.attn_to_sink) == 8
        assert trace.hidden is None and trace.normalized == []

    def test_short_sequence_rejected(self, sink_probe_model):
        with pytest.raises(UsageError):
            detect_sink_layer(sink_probe_model, [0, 1, 2], 0.3)


class TestDenseIsTheEmptyPlan:
    """Dense prefill, decode and sink detection run the selective layer step."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        layers = []
        real_step = selection._layer_step

        def counting_step(model, layer, *args, **kwargs):
            layers.append(layer)
            return real_step(model, layer, *args, **kwargs)

        monkeypatch.setattr(selection, "_layer_step", counting_step)
        return layers

    @pytest.mark.parametrize("trace, attn", [(False, False), (True, False),
                                             (False, True), (True, True)])
    def test_forward_steps_each_layer(self, tiny_model, tiny_tokens, stepped, trace, attn):
        record = HiddenTrace(hidden=[] if trace else None, attn_to_sink=[] if attn else None)
        forward_dense(tiny_model, tiny_tokens, record if trace or attn else None)
        assert stepped == list(range(tiny_model.config.n_layers))

    def test_decode_and_detection_step_each_layer(self, tiny_model, tiny_tokens, stepped):
        every_layer = list(range(tiny_model.config.n_layers))
        _, _, cache = forward_dense(tiny_model, tiny_tokens)
        stepped.clear()
        decode_step_dense(tiny_model, cache, 3)
        assert stepped == every_layer
        stepped.clear()
        detect_sink_layer(tiny_model, tiny_tokens, 0.3)
        assert stepped == every_layer

    def test_decode_equals_empty_plan_decode(self, tiny_model, tiny_tokens):
        _, _, dense = forward_dense(tiny_model, tiny_tokens[:16])
        _, _, planned = forward_with_plan(tiny_model, tiny_tokens[:16], [], 1.0)
        for token in tiny_tokens[16:20]:
            a, _ = decode_step_dense(tiny_model, dense, int(token))
            b, _ = decode_step_with_plan(tiny_model, planned, int(token), [], 1.0)
            assert np.array_equal(a, b)
        assert dense.n_tokens == planned.n_tokens == 20
        for name in ("keys", "values", "positions"):
            for x, y in zip(getattr(dense, name), getattr(planned, name)):
                assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def mha_model(tmp_path_factory):
    config = ModelConfig(n_layers=2, d_model=24, n_heads=3, n_kv_heads=3,
                         d_head=8, d_ffn=48, vocab_size=40)
    path = tmp_path_factory.mktemp("ck") / "mha"
    generate_synthetic_model(config, 2, path)
    return Model.from_checkpoint(path)


# query heads / KV heads 8/2 at d_head 32 (the benchmark's shape), 12/3 and
# 8/1: groups of 4, 4 and 8 heads that fold into the rows of a few-row block
_GQA_SHAPES = {"gqa_8_2_model": (8, 2, 32), "gqa_12_3_model": (12, 3, 8),
               "gqa_8_1_model": (8, 1, 16)}


def _gqa_model(name):
    n_heads, n_kv, d_head = _GQA_SHAPES[name]
    return helpers.make_random_model(ModelConfig(
        n_layers=2, d_model=n_heads * d_head, n_heads=n_heads, n_kv_heads=n_kv,
        d_head=d_head, d_ffn=96, vocab_size=40), seed=n_heads + n_kv)


@pytest.fixture(scope="module")
def gqa_8_2_model():
    return _gqa_model("gqa_8_2_model")


@pytest.fixture(scope="module")
def gqa_12_3_model():
    return _gqa_model("gqa_12_3_model")


@pytest.fixture(scope="module")
def gqa_8_1_model():
    return _gqa_model("gqa_8_1_model")


class TestBlockTruncatedAttention:
    """Row blocks over key prefixes equal full-width attention bitwise."""

    @pytest.mark.parametrize("history", [0, 300])
    @pytest.mark.parametrize("t", [1, 255, 256, 257, 513, 700, 512])
    @pytest.mark.parametrize("model_name", ["tiny_model", "micro_model", "mha_model",
                                            *_GQA_SHAPES])
    def test_equals_full_width(self, request, model_name, t, history):
        model = request.getfixturevalue(model_name)
        cfg, layer = model.config, 1
        rng = np.random.default_rng(t + history)
        x = rng.standard_normal((t, cfg.d_model)).astype(np.float32)
        xn = mean_rms_norm(x, model.weights[f"layers.{layer}.attn_norm.gain"], cfg.norm_eps)
        positions = np.arange(history, history + t, dtype=np.int64)
        rows = np.arange(t, dtype=np.int64)
        picks = {
            "all": rows,
            "topk": select_topk(selection_keys(xn, DEFAULT_CRITERION, layer), 0.333),
            "random": np.sort(rng.choice(t, size=max(1, t // 3), replace=False)),
            "single": rows[t // 2:t // 2 + 1],
            # fewer rows than a kernel row group fold a GQA group's heads
            # into the rows; 8 and 9 rows do not
            **{f"few{n}": np.sort(rng.choice(t, size=n, replace=False))
               for n in range(1, min(t, 9) + 1)},
        }
        # queries after a prefilled cache, as in decode
        prefilled = (forward_dense(model, make_tokens(history, cfg.vocab_size))[2] if history
                     else KVCache(cfg))
        for pick, sel in picks.items():
            for kv_rows in (rows, sel):  # KV for every row, or only for sel (gaps)
                got_x, want_x = x.copy(), x.copy()
                # a fork owns copies of the arenas: prefilled stays as it is
                got_cache = copy.deepcopy(prefilled)
                got = block_forward(model, layer, got_x, positions, sel, kv_rows, xn,
                                    got_cache, capture_attn0=True)
                want = helpers.full_width_block_forward(model, layer, want_x, positions, sel,
                                                        kv_rows, xn, prefilled,
                                                        capture_attn0=True)
                where = f"{pick} sel, {len(kv_rows)} kv rows"
                assert np.array_equal(got_x, want_x), where
                for a, b in zip(got, want):
                    assert np.array_equal(a, b), where
                appended = (want[0], want[1], positions[kv_rows])
                for name, new in zip(("keys", "values", "positions"), appended):
                    assert np.array_equal(getattr(got_cache, name)[layer], np.concatenate(
                        [getattr(prefilled, name)[layer], new])), where

    @pytest.mark.parametrize("n_sel", [2, 7])
    def test_folded_rows_in_budget_blocks(self, gqa_12_3_model, monkeypatch, softmax_entries,
                                          n_sel):
        # a budget of about 3 rows' scores over 340 keys cuts the selected
        # rows, whose heads are folded, into blocks of fewer than 8 rows
        model, layer = gqa_12_3_model, 1
        cfg = model.config
        monkeypatch.setattr(model_runtime, "SCORE_BUDGET", cfg.n_heads * 340 * 3)
        rng = np.random.default_rng(n_sel)
        x = rng.standard_normal((40, cfg.d_model)).astype(np.float32)
        xn = mean_rms_norm(x, model.weights[f"layers.{layer}.attn_norm.gain"], cfg.norm_eps)
        positions = np.arange(300, 340, dtype=np.int64)
        prefilled = forward_dense(model, make_tokens(300, cfg.vocab_size))[2]
        sel = np.sort(rng.choice(40, size=n_sel, replace=False))
        for kv_rows in (np.arange(40), sel):
            got_x, want_x = x.copy(), x.copy()
            softmax_entries.clear()
            got = block_forward(model, layer, got_x, positions, sel, kv_rows, xn,
                                copy.deepcopy(prefilled), capture_attn0=True)
            assert len(softmax_entries) == -(-n_sel // 3)
            want = helpers.full_width_block_forward(model, layer, want_x, positions, sel,
                                                    kv_rows, xn, prefilled, capture_attn0=True)
            assert np.array_equal(got_x, want_x)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_dense_softmax_entries_pinned(self, tiny_model, tiny_config, softmax_entries):
        # 4 layers of 64-row blocks whose 4 heads' scores hold at most 2**18
        # entries: block b reads 64 * b keys, 64 * 64 * 4 * 4 * (1 + ... + 16);
        # blocks of up to 256 rows within the budget held 9,418,752 entries,
        # 256-row blocks 10,485,760 and the full-width matrices 4 x 4 x 1024
        # x 1024 = 16,777,216
        forward_dense(tiny_model, make_tokens(1024, tiny_config.vocab_size, seed=6))
        assert max(softmax_entries) <= 1 << 18
        assert sum(softmax_entries) == 8_912_896

    @pytest.mark.parametrize("layers, kv", [([], True), ([2, 3, 4, 5, 6], True),
                                            ([2, 3, 4, 5, 6], False)],
                             ids=["dense", "plan", "plan_kv_off"])
    def test_block_geometry(self, monkeypatch, layers, kv):
        # the benchmark's mid GQA shape and 1,024-token prompt: every
        # attention block holds at most ATTN_ROWS rows, and every score
        # product reads whole column blocks of keys or every key of its
        # layer, so the kernel returns it with no trim copy
        model = helpers.make_random_model(ModelConfig(
            n_layers=8, d_model=256, n_heads=8, n_kv_heads=2, d_head=32, d_ffn=1024,
            vocab_size=512), seed=7)
        products = []
        real = tensor_core._matmul_cols

        def recording(a, b, n):
            products.append((a.shape[-2], b, n))
            return real(a, b, n)

        monkeypatch.setattr(tensor_core, "_matmul_cols", recording)
        _, _, cache = forward_with_plan(model, make_tokens(1024, 512, seed=8), layers, 0.333,
                                        compute_kv_for_unselected=kv)
        monkeypatch.undo()
        for layer, (arena, count) in enumerate(cache.layers):
            scored = [(m, n) for m, b, n in products if np.shares_memory(b, arena.kt)]
            summed = [m for m, b, _ in products if np.shares_memory(b, arena.va)]
            assert len(scored) == len(summed) > 0, layer
            assert all(m <= ATTN_ROWS for m, _ in scored) and max(summed) <= ATTN_ROWS, layer
            assert all(n % tensor_core._COL_ALIGN == 0 or n == count for _, n in scored), layer
            assert scored[-1][1] == count, layer  # the last block reads every key

    @pytest.mark.parametrize("positions", [np.arange(-1, 3), np.arange(4, dtype=np.float64),
                                           np.arange(3), np.arange(4)[:, None]],
                             ids=["negative", "float", "short", "2d"])
    def test_positions_checked(self, tiny_model, positions):
        cfg, layer = tiny_model.config, 1
        x = np.random.default_rng(0).standard_normal((4, cfg.d_model)).astype(np.float32)
        xn = mean_rms_norm(x, tiny_model.weights[f"layers.{layer}.attn_norm.gain"], cfg.norm_eps)
        rows = np.arange(4)
        with pytest.raises(ShapeError, match="positions"):
            block_forward(tiny_model, layer, x, positions, rows, rows, xn, KVCache(cfg))


def arenas(cache):
    return [arena for arena, _ in cache.layers]


def growth_bound(rows):
    """The most a layer's arena may hold: a quarter over its rows, in 16-column blocks."""
    return -(-(rows * 5 // 4) // 16) * 16


class TestKVArena:
    """Each layer's KV lives in one arena that decode appends to in place."""

    def test_decode_within_capacity_keeps_the_arena(self, tiny_model, tiny_config):
        tokens = make_tokens(60, tiny_config.vocab_size, seed=2)
        _, _, cache = forward_dense(tiny_model, tokens[:20])
        held, capacity = arenas(cache), cache.layers[0][0].capacity
        for i, token in enumerate(tokens[20:], start=21):
            decode_step_dense(tiny_model, cache, int(token))
            if i <= capacity:
                assert all(a is b for a, b in zip(arenas(cache), held)), i
            else:  # the first step past capacity moves to a larger arena
                assert not any(a is b for a, b in zip(arenas(cache), held))
                break
        else:
            pytest.fail("decode never outgrew the prefill's arena")
        want = forward_dense(tiny_model, tokens[:i])[2]
        for name in ("keys", "values", "positions"):
            for got_rows, want_rows in zip(getattr(cache, name), getattr(want, name)):
                assert np.array_equal(got_rows, want_rows)

    @pytest.mark.parametrize("t", [1, 17, 300])
    @pytest.mark.parametrize("kv_on", [True, False])
    def test_capacity_never_exceeds_growth_bound(self, tiny_model, tiny_config, t, kv_on):
        tokens = make_tokens(t + 40, tiny_config.vocab_size, seed=t)
        _, _, cache = forward_with_plan(tiny_model, tokens[:t], [1, 2], 0.333,
                                        compute_kv_for_unselected=kv_on)
        for token in [None, *tokens[t:]]:
            if token is not None:
                decode_step_with_plan(tiny_model, cache, int(token), [1, 2], 0.333,
                                      compute_kv_for_unselected=kv_on)
            for arena, rows in cache.layers:
                assert rows <= arena.capacity <= growth_bound(rows), (rows, arena.capacity)

    def test_committed_rows_are_read_only_views(self, tiny_model, tiny_tokens):
        _, _, cache = forward_dense(tiny_model, tiny_tokens[:6])
        views = (cache.keys[1], cache.values[1], cache.positions[1])
        for rows, buffer in zip(views, cache.layers[1][0]):  # the arena's kt, va, pos
            assert np.shares_memory(rows, buffer)
            with pytest.raises(ValueError):
                rows[0] = 0

    @pytest.mark.parametrize("plan", [[], [1, 3]])
    def test_caches_built_from_one_prefill_decode_independently(self, tiny_model, plan):
        tokens = make_tokens(12, tiny_model.config.vocab_size, seed=4)
        _, _, prefilled = forward_with_plan(tiny_model, tokens, plan, 0.5)
        forks = [copy.deepcopy(prefilled), copy.deepcopy(prefilled)]
        for a, b in zip(arenas(forks[0]), arenas(forks[1]) + arenas(prefilled)):
            assert not any(np.shares_memory(x, y) for x in a for y in b)
        for fork in forks:
            assert fork.identity == (tiny_model.config, tiny_model.model_id)
            assert fork.criterion == prefilled.criterion == DEFAULT_CRITERION
        for fork, token in zip(forks, (5, 9)):
            got, _ = decode_step_with_plan(tiny_model, fork, token, plan, 0.5)
            want, want_cache = decode_step_with_plan(
                tiny_model, forward_with_plan(tiny_model, tokens, plan, 0.5)[2], token, plan, 0.5)
            assert np.array_equal(got, want)
            for name in ("keys", "values", "positions"):
                for got_rows, want_rows in zip(getattr(fork, name), getattr(want_cache, name)):
                    assert np.array_equal(got_rows, want_rows)
        assert prefilled.n_tokens == 12 and all(p.size == 12 for p in prefilled.positions)

    def test_decode_attention_reads_the_arena_in_place(self, monkeypatch):
        # d_head 16: the value rows are already in the kernel's column layout
        model = helpers.make_random_model(ModelConfig(
            n_layers=2, d_model=64, n_heads=4, n_kv_heads=2, d_head=16, d_ffn=64,
            vocab_size=48))
        _, _, cache = forward_dense(model, make_tokens(40, 48, seed=1))
        seen, operands = [], []
        real = tensor_core._matmul_cols

        def recording(a, b, n):
            seen.append(b)
            operands.append(a)
            return real(a, b, n)

        monkeypatch.setattr(tensor_core, "_matmul_cols", recording)
        decode_step_dense(model, cache, 3)
        buffers = [x for arena in arenas(cache) for x in (arena.kt, arena.va)]
        in_place = [b for b in seen if any(np.shares_memory(b, x) for x in buffers)]
        # one score product (keys) and one context product (values) per layer,
        # each for all heads at once, neither of them copied
        assert [np.shares_memory(b, arenas(cache)[i // 2][i % 2]) for i, b in
                enumerate(in_place)] == [True] * 4
        # a group's two query heads are the rows of one matrix per KV head,
        # not two matrices of one row each
        scored = [a for a, b in zip(operands, seen)
                  if any(np.shares_memory(b, arena.kt) for arena in arenas(cache))]
        assert [a.shape for a in scored] == [(2, 1, 2, 16)] * 2
        # every other product reads a weight as it is, or sums softmax rows
        weights = [b for b in seen if any(b is w for w in [*model.weights.values(), model.unembed])]
        assert len(weights) + len(in_place) + 2 == len(seen)


class TestModelIdentity:
    def test_from_checkpoint_id_is_weights_hash(self, tiny_checkpoint):
        from orthorank import weights_sha256
        model = Model.from_checkpoint(tiny_checkpoint)
        assert model.model_id == weights_sha256(tiny_checkpoint)

    def test_from_checkpoint_reads_weights_once(self, tiny_config, tmp_path, monkeypatch):
        # bytes past the last tensor belong to the file, so to the id as well
        from orthorank import checkpoint_io, weights_sha256
        generate_synthetic_model(tiny_config, 3, tmp_path)
        with open(tmp_path / "weights.bin", "ab") as fh:
            fh.write(b"tail")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(checkpoint_io, "open", counting_open, raising=False)
        model = Model.from_checkpoint(tmp_path)
        assert opened == ["weights.bin"]
        monkeypatch.undo()
        assert model.model_id == weights_sha256(tmp_path)


WEIGHTS_CONFIG = ModelConfig(n_layers=2, d_model=16, n_heads=2, n_kv_heads=2, d_head=8,
                             d_ffn=32, vocab_size=32)


class TestModelWeights:
    """A model checks its tensors when it is made, against its config."""

    @pytest.mark.parametrize("name, value", [  # value None: the tensor is left out
        ("layers.1.ffn_norm.gain", None),
        ("rogue.weight", np.zeros((2, 2), np.float32)),
        ("layers.0.attn.wq.weight", np.zeros((16, 8), np.float32)),
        ("layers.1.ffn.w_up.weight", np.zeros((16, 16), np.float32)),
        ("layers.0.attn_norm.gain", np.ones(8, np.float32)),
        ("embed.weight", np.zeros((16, 16), np.float32)),  # tied: too few rows for the vocab
        ("layers.0.attn.wk.weight", np.zeros((16, 16)).tolist()),
        ("final_norm.gain", np.ones(16, np.int64)),
    ], ids=["missing", "unexpected", "wq_shape", "w_up_shape", "attn_gain_length",
            "tied_embed_rows", "list", "int64"])
    def test_bad_weights_raise_when_made(self, name, value):
        weights = _synthetic_weights(WEIGHTS_CONFIG, 0)
        if value is None:
            del weights[name]
        else:
            weights[name] = value
        with pytest.raises(ConfigError, match=re.escape(name)):
            Model(WEIGHTS_CONFIG, weights, "bad")

    def test_weights_and_config_types(self):
        weights = _synthetic_weights(WEIGHTS_CONFIG, 0)
        Model(WEIGHTS_CONFIG, weights, "good")
        with pytest.raises(ConfigError, match="dict"):
            Model(WEIGHTS_CONFIG, list(weights.items()), "pairs")
        with pytest.raises(ConfigError, match="ModelConfig"):
            Model(vars(WEIGHTS_CONFIG), weights, "config-dict")


class TestTokenIdTypes:
    @pytest.mark.parametrize("ids", [[1.0, 2.0], np.array([1.5, 2.0]), [True, False],
                                     np.array(["1", "2"]), [1, 2.5]])
    def test_non_integer_ids_rejected(self, tiny_model, ids):
        with pytest.raises(UsageError, match="integer ids"):
            forward_dense(tiny_model, ids)

    @pytest.mark.parametrize("token", [3.5, 3.0, np.float32(3), True])
    def test_non_integer_decode_token_rejected(self, tiny_model, tiny_config, token):
        cache = KVCache(tiny_config)
        with pytest.raises(UsageError):
            decode_step_dense(tiny_model, cache, token)
        assert cache.n_tokens == 0

    def test_integer_dtypes_agree(self, tiny_model, tiny_tokens):
        ids = [int(t) for t in tiny_tokens]
        want, _, _ = forward_dense(tiny_model, ids)
        for dtype in (np.int64, np.int32, np.uint16):
            got, _, _ = forward_dense(tiny_model, np.asarray(ids, dtype=dtype))
            assert np.array_equal(got, want)
        step, _ = decode_step_dense(tiny_model, KVCache(tiny_model.config), np.int32(3))
        assert np.array_equal(step, decode_step_dense(
            tiny_model, KVCache(tiny_model.config), 3)[0])

    @pytest.mark.parametrize("tau", ["x", None, [0.3]])
    def test_tau_must_be_a_number(self, sink_probe_model, tau):
        with pytest.raises(UsageError, match="tau"):
            detect_sink_layer(sink_probe_model, helpers.sink_probe_tokens(), tau=tau)
