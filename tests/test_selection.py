import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthorank import (
    ConfigError,
    Criterion,
    ablation_grid,
    DomainError,
    KVCache,
    Model,
    ModelConfig,
    OrthoRankError,
    ShapeError,
    StateError,
    UsageError,
    cos_gradient,
    cross_layer_self_similarity,
    decode_select,
    decode_step_dense,
    decode_step_with_plan,
    detect_sink_layer,
    flop_count,
    forward_dense,
    forward_orthorank_layer,
    forward_with_plan,
    generate_greedy,
    generate_synthetic_sink_trace,
    importance_norm_sq,
    layerwise_comparison,
    norm_profile,
    perplexity,
    plan_effective_sparsity,
    scaling_agreement,
    select_topk,
    sink_token_similarity,
)
from orthorank import selection, tensor_core
from orthorank import LayerPlan
from orthorank.selection import CRITERION_KINDS, STAGES, selection_keys
from orthorank.trace import HiddenTrace

import reference as ref
from helpers import make_random_model, make_tokens


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def sink_scores(states):
    """The default criterion's keys: |<h_bar_0, h_bar_i>| with the sink at +inf."""
    return selection_keys(states, Criterion(), layer=0)


_SIM_TRACE = generate_synthetic_sink_trace(4, 12, 8, 1, 0.25, seed=0)
_LEAKS = {  # id: (call on a d_model 16 model, the package error it must raise)
    "layer_states_width": (lambda m: forward_orthorank_layer(m, 1, np.ones((4, 8)), 0.5),
                           ShapeError),
    "layer_states_vector": (lambda m: forward_orthorank_layer(m, 1, np.ones(16), 0.5),
                            ShapeError),
    "layer_no_states": (lambda m: forward_orthorank_layer(m, 1, np.ones((0, 16)), 0.5),
                        ShapeError),
    "cos_gradient_lengths": (lambda m: cos_gradient(np.ones(3), np.ones(4)), ShapeError),
    "position_text": (lambda m: sink_token_similarity(_SIM_TRACE, ["a"]), UsageError),
    "position_fraction": (lambda m: sink_token_similarity(_SIM_TRACE, [1.5]), UsageError),
    "position_float": (lambda m: cross_layer_self_similarity(_SIM_TRACE, 2.7), UsageError),
    "position_bool": (lambda m: cross_layer_self_similarity(_SIM_TRACE, True), UsageError),
    "scaling_states_vector": (lambda m: scaling_agreement(np.ones(4), np.ones(4)), ShapeError),
    "scaling_gain_width": (lambda m: scaling_agreement(np.ones((2, 4)), np.ones(3)), ShapeError),
    "cache_config": (lambda m: KVCache("x"), ConfigError),
    "keys_negative_layer": (lambda m: selection_keys(np.ones((3, 4)), Criterion("random", seed=1),
                                                     -1), UsageError),
    "flops_config": (lambda m: flop_count("cfg", LayerPlan(), 16), ConfigError),
    "flops_plan": (lambda m: flop_count(m.config, "x", 16), ConfigError),
    "norms_no_states": (lambda m: norm_profile(HiddenTrace()), UsageError),
    "grid_plan": (lambda m: ablation_grid(m, None, make_tokens(16, 32), 8), ConfigError),
    "sweep_criteria": (lambda m: layerwise_comparison(m, make_tokens(16, 32), 0.5, ["x"], 0, 8),
                       ConfigError),
    "keys_criterion": (lambda m: selection_keys(np.ones((3, 4)), "x", 0), ConfigError),
    "plan_criterion": (lambda m: forward_with_plan(m, make_tokens(8, 32), [1], 0.5, "x"),
                       ConfigError),
    "ppl_criterion": (lambda m: perplexity(m, None, make_tokens(16, 32), 8, criterion="x"),
                      ConfigError),
    "generate_criterion": (lambda m: generate_greedy(m, make_tokens(8, 32), 2, [1], 0.5, "x"),
                           ConfigError),
    "dense_model": (lambda m: forward_dense("m", make_tokens(8, 32)), UsageError),
    "sink_layer_model": (lambda m: detect_sink_layer("m", make_tokens(16, 32)), UsageError),
    "dense_step_model": (lambda m: decode_step_dense("m", KVCache(m.config), 1), UsageError),
    "plan_step_model": (lambda m: decode_step_with_plan("m", KVCache(m.config), 1, [1], 0.5),
                        UsageError),
    "layer_model": (lambda m: forward_orthorank_layer("m", 1, np.ones((4, 16)), 0.5), UsageError),
    "layer_criterion": (lambda m: forward_orthorank_layer(m, 1, np.ones((4, 16)), 0.5, "x"),
                        ConfigError),
    "plan_step_cache": (lambda m: decode_step_with_plan(m, "c", 1, [1], 0.5), UsageError),
    "dense_step_cache": (lambda m: decode_step_dense(m, "c", 1), UsageError),
    "select_cache": (lambda m: decode_select("c", 1, 0.5, 0.5), UsageError),
    "sparsity_plan": (lambda m: plan_effective_sparsity("x", 4), ConfigError),
    "similarity_trace": (lambda m: sink_token_similarity("x"), UsageError),
}


@pytest.mark.parametrize("case", _LEAKS)
def test_public_entries_raise_package_errors(case):
    call, error = _LEAKS[case]
    model = make_random_model(ModelConfig(n_layers=2, d_model=16, n_heads=2, n_kv_heads=2,
                                          d_head=8, d_ffn=32, vocab_size=32))
    with pytest.raises(error):
        call(model)


class TestComputeScores:
    def test_orthogonal_scores_zero(self):
        states = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        assert sink_scores(states)[1] == 0.0

    def test_collinear_sign_absorbed(self):
        states = np.array([[1.0, 0, 0], [-2.0, 0, 0]])
        assert sink_scores(states)[1] == 2.0

    def test_sink_is_inf(self):
        scores = sink_scores(rand((6, 8)))
        assert scores[0] == np.inf
        assert np.all(np.isfinite(scores[1:]))
        assert np.all(scores[1:] >= 0.0)

    def test_single_token(self):
        assert sink_scores(rand((1, 4))).tolist() == [np.inf]


class TestSelectTopk:
    def test_floor_semantics(self):
        assert select_topk(sink_scores(rand((10, 4))), 0.333).size == 3

    def test_hand_example(self):
        s = np.array([np.inf, 0.5, 0.1, 0.9, 0.2])
        sel = select_topk(s, 0.4)
        assert sel.tolist() == [2, 4]

    def test_full_selection_includes_sink(self):
        sel = select_topk(sink_scores(rand((7, 4))), 1.0)
        assert sel.tolist() == list(range(7))

    def test_zero_ratio(self):
        sel = select_topk(sink_scores(rand((7, 4))), 0.0)
        assert sel.size == 0 and sel.dtype == np.int64

    def test_accepts_raw_array(self):
        sel = select_topk(np.array([np.inf, 3.0, 1.0, 2.0]), 0.5)
        assert sel.tolist() == [1, 2] or sel.tolist() == [2, 3]
        # k = floor(0.5 * 4) = 2, two smallest are 1.0 and 2.0
        assert sel.tolist() == [2, 3]

    def test_ties_break_to_smaller_index(self):
        s = np.array([np.inf, 0.5, 0.5, 0.5, 0.5])
        assert select_topk(s, 0.4).tolist() == [1, 2]

    def test_ratio_domain(self):
        with pytest.raises(ConfigError):
            select_topk(sink_scores(rand((4, 4))), -0.1)
        with pytest.raises(ConfigError):
            select_topk(sink_scores(rand((4, 4))), 1.1)

    @pytest.mark.parametrize("ratio", ["x", None, True, [0.5]])
    def test_ratio_must_be_number(self, ratio):
        with pytest.raises(ConfigError):
            select_topk(np.array([np.inf, 0.5, 0.1]), ratio)

    @pytest.mark.parametrize("keys", [np.zeros((3, 4)), np.zeros((0, 2)), np.float64(0.5), 0.5])
    def test_keys_must_be_one_dimensional(self, keys):
        # a matrix would be ranked by its rows, a scalar has no length
        with pytest.raises(ShapeError, match="1-D keys"):
            select_topk(keys, 0.5)

    @given(st.integers(1, 512), st.floats(0.0, 1.0), st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, t, p, seed):
        scores = np.random.default_rng(seed).random(t)
        scores[0] = np.inf
        sel = select_topk(scores, p)
        assert sel.tolist() == ref.ref_topk_ascending(scores.tolist(), p)
        if sel.size < t:
            assert 0 not in sel.tolist()
        assert np.all(np.diff(sel) > 0)

    def test_mask_invariant_to_sink_rescale(self):
        states = rand((12, 8), seed=3)
        scaled = states.copy()
        scaled[0] *= 7.5
        a = select_topk(sink_scores(states), 0.5)
        b = select_topk(sink_scores(scaled), 0.5)
        assert a.tolist() == b.tolist()


def test_ranking_matches_cosine_under_equal_norms():
    # equal-norm rows: |dot| and |cos| order identically
    states = rand((20, 16), seed=4)
    states[1:] /= np.linalg.norm(states[1:], axis=1, keepdims=True)
    scores = sink_scores(states)[1:]
    cosines = np.array([abs(ref.ref_cosine(states[0].tolist(), s.tolist()))
                        for s in states[1:]])
    assert np.array_equal(np.argsort(scores, kind="stable"),
                          np.argsort(cosines, kind="stable"))


class TestCosGradient:
    def test_orthogonal_pair(self):
        grad = cos_gradient(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert np.allclose(grad, [0.5, 0.0], atol=1e-12)

    def test_collinear_vanishes(self):
        h0 = np.array([1.0, 2.0, -1.0])
        grad = cos_gradient(h0, 3.0 * h0)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_dtype(self):
        # integer input is computed and returned in float64, not truncated
        # back to integers; float input keeps its dtype
        grad = cos_gradient(np.array([1, 2]), np.array([2, 1]))
        assert grad.dtype == np.float64
        assert np.array_equal(grad, cos_gradient(np.array([1.0, 2.0]), np.array([2.0, 1.0])))
        assert np.allclose(grad, [-0.12, 0.24], atol=1e-12)
        f32 = np.array([1.0, 2.0], dtype=np.float32)
        assert cos_gradient(f32, f32[::-1]).dtype == np.float32

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            cos_gradient(np.zeros(3), np.ones(3))
        with pytest.raises(DomainError):
            cos_gradient(np.ones(3), np.zeros(3))

    def test_matches_closed_form_reference(self):
        h0, hi = rand(16, seed=1), rand(16, seed=2)
        assert np.allclose(cos_gradient(h0, hi),
                           ref.ref_cos_gradient(h0.tolist(), hi.tolist()),
                           atol=1e-12)

    def test_matches_finite_differences(self):
        h0, hi = rand(16, seed=5), rand(16, seed=6)
        grad = cos_gradient(h0, hi)
        fd = np.array(ref.ref_cos_gradient_fd(h0.tolist(), hi.tolist()))
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel < 1e-6

    @given(st.integers(0, 2**31), st.sampled_from([2, 8, 64]))
    @settings(max_examples=60, deadline=None)
    def test_norm_identity_f64(self, seed, d):
        rng = np.random.default_rng(seed)
        h0, hi = rng.standard_normal(d), rng.standard_normal(d)
        c = ref.ref_cosine(h0.tolist(), hi.tolist())
        lhs = importance_norm_sq(h0, hi) * float(hi @ hi) + c * c
        assert abs(lhs - 1.0) < 1e-12

    def test_norm_identity_f32(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            h0 = rng.standard_normal(16).astype(np.float32)
            hi = rng.standard_normal(16).astype(np.float32)
            c = ref.ref_cosine(h0.tolist(), hi.tolist())
            lhs = importance_norm_sq(h0, hi) * float(ref.ref_norm(hi.tolist())) ** 2 + c * c
            assert abs(lhs - 1.0) < 1e-6


class TestImportanceNormSq:
    def test_orthogonal_unit(self):
        v = importance_norm_sq(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_collinear_zero(self):
        h0 = np.array([1.0, 1.0])
        assert importance_norm_sq(h0, 2.0 * h0) == pytest.approx(0.0, abs=1e-12)


class TestSelectionKeys:
    @pytest.mark.parametrize("shape", [(0, 4), (4,), (2, 3, 4), ()])
    def test_states_must_be_t_by_d(self, shape):
        with pytest.raises(UsageError):
            selection_keys(np.zeros(shape), Criterion(), layer=0)

    def test_orthogonal_desc_negates_ranking(self):
        states = rand((8, 4), seed=7)
        asc = selection_keys(states, Criterion(kind="orthogonal_asc"), layer=0)
        desc = selection_keys(states, Criterion(kind="orthogonal_desc"), layer=0)
        assert desc[0] == np.inf
        assert np.array_equal(desc[1:], -asc[1:])

    def test_norm_keys(self):
        states = rand((8, 4), seed=8)
        asc = selection_keys(states, Criterion(kind="norm_asc"), layer=0)
        desc = selection_keys(states, Criterion(kind="norm_desc"), layer=0)
        norms = np.linalg.norm(states, axis=1)
        assert asc[0] == np.inf and desc[0] == np.inf
        assert np.allclose(asc[1:], norms[1:], atol=1e-12)
        assert np.allclose(desc[1:], -norms[1:], atol=1e-12)

    def test_random_keys_seeded(self):
        states = rand((16, 4), seed=9)
        crit = Criterion(kind="random", seed=42)
        a = selection_keys(states, crit, layer=3)
        b = selection_keys(states, crit, layer=3)
        assert np.array_equal(a, b)
        assert a[0] == np.inf
        c = selection_keys(states, crit, layer=4)
        assert not np.array_equal(a, c)

    def test_random_requires_seed(self):
        with pytest.raises(ConfigError):
            Criterion(kind="random")

    @pytest.mark.parametrize("seed", ["x", 1.5, -1, True, [1]])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError):
            Criterion(kind="random", seed=seed)

    @pytest.mark.parametrize("kind", [k for k in CRITERION_KINDS if k != "random"])
    def test_only_random_keeps_its_seed(self, kind):
        # a seed no ranking reads is checked, then dropped: criteria that rank alike are equal
        with pytest.raises(ConfigError):
            Criterion(kind, seed=-1)
        assert Criterion(kind, "raw_hidden", seed=3) == Criterion(kind, "raw_hidden")
        assert Criterion(kind, seed=np.int64(3)).seed is None
        assert Criterion("random", seed=3).seed == 3
        assert Criterion("random", seed=3) != Criterion("random", seed=4)

    def test_numpy_integer_seed_accepted(self):
        states = rand((6, 4), seed=9)
        a = selection_keys(states, Criterion(kind="random", seed=np.int64(5)), layer=1)
        assert np.array_equal(a, selection_keys(states, Criterion(kind="random", seed=5), layer=1))

    def test_criterion_validation(self):
        with pytest.raises(ConfigError):
            Criterion(kind="sideways")
        with pytest.raises(ConfigError):
            Criterion(stage="pre_embedding")


class TestForwardOrthorankLayer:
    def embed(self, model, tokens):
        return model.weights["embed.weight"][np.asarray(tokens)].copy()

    def dense_block_output(self, model, tokens):
        _, trace, _ = forward_dense(model, tokens, HiddenTrace())
        return trace.hidden[1]  # block 1's input is block 0's output

    def test_full_ratio_is_bitwise_dense(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        x_out, _, _, sel = forward_orthorank_layer(tiny_model, 0, x, 1.0)
        assert np.array_equal(x_out, self.dense_block_output(tiny_model, tiny_tokens))
        assert sel.size == len(tiny_tokens)

    @pytest.mark.parametrize("p", [0.25, 0.333, 0.5])
    def test_unselected_rows_pass_through(self, tiny_model, tiny_tokens, p):
        x = self.embed(tiny_model, tiny_tokens)
        x_out, _, _, sel = forward_orthorank_layer(tiny_model, 0, x, p)
        unselected = np.setdiff1d(np.arange(len(tiny_tokens)), sel)
        assert unselected.size > 0
        assert np.array_equal(x_out[unselected], x[unselected])

    @pytest.mark.parametrize("p", [0.25, 0.333, 0.5])
    def test_selected_rows_match_dense(self, tiny_model, tiny_tokens, p):
        x = self.embed(tiny_model, tiny_tokens)
        dense = self.dense_block_output(tiny_model, tiny_tokens)
        x_out, _, _, sel = forward_orthorank_layer(tiny_model, 0, x, p)
        assert np.max(np.abs(x_out[sel] - dense[sel])) < 1e-6

    def test_kv_rows_for_all_tokens_by_default(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        _, keys, values, _ = forward_orthorank_layer(tiny_model, 0, x, 0.333)
        assert keys.shape[0] == len(tiny_tokens)
        assert values.shape[0] == len(tiny_tokens)

    def test_kv_rows_only_selected_when_disabled(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        _, keys, _, sel = forward_orthorank_layer(
            tiny_model, 0, x, 0.333, compute_kv_for_unselected=False)
        assert keys.shape[0] == sel.size

    def test_keys_match_dense_cache(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        _, keys, values, _ = forward_orthorank_layer(tiny_model, 0, x, 0.5)
        _, _, cache = forward_dense(tiny_model, tiny_tokens)
        assert np.array_equal(keys, cache.keys[0])
        assert np.array_equal(values, cache.values[0])

    def test_audit_rows(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        audit = HiddenTrace(hidden=None, selection=[])
        _, _, _, sel = forward_orthorank_layer(tiny_model, 2, x, 0.25, trace=audit)
        assert len(audit.selection) == len(tiny_tokens)
        selected = {r[2] for r in audit.selection if r[4]}
        assert selected == set(sel.tolist())
        assert all(r[0] == 2 for r in audit.selection)

    def test_bad_layer_index(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens)
        with pytest.raises(ConfigError):
            forward_orthorank_layer(tiny_model, 99, x, 0.5)

    def test_no_row_with_kv_off_skips_block(self, tiny_model, tiny_tokens):
        x = self.embed(tiny_model, tiny_tokens[:2])  # k = floor(0.333 * 2) = 0
        x_out, keys, values, sel = forward_orthorank_layer(
            tiny_model, 1, x, 0.333, compute_kv_for_unselected=False)
        assert sel.size == 0
        assert np.array_equal(x_out, x)
        cfg = tiny_model.config
        assert keys.shape == values.shape == (0, cfg.n_kv_heads, cfg.d_head)


class TestDecodeSelect:
    def cache_with_history(self, model, layer, history):
        cache = KVCache(model.config)
        cache.selective[layer] = (np.zeros(model.config.d_model), np.array(history))
        return cache

    def test_rank_within_k(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1, 0.2, 0.9])
        assert decode_select(cache, 1, 0.15, 0.5) is True
        assert cache.selective[1][1].tolist() == [np.inf, 0.1, 0.2, 0.9, 0.15]

    def test_zero_ratio_never_selects(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1])
        assert decode_select(cache, 1, 0.01, 0.0) is False

    def test_global_minimum_selected(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.4, 0.5])
        assert decode_select(cache, 1, 0.05, 0.5) is True

    def test_incumbent_wins_ties(self, tiny_model):
        # k = floor(0.5 * 3) = 1; the equal-valued incumbent keeps the slot
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.5])
        assert decode_select(cache, 1, 0.5, 0.5) is False

    def test_appends_even_when_rejected(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1])
        decode_select(cache, 1, 0.9, 0.5)
        assert cache.selective[1][1].tolist() == [np.inf, 0.1, 0.9]

    def test_missing_history(self, tiny_model):
        cache = KVCache(tiny_model.config)
        with pytest.raises(StateError):
            decode_select(cache, 1, 0.5, 0.5)

    def test_nonfinite_score_rejected(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1])
        with pytest.raises(UsageError):
            decode_select(cache, 1, np.nan, 0.5)

    def test_non_number_score_rejected(self, tiny_model):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1])
        with pytest.raises(UsageError):
            decode_select(cache, 1, "0.5", 0.5)
        assert cache.selective[1][1].tolist() == [np.inf, 0.1]

    @pytest.mark.parametrize("ratio", [7.0, -0.5, "x", None])
    def test_ratio_domain(self, tiny_model, ratio):
        cache = self.cache_with_history(tiny_model, 1, [np.inf, 0.1])
        with pytest.raises(ConfigError):
            decode_select(cache, 1, 5.0, ratio)
        assert cache.selective[1][1].tolist() == [np.inf, 0.1]

    def test_consistent_with_prefill_when_boundary_stable(self, tiny_model):
        # constructed so each arrival decision matches the full-sequence mask
        prefix = [np.inf, 0.9, 0.1, 0.8]
        arrivals = [0.05, 0.95]
        p = 0.5
        full = ref.ref_topk_ascending(prefix + arrivals, p)
        cache = self.cache_with_history(tiny_model, 0, prefix)
        for offset, s in enumerate(arrivals):
            got = decode_select(cache, 0, s, p)
            assert got == (len(prefix) + offset in full)


    @given(history=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 2),
                            max_size=40),
           arrivals=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 2),
                             min_size=1, max_size=10),
           keep_ratio=st.sampled_from([0.0, 0.2, 0.333, 0.5, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_brute_force_count(self, tiny_model, history, arrivals, keep_ratio):
        # ties and the +inf sink entry included; the keys stay in step, in arrival order
        cache = self.cache_with_history(tiny_model, 2, [np.inf] + history)
        pooled = [np.inf] + history
        for s in arrivals:
            k = int(np.floor(keep_ratio * (len(pooled) + 1)))
            expect = sum(1 for v in pooled if v <= s) + 1 <= k
            assert decode_select(cache, 2, s, keep_ratio) is expect
            pooled.append(s)
            assert cache.selective[2][1].tolist() == pooled

    def test_prefill_keeps_keys_in_position_order(self, tiny_model, tiny_tokens):
        audit = HiddenTrace(hidden=None, selection=[])
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1, 2], 0.5, trace=audit)
        for token in tiny_tokens[10:14]:
            decode_step_with_plan(tiny_model, cache, int(token), [1, 2], 0.5, trace=audit)
        for layer in (1, 2):
            scored = [row[3] for row in audit.selection if row[0] == layer]
            assert [row[2] for row in audit.selection if row[0] == layer] == list(range(14))
            assert cache.selective[layer][1].tolist() == scored
        cache.check()


class TestForwardWithPlan:
    def test_empty_plan_is_bitwise_dense(self, tiny_model, tiny_tokens):
        dense, _, _ = forward_dense(tiny_model, tiny_tokens)
        planned, _, _ = forward_with_plan(tiny_model, tiny_tokens, [], 0.5)
        assert np.array_equal(planned, dense)

    def test_full_ratio_is_bitwise_dense(self, tiny_model, tiny_tokens):
        dense, _, _ = forward_dense(tiny_model, tiny_tokens)
        planned, _, _ = forward_with_plan(tiny_model, tiny_tokens, [1, 2], 1.0)
        assert np.array_equal(planned, dense)

    def test_partial_ratio_differs(self, tiny_model, tiny_tokens):
        dense, _, _ = forward_dense(tiny_model, tiny_tokens)
        planned, _, _ = forward_with_plan(tiny_model, tiny_tokens, [1, 2], 0.333)
        assert not np.array_equal(planned, dense)

    def test_cache_state_for_plan_layers(self, tiny_model, tiny_tokens):
        _, trace, cache = forward_with_plan(
            tiny_model, tiny_tokens, [1, 3], 0.5, trace=HiddenTrace())
        assert set(cache.selective) == {1, 3}
        for layer in (1, 3):
            sink, keys = cache.selective[layer]
            assert keys.dtype == np.float64 and keys.shape == (len(tiny_tokens),)
            assert keys[0] == np.inf
            assert np.array_equal(sink, trace.normalized[layer][0])

    def test_out_of_range_plan_layer(self, tiny_model, tiny_tokens):
        with pytest.raises(ConfigError):
            forward_with_plan(tiny_model, tiny_tokens, [99], 0.5)

    @pytest.mark.parametrize("layers, ratio", [
        ([1, 2], [0.5]),           # fewer ratios than layers
        ([1, 2], [0.5, 0.5, 0.5]),  # more ratios than layers
        ([1, 2], {1: 0.5}),        # mapping misses a layer
        ([1, 1], 0.5),             # repeated layer
        ([1], 1.5),                # ratio out of range
        ([1], float("nan")),
    ])
    def test_bad_plan_is_config_error(self, tiny_model, tiny_tokens, layers, ratio):
        with pytest.raises(ConfigError):
            forward_with_plan(tiny_model, tiny_tokens, layers, ratio)

    def test_no_row_with_kv_off(self, tiny_model, tiny_tokens):
        # k = floor(0.333 * 2) = 0 at layer 1, with no KV rows to attend over
        logits, _, cache = forward_with_plan(
            tiny_model, tiny_tokens[:2], [1], 0.333, compute_kv_for_unselected=False)
        assert np.all(np.isfinite(logits))
        assert cache.keys[1].shape[0] == 0
        assert cache.keys[0].shape[0] == 2

    def test_kv_off_stores_only_selected(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(
            tiny_model, tiny_tokens, [1], 0.333, compute_kv_for_unselected=False)
        t = len(tiny_tokens)
        k = int(0.333 * t)
        assert cache.keys[1].shape[0] == k
        assert cache.positions[1].size == k
        assert cache.keys[0].shape[0] == t  # dense layers keep every token

    def test_criterion_changes_result(self, tiny_model, tiny_tokens):
        base, _, _ = forward_with_plan(tiny_model, tiny_tokens, [1, 2], 0.333)
        for crit in (Criterion(kind="orthogonal_desc"),
                     Criterion(kind="norm_asc"),
                     Criterion(kind="random", seed=1),
                     Criterion(stage="raw_hidden")):
            other, _, _ = forward_with_plan(
                tiny_model, tiny_tokens, [1, 2], 0.333, criterion=crit)
            assert np.all(np.isfinite(other))
            assert not np.array_equal(other, base), crit

    def test_audit_log_csv(self, tiny_model, tiny_tokens, tmp_path):
        audit = HiddenTrace(hidden=None, selection=[])
        forward_with_plan(tiny_model, tiny_tokens, [1], 0.5, trace=audit)
        path = tmp_path / "audit.csv"
        audit.write_selection_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,step,position,score,selected"
        assert len(lines) == 1 + len(tiny_tokens)
        assert lines[1] == "1,0,0,inf,0"  # the sink: +inf key, never selected at p < 1
        layer, step, position, score, selected = audit.selection[-1]
        assert lines[-1] == f"{layer},{step},{position},{score!r},{selected}"


class TestDecodeWithPlan:
    def test_one_trace_through_prefill_and_kv_off_decode(self, tiny_model, tiny_tokens):
        plan, n_layers = [1, 3], tiny_model.config.n_layers
        trace = HiddenTrace(attn_to_sink=[], selection=[])
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], plan, 0.2,
                                        compute_kv_for_unselected=False, trace=trace)
        for token in tiny_tokens[10:16]:
            decode_step_with_plan(tiny_model, cache, int(token), plan, 0.2,
                                  compute_kv_for_unselected=False, trace=trace)
        # one entry per layer step in every list: the prefill, then six decode steps
        assert trace.layers == list(range(n_layers)) * 7
        assert {len(trace.hidden), len(trace.normalized), len(trace.attn_to_sink)} == {7 * n_layers}
        assert [h.shape[0] for h in trace.hidden] == [10] * n_layers + [1] * (6 * n_layers)
        # sink mass covers the selected rows: all rows at a dense layer, and at a
        # plan layer the rows its selection rows mark, none when a token skips the block
        expect = []
        for j, layer in enumerate(trace.layers):
            step = 0 if j < n_layers else 9 + j // n_layers
            marks = [row[4] for row in trace.selection if row[:2] == (layer, step)]
            expect.append(sum(marks) if layer in plan else trace.hidden[j].shape[0])
        assert [a.size for a in trace.attn_to_sink] == expect
        assert 0 in expect[n_layers:]  # some decode token skipped a plan layer's block
        assert len(trace.selection) == len(plan) * (10 + 6)
        cache.check()

    def test_history_grows_per_decode(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1], 0.5)
        decode_step_with_plan(tiny_model, cache, int(tiny_tokens[10]), [1], 0.5)
        assert len(cache.selective[1][1]) == 11
        assert cache.n_tokens == 11
        cache.check()

    def test_unselected_token_keeps_kv_by_default(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1], 0.2)
        decode_step_with_plan(tiny_model, cache, int(tiny_tokens[10]), [1], 0.2)
        assert cache.positions[1].tolist() == list(range(11))
        cache.check()

    def test_kv_off_skips_unselected_decode_token(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(
            tiny_model, tiny_tokens[:10], [1], 0.2, compute_kv_for_unselected=False)
        before = cache.positions[1].size
        audit = HiddenTrace(hidden=None, selection=[])
        decode_step_with_plan(
            tiny_model, cache, int(tiny_tokens[10]), [1], 0.2,
            compute_kv_for_unselected=False, trace=audit)
        row = audit.selection[-1]
        grew = cache.positions[1].size - before
        assert grew == (1 if row[4] else 0)
        cache.check()

    def test_decode_deterministic(self, tiny_model, tiny_tokens):
        outs = []
        for _ in range(2):
            _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:12], [1, 2], 0.5)
            logits, _ = decode_step_with_plan(
                tiny_model, cache, int(tiny_tokens[12]), [1, 2], 0.5)
            outs.append(logits)
        assert np.array_equal(outs[0], outs[1])

    def test_random_criterion_decode_deterministic(self, tiny_model, tiny_tokens):
        crit = Criterion(kind="random", seed=3)
        outs = []
        for _ in range(2):
            _, _, cache = forward_with_plan(
                tiny_model, tiny_tokens[:12], [1], 0.5, criterion=crit)
            logits, _ = decode_step_with_plan(
                tiny_model, cache, int(tiny_tokens[12]), [1], 0.5, criterion=crit)
            outs.append(logits)
        assert np.array_equal(outs[0], outs[1])


    @pytest.mark.parametrize("stage", ["normalized", "raw_hidden"])
    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_decode_score_matches_prefill(self, tiny_model, tiny_tokens, stage, layer):
        # every layer before the plan layer is dense, so the new token's state
        # at the plan layer is the one a prefill of the longer sequence sees
        crit = Criterion(stage=stage)
        t = 20
        decoding = HiddenTrace(hidden=None, selection=[])
        prefilling = HiddenTrace(hidden=None, selection=[])
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:t], [layer], 0.5, crit)
        decode_step_with_plan(tiny_model, cache, int(tiny_tokens[t]), [layer], 0.5, crit,
                              trace=decoding)
        forward_with_plan(tiny_model, tiny_tokens[:t + 1], [layer], 0.5, crit, trace=prefilling)
        decoded, prefilled = decoding.selection[-1][3], prefilling.selection[-1][3]
        assert abs(decoded - prefilled) <= 1e-5

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_decode_score_is_the_prefill_score(self, stage):
        # at keep 1.0 every row is selected, so each layer's input in decode is
        # the prefill's row bitwise, and so must be its score at every layer
        config = ModelConfig(n_layers=4, d_model=64, n_heads=4, n_kv_heads=2, d_head=16,
                             d_ffn=128, vocab_size=64)
        model = make_random_model(config, seed=3)
        tokens = make_tokens(60, config.vocab_size, seed=8)
        crit, layers = Criterion(stage=stage), [1, 2, 3]
        decoding = HiddenTrace(hidden=None, selection=[])
        prefilling = HiddenTrace(hidden=None, selection=[])
        _, _, cache = forward_with_plan(model, tokens[:20], layers, 1.0, crit)
        for token in tokens[20:]:
            decode_step_with_plan(model, cache, int(token), layers, 1.0, crit, trace=decoding)
        forward_with_plan(model, tokens, layers, 1.0, crit, trace=prefilling)
        prefilled = {(layer, pos): score for layer, _, pos, score, _ in prefilling.selection}
        assert len(decoding.selection) == 3 * 40
        differing = [(layer, pos) for layer, _, pos, score, _ in decoding.selection
                     if score != prefilled[layer, pos]]
        assert differing == []

    def test_plan_layer_without_history_leaves_cache_unchanged(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [2], 0.5)
        rows = [(k.shape[0], p.size) for k, p in zip(cache.keys, cache.positions)]
        with pytest.raises(StateError):
            decode_step_with_plan(tiny_model, cache, int(tiny_tokens[10]), [2, 3], 0.5)
        assert [(k.shape[0], p.size) for k, p in zip(cache.keys, cache.positions)] == rows
        assert cache.n_tokens == 10
        assert len(cache.selective[2][1]) == 10

    def test_bad_plan_is_config_error(self, tiny_model, tiny_tokens):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1, 2], 0.5)
        with pytest.raises(ConfigError):
            decode_step_with_plan(tiny_model, cache, int(tiny_tokens[10]), [1, 2], [0.5])
        assert cache.n_tokens == 10


class TestRmsNormOncePerLayer:
    """Each layer's attention RMSNorm is computed at most once per call."""

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = Counter()
        real = tensor_core._rms_norm  # the layer loop's RMSNorm kernel

        def counting(x, gain, eps):
            calls[id(gain)] += 1
            return real(x, gain, eps)

        monkeypatch.setattr(tensor_core, "_rms_norm", counting)
        return calls

    def assert_once(self, model, calls):
        per_layer = [calls[id(model.weights[f"layers.{l}.attn_norm.gain"])]
                     for l in range(model.config.n_layers)]
        assert sum(calls.values()) > 0
        assert max(per_layer) <= 1, per_layer
        calls.clear()

    @pytest.mark.parametrize("layers, kwargs", [
        ([], {}),
        ([1, 2], {}),
        ([1, 2], {"criterion": Criterion(stage="raw_hidden")}),
        ([1, 2], {"trace": HiddenTrace(attn_to_sink=[], selection=[])}),
        ([1, 3], {"compute_kv_for_unselected": False}),
    ])
    def test_prefill_and_decode(self, tiny_model, tiny_tokens, norm_calls, layers, kwargs):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:12], layers, 0.333, **kwargs)
        self.assert_once(tiny_model, norm_calls)
        for token in tiny_tokens[12:16]:
            decode_step_with_plan(tiny_model, cache, int(token), layers, 0.333, **kwargs)
            self.assert_once(tiny_model, norm_calls)


class TestSkippedRowsDoNoBlockWork:
    """An unselected decode token costs a plan layer its K/V products only."""

    @pytest.mark.parametrize("kv_on, expected", [(True, 2), (False, 0)])
    def test_matmul_calls_at_unselected_layer(self, tiny_model, monkeypatch, kv_on, expected):
        calls = [0]
        real_matmul, real_step = tensor_core.matmul, selection._layer_step
        per_layer = []

        def counting_matmul(a, b):
            calls[0] += 1
            return real_matmul(a, b)

        def counting_step(model, layer, *args, **kwargs):
            before = calls[0]
            sel, k_new, v_new = real_step(model, layer, *args, **kwargs)
            per_layer.append((layer, sel.size, calls[0] - before))
            return sel, k_new, v_new

        monkeypatch.setattr(tensor_core, "matmul", counting_matmul)
        monkeypatch.setattr(selection, "_layer_step", counting_step)
        plan = [1, 2, 3]
        tokens = make_tokens(40, tiny_model.config.vocab_size, seed=8)
        _, _, cache = forward_with_plan(tiny_model, tokens[:24], plan, 0.25,
                                        compute_kv_for_unselected=kv_on)
        skipped = 0
        for token in tokens[24:]:
            per_layer.clear()
            decode_step_with_plan(tiny_model, cache, int(token), plan, 0.25,
                                  compute_kv_for_unselected=kv_on)
            dense_cost = per_layer[0][2]
            for layer, n_sel, n_calls in per_layer:
                if layer in plan and n_sel == 0:
                    skipped += 1
                    assert n_calls == expected, (layer, n_calls)
                else:
                    assert n_calls == dense_cost, (layer, n_calls)
        assert skipped > 0


class TestDecodeStepKernelCalls:
    """The BLAS work of one plan decode step on the benchmark's shapes, pinned."""

    def test_matmul_calls_and_matrices(self, monkeypatch):
        # The benchmark's decode model and plan after a 1,024-token prompt. A
        # layer that runs its block makes 19 np.matmul calls past its K and V
        # products (Q, score, 5 row-sum and 5 context K chunks, output, gate,
        # up and 4 down chunks), and hands BLAS 30 matrices past them: the 2
        # KV heads' score, row-sum and context products, and one per weight
        # product. Those hold 104 rows: 4 per folded score, row-sum and
        # context matrix (1 row x group 4) and 2 per weight product, whose
        # one row the kernel pads to two. The 3 dense layers, the K and V of
        # the 5 plan layers and the output head make the rest.
        config = ModelConfig(n_layers=8, d_model=256, n_heads=8, n_kv_heads=2, d_head=32,
                             d_ffn=1024, vocab_size=512)
        model, plan = make_random_model(config, seed=7), [2, 3, 4, 5, 6]
        _, _, cache = forward_with_plan(model, make_tokens(1024, 512, seed=1), plan, 0.333)
        matrices, rows = [], []
        real = np.matmul

        def counting(a, b, *args, **kwargs):
            matrices.append(int(np.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))))
            rows.append(matrices[-1] * a.shape[-2])
            return real(a, b, *args, **kwargs)

        seen = set()
        for token in make_tokens(6, 512, seed=2):
            trace = HiddenTrace(hidden=None, selection=[])
            matrices.clear()
            rows.clear()
            monkeypatch.setattr(np, "matmul", counting)
            decode_step_with_plan(model, cache, int(token), plan, 0.333, trace=trace)
            monkeypatch.setattr(np, "matmul", real)
            selected = sum(chosen for *_, chosen in trace.selection)
            seen.add(selected)
            assert (len(matrices), sum(matrices), sum(rows)) == (
                74 + 19 * selected, 107 + 30 * selected, 346 + 104 * selected)
        assert 0 in seen and len(seen) > 1


class TestKVCacheCheck:
    """KVCache.check holds through prefill and decode and catches each broken invariant."""

    @pytest.mark.parametrize("model_name", ["tiny_model", "micro_model"])
    @pytest.mark.parametrize("kv_on", [True, False])
    @pytest.mark.parametrize("plan", [[], [1], "all"])
    def test_holds_through_prefill_and_decode(self, request, model_name, kv_on, plan):
        model = request.getfixturevalue(model_name)
        n = model.config.n_layers
        plan = list(range(n)) if plan == "all" else [l for l in plan if l < n]
        tokens = make_tokens(20, model.config.vocab_size, seed=12)
        _, _, cache = forward_with_plan(model, tokens[:12], plan, 0.4,
                                        compute_kv_for_unselected=kv_on)
        cache.check()
        for token in tokens[12:]:
            decode_step_with_plan(model, cache, int(token), plan, 0.4,
                                  compute_kv_for_unselected=kv_on)
            cache.check()
        rows = [p.size for p in cache.positions]
        if kv_on:
            assert rows == [cache.n_tokens] * n
        else:
            assert all(r < cache.n_tokens for l, r in enumerate(rows) if l in plan)

    @pytest.mark.parametrize("breakage", [
        "extra_token", "short_values", "positions_unsorted", "dense_layer_short",
        "count_past_capacity", "keys_misshaped", "history_short", "history_empty",
        "sink_missing", "layout_swapped", "layer_missing",
    ])
    def test_broken_invariant_raises(self, tiny_model, tiny_tokens, breakage):
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1, 2], 0.5)
        arena, rows = cache.layers[1 if breakage != "positions_unsorted" else 2]
        if breakage == "extra_token":
            cache.n_tokens += 1
        elif breakage == "short_values":  # values end before the layer's committed rows
            cache.layers[1] = (arena._replace(va=arena.va[:, :rows - 1]), rows)
        elif breakage == "positions_unsorted":
            arena.pos[:rows] = arena.pos[:rows][::-1].copy()
        elif breakage == "dense_layer_short":
            cache.layers[0] = (cache.layers[0][0], cache.layers[0][1] - 1)
        elif breakage == "count_past_capacity":
            cache.layers[1] = (arena, arena.capacity + 1)
        elif breakage == "keys_misshaped":
            cache.layers[1] = (arena._replace(kt=arena.kt[:, :-1]), rows)
        elif breakage == "history_short":
            sink, keys = cache.selective[1]
            cache.selective[1] = (sink, keys[:-1])
        elif breakage == "history_empty":
            cache.selective[1] = (cache.selective[1][0], np.zeros(0))
        elif breakage == "layout_swapped":  # a consistent arena of twice the KV heads
            n_kv, d_head, capacity = arena.kt.shape
            cache.layers[1] = (arena._replace(
                kt=np.zeros((2 * n_kv, d_head, capacity), arena.kt.dtype),
                va=np.zeros((2 * n_kv, capacity, d_head), arena.va.dtype)), rows)
        elif breakage == "layer_missing":
            cache.layers.pop()
        else:  # the record's keys do not start with the sink's +inf
            sink, keys = cache.selective[2]
            cache.selective[2] = (sink, np.append(keys[1:], 0.5))
        with pytest.raises(StateError):
            cache.check()


class TestGenerateGreedy:
    def test_full_ratio_matches_dense(self, tiny_model):
        prompt = make_tokens(6, tiny_model.config.vocab_size, seed=5)
        dense = generate_greedy(tiny_model, prompt, 8)
        planned = generate_greedy(tiny_model, prompt, 8, plan_layers=[1, 2],
                                  keep_ratio=1.0)
        assert planned == dense

    def test_zero_new_tokens(self, tiny_model):
        prompt = [1, 2, 3]
        assert generate_greedy(tiny_model, prompt, 0) == prompt

    def test_prompt_preserved_and_length(self, tiny_model):
        prompt = [4, 9, 2]
        out = generate_greedy(tiny_model, prompt, 5, plan_layers=[2], keep_ratio=0.5)
        assert out[:3] == prompt and len(out) == 8
        assert all(0 <= t < tiny_model.config.vocab_size for t in out)

    def test_negative_count_rejected(self, tiny_model):
        with pytest.raises(UsageError):
            generate_greedy(tiny_model, [1], -1)


# Plan layers and keep ratios of every shape a caller might pass: scalars
# (bools and numpy scalars included), 0-d, 1-D and 2-D arrays, tuples, nested
# lists, mappings, strings and None; well-formed plans are drawn often too.
_PLAN_SCALARS = st.one_of(
    st.integers(-2, 5), st.floats(-0.5, 1.5), st.sampled_from([float("nan"), float("inf")]),
    st.booleans(), st.integers(-2, 5).map(np.int64), st.floats(0, 1, width=32).map(np.float32),
    st.booleans().map(np.bool_), st.none(), st.text(max_size=2),
)
_PLAN_VALUES = st.one_of(
    _PLAN_SCALARS,
    st.lists(_PLAN_SCALARS, max_size=4),
    st.lists(_PLAN_SCALARS, max_size=4).map(tuple),
    st.lists(st.lists(_PLAN_SCALARS, max_size=2), max_size=2),
    st.dictionaries(st.integers(0, 4), _PLAN_SCALARS, max_size=3),
    _PLAN_SCALARS.map(np.array),
    st.lists(st.floats(0, 1), max_size=4).map(np.array),
    st.lists(st.integers(0, 4), max_size=4).map(np.array),
    st.lists(st.lists(st.floats(0, 1), min_size=2, max_size=2), max_size=2).map(np.array),
)
_PLAN_LAYERS = st.one_of(st.lists(st.integers(1, 3), unique=True, max_size=3).map(sorted),
                         _PLAN_VALUES)
_PLAN_RATIOS = st.one_of(st.floats(0.05, 1.0), st.lists(st.floats(0.05, 1.0), max_size=3),
                         _PLAN_VALUES)


class TestPlanResolver:
    """``forward_with_plan`` and ``LayerPlan`` read a plan through one resolver."""

    @given(layers=_PLAN_LAYERS, ratio=_PLAN_RATIOS)
    @settings(max_examples=300, deadline=None)
    def test_config_error_only_and_canonical_plan_agrees(self, tiny_model, layers, ratio):
        tokens = make_tokens(12, tiny_model.config.vocab_size)
        try:
            plan = LayerPlan(layers=layers, keep_ratio=ratio)
        except ConfigError:
            plan = None
        try:
            logits, _, _ = forward_with_plan(tiny_model, tokens, layers, ratio)
        except ConfigError:
            logits = None
        if plan is None or any(l >= tiny_model.config.n_layers for l in plan.layers):
            return
        assert type(plan.keep_ratio) in (float, list)
        assert all(type(v) is int for v in plan.layers)
        ratios = plan.keep_ratio if type(plan.keep_ratio) is list else [plan.keep_ratio]
        assert all(type(r) is float for r in ratios)
        assert logits is not None, (layers, ratio)
        canonical, _, _ = forward_with_plan(tiny_model, tokens, plan.layers, plan.keep_ratio)
        assert np.array_equal(logits, canonical)

    @pytest.mark.parametrize("layers, ratio", [
        ([1], "abc"), ([1], None), ([1], [[0.5]]), ([1], True), ([1.7], 0.5),
        ([True], 0.5), (None, 0.5), ([1], np.array(0.5)), ([1, 2], [[0.5], 0.5]),
        pytest.param([1], 10 ** 400, id="huge-int-ratio"), ([1], {1: 0.5}),
    ])
    def test_bad_forms_are_config_errors(self, tiny_model, tiny_tokens, layers, ratio):
        with pytest.raises(ConfigError):
            forward_with_plan(tiny_model, tiny_tokens, layers, ratio)
        _, _, cache = forward_with_plan(tiny_model, tiny_tokens[:10], [1], 0.5)
        with pytest.raises(ConfigError):
            decode_step_with_plan(tiny_model, cache, int(tiny_tokens[10]), layers, ratio)
        assert cache.n_tokens == 10

    @pytest.mark.parametrize("n_new", [2.5, "2", None, True])
    def test_generate_count_must_be_integer(self, tiny_model, n_new):
        with pytest.raises(UsageError):
            generate_greedy(tiny_model, [1, 2, 3], n_new)

    def test_generate_numpy_count(self, tiny_model):
        assert generate_greedy(tiny_model, [1, 2, 3], np.int64(2)) == \
            generate_greedy(tiny_model, [1, 2, 3], 2)


NAN_TOKEN = 5


def cache_bytes(cache):
    """Every field of a cache as bytes, so NaN entries compare equal."""
    return (cache.n_tokens, cache.identity, cache.criterion,
            [a.tobytes() for a in cache.keys + cache.values + cache.positions],
            {l: (s.tobytes(), k.tobytes()) for l, (s, k) in cache.selective.items()})


@pytest.fixture(scope="module")
def nan_token_model(tiny_model):
    """tiny_model untied, with token NAN_TOKEN's embedding all NaN.

    Untied, so every other token's logits stay finite and compare exactly.
    """
    weights = {name: w.copy() for name, w in tiny_model.weights.items()}
    weights["lm_head.weight"] = tiny_model.unembed.copy()
    weights["embed.weight"][NAN_TOKEN] = np.nan
    config = dataclasses.replace(tiny_model.config, tied_embeddings=False)
    return Model(config, weights, "nan-token")


def finite_tokens(n, vocab, seed=3):
    tokens = make_tokens(4 * n, vocab, seed=seed)
    return tokens[tokens != NAN_TOKEN][:n]


class TestFailedStepLeavesCache:
    """A step that raises at any layer leaves the cache byte-identical."""

    @pytest.mark.parametrize("plan", [[3], [1, 3], [2, 3]])
    @pytest.mark.parametrize("kv_on", [True, False])
    def test_nan_token_at_later_plan_layer(self, nan_token_model, plan, kv_on):
        tokens = finite_tokens(29, nan_token_model.config.vocab_size)
        _, _, cache = forward_with_plan(nan_token_model, tokens[:28], plan, 0.5,
                                        compute_kv_for_unselected=kv_on)
        before = cache_bytes(cache)
        with pytest.raises(UsageError):
            decode_step_with_plan(nan_token_model, cache, NAN_TOKEN, plan, 0.5,
                                  compute_kv_for_unselected=kv_on)
        assert cache_bytes(cache) == before
        cache.check()

    @pytest.mark.parametrize("kv_on", [True, False])
    def test_failed_step_that_grew_arenas(self, nan_token_model, kv_on):
        # fill the prefill's arenas, so the failing step must move to larger ones
        model, plan = nan_token_model, [3]
        tokens = finite_tokens(40, model.config.vocab_size)
        _, _, cache = forward_with_plan(model, tokens[:24], plan, 0.5,
                                        compute_kv_for_unselected=kv_on)
        full = cache.layers[0][0].capacity
        for token in tokens[24:24 + full - 24]:
            decode_step_with_plan(model, cache, int(token), plan, 0.5,
                                  compute_kv_for_unselected=kv_on)
        assert cache.layers[0][1] == full  # a dense layer: one row per token
        held = list(cache.layers)
        buffers = [x.tobytes() for arena, _ in held for x in arena]
        before = cache_bytes(cache)
        with pytest.raises(UsageError):
            decode_step_with_plan(model, cache, NAN_TOKEN, plan, 0.5,
                                  compute_kv_for_unselected=kv_on)
        assert all(a is b and m == n for (a, m), (b, n) in zip(cache.layers, held))
        assert [x.tobytes() for arena, _ in cache.layers for x in arena] == buffers
        assert cache_bytes(cache) == before
        decode_step_with_plan(model, cache, int(tokens[-1]), plan, 0.5,
                              compute_kv_for_unselected=kv_on)
        assert cache.layers[0][0] is not held[0][0]  # the step did need to grow
        cache.check()

    @pytest.mark.parametrize("failure", ["nan_token", "unplanned_layer", "out_of_vocab"])
    def test_next_step_equals_one_on_a_fresh_cache(self, nan_token_model, failure):
        model = nan_token_model
        tokens = finite_tokens(29, model.config.vocab_size)
        _, _, failed = forward_with_plan(model, tokens[:28], [1, 3], 0.5)
        _, _, fresh = forward_with_plan(model, tokens[:28], [1, 3], 0.5)
        token, plan = {"nan_token": (NAN_TOKEN, [1, 3]), "unplanned_layer": (tokens[28], [1, 2, 3]),
                       "out_of_vocab": (model.config.vocab_size, [1, 3])}[failure]
        with pytest.raises(OrthoRankError):
            decode_step_with_plan(model, failed, int(token), plan, 0.5)
        got, _ = decode_step_with_plan(model, failed, int(tokens[28]), [1, 3], 0.5)
        want, _ = decode_step_with_plan(model, fresh, int(tokens[28]), [1, 3], 0.5)
        assert got.tobytes() == want.tobytes() and np.isfinite(got).all()
        assert cache_bytes(failed) == cache_bytes(fresh)

    # other layers; another KV layout; the same KV layout with other query
    # heads; the same config with other weights
    @pytest.mark.parametrize("other", [{"n_layers": 2}, {"n_kv_heads": 4},
                                       {"n_heads": 8, "d_model": 64}, {}])
    @pytest.mark.parametrize("plan", [[], [1]])
    def test_cache_from_another_model(self, tiny_model, other, plan):
        model = make_random_model(dataclasses.replace(tiny_model.config, **other))
        _, _, cache = forward_with_plan(model, [1, 2, 3], plan, 0.5)
        before = cache_bytes(cache)
        with pytest.raises(StateError):
            decode_step_with_plan(tiny_model, cache, 4, plan, 0.5)
        assert cache_bytes(cache) == before
        cache.check()

    # the same KV layout with other query heads; other layers; another KV layout
    @pytest.mark.parametrize("other", [{"n_heads": 8, "d_model": 64}, {"n_layers": 2},
                                       {"n_kv_heads": 4}])
    @pytest.mark.parametrize("plan", [[], [1]])
    def test_cache_made_for_another_config(self, tiny_model, other, plan, monkeypatch):
        cache = KVCache(dataclasses.replace(tiny_model.config, **other))
        before = cache_bytes(cache)
        ran = []
        monkeypatch.setattr(selection, "_layer_step", lambda *args, **kw: ran.append(args))
        with pytest.raises(StateError):
            decode_step_with_plan(tiny_model, cache, 4, plan, 0.5)
        assert ran == [] and cache_bytes(cache) == before
        cache.check()

    @pytest.mark.parametrize("failure", ["out_of_vocab", "last_layer"])
    def test_failed_first_step_records_no_model(self, tiny_model, failure, monkeypatch):
        config = tiny_model.config
        cache, token = KVCache(config), 3
        if failure == "out_of_vocab":
            token = config.vocab_size
        else:  # every layer but the last writes its rows before the step fails
            real = selection.block_forward

            def failing(model, layer, *args):
                if layer == config.n_layers - 1:
                    raise UsageError("the last layer fails")
                return real(model, layer, *args)

            monkeypatch.setattr(selection, "block_forward", failing)
        with pytest.raises(UsageError):
            decode_step_with_plan(tiny_model, cache, token, [1], 0.5)
        assert cache.identity == (config, None) and cache.criterion is None
        assert cache_bytes(cache) == cache_bytes(KVCache(config))
        cache.check()

    def test_failed_step_keeps_what_it_recorded(self, tiny_model, monkeypatch):
        # plan layer 1 scores the token and runs; plan layer 3 scores it, then its block fails
        tokens = make_tokens(29, tiny_model.config.vocab_size, seed=3)
        _, _, cache = forward_with_plan(tiny_model, tokens[:28], [1, 3], 0.5)
        before = cache_bytes(cache)
        real = selection.block_forward

        def failing(model, layer, *args):
            if layer == 3:
                raise UsageError("layer 3 fails")
            return real(model, layer, *args)

        monkeypatch.setattr(selection, "block_forward", failing)
        trace = HiddenTrace(attn_to_sink=[], selection=[])
        with pytest.raises(UsageError):
            decode_step_with_plan(tiny_model, cache, int(tokens[28]), [1, 3], 0.5, trace=trace)
        # layers 0-2 ran; layer 3 recorded its input states and scored rows, not its block's
        assert trace.layers == [0, 1, 2, 3]
        assert len(trace.hidden) == len(trace.normalized) == 4
        assert len(trace.attn_to_sink) == 3
        assert [row[:3] for row in trace.selection] == [(1, 28, 28), (3, 28, 28)]
        assert cache_bytes(cache) == before
        cache.check()

    @pytest.mark.parametrize("step", ["subset_plan", "dense_step", "stage_switch"])
    def test_step_off_the_prefill_plan_or_criterion(self, step):
        model = make_random_model(ModelConfig(n_layers=6, d_model=32, n_heads=4, n_kv_heads=2,
                                              d_head=8, d_ffn=64, vocab_size=50))
        tokens = make_tokens(42, 50, seed=5)
        _, _, cache = forward_with_plan(model, tokens[:40], [2, 3], 0.5)
        before = cache_bytes(cache)
        with pytest.raises(StateError):
            if step == "dense_step":
                decode_step_dense(model, cache, int(tokens[40]))
            elif step == "subset_plan":
                decode_step_with_plan(model, cache, int(tokens[40]), [2], 0.5)
            else:
                decode_step_with_plan(model, cache, int(tokens[40]), [2, 3], 0.5,
                                      Criterion(stage="raw_hidden"))
        assert cache_bytes(cache) == before
        # the keep ratio, the KV setting and an unread seed may change from step to step
        decode_step_with_plan(model, cache, int(tokens[40]), [2, 3], 0.25,
                              compute_kv_for_unselected=False)
        decode_step_with_plan(model, cache, int(tokens[41]), [2, 3], 1.0, Criterion(seed=3))
        cache.check()

    def test_step_without_selective_record(self):
        # only a hand-edited cache lacks a planned layer's record
        model = make_random_model(ModelConfig(n_layers=6, d_model=32, n_heads=4, n_kv_heads=2,
                                              d_head=8, d_ffn=64, vocab_size=50))
        tokens = make_tokens(41, 50, seed=5)
        _, _, cache = forward_with_plan(model, tokens[:40], [2, 3], 0.5)
        del cache.selective[3]
        before = cache_bytes(cache)
        with pytest.raises(StateError, match=r"ran layers \[2\] selectively"):
            decode_step_with_plan(model, cache, int(tokens[40]), [2, 3], 0.5)
        assert cache_bytes(cache) == before

    def test_nonfinite_prefill_score_raises(self, tiny_model):
        weights = {name: w.copy() for name, w in tiny_model.weights.items()}
        weights["layers.2.ffn.w_down.weight"][0, 0] = np.nan
        model = Model(tiny_model.config, weights, "nan-down-projection")
        with pytest.raises(UsageError):
            forward_with_plan(model, np.arange(20), [3], 0.5)
        forward_with_plan(model, np.arange(20), [1], 0.5)[2].check()  # before the NaN: fine
        forward_with_plan(model, np.arange(20), [], 1.0)  # dense layers do not score


class TestAppend:
    """Rows appended to a prefilled cache in one step are ranked as one-token steps rank them."""

    @pytest.mark.parametrize("kind", CRITERION_KINDS)
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("kv_on", [True, False])
    def test_append_equals_one_token_steps(self, kind, stage, kv_on):
        config = ModelConfig(n_layers=6, d_model=64, n_heads=4, n_kv_heads=2, d_head=16,
                             d_ffn=128, vocab_size=64)
        model = make_random_model(config, seed=3)
        tokens, c = make_tokens(60, config.vocab_size, seed=8), 40
        criterion, layers = Criterion(kind, stage, seed=5), [2, 3]
        appending = HiddenTrace(hidden=None, selection=[])
        stepping = HiddenTrace(hidden=None, selection=[])
        _, _, appended = forward_with_plan(model, tokens[:c], layers, 0.5, criterion, kv_on)
        _, _, stepped = forward_with_plan(model, tokens[:c], layers, 0.5, criterion, kv_on)
        got = selection._run_layers(model, tokens[c:], appended, {2: 0.5, 3: 0.5}, criterion,
                                    kv_on, appending)
        want = np.vstack([decode_step_with_plan(model, stepped, int(t), layers, 0.5, criterion,
                                                kv_on, stepping)[0] for t in tokens[c:]])
        assert got.tobytes() == want.tobytes()
        assert cache_bytes(appended) == cache_bytes(stepped)
        appended.check()
        # the same rows, scores and choices, layer by layer; an append's step is its first position
        assert appending.selection == sorted((l, c, p, s, k) for l, _, p, s, k in stepping.selection)
        assert {k for *_, k in appending.selection} == {0, 1}
        # the plan's first layer sees the same input rows however they arrive, so its record
        # is a one-pass prefill's bitwise; random keys are drawn per prefill length
        if kind != "random":
            _, _, prefilled = forward_with_plan(model, tokens, layers, 0.5, criterion, kv_on)
            assert [a.tobytes() for a in appended.selective[2]] == \
                [a.tobytes() for a in prefilled.selective[2]]

    def test_nonfinite_later_row_leaves_cache(self, nan_token_model, monkeypatch):
        # plan layer 0 scores the embeddings, so only the NaN token's row is non-finite there
        tokens = finite_tokens(32, nan_token_model.config.vocab_size)
        _, _, cache = forward_with_plan(nan_token_model, tokens[:28], [0, 3], 0.5)
        before = cache_bytes(cache)
        ranked, real = [], selection.decode_select

        def recording(cache, layer, score, ratio):
            ranked.append((layer, score))
            return real(cache, layer, score, ratio)

        monkeypatch.setattr(selection, "decode_select", recording)
        with pytest.raises(UsageError, match="finite"):
            selection._run_layers(nan_token_model, [*tokens[28:], NAN_TOKEN], cache,
                                  {0: 0.5, 3: 0.5}, Criterion(), True)
        # layer 0 appended four finite keys to its staged record, then met the fifth row
        assert [layer for layer, _ in ranked] == [0] * 5
        assert np.isfinite([score for _, score in ranked[:4]]).all()
        assert np.isnan(ranked[4][1])
        assert cache_bytes(cache) == before
        cache.check()


# Small models of every head layout; tied and untied.
_FUZZ_CONFIGS = st.builds(
    lambda n_layers, n_kv, group, d_head, d_ffn, vocab, tied: ModelConfig(
        n_layers=n_layers, d_model=n_kv * group * d_head, n_heads=n_kv * group,
        n_kv_heads=n_kv, d_head=d_head, d_ffn=d_ffn, vocab_size=vocab, tied_embeddings=tied),
    st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.sampled_from([2, 4]),
    st.integers(2, 8), st.integers(2, 12), st.booleans(),
)


class TestStepFuzz:
    """Prefill and decode with valid and failing steps interleaved, over small shapes."""

    @given(config=_FUZZ_CONFIGS, seed=st.integers(0, 3), data=st.data(),
           owner=st.sampled_from(["unknown", "own", "random-9", "deadbeef"]),
           op=st.sampled_from(["perplexity", "ablation_grid"]))
    @settings(max_examples=60, deadline=None)
    def test_plan_for_another_model(self, config, seed, data, owner, op):
        # a plan names the model it was made for; "unknown" fits any model
        from orthorank import ablation_grid, perplexity

        model = make_random_model(config, seed)
        n = config.n_layers
        layers = data.draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)
                           if n > 1 else st.just([]), "layers")
        model_id = model.model_id if owner == "own" else owner
        plan = LayerPlan(layers=sorted(layers), keep_ratio=0.5, model_id=model_id, l_sink=0)
        corpus = make_tokens(12, config.vocab_size, seed=seed)
        run = {"perplexity": perplexity, "ablation_grid": ablation_grid}[op]
        if model_id in ("unknown", model.model_id):
            run(model, plan, corpus, 4)
        else:
            with pytest.raises(ConfigError, match=model_id):
                run(model, plan, corpus, 4)

    @given(config=_FUZZ_CONFIGS, seed=st.integers(0, 3), data=st.data(),
           kind=st.sampled_from(CRITERION_KINDS), stage=st.sampled_from(STAGES),
           kv_on=st.booleans(), prompt_len=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_only_orthorank_errors_and_cache_stays_consistent(
            self, config, seed, data, kind, stage, kv_on, prompt_len):
        model = make_random_model(config, seed)
        n, vocab = config.n_layers, config.vocab_size
        plan = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), "plan")
        ratio = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0, 1), "ratio")
        criterion = Criterion(kind, stage, seed=seed)
        tokens = make_tokens(prompt_len, vocab, seed=seed)
        _, _, cache = forward_with_plan(model, tokens, plan, ratio, criterion, kv_on)
        cache.check()
        unplanned = [l for l in range(n) if l not in plan]
        # the same layers and KV layout, other query heads and model width
        group = config.n_heads // config.n_kv_heads
        other = make_random_model(dataclasses.replace(
            config, n_heads=config.n_kv_heads * (3 - group),
            d_model=config.n_kv_heads * (3 - group) * config.d_head), seed)
        steps = st.integers(0, vocab - 1) | st.sampled_from(
            ["append", "out_of_vocab", "unplanned", "other_model", "subset_plan",
             "other_criterion"])
        for step in data.draw(st.lists(steps, max_size=5), "steps"):
            token, step_plan, step_model, step_criterion = step, plan, model, criterion
            if step == "append":  # n tokens onto the cache in one step
                token = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=8),
                                  "tokens")
            elif step == "out_of_vocab":
                token = data.draw(st.sampled_from([-1, vocab]), "token")
            elif step == "unplanned":
                if not unplanned:
                    continue
                token, step_plan = 0, plan + [data.draw(st.sampled_from(unplanned), "layer")]
            elif step == "other_model":  # under a dense step and under the prefill's plan
                token, step_model = 0, other
                step_plan = data.draw(st.sampled_from([[], plan]), "other_plan")
            elif step == "subset_plan":
                if not plan:
                    continue
                token, drop = 0, data.draw(st.sampled_from(plan), "drop")
                step_plan = [l for l in plan if l != drop]
            elif step == "other_criterion":
                token, step_criterion = 0, data.draw(
                    st.builds(Criterion, st.sampled_from(CRITERION_KINDS), st.sampled_from(STAGES),
                              st.integers(0, 4)).filter(lambda c: c != criterion), "criterion")
            # a step off the prefill's selective layers or criterion fails
            must_fail = (not isinstance(step, int) and step != "append"
                         and (step != "other_criterion" or bool(plan)))
            before = cache_bytes(cache)
            try:
                if step == "append":
                    selection._run_layers(step_model, token, cache, dict.fromkeys(plan, ratio),
                                          step_criterion, kv_on)
                else:
                    decode_step_with_plan(step_model, cache, token, step_plan, ratio,
                                          step_criterion, kv_on)
            except OrthoRankError as exc:
                assert must_fail, (step, exc)
                if step in ("other_model", "subset_plan", "other_criterion"):
                    assert isinstance(exc, StateError), exc
                assert cache_bytes(cache) == before
            else:
                assert not must_fail, step
                assert cache.n_tokens == before[0] + (len(token) if step == "append" else 1)
            cache.check()
