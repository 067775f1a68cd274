import abc
import decimal
import fractions
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthorank import (
    ConfigError,
    LayerPlan,
    Model,
    ModelConfig,
    UsageError,
    calibrate_greedy,
    corpus_sha256,
    effective_sparsity,
    eligible_layers,
    flop_count,
    generate_synthetic_model,
    generate_synthetic_sink_trace,
    perplexity,
    plan_from_sparsity,
    scaling_agreement,
)
from orthorank import errors, eval_harness
from orthorank.calibration import _plan_ratios, plan_effective_sparsity
from orthorank.errors import _is_number

import helpers


class TestEffectiveSparsity:
    def test_thirty_pct_layers_one_third_tokens(self):
        assert effective_sparsity(0.30, 0.333) == pytest.approx(0.2001, abs=1e-12)

    def test_fifteen_pct_layers(self):
        assert effective_sparsity(0.15, 0.333) == pytest.approx(0.10005, abs=1e-12)

    def test_full_keep_ratio_removes_nothing(self):
        assert effective_sparsity(0.7, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ConfigError):
            effective_sparsity(-0.1, 0.5)
        with pytest.raises(ConfigError):
            effective_sparsity(0.5, 1.5)

    @pytest.mark.parametrize("args", [("x", 0.5), (0.5, "x"), (None, 0.5), (True, 0.5)])
    def test_non_numbers_rejected(self, args):
        with pytest.raises(ConfigError):
            effective_sparsity(*args)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, f, r, delta):
        base = effective_sparsity(f, r)
        assert effective_sparsity(min(1.0, f + delta), r) >= base
        assert effective_sparsity(f, min(1.0, r + delta)) <= base


class TestPlanFromSparsity:
    def test_forty_layer_twenty_pct(self):
        m, eligible = plan_from_sparsity(40, 1, 0.20, 0.333)
        assert m == 12
        assert eligible == list(range(2, 39))

    def test_forty_layer_ten_pct(self):
        m, _ = plan_from_sparsity(40, 1, 0.10, 0.333)
        assert m == 6

    def test_zero_sparsity(self):
        m, eligible = plan_from_sparsity(40, 3, 0.0, 0.333)
        assert m == 0
        assert eligible == list(range(4, 39))

    def test_rounds_half_up(self):
        # 0.125 * 10 / 0.5 = 2.5 -> 3
        m, _ = plan_from_sparsity(10, 0, 0.125, 0.5)
        assert m == 3

    def test_infeasible_names_maximum(self):
        with pytest.raises(ConfigError, match="maximum achievable"):
            plan_from_sparsity(10, 5, 0.5, 0.333)

    def test_keep_ratio_one_unreachable(self):
        with pytest.raises(ConfigError, match="maximum achievable"):
            plan_from_sparsity(10, 1, 0.2, 1.0)

    def test_domain(self):
        with pytest.raises(ConfigError):
            plan_from_sparsity(10, 1, 1.0, 0.333)
        with pytest.raises(ConfigError):
            plan_from_sparsity(10, 1, 0.2, 0.0)

    @pytest.mark.parametrize("n_layers, l_sink", [(4.5, 0), (10, 1.0), ("10", 1), (10, None)])
    def test_non_integer_layer_counts(self, n_layers, l_sink):
        with pytest.raises(ConfigError):
            plan_from_sparsity(n_layers, l_sink, 0.1)


def test_eligible_layers_excludes_sink_and_final():
    assert eligible_layers(10, 1) == list(range(2, 9))
    assert eligible_layers(4, 2) == []
    assert eligible_layers(6, 0) == [1, 2, 3, 4]


def test_eligible_layers_needs_integers():
    assert eligible_layers(np.int64(6), np.int32(0)) == [1, 2, 3, 4]
    for bad in (("x", 0), (6, 0.5), (6, False)):
        with pytest.raises(ConfigError):
            eligible_layers(*bad)


def plan_ratios(plan):
    """A plan's keep ratio of each of its layers, in layer order."""
    return list(_plan_ratios(plan.layers, plan.keep_ratio).values())


class TestLayerPlan:
    def plan(self, **kw):
        base = dict(layers=[2, 4, 5], keep_ratio=0.333, model_id="m",
                    l_sink=1, target_sparsity=0.2)
        base.update(kw)
        return LayerPlan(**base)

    def test_entries_and_ratio_for(self):
        plan = self.plan()
        assert list(zip(plan.layers, plan_ratios(plan))) == [(2, 0.333), (4, 0.333), (5, 0.333)]

    def test_per_layer_ratios(self):
        plan = self.plan(keep_ratio=[0.25, 0.5, 0.75])
        assert list(zip(plan.layers, plan_ratios(plan))) == [(2, 0.25), (4, 0.5), (5, 0.75)]

    def test_layers_must_ascend_unique(self):
        with pytest.raises(ConfigError):
            self.plan(layers=[4, 2, 5])
        with pytest.raises(ConfigError):
            self.plan(layers=[2, 2, 5])

    def test_layers_must_follow_sink(self):
        with pytest.raises(ConfigError):
            self.plan(layers=[1, 2], l_sink=1)

    def test_ratio_domain(self):
        with pytest.raises(ConfigError):
            self.plan(keep_ratio=0.0)
        with pytest.raises(ConfigError):
            self.plan(keep_ratio=1.5)
        with pytest.raises(ConfigError):
            self.plan(keep_ratio=[0.5, 0.5])  # length mismatch

    @pytest.mark.parametrize("keep", [np.float32(0.5), np.float64(0.5), np.int64(1)])
    def test_numpy_scalar_is_one_ratio(self, keep):
        plan = self.plan(keep_ratio=keep)
        assert plan_ratios(plan) == [float(keep)] * 3
        assert plan_ratios(LayerPlan.from_json(plan.to_json())) == plan_ratios(plan)

    def test_numpy_ratio_array(self):
        plan = self.plan(keep_ratio=np.array([0.25, 0.5, 0.75], dtype=np.float32))
        assert plan_ratios(plan) == [0.25, 0.5, 0.75]
        assert json.loads(plan.to_json())["keep_ratio"] == [0.25, 0.5, 0.75]

    @pytest.mark.parametrize("keep", ["abc", None, True, {2: 0.5}, [0.5, "x", 0.5],
                                      np.array([[0.5, 0.5, 0.5]])])
    def test_non_numeric_ratio_is_config_error(self, keep):
        with pytest.raises(ConfigError, match="keep_ratio must be a number"):
            self.plan(keep_ratio=keep)

    @pytest.mark.parametrize("target", ["x", True, -0.1, 1.0, float("nan"), [0.2], {}])
    def test_target_sparsity_domain(self, target):
        # None or a number in [0, 1), the range plan_from_sparsity takes
        with pytest.raises(ConfigError, match="target_sparsity"):
            self.plan(target_sparsity=target)
        data = json.loads(self.plan().to_json())
        data["target_sparsity"] = target
        with pytest.raises(ConfigError, match="target_sparsity"):
            LayerPlan.from_json(json.dumps(data))

    @pytest.mark.parametrize("target", [None, 0, 0.0, 0.5, np.float32(0.25)])
    def test_target_sparsity_kept(self, target):
        plan = self.plan(target_sparsity=target)
        assert plan.target_sparsity == (None if target is None else float(target))
        assert LayerPlan.from_json(plan.to_json()).target_sparsity == plan.target_sparsity

    def test_json_schema_keys(self):
        data = json.loads(self.plan().to_json())
        assert set(data) == {"model_id", "l_sink", "target_sparsity",
                             "keep_ratio", "layers", "calib"}
        assert data["layers"] == [2, 4, 5]

    def test_json_round_trip(self):
        plan = self.plan(calib={"corpus_sha256": "ab", "context_len": 64})
        again = LayerPlan.from_json(plan.to_json())
        assert again == plan

    def test_save_load_file(self, tmp_path):
        plan = self.plan()
        plan.save(tmp_path / "plan.json")
        assert LayerPlan.load(tmp_path / "plan.json") == plan

    @pytest.mark.parametrize("text", [
        '{"layers": [2]}',
        '{"layers": [2], "keep_ratio": 0.5',
        '[2, 4]',
        '{"layers": [2], "keep_ratio": null}',
        '{"layers": [2], "keep_ratio": "abc"}',
        '{"layers": "2", "keep_ratio": 0.5}',
        '{"layers": [2], "keep_ratio": 0.5, "l_sink": null}',
    ])
    def test_malformed_json_is_config_error(self, text):
        with pytest.raises(ConfigError):
            LayerPlan.from_json(text)

    def test_load_missing_or_binary_file(self, tmp_path):
        with pytest.raises(UsageError, match="plan file not found"):
            LayerPlan.load(tmp_path / "absent.json")
        (tmp_path / "binary.json").write_bytes(b"\x80plan")
        with pytest.raises(ConfigError):
            LayerPlan.load(tmp_path / "binary.json")

    def test_effective_sparsity_of_plan(self):
        plan = self.plan()
        got = plan_effective_sparsity(plan, 10)
        assert got == pytest.approx(0.3 * (1 - 0.333), abs=1e-12)

    def test_effective_sparsity_checks_layers(self):
        # as flop_count does, a layer the model lacks is refused
        with pytest.raises(ConfigError, match="out of range"):
            plan_effective_sparsity(LayerPlan(layers=[9], l_sink=-1), 4)


def test_corpus_sha256_deterministic():
    a = corpus_sha256(np.array([1, 2, 3]))
    assert a == corpus_sha256([1, 2, 3])
    assert a != corpus_sha256([1, 2, 4])
    assert len(a) == 64


@pytest.fixture(scope="module")
def corpus():
    return helpers.rotation_corpus(256)


class TestCalibrateGreedy:
    W = 128

    def test_identity_layer_chosen_first(self, rotation_model, corpus):
        plan = calibrate_greedy(rotation_model, corpus, 1, 0.333,
                                eligible=range(2, 10), context_len=self.W, l_sink=1)
        assert plan.layers == [6]

    def test_round_one_equals_exhaustive(self, rotation_model, corpus):
        eligible = list(range(2, 10))
        singles = {
            layer: perplexity(
                rotation_model,
                LayerPlan(layers=[layer], keep_ratio=0.333,
                          model_id=rotation_model.model_id, l_sink=1),
                corpus, self.W).perplexity
            for layer in eligible
        }
        best = min(eligible, key=lambda l: (singles[l], l))
        plan = calibrate_greedy(rotation_model, corpus, 1, 0.333,
                                eligible=eligible, context_len=self.W, l_sink=1)
        assert plan.layers == [best]

    def test_identity_conversion_is_free(self, rotation_model, corpus):
        dense = perplexity(rotation_model, None, corpus, self.W).perplexity
        converted = perplexity(
            rotation_model,
            LayerPlan(layers=[6], keep_ratio=0.333,
                      model_id=rotation_model.model_id, l_sink=1),
            corpus, self.W).perplexity
        assert converted == dense
        # converting any live layer strictly hurts on this model
        for layer in (2, 5, 9):
            hurt = perplexity(
                rotation_model,
                LayerPlan(layers=[layer], keep_ratio=0.333,
                          model_id=rotation_model.model_id, l_sink=1),
                corpus, self.W).perplexity
            assert hurt > dense

    def test_two_identity_layers_found_in_order(self, corpus):
        model = helpers.make_rotation_model(11, {4, 7})
        plan = calibrate_greedy(model, corpus, 2, 0.333,
                                eligible=range(2, 10), context_len=self.W, l_sink=1)
        assert plan.layers == [4, 7]

    def test_exact_ties_break_to_smaller_layer(self, corpus):
        # both identity layers give exactly the dense perplexity; round one
        # must take the smaller index
        model = helpers.make_rotation_model(11, {4, 7})
        plan = calibrate_greedy(model, corpus, 1, 0.333,
                                eligible=range(2, 10), context_len=self.W, l_sink=1)
        assert plan.layers == [4]

    def test_zero_rounds(self, rotation_model, corpus):
        plan = calibrate_greedy(rotation_model, corpus, 0, 0.333,
                                eligible=range(2, 10), context_len=self.W, l_sink=1)
        assert plan.layers == []

    def test_m_exceeds_eligible(self, rotation_model, corpus):
        with pytest.raises(ConfigError):
            calibrate_greedy(rotation_model, corpus, 9, 0.333,
                             eligible=range(2, 10), context_len=self.W)

    @pytest.mark.parametrize("l_sink", [4, 100])
    def test_sink_layer_must_exist(self, corpus, l_sink):
        model = helpers.make_rotation_model(4, set())
        with pytest.raises(ConfigError, match="l_sink"):
            calibrate_greedy(model, corpus, 0, 0.5, eligible=[], context_len=16, l_sink=l_sink)

    @pytest.mark.parametrize("eligible", [[-1], [2, 4]])
    def test_eligible_layers_must_exist(self, corpus, eligible):
        model = helpers.make_rotation_model(4, set())
        with pytest.raises(ConfigError, match="eligible layers out of range"):
            calibrate_greedy(model, corpus, 1, 0.5, eligible, context_len=16)

    def test_no_sink_layer_is_valid(self, corpus):
        model = helpers.make_rotation_model(4, set())
        plan = calibrate_greedy(model, corpus, 1, 0.5, eligible=[0, 1, 2], context_len=16,
                                l_sink=-1)
        assert plan.l_sink == -1 and len(plan.layers) == 1

    def test_one_shot_takes_m_best_singles(self, corpus):
        model = helpers.make_rotation_model(11, {4, 7})
        plan = calibrate_greedy(model, corpus, 2, 0.333,
                                eligible=range(2, 10), context_len=self.W,
                                l_sink=1, one_shot=True)
        assert plan.layers == [4, 7]

    def test_plan_metadata(self, rotation_model, corpus):
        plan = calibrate_greedy(rotation_model, corpus, 1, 0.333,
                                eligible=range(2, 10), context_len=self.W,
                                l_sink=1, target_sparsity=0.06)
        assert plan.calib == {"corpus_sha256": corpus_sha256(corpus),
                              "context_len": self.W}
        assert plan.model_id == rotation_model.model_id
        assert plan.target_sparsity == 0.06


def brute_force_greedy(model, corpus, m, keep_ratio, eligible, context_len, l_sink):
    """Greedy calibration over the public perplexity op, every candidate from scratch."""
    chosen, remaining = [], sorted(eligible)
    for _ in range(m):
        ppls = [perplexity(model, LayerPlan(layers=sorted(chosen + [c]), keep_ratio=keep_ratio,
                                            model_id=model.model_id, l_sink=l_sink),
                           corpus, context_len).perplexity
                for c in remaining]
        best = min(range(len(remaining)), key=lambda i: (ppls[i], remaining[i]))
        chosen.append(remaining.pop(best))
    return sorted(chosen)


@pytest.fixture(scope="module")
def live_model(tmp_path_factory):
    config = ModelConfig(n_layers=8, d_model=32, n_heads=4, n_kv_heads=2,
                         d_head=8, d_ffn=64, vocab_size=64)
    path = tmp_path_factory.mktemp("ck") / "live8"
    generate_synthetic_model(config, 5, path)
    return Model.from_checkpoint(path)


class TestResumedCalibration:
    """Candidates resume at their own layer from the round's base states."""

    W = 32
    ELIGIBLE = range(1, 7)

    @pytest.fixture(scope="class")
    def live_corpus(self):
        return helpers.make_tokens(2 * self.W + 5, 64, seed=21)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_equals_brute_force_greedy(self, live_model, seed):
        corpus = helpers.make_tokens(2 * self.W + 5, 64, seed=seed)
        plan = calibrate_greedy(live_model, corpus, 3, 0.333, self.ELIGIBLE, self.W)
        assert plan.layers == brute_force_greedy(live_model, corpus, 3, 0.333,
                                                 self.ELIGIBLE, self.W, 0)

    def test_exact_tie_equals_brute_force(self, corpus):
        model = helpers.make_rotation_model(11, {4, 7})
        plan = calibrate_greedy(model, corpus, 2, 0.333, range(2, 10), 128, l_sink=1)
        assert plan.layers == brute_force_greedy(model, corpus, 2, 0.333, range(2, 10), 128, 1)
        assert plan.layers == [4, 7]

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_every_evaluation_equals_standalone_perplexity(self, live_model, live_corpus,
                                                           monkeypatch, one_shot):
        seen = []
        real = eval_harness._eval_chunks

        def spy(model, chunks, plan, *args, **kwargs):
            run = real(model, chunks, plan, *args, **kwargs)
            seen.append((plan, kwargs.get("base") is not None, run.chunk_nll))
            return run

        monkeypatch.setattr(eval_harness, "_eval_chunks", spy)
        calibrate_greedy(live_model, live_corpus, 3, 0.333, self.ELIGIBLE, self.W,
                         one_shot=one_shot)
        monkeypatch.undo()
        assert [resumed for _, resumed, _ in seen] == [False] + [True] * (len(seen) - 1)
        assert len(seen) == 1 + (6 if one_shot else 6 + 5 + 4)
        for plan, _, nlls in seen:
            assert nlls == perplexity(live_model, plan, live_corpus, self.W).chunk_nll

    @given(layout=st.sampled_from(["mha", "gqa"]), width=st.sampled_from([6, 12, 23, 40]),
           m=st.integers(1, 3), one_shot=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_mixed_calibration_equals_runs_from_embeddings(self, layout_models, layout, width,
                                                           m, one_shot):
        # 6 layers, eligible 1..5: every candidate mixes its layer but layer 5's;
        # at p = 0.333 the shorter windows select fewer than 8 rows (the GQA fold)
        model = layout_models[layout]
        corpus = helpers.make_tokens(2 * width + 3, 64, seed=width)
        _, chunks = eval_harness._corpus_chunks(corpus, width)
        seen = []
        real = eval_harness._eval_chunks

        def spy(model, chunks, plan, *args, **kwargs):
            run = real(model, chunks, plan, *args, **kwargs)
            seen.append((plan, run))
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eval_harness, "_eval_chunks", spy)
            plan = calibrate_greedy(model, corpus, m, 0.333, range(1, 6), width,
                                    one_shot=one_shot)
        for evaluated, run in seen:
            fresh = real(model, chunks, evaluated, record=True)
            assert run.chunk_nll == fresh.chunk_nll
            for own, want in zip(run.states or [], fresh.states):
                assert all(np.array_equal(a, b) for a, b in zip(own, want))
        if one_shot:
            singles = sorted((perplexity(model, evaluated, corpus, width).perplexity,
                              evaluated.layers[0]) for evaluated, _ in seen[1:])
            assert plan.layers == sorted(layer for _, layer in singles[:m])
        else:
            assert plan.layers == brute_force_greedy(model, corpus, m, 0.333, range(1, 6),
                                                     width, 0)

    def test_greedy_layer_steps(self, corpus, layer_steps, block_runs):
        # 8 layers, 2 chunks; the identity layers 2 and 5 win rounds one and two
        model = helpers.make_rotation_model(8, {2, 5})
        plan = calibrate_greedy(model, corpus, 3, 0.333, range(1, 7), 128)
        assert {2, 5} < set(plan.layers)
        rounds = [[1, 2, 3, 4, 5, 6], [1, 3, 4, 5, 6], [1, 3, 4, 6]]
        # the dense base, then each candidate from its own layer up
        expected = 2 * (8 + sum(8 - c for r in rounds for c in r))
        assert len(layer_steps) == expected == 148  # 240 from the embeddings
        # a candidate's own layer mixes its rows from the base's record
        assert len(block_runs) == expected - 2 * sum(map(len, rounds)) == 118

    def test_one_shot_layer_steps(self, corpus, layer_steps, block_runs):
        model = helpers.make_rotation_model(8, {2, 5})
        plan = calibrate_greedy(model, corpus, 2, 0.333, range(1, 7), 128, one_shot=True)
        assert plan.layers == [2, 5]
        assert len(layer_steps) == 2 * (8 + sum(8 - c for c in range(1, 7))) == 70  # 96 before
        assert len(block_runs) == 2 * (8 + sum(7 - c for c in range(1, 7))) == 58

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_zero_rounds_make_no_layer_steps(self, corpus, layer_steps, one_shot):
        model = helpers.make_rotation_model(8, {2, 5})
        plan = calibrate_greedy(model, corpus, 0, 0.333, range(1, 7), 128, one_shot=one_shot)
        assert plan.layers == [] and plan.calib["context_len"] == 128
        assert layer_steps == []

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_eligible_layer_at_the_sink_refused_before_any_pass(self, live_model, live_corpus,
                                                                 layer_steps, one_shot):
        with pytest.raises(ConfigError, match="not after the sink layer 0"):
            calibrate_greedy(live_model, live_corpus, 1, 0.333, [0, 1], self.W, l_sink=0,
                             one_shot=one_shot)
        assert layer_steps == []

    @pytest.mark.parametrize("corpus_len, context_len", [(20, 32), (64, 1)])
    def test_short_corpus_or_context_is_usage_error(self, live_model, corpus_len, context_len):
        tokens = helpers.make_tokens(corpus_len, 64)
        with pytest.raises(UsageError):
            calibrate_greedy(live_model, tokens, 1, 0.333, self.ELIGIBLE, context_len)


def ref_layer_flops(cfg, t, k, selective):
    """Independent recount of the documented per-layer cost model."""
    d, dffn, dh, h, kv = cfg.d_model, cfg.d_ffn, cfg.d_head, cfg.n_heads, cfg.n_kv_heads
    rows = k if selective else t
    flops = 2 * t * d * (kv * dh) * 2          # K and V projections, all tokens
    flops += 2 * rows * d * (h * dh)           # Q projection
    flops += 2 * h * rows * t * dh * 2         # scores and context matmuls
    flops += 2 * rows * (h * dh) * d           # output projection
    flops += 6 * rows * d * dffn               # gate, up, down
    flops += 4 * t * d + 4 * rows * d          # two RMSNorms
    if selective:
        flops += 2 * t * d                     # scoring dot products
    return flops


class TestFlopCount:
    CFG = ModelConfig(n_layers=40, d_model=64, n_heads=4, n_kv_heads=1,
                      d_head=16, d_ffn=1024, vocab_size=64)

    def plan(self, layers, r=0.333):
        return LayerPlan(layers=layers, keep_ratio=r, model_id="m", l_sink=1)

    def test_empty_plan_ratio_one(self):
        out = flop_count(self.CFG, self.plan([]), 128)
        assert out["ratio"] == 1.0
        assert out["plan_flops"] == out["dense_flops"]

    def test_full_keep_ratio_near_one(self):
        layers = list(range(2, 39))
        out = flop_count(self.CFG, self.plan(layers, r=1.0), 128)
        assert abs(out["ratio"] - 1.0) < 0.01

    def test_per_layer_matches_recount(self):
        t = 129  # divisible by 3 so k is exactly t/3
        out = flop_count(self.CFG, self.plan([5]), t)
        k = int(math.floor(0.333 * t))
        assert out["per_layer_dense"][5] == ref_layer_flops(self.CFG, t, t, False)
        assert out["per_layer_plan"][5] == ref_layer_flops(self.CFG, t, k, True)
        assert out["per_layer_plan"][4] == out["per_layer_dense"][4]

    def test_ffn_share_is_one_third(self):
        # with k = t/3 exactly, the converted layer's FFN cost is one third
        t = 120
        plan = self.plan([5], r=1.0 / 3.0)
        k = int(math.floor(t / 3.0))
        assert k * 3 == t
        ffn_dense = 6 * t * self.CFG.d_model * self.CFG.d_ffn
        ffn_plan = 6 * k * self.CFG.d_model * self.CFG.d_ffn
        assert ffn_plan * 3 == ffn_dense
        out = flop_count(self.CFG, plan, t)
        delta = out["per_layer_dense"][5] - out["per_layer_plan"][5]
        expected = (ref_layer_flops(self.CFG, t, t, False)
                    - ref_layer_flops(self.CFG, t, k, True))
        assert delta == expected

    def test_target_config_ratio_near_point_eight(self):
        # 12 of 40 layers at keep 0.333 removes about 20% of compute on an
        # FFN-dominated shape; scoring overhead keeps it within 3%
        plan = self.plan(list(range(2, 14)))
        out = flop_count(self.CFG, plan, 128)
        assert abs(out["ratio"] - 0.80) < 0.03

    def test_ratio_tracks_effective_sparsity(self):
        for m_layers in (4, 8, 12, 16):
            plan = self.plan(list(range(2, 2 + m_layers)))
            out = flop_count(self.CFG, plan, 128)
            expect = 1.0 - plan_effective_sparsity(plan, self.CFG.n_layers)
            assert abs(out["ratio"] - expect) < 0.03

    def test_bad_seq_len(self):
        with pytest.raises(ConfigError):
            flop_count(self.CFG, self.plan([]), 0)

    def test_out_of_range_layers_rejected(self):
        # same contract as the forward pass: silent clipping would report
        # a ratio for a plan the model cannot run
        with pytest.raises(ConfigError, match="out of range"):
            flop_count(self.CFG, self.plan([2, 40]), 128)


class TestPlanCanonicalForm:
    """``LayerPlan`` keeps what ``_plan_ratios`` resolved: ints and floats."""

    def test_numpy_ratio_array_plan_compares_equal(self):
        def build():
            return LayerPlan(layers=[2, 3], keep_ratio=np.array([0.25, 0.5]), l_sink=1)
        assert build() == build()
        assert build() == LayerPlan(layers=[2, 3], keep_ratio=[0.25, 0.5], l_sink=1)

    def test_tuple_ratios_survive_json(self):
        plan = LayerPlan(layers=[1, 2], keep_ratio=(0.25, 0.5))
        assert LayerPlan.from_json(plan.to_json()) == plan
        assert plan.keep_ratio == [0.25, 0.5]

    def test_numpy_fields_become_python_numbers(self):
        plan = LayerPlan(layers=np.array([2, 4]), keep_ratio=np.float32(0.5),
                         l_sink=np.int64(1))
        assert plan.layers == [2, 4] and all(type(l) is int for l in plan.layers)
        assert type(plan.keep_ratio) is float and type(plan.l_sink) is int
        assert LayerPlan.from_json(plan.to_json()) == plan

    def test_integer_ratio_is_a_float(self):
        plan = LayerPlan(layers=[2], keep_ratio=1)
        assert type(plan.keep_ratio) is float
        assert json.loads(plan.to_json())["keep_ratio"] == 1.0

    @pytest.mark.parametrize("kw", [
        dict(layers=[2.0]), dict(layers=[True]), dict(layers="2"), dict(layers=None),
        dict(layers=[2, 2]), dict(l_sink=None), dict(l_sink=0.5), dict(keep_ratio=[[0.5]]),
        dict(keep_ratio={2: 0.5}), dict(keep_ratio=float("nan")),
    ])
    def test_bad_fields_are_config_errors(self, kw):
        with pytest.raises(ConfigError):
            LayerPlan(**{"layers": [2], "keep_ratio": 0.5, **kw})

    def test_dense_plan_flops(self):
        config = ModelConfig(n_layers=4, d_model=32, n_heads=4, n_kv_heads=2, d_head=8,
                             d_ffn=64, vocab_size=50)
        assert flop_count(config, LayerPlan(), 16)["ratio"] == 1.0


class TestIntegerArguments:
    @pytest.mark.parametrize("m", [1.5, -1, "1", None, True])
    def test_calibration_rounds_must_be_counts(self, rotation_model, corpus, m):
        with pytest.raises(ConfigError):
            calibrate_greedy(rotation_model, corpus, m, 0.5, [2, 3], context_len=128, l_sink=1)

    @pytest.mark.parametrize("eligible", [["a"], [2.5], [None], [True], 3])
    def test_eligible_layers_must_be_integers(self, rotation_model, corpus, eligible):
        with pytest.raises(ConfigError):
            calibrate_greedy(rotation_model, corpus, 1, 0.5, eligible, context_len=128)

    def test_numpy_counts_accepted(self, rotation_model, corpus):
        plan = calibrate_greedy(rotation_model, corpus, np.int64(1), 0.5, np.array([5, 6]),
                                context_len=np.int64(128), l_sink=1)
        assert plan.to_json() == calibrate_greedy(rotation_model, corpus, 1, 0.5, [5, 6],
                                                  context_len=128, l_sink=1).to_json()

    @pytest.mark.parametrize("args", [(4, 0, "x"), (4, 0, None), (4, 0, 0.1, "x"),
                                      (4, 0, 0.1, True)])
    def test_sparsity_arguments_must_be_numbers(self, args):
        with pytest.raises(ConfigError):
            plan_from_sparsity(*args)


_DIMS = dict(n_layers=4, d_model=32, n_heads=4, n_kv_heads=2, d_head=8, d_ffn=64, vocab_size=50)
# numeric arguments across the package: each call with its bad value and the error it raises
_NUMERIC_CALLS = {
    "flop_count": (lambda v: flop_count(ModelConfig(**_DIMS), LayerPlan([1, 2], 0.5), v),
                   ConfigError),
    "plan_effective_sparsity": (lambda v: plan_effective_sparsity(LayerPlan([1, 2], 0.5), v),
                                ConfigError),
    "scaling_agreement": (lambda v: scaling_agreement(np.ones((2, 4)), np.ones(4), eps=v),
                          UsageError),
    "sink_trace_n_layers": (lambda v: generate_synthetic_sink_trace(v, 6, 8, 1, 0.25, 0),
                            ConfigError),
    "sink_trace_alignment_rate": (lambda v: generate_synthetic_sink_trace(4, 6, 8, 1, v, 0),
                                  ConfigError),
    "sink_trace_seed": (lambda v: generate_synthetic_sink_trace(4, 6, 8, 1, 0.25, v), ConfigError),
    "model_config_n_layers": (lambda v: ModelConfig(**{**_DIMS, "n_layers": v}), ConfigError),
    "model_config_norm_eps": (lambda v: ModelConfig(**_DIMS, norm_eps=v), ConfigError),
    "plan_from_json": (LayerPlan.from_json, ConfigError),
}


@pytest.mark.parametrize("call, bad", [
    ("flop_count", 128.5), ("flop_count", True), ("flop_count", "12"), ("flop_count", None),
    ("flop_count", [1]),
    ("plan_effective_sparsity", "3"), ("plan_effective_sparsity", None),
    ("plan_effective_sparsity", [1]), ("plan_effective_sparsity", 0),
    ("scaling_agreement", None),
    ("sink_trace_n_layers", None), ("sink_trace_n_layers", "3"), ("sink_trace_n_layers", 2.5),
    ("sink_trace_alignment_rate", None), ("sink_trace_seed", "0"),
    ("model_config_n_layers", None), ("model_config_n_layers", "3"),
    ("model_config_norm_eps", None),
    ("plan_from_json", None), ("plan_from_json", 5),
])
def test_numeric_arguments_raise_package_errors(call, bad):
    fn, error = _NUMERIC_CALLS[call]
    with pytest.raises(error):
        fn(bad)


@pytest.mark.parametrize("value", [3, 2.5, np.float32(1.5), np.int64(4), np.uint8(2), True,
                                   np.bool_(False), "3", None, [1], 1 + 2j,
                                   fractions.Fraction(1, 3), decimal.Decimal("1.5")])
def test_number_check_is_cached_per_type(value):
    # the answer of the ABC checks, remembered per (type, kinds): asked
    # twice, the second answer comes from the cache and agrees
    for kinds in (numbers.Real, numbers.Integral):
        want = isinstance(value, kinds) and not isinstance(value, bool)
        assert _is_number(value, kinds) is want
        assert _is_number(value, kinds) is want
        assert errors._NUMBER_TYPES[(type(value), kinds, abc.get_cache_token())] is want


@pytest.mark.parametrize("kinds", [numbers.Real, numbers.Integral])
def test_number_check_sees_later_registration(kinds):
    # a type registered with the ABC after its first check is then a number
    class Late:
        pass

    assert not _is_number(Late(), kinds)
    kinds.register(Late)
    assert _is_number(Late(), kinds)
