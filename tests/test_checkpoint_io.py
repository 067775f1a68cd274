import dataclasses
import hashlib
import json

import numpy as np
import pytest

from orthorank import (
    CheckpointError,
    ConfigError,
    ModelConfig,
    generate_synthetic_model,
    generate_synthetic_sink_trace,
    load_checkpoint,
    save_checkpoint,
    weights_sha256,
)
from orthorank.checkpoint_io import required_tensors

import helpers


class TestModelConfig:
    def test_round_trip_json(self, tiny_config):
        assert ModelConfig.from_json(tiny_config.to_json()) == tiny_config

    def test_heads_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=12, n_heads=3, n_kv_heads=2,
                        d_head=4, d_ffn=8, vocab_size=10)

    def test_d_model_consistency(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=16, n_heads=2, n_kv_heads=2,
                        d_head=4, d_ffn=8, vocab_size=10)

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=6, n_heads=2, n_kv_heads=2,
                        d_head=3, d_ffn=8, vocab_size=10)

    def test_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=0, d_model=8, n_heads=2, n_kv_heads=2,
                        d_head=4, d_ffn=8, vocab_size=10)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_layers=1, d_model=8, n_heads=2, n_kv_heads=2,
                        d_head=4, d_ffn=8, vocab_size=10, norm_eps=0.0)

    @pytest.mark.parametrize("field, value", [
        ("rope_theta", "abc"), ("rope_theta", 0), ("rope_theta", -1.0), ("rope_theta", np.inf),
        ("rope_theta", np.nan), ("rope_theta", True), ("tied_embeddings", "no"),
        ("tied_embeddings", 0), ("tied_embeddings", None),
    ])
    def test_bad_rope_theta_or_tied_flag(self, tiny_config, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(tiny_config, **{field: value})
        # a config.json holding the value fails at load, before any forward pass
        ck = generate_synthetic_model(tiny_config, 0, tmp_path / "ck")
        data = json.loads((ck / "config.json").read_text())
        (ck / "config.json").write_text(json.dumps({**data, field: value}))
        with pytest.raises(ConfigError, match=field):
            load_checkpoint(ck)

    def test_numpy_rope_theta_and_tied_flag_accepted(self, tiny_config):
        config = dataclasses.replace(tiny_config, rope_theta=np.float32(500.0),
                                     tied_embeddings=np.False_)
        assert config.rope_theta == 500.0 and not config.tied_embeddings

    def test_numpy_typed_config_round_trips(self, tmp_path):
        config = ModelConfig(n_layers=np.int64(1), d_model=np.int32(8), n_heads=np.int16(2),
                             n_kv_heads=np.uint8(1), d_head=np.int64(4), d_ffn=np.int64(16),
                             vocab_size=np.int64(10), rope_theta=np.float32(500.0),
                             norm_eps=np.float64(1e-6), tied_embeddings=np.False_)
        # every field holds the Python value it equals
        for field in dataclasses.fields(config):
            assert type(getattr(config, field.name)) is field.type, field.name
        ck = generate_synthetic_model(config, 0, tmp_path / "ck")
        loaded, weights = load_checkpoint(ck)
        assert loaded == config and "lm_head.weight" in weights

    def test_failed_save_makes_no_directory(self, tiny_config, tmp_path, monkeypatch):
        def unserializable(self):
            raise TypeError("Object of type int64 is not JSON serializable")

        monkeypatch.setattr(ModelConfig, "to_json", unserializable)
        with pytest.raises(TypeError, match="not JSON serializable"):
            generate_synthetic_model(tiny_config, 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unknown_json_key(self, tiny_config):
        data = json.loads(tiny_config.to_json())
        data["bogus"] = 1
        with pytest.raises(CheckpointError):
            ModelConfig.from_json(json.dumps(data))

    @pytest.mark.parametrize("text", ["5", "null", "true", '"x"', "[1]"])
    def test_json_not_an_object(self, text):
        with pytest.raises(CheckpointError, match="must hold an object"):
            ModelConfig.from_json(text)

    def test_missing_json_key(self, tiny_config):
        data = json.loads(tiny_config.to_json())
        del data["d_ffn"]
        with pytest.raises(CheckpointError):
            ModelConfig.from_json(json.dumps(data))


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip(self, tiny_config, tmp_path):
        rng = np.random.default_rng(5)
        weights = {name: rng.standard_normal(shape).astype(np.float32)
                   for name, shape in required_tensors(tiny_config)}
        save_checkpoint(tmp_path / "ck", tiny_config, weights)
        config2, loaded = load_checkpoint(tmp_path / "ck")
        assert config2 == tiny_config
        assert set(loaded) == set(weights)
        for name in weights:
            assert np.array_equal(loaded[name], weights[name]), name

    def test_layout_files(self, tiny_checkpoint):
        for fname in ("config.json", "manifest.json", "weights.bin"):
            assert (tiny_checkpoint / fname).exists()

    def test_manifest_schema(self, tiny_checkpoint, tiny_config):
        manifest = json.loads((tiny_checkpoint / "manifest.json").read_text())
        entries = manifest["entries"]
        assert [e["name"] for e in entries] == [n for n, _ in required_tensors(tiny_config)]
        offsets = [e["byte_offset"] for e in entries]
        assert offsets == sorted(offsets)
        for e in entries:
            assert e["dtype"] == "f32"

    def test_tied_model_has_no_lm_head(self, tmp_path):
        config = ModelConfig(n_layers=1, d_model=8, n_heads=2, n_kv_heads=2,
                             d_head=4, d_ffn=16, vocab_size=10, tied_embeddings=True)
        generate_synthetic_model(config, 0, tmp_path / "ck")
        _, weights = load_checkpoint(tmp_path / "ck")
        assert "lm_head.weight" not in weights

    def test_save_rejects_extra_tensor(self, tiny_config, tmp_path):
        weights = helpers.blank_weights(tiny_config)
        weights["rogue.weight"] = np.zeros((2, 2), np.float32)
        with pytest.raises(CheckpointError, match="rogue"):
            save_checkpoint(tmp_path / "ck", tiny_config, weights)

    def test_save_rejects_missing_tensor(self, tiny_config, tmp_path):
        weights = helpers.blank_weights(tiny_config)
        del weights["final_norm.gain"]
        with pytest.raises(CheckpointError, match="final_norm.gain"):
            save_checkpoint(tmp_path / "ck", tiny_config, weights)

    def test_save_rejects_wrong_shape(self, tiny_config, tmp_path):
        weights = helpers.blank_weights(tiny_config)
        weights["final_norm.gain"] = np.zeros(3, np.float32)
        with pytest.raises(CheckpointError, match="final_norm.gain"):
            save_checkpoint(tmp_path / "ck", tiny_config, weights)

    def test_bad_tensor_writes_no_weights(self, tiny_config, tmp_path):
        weights = helpers.blank_weights(tiny_config)
        weights["final_norm.gain"] = np.zeros(3, np.float32)  # the last tensor written
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "ck", tiny_config, weights)
        assert not (tmp_path / "ck" / "weights.bin").exists()

    @pytest.mark.parametrize("weights, match", [
        ("not a dict", "must be a dict"),
        ([("final_norm.gain", np.ones(32))], "must be a dict"),
        ({"final_norm.gain": "abc"}, "final_norm.gain cannot be cast"),
        ({"embed.weight": [[1.0, 2.0], [3.0]]}, "embed.weight cannot be cast"),
        ({"final_norm.gain": 10 ** 400}, "final_norm.gain cannot be cast"),
    ], ids=["string", "pair_list", "string_tensor", "ragged_tensor", "huge_int_tensor"])
    def test_save_rejects_uncastable_weights(self, tiny_config, tmp_path, weights, match):
        if isinstance(weights, dict):
            weights = {**helpers.blank_weights(tiny_config), **weights}
        with pytest.raises(CheckpointError, match=match):
            save_checkpoint(tmp_path / "ck", tiny_config, weights)
        assert not (tmp_path / "ck").exists()

    def test_loaded_tensors_are_writable_float32(self, tiny_checkpoint):
        _, first = load_checkpoint(tiny_checkpoint)
        _, second = load_checkpoint(tiny_checkpoint)
        for name, w in first.items():
            assert w.dtype == np.float32 and w.flags.writeable, name
        first["embed.weight"][0] += 1.0
        assert not np.array_equal(first["embed.weight"], second["embed.weight"])

    def test_weights_hash_spans_chunks(self, tmp_path):
        # w_gate, w_up and w_down hold 1.5 MiB: more than one read chunk
        config = ModelConfig(n_layers=1, d_model=64, n_heads=2, n_kv_heads=2,
                             d_head=32, d_ffn=2048, vocab_size=10)
        generate_synthetic_model(config, 0, tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        assert len(blob) > 1 << 20
        assert weights_sha256(tmp_path / "ck") == hashlib.sha256(blob).hexdigest()


def _write_corrupt(base, mutate):
    """Copy a tiny checkpoint and apply a manifest/blob mutation."""
    manifest = json.loads((base / "manifest.json").read_text())
    blob = (base / "weights.bin").read_bytes()
    manifest, blob = mutate(manifest, blob)
    (base / "manifest.json").write_text(json.dumps(manifest))
    (base / "weights.bin").write_bytes(blob)


class TestCheckpointValidation:
    @pytest.fixture
    def ck(self, tiny_config, tmp_path):
        generate_synthetic_model(tiny_config, 2, tmp_path / "ck")
        return tmp_path / "ck"

    def test_missing_file(self, ck):
        (ck / "weights.bin").unlink()
        with pytest.raises(CheckpointError, match="weights.bin"):
            load_checkpoint(ck)

    def test_malformed_config_json(self, ck):
        (ck / "config.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="config.json"):
            load_checkpoint(ck)

    def test_malformed_manifest_json(self, ck):
        (ck / "manifest.json").write_text("[[[")
        with pytest.raises(CheckpointError, match="manifest.json"):
            load_checkpoint(ck)

    def test_overlapping_offsets_names_both(self, ck):
        def mutate(manifest, blob):
            manifest["entries"][1]["byte_offset"] -= 8
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(ck)
        msg = str(err.value)
        assert "embed.weight" in msg and "layers.0.attn_norm.gain" in msg

    def test_truncated_blob_reports_lengths(self, ck):
        def mutate(manifest, blob):
            return manifest, blob[:-4]
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(ck)
        msg = str(err.value)
        assert "truncated" in msg and str(len((ck / "weights.bin").read_bytes())) in msg

    def test_unknown_tensor_name(self, ck):
        def mutate(manifest, blob):
            manifest["entries"][0]["name"] = "mystery.weight"
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match="mystery.weight"):
            load_checkpoint(ck)

    def test_duplicate_tensor(self, ck):
        def mutate(manifest, blob):
            manifest["entries"].insert(1, dict(manifest["entries"][0]))
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match="twice"):
            load_checkpoint(ck)

    def test_unknown_dtype(self, ck):
        def mutate(manifest, blob):
            manifest["entries"][0]["dtype"] = "f16"
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(ck)

    def test_wrong_shape(self, ck):
        def mutate(manifest, blob):
            manifest["entries"][0]["shape"] = [1, 2]
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(ck)

    @pytest.mark.parametrize("case, match", [
        ("manifest_list", '"entries" list'),
        ("entries_object", '"entries" list'),
        ("no_entries", '"entries" list'),
        ("entry_list", "string name"),
        ("name_list", "string name"),
        ("no_name", "string name"),
        ("shape_int", "list of integers"),
        ("shape_float", "list of integers"),
        ("offset_negative", "bad byte_offset"),
        ("offset_string", "bad byte_offset"),
    ])
    def test_manifest_types(self, ck, case, match):
        def mutate(manifest, blob):
            entry = manifest["entries"][0]
            return {
                "manifest_list": manifest["entries"],
                "entries_object": {"entries": entry},
                "no_entries": {},
                "entry_list": {"entries": [list(entry.values())]},
                "name_list": {"entries": [{**entry, "name": [entry["name"]]}]},
                "no_name": {"entries": [{k: v for k, v in entry.items() if k != "name"}]},
                "shape_int": {"entries": [{**entry, "shape": 64}]},
                "shape_float": {"entries": [{**entry, "shape": [50.0, 32]}]},
                "offset_negative": {"entries": [{**entry, "byte_offset": -4}]},
                "offset_string": {"entries": [{**entry, "byte_offset": "0"}]},
            }[case], blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(ck)

    def test_missing_required_tensor(self, ck):
        def mutate(manifest, blob):
            manifest["entries"] = manifest["entries"][1:]
            return manifest, blob
        _write_corrupt(ck, mutate)
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(ck)


class TestSyntheticModel:
    def test_same_seed_same_bytes(self, tiny_config, tmp_path):
        generate_synthetic_model(tiny_config, 0, tmp_path / "a")
        generate_synthetic_model(tiny_config, 0, tmp_path / "b")
        assert weights_sha256(tmp_path / "a") == weights_sha256(tmp_path / "b")

    def test_different_seeds_differ(self, tiny_config, tmp_path):
        generate_synthetic_model(tiny_config, 0, tmp_path / "a")
        generate_synthetic_model(tiny_config, 1, tmp_path / "b")
        assert weights_sha256(tmp_path / "a") != weights_sha256(tmp_path / "b")

    def test_tiny_model_forward_is_finite(self, tmp_path):
        import orthorank as ork
        config = ModelConfig(n_layers=2, d_model=8, n_heads=2, n_kv_heads=2,
                             d_head=4, d_ffn=16, vocab_size=12)
        generate_synthetic_model(config, 0, tmp_path / "ck")
        model = ork.Model.from_checkpoint(tmp_path / "ck")
        logits, _, _ = ork.forward_dense(model, [0, 3, 7, 1])
        assert np.all(np.isfinite(logits))

    def test_gains_are_ones(self, tiny_checkpoint):
        _, weights = load_checkpoint(tiny_checkpoint)
        assert np.all(weights["final_norm.gain"] == 1.0)


def _cos(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


class TestSyntheticSinkTrace:
    def test_sink_fixed_after_l_sink(self):
        trace = generate_synthetic_sink_trace(8, 12, 16, l_sink=2,
                                              alignment_rate=0.3, seed=0)
        for l1 in range(3, 8):
            for l2 in range(3, 8):
                assert _cos(trace.normalized[l1][0], trace.normalized[l2][0]) == 1.0

    def test_sink_similarity_strictly_increases(self):
        trace = generate_synthetic_sink_trace(8, 12, 16, l_sink=2,
                                              alignment_rate=0.3, seed=0)
        for i in range(1, 12):
            sims = [_cos(trace.normalized[l][0], trace.normalized[l][i])
                    for l in range(3, 8)]
            assert all(b > a for a, b in zip(sims, sims[1:]))

    def test_zero_rate_is_static(self):
        trace = generate_synthetic_sink_trace(6, 8, 16, l_sink=1,
                                              alignment_rate=0.0, seed=3)
        for l in range(2, 6):
            for i in range(8):
                assert _cos(trace.normalized[2][i], trace.normalized[l][i]) == pytest.approx(1.0, abs=1e-12)

    def test_trace_invariant_bitwise(self):
        trace = generate_synthetic_sink_trace(8, 12, 16, l_sink=2,
                                              alignment_rate=0.3, seed=0)
        gain = np.ones(16)
        for l in range(8):
            assert np.array_equal(trace.normalized[l],
                                  helpers.mean_rms_norm(trace.hidden[l], gain, 1e-5))

    def test_determinism(self):
        a = generate_synthetic_sink_trace(4, 6, 8, 1, 0.25, 9)
        b = generate_synthetic_sink_trace(4, 6, 8, 1, 0.25, 9)
        for l in range(4):
            assert np.array_equal(a.hidden[l], b.hidden[l])

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_synthetic_sink_trace(4, 6, 8, l_sink=4, alignment_rate=0.2, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_sink_trace(4, 6, 8, l_sink=1, alignment_rate=1.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_sink_trace(4, 1, 8, l_sink=1, alignment_rate=0.2, seed=0)
