"""Bit-exact checkpoint format plus synthetic model and trace generators.

Checkpoint directory layout:

* ``config.json``: all :class:`ModelConfig` fields, snake_case keys.
* ``manifest.json``: ``{"entries": [{"name", "dtype", "shape", "byte_offset"}]}``
  with offsets ascending and non-overlapping.
* ``weights.bin``: concatenated little-endian float32, row-major.

Projection weights are stored as (in, out) matrices applied as ``y = x @ W``.
"""

import functools
import hashlib
import json
import math
import mmap
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CheckpointError, ConfigError, OrthoRankError, _is_number
from .tensor_core import _rms_norm
from .trace import HiddenTrace

F32 = np.dtype("<f4")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters for a decoder-only model."""

    n_layers: int
    d_model: int
    n_heads: int
    n_kv_heads: int
    d_head: int
    d_ffn: int
    vocab_size: int
    rope_theta: float = 10000.0
    norm_eps: float = 1e-5
    tied_embeddings: bool = True

    def __post_init__(self):
        dims = (self.n_layers, self.d_model, self.n_heads, self.n_kv_heads,
                self.d_head, self.d_ffn, self.vocab_size)
        if not all(_is_number(v, numbers.Integral) and v >= 1 for v in dims):
            raise ConfigError(f"all ModelConfig dimensions must be integers >= 1, got {dims}")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads ({self.n_heads}) must be divisible by n_kv_heads ({self.n_kv_heads})"
            )
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigError(
                f"d_model ({self.d_model}) must equal n_heads * d_head "
                f"({self.n_heads} * {self.d_head})"
            )
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_head must be even for rotary embeddings, got {self.d_head}")
        if not (_is_number(self.norm_eps) and self.norm_eps > 0):
            raise ConfigError(f"norm_eps must be a number > 0, got {self.norm_eps!r}")
        if not (_is_number(self.rope_theta) and 0 < self.rope_theta < math.inf):
            raise ConfigError(f"rope_theta must be a finite number > 0, got {self.rope_theta!r}")
        if not isinstance(self.tied_embeddings, (bool, np.bool_)):
            raise ConfigError(f"tied_embeddings must be a bool, got {self.tied_embeddings!r}")
        # numpy scalars pass the checks; each field keeps the Python value it
        # equals, which to_json writes and from_json reads back as this config
        for field in fields(self):
            object.__setattr__(self, field.name, field.type(getattr(self, field.name)))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        """Parse ``config.json``: an object of exactly the fields, else CheckpointError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise CheckpointError(f"config.json must hold an object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise CheckpointError(f"config.json has unknown keys: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise CheckpointError(f"config.json is missing keys: {sorted(missing)}")
        return cls(**data)


class _LayerNames(NamedTuple):
    """One layer's tensor names, in checkpoint order."""

    attn_norm: str
    wq: str
    wk: str
    wv: str
    wo: str
    ffn_norm: str
    w_gate: str
    w_up: str
    w_down: str


@functools.cache
def _layer_names(layer: int) -> _LayerNames:
    """Layer ``layer``'s tensor names, built once per index."""
    return _LayerNames(*(f"layers.{layer}.{name}" for name in (
        "attn_norm.gain", "attn.wq.weight", "attn.wk.weight", "attn.wv.weight", "attn.wo.weight",
        "ffn_norm.gain", "ffn.w_gate.weight", "ffn.w_up.weight", "ffn.w_down.weight")))


def required_tensors(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for a checkpoint of this architecture."""
    d, h, kv, dh, ffn = (config.d_model, config.n_heads, config.n_kv_heads, config.d_head,
                         config.d_ffn)
    shapes = [(d,), (d, h * dh), (d, kv * dh), (d, kv * dh), (h * dh, d),
              (d,), (d, ffn), (d, ffn), (ffn, d)]
    out = [("embed.weight", (config.vocab_size, d))]
    for i in range(config.n_layers):
        out += zip(_layer_names(i), shapes)
    out.append(("final_norm.gain", (d,)))
    if not config.tied_embeddings:
        out.append(("lm_head.weight", (d, config.vocab_size)))
    return out


def _check_weights(config: ModelConfig, weights, error: type[OrthoRankError]) -> None:
    """Raise ``error`` unless ``weights`` is a complete, well-shaped tensor map for ``config``.

    The map's names must be exactly ``required_tensors(config)``'s, and each
    tensor a floating-point numpy array of the listed shape. The message
    names the missing, unexpected or mis-shaped tensors.
    """
    if not isinstance(weights, dict):
        raise error(f"weights must be a dict of name -> array, got {type(weights).__name__}")
    layout = dict(required_tensors(config))
    if weights.keys() != layout.keys():
        raise error(f"missing tensors: {sorted(layout.keys() - weights.keys())}; unexpected "
                    f"tensors: {sorted(weights.keys() - layout.keys(), key=str)}")
    for name, shape in layout.items():
        w = weights[name]
        if not (isinstance(w, np.ndarray) and w.dtype.kind == "f" and w.shape == shape):
            got = f"{w.dtype} {w.shape}" if isinstance(w, np.ndarray) else type(w).__name__
            raise error(f"tensor {name} must be a floating-point array of shape {shape}, "
                        f"got {got}")


def save_checkpoint(dir_path, config: ModelConfig, weights: dict[str, np.ndarray]) -> Path:
    """Write a checkpoint directory; tensors are laid out in canonical order.

    The config is serialized, and its tensors are cast to float32 and
    checked by ``_check_weights`` (CheckpointError, which also names a tensor
    numpy cannot cast), before the directory or any file is made; then each
    tensor is written to ``weights.bin`` as it is, without a copy of the
    whole file.
    """
    config_text = config.to_json()
    layout = dict(required_tensors(config))
    arrays = ({name: _float32(name, w) if name in layout else w for name, w in weights.items()}
              if isinstance(weights, dict) else weights)  # _check_weights refuses a non-dict
    _check_weights(config, arrays, CheckpointError)
    entries = []
    offset = 0
    for name, shape in layout.items():
        entries.append(
            {"name": name, "dtype": "f32", "shape": list(shape), "byte_offset": offset}
        )
        offset += arrays[name].nbytes

    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "config.json").write_text(config_text)
    (dir_path / "manifest.json").write_text(json.dumps({"entries": entries}, indent=2))
    with open(dir_path / "weights.bin", "wb") as fh:
        for name in layout:
            fh.write(arrays[name].data)
    return dir_path


def _float32(name: str, w) -> np.ndarray:
    """``w`` as a contiguous float32 array; CheckpointError naming ``name`` if it cannot be."""
    try:
        return np.ascontiguousarray(w, dtype=F32)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"tensor {name} cannot be cast to float32: {exc}") from None


def load_checkpoint(dir_path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Load and validate a checkpoint directory.

    Returns the config and a name -> float32 tensor map. ``weights.bin`` is
    read once into one writable anonymous memory map, and each tensor is a
    view into it.
    """
    config, weights, _ = _read_checkpoint(dir_path)
    return config, weights


def _read_checkpoint(dir_path) -> tuple[ModelConfig, dict[str, np.ndarray], memoryview]:
    """``load_checkpoint``'s config and tensors, plus the buffer of ``weights.bin`` they view."""
    dir_path = Path(dir_path)
    for fname in ("config.json", "manifest.json", "weights.bin"):
        if not (dir_path / fname).exists():
            raise CheckpointError(f"checkpoint is missing {fname} in {dir_path}")

    try:
        config = ModelConfig.from_json((dir_path / "config.json").read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"config.json is not valid JSON: {exc}") from exc
    try:
        manifest = json.loads((dir_path / "manifest.json").read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"manifest.json is not valid JSON: {exc}") from exc
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise CheckpointError('manifest.json must hold an object with an "entries" list')

    expected = dict(required_tensors(config))
    # An anonymous map, not a heap buffer: its pages go back to the system
    # when the last tensor view is freed. A heap buffer of this size can stay
    # resident after its model is gone, and repeated loads in one process
    # then raised the peak RSS by a whole checkpoint.
    buf = mmap.mmap(-1, max(1, (dir_path / "weights.bin").stat().st_size))
    with open(dir_path / "weights.bin", "rb") as fh:
        blob = memoryview(buf)[:fh.readinto(buf)]  # a file that shrank since stat reads as truncated

    prev_name, prev_end = None, 0
    weights = {}
    for entry in entries:
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise CheckpointError(f"manifest entry {entry!r} is not an object with a string name")
        if name not in expected:
            raise CheckpointError(f"manifest names unknown tensor {name!r}")
        if name in weights:
            raise CheckpointError(f"manifest lists tensor {name!r} twice")
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"tensor {name}: unknown dtype {entry.get('dtype')!r}")
        shape = entry.get("shape")
        if not (isinstance(shape, list) and all(type(n) is int for n in shape)):
            raise CheckpointError(f"tensor {name}: shape {shape!r} is not a list of integers")
        shape = tuple(shape)
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name}: manifest shape {shape} != expected {expected[name]}"
            )
        offset = entry.get("byte_offset")
        if not isinstance(offset, int) or offset < 0:
            raise CheckpointError(f"tensor {name}: bad byte_offset {offset!r}")
        if offset < prev_end:
            raise CheckpointError(
                f"tensor {name} at offset {offset} overlaps tensor {prev_name} "
                f"(ends at {prev_end})"
            )
        nbytes = 4 * int(np.prod(shape))
        end = offset + nbytes
        if end > len(blob):
            raise CheckpointError(
                f"weights.bin truncated: tensor {name} needs bytes up to {end}, "
                f"file has {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype=F32, count=int(np.prod(shape)), offset=offset)
        weights[name] = arr.reshape(shape)
        prev_name, prev_end = name, end

    _check_weights(config, weights, CheckpointError)
    return config, weights, blob


def weights_sha256(dir_path) -> str:
    """Hex digest of weights.bin, read in chunks; the model identity.

    ``Model.from_checkpoint`` computes the same digest from the buffer it
    loaded, without reading the file again.
    """
    digest = hashlib.sha256()
    with open(Path(dir_path) / "weights.bin", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def generate_synthetic_model(config: ModelConfig, seed: int, out_dir) -> Path:
    """Write a deterministic random checkpoint: same seed, same bytes.

    Projection and embedding weights are N(0, 1) scaled by 1/sqrt(d_model);
    norm gains are ones.
    """
    return save_checkpoint(out_dir, config, _synthetic_weights(config, seed))


def _synthetic_weights(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """``generate_synthetic_model``'s float32 tensors, drawn in canonical order."""
    rng = np.random.default_rng(seed)
    scale = np.float32(config.d_model ** -0.5)
    return {name: np.ones(shape, dtype=np.float32) if name.endswith(".gain")
            else rng.standard_normal(shape, dtype=np.float32) * scale
            for name, shape in required_tensors(config)}


def _slerp(a: np.ndarray, b: np.ndarray, frac: float) -> np.ndarray:
    """Spherical interpolation between unit vectors, renormalized."""
    cos = float(np.clip(np.dot(a, b), -1.0, 1.0))
    omega = np.arccos(cos)
    if omega < 1e-9:
        out = (1.0 - frac) * a + frac * b
    else:
        so = np.sin(omega)
        out = (np.sin((1.0 - frac) * omega) / so) * a + (np.sin(frac * omega) / so) * b
    return out / np.linalg.norm(out)


def generate_synthetic_sink_trace(
    n_layers: int,
    seq_len: int,
    d: int,
    l_sink: int,
    alignment_rate: float,
    seed: int,
) -> HiddenTrace:
    """Construct a trace whose geometry matches the sink-alignment pattern.

    After layer ``l_sink`` the sink (position 0) sits at a fixed unit basis
    vector, mirroring its concentration in a few feature dimensions, while
    every other token slerps toward it by ``alignment_rate`` of the remaining
    angle per layer. Cosine to the sink therefore strictly increases with
    depth (for rate > 0), and the sink itself never moves.

    States are float64 so the monotonicity is resolvable over 32+ layers.
    The trace invariant holds: ``normalized`` is the RMSNorm (unit gain) of
    ``hidden``; since every row is unit-norm this rescales rows uniformly
    and leaves all cosines intact.
    """
    counts = (n_layers, seq_len, d, l_sink, seed)
    if not all(_is_number(v, numbers.Integral) for v in counts):
        raise ConfigError(f"n_layers, seq_len, d, l_sink and seed must be integers, got {counts}")
    if not 0 <= l_sink < n_layers:
        raise ConfigError(f"l_sink {l_sink} out of range for {n_layers} layers")
    if not (_is_number(alignment_rate) and 0.0 <= alignment_rate < 1.0):
        raise ConfigError(f"alignment_rate must be in [0, 1), got {alignment_rate!r}")
    if seq_len < 2 or d < 2:
        raise ConfigError("need seq_len >= 2 and d >= 2")

    rng = np.random.default_rng(seed)
    sink = np.zeros(d)
    sink[rng.integers(d)] = 1.0

    def unit(v):
        return v / np.linalg.norm(v)

    tokens = np.stack([unit(rng.standard_normal(d)) for _ in range(seq_len - 1)])

    layers = []
    for l in range(n_layers):
        states = np.empty((seq_len, d))
        states[0] = unit(rng.standard_normal(d)) if l <= l_sink else sink
        if l <= l_sink:
            states[1:] = tokens
        else:
            tokens = np.stack([_slerp(t, sink, alignment_rate) for t in tokens])
            states[1:] = tokens
        layers.append(states)

    unit_gain = np.ones(d)
    return HiddenTrace(
        layers=list(range(n_layers)),
        hidden=layers,
        normalized=[_rms_norm(s, unit_gain, 1e-5) for s in layers],
    )
