"""Bit-exact checkpoint format plus synthetic model and trace generators.

Checkpoint directory layout:

* ``config.json``: all :class:`ModelConfig` fields, snake_case keys.
* ``manifest.json``: ``{"entries": [{"name", "dtype", "shape", "byte_offset"}]}``
  with offsets ascending and non-overlapping.
* ``weights.bin``: concatenated little-endian float32, row-major.

Projection weights are stored as (in, out) matrices applied as ``y = x @ W``.
"""

import hashlib
import json
import mmap
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError, _is_number
from .tensor_core import rms_norm
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        data = json.loads(text)
        fields = set(cls.__dataclass_fields__)
        unknown = set(data) - fields
        if unknown:
            raise CheckpointError(f"config.json has unknown keys: {sorted(unknown)}")
        missing = fields - set(data)
        if missing:
            raise CheckpointError(f"config.json is missing keys: {sorted(missing)}")
        return cls(**data)


def required_tensors(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list for a checkpoint of this architecture."""
    d, h, kv, dh = config.d_model, config.n_heads, config.n_kv_heads, config.d_head
    out = [("embed.weight", (config.vocab_size, d))]
    for i in range(config.n_layers):
        out += [
            (f"layers.{i}.attn_norm.gain", (d,)),
            (f"layers.{i}.attn.wq.weight", (d, h * dh)),
            (f"layers.{i}.attn.wk.weight", (d, kv * dh)),
            (f"layers.{i}.attn.wv.weight", (d, kv * dh)),
            (f"layers.{i}.attn.wo.weight", (h * dh, d)),
            (f"layers.{i}.ffn_norm.gain", (d,)),
            (f"layers.{i}.ffn.w_gate.weight", (d, config.d_ffn)),
            (f"layers.{i}.ffn.w_up.weight", (d, config.d_ffn)),
            (f"layers.{i}.ffn.w_down.weight", (config.d_ffn, d)),
        ]
    out.append(("final_norm.gain", (d,)))
    if not config.tied_embeddings:
        out.append(("lm_head.weight", (d, config.vocab_size)))
    return out


def save_checkpoint(dir_path, config: ModelConfig, weights: dict[str, np.ndarray]) -> Path:
    """Write a checkpoint directory; tensors are laid out in canonical order.

    Every tensor is checked before any file is written, then each one is
    written to ``weights.bin`` as it is, without a copy of the whole file.
    """
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)

    layout = required_tensors(config)
    names = {name for name, _ in layout}
    extra = set(weights) - names
    if extra:
        raise CheckpointError(f"unexpected tensors for this config: {sorted(extra)}")
    missing = names - set(weights)
    if missing:
        raise CheckpointError(f"missing tensors: {sorted(missing)}")

    entries = []
    offset = 0
    arrays = []
    for name, shape in layout:
        arr = np.ascontiguousarray(weights[name], dtype=F32)
        if arr.shape != shape:
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        entries.append(
            {"name": name, "dtype": "f32", "shape": list(shape), "byte_offset": offset}
        )
        arrays.append(arr)
        offset += arr.nbytes

    (dir_path / "config.json").write_text(config.to_json())
    (dir_path / "manifest.json").write_text(json.dumps({"entries": entries}, indent=2))
    with open(dir_path / "weights.bin", "wb") as fh:
        for arr in arrays:
            fh.write(arr.data)
    return dir_path


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
    entries = manifest.get("entries")
    if not isinstance(entries, list):
        raise CheckpointError('manifest.json must contain an "entries" list')

    expected = dict(required_tensors(config))
    # An anonymous map, not a heap buffer: its pages go back to the system
    # when the last tensor view is freed. A heap buffer of this size can stay
    # resident after its model is gone, and repeated loads in one process
    # then raised the peak RSS by a whole checkpoint.
    buf = mmap.mmap(-1, max(1, (dir_path / "weights.bin").stat().st_size))
    with open(dir_path / "weights.bin", "rb") as fh:
        blob = memoryview(buf)[:fh.readinto(buf)]  # a file that shrank since stat reads as truncated

    seen = {}
    prev_name, prev_end = None, 0
    weights = {}
    for entry in entries:
        name = entry.get("name")
        if name not in expected:
            raise CheckpointError(f"manifest names unknown tensor {name!r}")
        if name in seen:
            raise CheckpointError(f"manifest lists tensor {name!r} twice")
        if entry.get("dtype") != "f32":
            raise CheckpointError(f"tensor {name}: unknown dtype {entry.get('dtype')!r}")
        shape = tuple(entry.get("shape", ()))
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
        seen[name] = True
        prev_name, prev_end = name, end

    missing = set(expected) - set(seen)
    if missing:
        raise CheckpointError(f"checkpoint is missing required tensors: {sorted(missing)}")
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
    rng = np.random.default_rng(seed)
    scale = np.float32(config.d_model ** -0.5)
    weights = {}
    for name, shape in required_tensors(config):
        if name.endswith(".gain"):
            weights[name] = np.ones(shape, dtype=np.float32)
        else:
            weights[name] = rng.standard_normal(shape, dtype=np.float32) * scale
    return save_checkpoint(out_dir, config, weights)


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
        normalized=[rms_norm(s, unit_gain) for s in layers],
    )
