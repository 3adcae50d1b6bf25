"""Chunk-incremental transformer decoder with fixed-size state caches.

One block body, `fft_block_step` (attention in `mha_chunk_step`, the
conv FFN in `ffn_chunk_step`), is written once over an `ops` namespace
and runs every route:

- `decode_chunk` and `decode_incremental` run it chunk by chunk with no
  mask, carrying per-layer attention key/value caches (at most
  `past_size` frames) and causal-conv tails (exactly kernel-1 frames).
  `state_shapes` states that layout and bound once: `init_state` is
  built from it, and a CFPS snapshot is checked against it on load.
- `forward_named` and `decode_parallel_masked` run it as one chunk as
  long as the sequence, under a chunk attention mask, from the empty
  caches and zero conv tails of `init_state`: the kernel-1 left
  zero-padding. With `autodiff` as `ops` this is the training forward;
  with `tensor` it is the equivalence oracle.

Weights live in one name -> tensor map, the CFPW layout of
`weight_shapes`. `ModelWeights` checks it against the config and packs
each layer's `wq | wk | wv` heads side by side once, so a layer makes one
QKV product; `forward_named` packs in the graph, so gradients reach the
per-head tensors; `decode_parallel_masked` multiplies by the packed
projections. Under a mask, `tensor.attention` scores each chunk only
against its own key window, a run of chunks in one batched product:
O(T·window), not O(T²).

Every product and reduction sums in the same left-to-right order on both
routes (a fused QKV or conv product element sums what a per-head or
per-tap product would), and masked positions contribute exact zeros, so
the outputs agree bit for bit, up to the sign of zero ties.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from . import io, masks, tensor
from .tensor import DTYPES, ShapeError

ALL = masks.ALL


class NonFiniteInputError(ValueError):
    """A feature array holds NaN or infinity."""


def _non_finite_at(arr: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first NaN or infinity in `arr`, or None if it has none."""
    ok = np.isfinite(arr)
    if ok.all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(ok), arr.shape))


def _check_tensors(arrays, shapes, config: DecoderConfig, name, needs="config needs") -> None:
    """The load check of weights and states: each array has its exact shape
    in `shapes`, the config's dtype and finite values, or ValueError names
    the first that does not as `name(i)` (built only then)."""
    for i, (arr, shape) in enumerate(zip(arrays, shapes)):
        if arr.shape != shape or arr.dtype != config.np_dtype:
            raise ValueError(f"{name(i)} is {arr.dtype} {arr.shape}, {needs} {config.dtype} {shape}")
        at = _non_finite_at(arr)
        if at is not None:
            raise ValueError(f"{name(i)}: non-finite value at index {at}")


def _check_features(
    features: np.ndarray, config: DecoderConfig, where: str, offset: int | None = None
) -> None:
    """The check at each decode route's entry: `features` must be a
    non-empty (frames, d_model) array of the model's dtype (ShapeError)
    with no NaN or infinity (NonFiniteInputError, naming the first bad
    frame). A valid array costs one `isfinite` pass.

    `offset` is the stream frame of a chunk's first row; the message then
    gives both the stream frame and the row within the chunk.
    """
    if features.ndim != 2 or features.shape[1] != config.d_model or len(features) == 0:
        raise ShapeError(f"{where}: features shape {features.shape} != (T >= 1, {config.d_model})")
    if features.dtype != config.np_dtype:
        raise ShapeError(f"{where}: features are {features.dtype}, the model is {config.np_dtype}")
    at = _non_finite_at(features)
    if at is None:
        return
    row = at[0]
    if offset is None:
        raise NonFiniteInputError(f"{where}: non-finite feature at frame {row}")
    raise NonFiniteInputError(
        f"{where}: non-finite feature at frame {offset + row} "
        f"(row {row} of the chunk at frame offset {offset})"
    )


# ---------------------------------------------------------------------------
# Configuration and weights.


@dataclass(frozen=True)
class DecoderConfig:
    """Architecture and chunking hyperparameters.

    `past_size` may be the ALL sentinel, meaning the attention cache is
    never trimmed (unbounded history; cache boundedness then does not
    apply).
    """

    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    d_ff: int = 64
    kernel1: int = 3
    kernel2: int = 3
    chunk_size: int = 30
    past_size: int | str = 15
    mel_bins: int = 80
    ln_eps: float = 1e-5
    dtype: str = "f64"

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.kernel1 < 1 or self.kernel2 < 1:
            raise ValueError("conv kernels must be >= 1")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        masks._check_past(self.past_size)
        if self.d_ff < 1 or self.mel_bins < 1:
            raise ValueError("d_ff and mel_bins must be >= 1")
        if self.ln_eps <= 0:
            raise ValueError("ln_eps must be positive")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(DTYPES[self.dtype])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "DecoderConfig":
        return config_from_doc(cls, doc, "config")


def _accepts(tp, value) -> bool:
    """Whether a JSON value fits a field annotation. An int fits a float
    field; a bool fits only a bool field; a list fits a tuple field whose
    members it fits element by element; a value fits a union if it fits
    one of its members."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return any(_accepts(a, value) for a in typing.get_args(tp))
    if tp is type(None):
        return value is None
    if tp in (int, float) and isinstance(value, bool):
        return False
    if tp is float:
        return isinstance(value, (int, float))
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_accepts(args[0], v) for v in value)
        return len(value) == len(args) and all(map(_accepts, args, value))
    return isinstance(value, tp)


def config_from_doc(cls, doc: dict, what: str):
    """Build the config dataclass `cls` from a JSON object.

    The field annotations give the accepted types; a nested config
    dataclass is read from its own object, and lists become tuples.
    Missing fields keep their defaults. Unknown keys and mistyped values
    raise ValueError, which the CLI and `load_model` report as a format
    error (exit 3).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    fields = {}
    for name, value in doc.items():
        tp = hints[name]
        if is_dataclass(tp):
            fields[name] = config_from_doc(tp, value, name)
        elif _accepts(tp, value):
            fields[name] = tuple(value) if isinstance(value, list) else value
        else:
            raise ValueError(f"{what} field {name!r}: {value!r} is not of type {tp}")
    return cls(**fields)


HEAD_TENSORS = ("wq", "wk", "wv")


def weight_shapes(config: DecoderConfig) -> dict[str, tuple[int, ...]]:
    """The dotted name and shape of every weight tensor of a model with
    `config`, in the named map's order: per layer l, "layers.{l}.{t}.{i}"
    for each head i and t in HEAD_TENSORS, then "layers.{l}.{t}" for the
    layer's other tensors; "proj_w" and "proj_b" last."""
    d, dff = config.d_model, config.d_ff
    layer = {
        "wo": (d, d),
        "conv1_w": (config.kernel1, d, dff),
        "conv1_b": (dff,),
        "conv2_w": (config.kernel2, dff, d),
        "conv2_b": (d,),
        "ln1_gamma": (d,),
        "ln1_beta": (d,),
        "ln2_gamma": (d,),
        "ln2_beta": (d,),
    }
    shapes: dict[str, tuple[int, ...]] = {}
    for l in range(config.n_layers):
        pref = f"layers.{l}."
        for i in range(config.n_heads):
            shapes.update({f"{pref}{t}.{i}": (d, config.d_head) for t in HEAD_TENSORS})
        shapes.update({pref + t: shape for t, shape in layer.items()})
    shapes["proj_w"] = (d, config.mel_bins)
    shapes["proj_b"] = (config.mel_bins,)
    return shapes


def pack_qkv(ops, params, config: DecoderConfig, l: int):
    """Layer l's query, key and value projections side by side,
    [wq_0 .. wq_h-1 | wk_0 .. | wv_0 ..]: the columns of one QKV product."""
    return ops.concat_feat(
        [params[f"layers.{l}.{t}.{i}"] for t in HEAD_TENSORS for i in range(config.n_heads)]
    )


@dataclass
class ModelWeights:
    """A config and its weights as one name -> tensor map.

    `named` maps the dotted names of `weight_shapes` to tensors: the CFPW
    layout, and what training optimises. Construction copies the map,
    checks every tensor's shape, dtype and finiteness against the config
    (ValueError), and packs each layer's projections into `wqkv[l]` once
    (`pack_qkv`), so the chunk step never repacks. Treat the model as
    read-only: edit the copy `weights_to_named` returns and build a new
    `ModelWeights` from it.
    """

    config: DecoderConfig
    named: dict[str, np.ndarray] = field(repr=False)
    wqkv: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        shapes = weight_shapes(cfg)
        missing = shapes.keys() - self.named.keys()
        extra = self.named.keys() - shapes.keys()
        if missing or extra:
            raise ValueError(
                f"weight name mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        self.named = {name: self.named[name] for name in shapes}
        names = list(shapes)
        _check_tensors(self.named.values(), shapes.values(), cfg, lambda i: f"weight {names[i]!r}")
        self.wqkv = [pack_qkv(tensor, self.named, cfg, l) for l in range(cfg.n_layers)]


def init_weights(config: DecoderConfig, seed: int) -> ModelWeights:
    """Seeded uniform init, bounds sqrt(6 / (fan_in + fan_out)).

    Conv fans count the kernel taps. Biases start at zero, layer-norm at
    identity. Draws happen in f64 in a fixed order (per layer every head's
    wq, then wk, then wv, then wo, conv1_w, conv2_w; proj_w last), then
    cast, so a seed pins the model for either dtype.
    """
    rng = np.random.default_rng(seed)
    dt = config.np_dtype
    shapes = weight_shapes(config)

    def draw(name):
        shape = shapes[name]
        taps = shape[0] if len(shape) == 3 else 1
        bound = math.sqrt(6.0 / (taps * shape[-2] + taps * shape[-1]))
        return rng.uniform(-bound, bound, size=shape).astype(dt)

    drawn = []
    for l in range(config.n_layers):
        pref = f"layers.{l}."
        drawn += [f"{pref}{t}.{i}" for t in HEAD_TENSORS for i in range(config.n_heads)]
        drawn += [pref + t for t in ("wo", "conv1_w", "conv2_w")]
    named = {name: draw(name) for name in drawn + ["proj_w"]}
    for name, shape in shapes.items():
        if name not in named:
            named[name] = (np.ones if name.endswith("_gamma") else np.zeros)(shape, dtype=dt)
    return ModelWeights(config, named)


def weights_to_named(model: ModelWeights) -> dict[str, np.ndarray]:
    """A fresh copy of the model's name -> tensor map (stable dotted names)."""
    return dict(model.named)


def save_model(path: str, model: ModelWeights) -> None:
    io.save_weights(path, model.config.to_dict(), weights_to_named(model))


def load_model(path: str) -> ModelWeights:
    doc, named = io.load_weights(path)
    try:
        return ModelWeights(DecoderConfig.from_dict(doc), named)
    except ValueError as e:
        raise io.FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Streaming state.


@dataclass
class AttentionState:
    """Per-head cached key/value rows, as many as `state_shapes` gives."""

    pk: list[np.ndarray]
    pv: list[np.ndarray]


@dataclass
class ConvState:
    """Trailing kernel-1 input frames of each causal conv layer."""

    pc1: np.ndarray
    pc2: np.ndarray


@dataclass
class LayerState:
    attn: AttentionState
    conv: ConvState


@dataclass
class DecoderState:
    layers: list[LayerState]
    frame_offset: int = 0


def state_shapes(config: DecoderConfig, frame_offset: int) -> list[tuple[int, ...]]:
    """The shape of every state tensor `frame_offset` frames into a stream,
    in CFPS order: per layer each head's key cache, each head's value
    cache, the conv1 and conv2 tails. A cache holds min(frame_offset,
    past_size) rows (frame_offset under ALL), a tail kernel-1 rows."""
    rows = frame_offset if config.past_size == ALL else min(frame_offset, config.past_size)
    cache = [(rows, config.d_head)] * (2 * config.n_heads)
    tails = [(config.kernel1 - 1, config.d_model), (config.kernel2 - 1, config.d_ff)]
    return (cache + tails) * config.n_layers


def _state_from_tensors(tensors: list[np.ndarray], frame_offset: int, h: int) -> DecoderState:
    """Regroup tensors in `state_shapes` order, `h` heads per layer."""
    layers = [
        LayerState(
            attn=AttentionState(pk=tensors[b : b + h], pv=tensors[b + h : b + 2 * h]),
            conv=ConvState(pc1=tensors[b + 2 * h], pc2=tensors[b + 2 * h + 1]),
        )
        for b in range(0, len(tensors), 2 * h + 2)
    ]
    return DecoderState(layers=layers, frame_offset=frame_offset)


def init_state(config: DecoderConfig) -> DecoderState:
    """Empty caches and zero conv tails: the state before frame 0."""
    dt = config.np_dtype
    zeros = [np.zeros(shape, dtype=dt) for shape in state_shapes(config, 0)]
    return _state_from_tensors(zeros, 0, config.n_heads)


def state_tensor_list(state: DecoderState) -> list[np.ndarray]:
    """The state's tensors in `state_shapes` order."""
    return [a for ls in state.layers for a in (*ls.attn.pk, *ls.attn.pv, ls.conv.pc1, ls.conv.pc2)]


def save_decoder_state(path: str, state: DecoderState) -> None:
    io.save_state(path, state.frame_offset, state_tensor_list(state))


def load_decoder_state(path: str, config: DecoderConfig) -> DecoderState:
    """Read a CFPS snapshot and check every tensor against `state_shapes`
    (exact shape, the config's dtype, finite values): FormatError
    otherwise, naming the tensor."""
    frame_offset, tensors = io.load_state(path)
    shapes = state_shapes(config, frame_offset)
    h = config.n_heads

    def name(i):
        l, j = divmod(i, 2 * h + 2)
        if j >= 2 * h:
            return f"layer {l} conv{j - 2 * h + 1} tail"
        return f"layer {l} head {j % h} {'key' if j < h else 'value'} cache"

    try:
        if len(tensors) != len(shapes):
            raise ValueError(f"snapshot holds {len(tensors)} tensors, config needs {len(shapes)}")
        needs = f"frame offset {frame_offset} with past_size {config.past_size} needs"
        _check_tensors(tensors, shapes, config, name, needs)
    except ValueError as e:
        raise io.FormatError(f"{path}: {e}") from e
    return _state_from_tensors(tensors, frame_offset, h)


# ---------------------------------------------------------------------------
# Positional encoding.


def positional_encoding(offset: int, length: int, d_model: int, dtype: str = "f64") -> np.ndarray:
    """Sinusoidal rows for absolute positions offset .. offset+length-1.

    Row values depend only on the absolute position, never on how the
    sequence was chunked, so incremental and parallel runs add identical
    encodings. Angles are computed in f64 and cast once at the end.
    """
    if length < 0 or offset < 0:
        raise ValueError(f"invalid positional range offset={offset} length={length}")
    pos = np.arange(offset, offset + length, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.power(10000.0, idx / float(d_model))
    pe = np.zeros((length, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div[: d_model // 2])
    return pe.astype(DTYPES[dtype])


# ---------------------------------------------------------------------------
# The block body, shared by every route.


def mha_chunk_step(ops, x, wqkv, wo, st: AttentionState, config: DecoderConfig, mask):
    """Multi-head attention of a chunk over the cached past plus the chunk.

    One product projects the chunk onto every head's query, key and value
    (`wqkv`, see `pack_qkv`); each head takes its columns of it. Per head:
    the chunk's keys/values are appended to the cache, the queries attend
    the concatenation under `mask` (None: every query sees all of it), and
    the new cache is its trailing past_size rows. Scores scale by
    1/sqrt(d_head).
    """
    d, dh = config.d_model, config.d_head
    inv = 1.0 / math.sqrt(dh)
    qkv = ops.matmul(x, wqkv)
    heads, pk, pv = [], [], []
    for i, c in enumerate(range(0, d, dh)):
        q = ops.feat_slice(qkv, c, c + dh)
        k = ops.concat_time(st.pk[i], ops.feat_slice(qkv, d + c, d + c + dh))
        v = ops.concat_time(st.pv[i], ops.feat_slice(qkv, 2 * d + c, 2 * d + c + dh))
        heads.append(ops.attention(q, k, v, mask, inv))
        keep = len(k) if config.past_size == ALL else config.past_size
        pk.append(ops.tail_slice(k, keep))
        pv.append(ops.tail_slice(v, keep))
    return ops.matmul(ops.concat_feat(heads), wo), AttentionState(pk=pk, pv=pv)


def ffn_chunk_step(ops, x, params, l: int, st: ConvState, config: DecoderConfig):
    """Layer l's two causal convolutions over carried tails; both ReLU.

    Each conv prepends its kernel-1 carried frames (zeros at sequence
    start), so the chunked result equals the left-zero-padded
    whole-sequence convolution frame for frame. New tails are the last
    kernel-1 rows of each conv input.
    """
    pref = f"layers.{l}."
    c1 = ops.concat_time(st.pc1, x)
    o1 = ops.relu(ops.causal_conv1d(c1, params[pref + "conv1_w"], params[pref + "conv1_b"]))
    c2 = ops.concat_time(st.pc2, o1)
    o2 = ops.relu(ops.causal_conv1d(c2, params[pref + "conv2_w"], params[pref + "conv2_b"]))
    tails = ConvState(
        pc1=ops.tail_slice(c1, config.kernel1 - 1),
        pc2=ops.tail_slice(c2, config.kernel2 - 1),
    )
    return o2, tails


def fft_block_step(ops, x, params, wqkv, l: int, st: LayerState, config: DecoderConfig, mask):
    """Decoder block l, post-norm: LN(x + attention), LN(that + conv FFN).

    `ops` is the tensor module (plain arrays) or the autodiff module
    (recording nodes); `params` is the named weight map in that
    namespace's tensors and `wqkv` layer l's packed projection. `st`
    carries the caches in; the returned state carries them out.
    """
    pref = f"layers.{l}."
    attn, attn_st = mha_chunk_step(ops, x, wqkv, params[pref + "wo"], st.attn, config, mask)
    r1 = ops.layer_norm(
        ops.add(x, attn), params[pref + "ln1_gamma"], params[pref + "ln1_beta"], config.ln_eps
    )
    ffn, conv_st = ffn_chunk_step(ops, r1, params, l, st.conv, config)
    y = ops.layer_norm(
        ops.add(r1, ffn), params[pref + "ln2_gamma"], params[pref + "ln2_beta"], config.ln_eps
    )
    return y, LayerState(attn=attn_st, conv=conv_st)


def _decode(ops, x, params, wqkv, state: DecoderState, config: DecoderConfig, mask):
    """Positional encoding, every block, then the Mel projection, for the
    frames of `x` following `state`; returns the Mel and the next state."""
    pe = positional_encoding(state.frame_offset, len(x), config.d_model, config.dtype)
    h = ops.add(x, pe)
    if len(state.layers) != config.n_layers:
        raise ShapeError(f"state has {len(state.layers)} layers, the model {config.n_layers}")
    layers = []
    for l in range(config.n_layers):
        h, st = fft_block_step(ops, h, params, wqkv[l], l, state.layers[l], config, mask)
        layers.append(st)
    mel = ops.add_bias(ops.matmul(h, params["proj_w"]), params["proj_b"])
    return mel, DecoderState(layers=layers, frame_offset=state.frame_offset + len(x))


# ---------------------------------------------------------------------------
# Incremental route.


def decode_chunk(
    chunk: np.ndarray, model: ModelWeights, state: DecoderState
) -> tuple[np.ndarray, DecoderState]:
    """One feature chunk to one Mel chunk, advancing the stream state."""
    _check_features(chunk, model.config, "decode_chunk", state.frame_offset)
    return _decode(tensor, chunk, model.named, model.wqkv, state, model.config, None)


def decode_incremental(
    features: np.ndarray, model: ModelWeights, state: DecoderState | None = None
) -> tuple[list[np.ndarray], DecoderState]:
    """Chunk the features and decode them in order.

    Chunks are chunk_size frames, the last possibly shorter. Returns the
    Mel chunks plus the final state, which can be saved and resumed to
    continue the same stream bit-identically. Per-chunk cost is bounded by
    the config, not by how much history has been consumed.
    """
    cfg = model.config
    if features.ndim != 2 or features.shape[1] != cfg.d_model:
        raise ShapeError(
            f"decode_incremental: features shape {features.shape} != (T, {cfg.d_model})"
        )
    if len(features) == 0:
        raise ShapeError("decode_incremental: empty feature sequence")
    if state is None:
        state = init_state(cfg)
    mel_chunks = []
    for start in range(0, len(features), cfg.chunk_size):
        mel, state = decode_chunk(features[start : start + cfg.chunk_size], model, state)
        mel_chunks.append(mel)
    return mel_chunks, state


# ---------------------------------------------------------------------------
# Parallel masked route (training forward and equivalence oracle).


def forward_named(ops, features, params, config: DecoderConfig, mask) -> object:
    """Full-sequence forward through an `ops` namespace.

    One chunk as long as the sequence: it starts from `init_state`, whose
    empty caches and zero conv tails are the kernel-1 left zero-padding,
    runs the block body under `mask`, and drops the carried state. `ops`
    and `params` are as for `fft_block_step`. Each layer's projections
    are packed in the graph, so gradients reach the per-head tensors.
    """
    wqkv = [pack_qkv(ops, params, config, l) for l in range(config.n_layers)]
    mel, _ = _decode(ops, features, params, wqkv, init_state(config), config, mask)
    return mel


def decode_parallel_masked(
    features: np.ndarray, model: ModelWeights, mask: masks.ChunkMask
) -> np.ndarray:
    """Whole-sequence decode under a chunk mask; the oracle route.

    `forward_named` over plain arrays, except that it multiplies by the
    projections `ModelWeights` packed once instead of packing them per call.
    """
    cfg = model.config
    _check_features(features, cfg, "decode_parallel_masked")
    if mask.total_frames != len(features):
        raise ShapeError(
            f"decode_parallel_masked: mask of {mask.total_frames} frames != frames {len(features)}"
        )
    mel, _ = _decode(tensor, features, model.named, model.wqkv, init_state(cfg), cfg, mask)
    return mel


# ---------------------------------------------------------------------------
# Receptive field.


@dataclass
class ReceptiveFieldReport:
    """Closed-form value next to the exact traversal results.

    `r_oracle` counts reach in whole chunks touched;
    `r_exact_frames` is the precise frame distance from the end of the
    last chunk to the earliest reachable input frame. `per_layer` lists
    the earliest reachable frame after each attention hop, top down, over
    the traversal horizon of `horizon_frames`.
    """

    n_layers: int
    chunk_size: int
    past_size: int | str
    r_formula: int | None
    r_oracle: int
    r_exact_frames: int
    earliest_frame: int
    per_layer: list[int]
    horizon_frames: int
    unbounded: bool = False


def receptive_field_formula(n_layers: int, past_size: int, chunk_size: int) -> int:
    """Closed-form receptive field (N + floor(past/chunk) + 1) * chunk."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if not isinstance(past_size, (int, np.integer)) or past_size < 0:
        raise ValueError(f"past_size must be a non-negative integer, got {past_size!r}")
    return (n_layers + past_size // chunk_size + 1) * chunk_size


def receptive_field_oracle(cfg: DecoderConfig) -> ReceptiveFieldReport:
    """Exact dependency traversal over attention edges only.

    Unrolls enough chunks for the reach to saturate, then walks the
    attention windows top layer to bottom: every frame of a chunk depends
    on that chunk plus past_size frames before the chunk start, one layer
    below. Convolutional reach is deliberately excluded; the traversal
    measures what the key/value caches alone make visible.
    """
    n_layers, chunk_size, past_size = cfg.n_layers, cfg.chunk_size, cfg.past_size
    unbounded = past_size == ALL
    if unbounded:
        n_chunks = n_layers + 2
    else:
        q = -(-past_size // chunk_size)
        n_chunks = n_layers * (q + 1) + 2
    t = n_chunks * chunk_size
    reached = np.zeros(t, dtype=bool)
    reached[t - chunk_size :] = True
    per_layer: list[int] = []
    for _ in range(n_layers):
        nxt = np.zeros(t, dtype=bool)
        for c in range(n_chunks):
            start = c * chunk_size
            end = start + chunk_size
            if not reached[start:end].any():
                continue
            first = 0 if unbounded else max(0, start - past_size)
            nxt[first:end] = True
        reached = nxt
        per_layer.append(int(np.argmax(reached)))
    earliest = int(np.argmax(reached))
    r_exact = t - earliest
    r_oracle = t - (earliest // chunk_size) * chunk_size
    r_formula = None if unbounded else receptive_field_formula(n_layers, past_size, chunk_size)
    return ReceptiveFieldReport(
        n_layers=n_layers,
        chunk_size=chunk_size,
        past_size=past_size,
        r_formula=r_formula,
        r_oracle=r_oracle,
        r_exact_frames=r_exact,
        earliest_frame=earliest,
        per_layer=per_layer,
        horizon_frames=t,
        unbounded=unbounded,
    )
