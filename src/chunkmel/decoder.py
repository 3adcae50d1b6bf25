"""Chunk-incremental transformer decoder with fixed-size state caches.

Two inference routes over the same weights:

- `decode_incremental` consumes the feature sequence chunk by chunk,
  carrying per-layer attention key/value caches (at most `past_size`
  frames) and causal-conv tails (exactly kernel-1 frames) between steps.
- `decode_parallel_masked` runs the whole sequence at once under a chunk
  attention mask, with kernel-1 left zero-padding for the convolutions.
  This is both the training-time forward and the equivalence oracle.

Both routes call one attention primitive, `tensor.attention`: the chunk
step with no mask over its cache plus chunk, the parallel route with the
chunk mask. Under a mask each block of queries is scored only against
the keys it may see, so the parallel route costs O(T·window), not O(T²).

Both routes project all heads' queries, keys and values with one
product per layer against the heads' packed `wq | wk | wv` weights and
give each head its columns, and `tensor.causal_conv1d` computes all
taps in one product. Each output element of those products sums the
same terms in the same order as a per-head or per-tap product would.

Both routes compute every reduction in the same left-to-right order, and
masked attention positions contribute exact zeros, so their outputs agree
bit-for-bit up to the sign of zero ties. A blocked-out key never perturbs
the sum it is excluded from.

Caches at sequence start: attention caches are EMPTY (they grow up to
`past_size`), conv tails are ZERO. Chunk 1 then sees exactly what the
training mask gives it (no past), and chunked convolution matches the
zero-padded parallel convolution.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import io, masks, tensor
from .tensor import DTYPES, ShapeError

ALL = masks.ALL


class NonFiniteInputError(ValueError):
    """A feature array holds NaN or infinity."""


def _check_finite(features: np.ndarray, where: str, offset: int | None = None) -> None:
    """Reject NaN or infinite features, naming the first bad frame.

    `offset` is the stream frame of a chunk's first row; the message then
    gives both the stream frame and the row within the chunk.
    """
    if np.isfinite(features).all():
        return
    row = int(np.argmin(np.isfinite(features).all(axis=1)))
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
        if self.past_size != ALL and (
            not isinstance(self.past_size, (int, np.integer)) or self.past_size < 0
        ):
            raise ValueError(f"past_size must be >= 0 or {ALL!r}, got {self.past_size!r}")
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
        check_config_doc(cls, doc, "config")
        return cls(**doc)


def _accepts(tp, value) -> bool:
    """Whether a JSON value fits a field annotation. An int fits a float
    field; a bool fits only a bool field; a list fits a tuple field."""
    if tp is type(None):
        return value is None
    if tp in (int, float) and isinstance(value, bool):
        return False
    if tp is float:
        return isinstance(value, (int, float))
    origin = typing.get_origin(tp) or tp
    if origin is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)):
            return False
        if not args or Ellipsis in args:
            return True
        return len(value) == len(args) and all(map(_accepts, args, value))
    return isinstance(value, origin)


def check_config_doc(cls, doc: dict, what: str) -> None:
    """Reject a config document with unknown keys or mistyped values.

    `cls` is a config dataclass; its field annotations give the accepted
    types. Raises ValueError, which the CLI and `load_model` report as a
    format error (exit 3).
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for name, value in doc.items():
        tp = hints[name]
        union = typing.get_origin(tp) in (typing.Union, types.UnionType)
        allowed = typing.get_args(tp) if union else (tp,)
        if not any(_accepts(a, value) for a in allowed):
            raise ValueError(f"{what} field {name!r}: {value!r} is not of type {tp}")


@dataclass
class LayerWeights:
    """One FFT block: per-head attention projections, the output
    projection, two causal convs, and two layer-norm parameter pairs.

    `wqkv` packs every head's query, key and value projection side by
    side, [wq_0 .. wq_h-1 | wk_0 .. | wv_0 ..], once when the layer is
    built, so the chunk step projects all heads in one product.
    """

    wq: list[np.ndarray]
    wk: list[np.ndarray]
    wv: list[np.ndarray]
    wo: np.ndarray
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    wqkv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.wqkv = np.concatenate([*self.wq, *self.wk, *self.wv], axis=1)


# Per-layer tensors: one per head for each of HEAD_TENSORS, one each of
# LAYER_TENSORS. Named map keys are "layers.{l}.{name}.{head}" and
# "layers.{l}.{name}", in this order, then "proj_w" and "proj_b".
HEAD_TENSORS = ("wq", "wk", "wv")
LAYER_TENSORS = (
    "wo", "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
)


@dataclass
class ModelWeights:
    config: DecoderConfig
    layers: list[LayerWeights]
    proj_w: np.ndarray
    proj_b: np.ndarray


def init_weights(config: DecoderConfig, seed: int) -> ModelWeights:
    """Seeded uniform init, bounds sqrt(6 / (fan_in + fan_out)).

    Conv fans count the kernel taps. Biases start at zero, layer-norm at
    identity. Draws happen in f64 in a fixed order, then cast, so a seed
    pins the model for either dtype.
    """
    rng = np.random.default_rng(seed)
    dt = config.np_dtype

    def draw(fan_in, fan_out, shape):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape).astype(dt)

    d, dh, dff = config.d_model, config.d_head, config.d_ff
    k1, k2 = config.kernel1, config.kernel2
    layers = []
    for _ in range(config.n_layers):
        wq = [draw(d, dh, (d, dh)) for _ in range(config.n_heads)]
        wk = [draw(d, dh, (d, dh)) for _ in range(config.n_heads)]
        wv = [draw(d, dh, (d, dh)) for _ in range(config.n_heads)]
        wo = draw(d, d, (d, d))
        conv1_w = draw(k1 * d, k1 * dff, (k1, d, dff))
        conv2_w = draw(k2 * dff, k2 * d, (k2, dff, d))
        layers.append(
            LayerWeights(
                wq=wq,
                wk=wk,
                wv=wv,
                wo=wo,
                conv1_w=conv1_w,
                conv1_b=np.zeros(dff, dtype=dt),
                conv2_w=conv2_w,
                conv2_b=np.zeros(d, dtype=dt),
                ln1_gamma=np.ones(d, dtype=dt),
                ln1_beta=np.zeros(d, dtype=dt),
                ln2_gamma=np.ones(d, dtype=dt),
                ln2_beta=np.zeros(d, dtype=dt),
            )
        )
    proj_w = draw(d, config.mel_bins, (d, config.mel_bins))
    proj_b = np.zeros(config.mel_bins, dtype=dt)
    return ModelWeights(config=config, layers=layers, proj_w=proj_w, proj_b=proj_b)


def weight_names(config: DecoderConfig) -> list[str]:
    """The dotted names of every weight tensor of a model with `config`."""
    names = []
    for l in range(config.n_layers):
        pref = f"layers.{l}."
        for i in range(config.n_heads):
            names += [f"{pref}{t}.{i}" for t in HEAD_TENSORS]
        names += [pref + t for t in LAYER_TENSORS]
    return names + ["proj_w", "proj_b"]


def weights_to_named(model: ModelWeights) -> dict[str, np.ndarray]:
    """Flatten weights to a name -> tensor map (stable dotted names)."""
    named: dict[str, np.ndarray] = {}
    for l, lw in enumerate(model.layers):
        pref = f"layers.{l}."
        for i in range(model.config.n_heads):
            for t in HEAD_TENSORS:
                named[f"{pref}{t}.{i}"] = getattr(lw, t)[i]
        for t in LAYER_TENSORS:
            named[pref + t] = getattr(lw, t)
    named["proj_w"] = model.proj_w
    named["proj_b"] = model.proj_b
    return named


def named_to_weights(config: DecoderConfig, named: dict[str, np.ndarray]) -> ModelWeights:
    """Rebuild structured weights from a flat name map, checking coverage."""
    expected = set(weight_names(config))
    missing = expected - set(named)
    extra = set(named) - expected
    if missing or extra:
        raise ValueError(
            f"weight name mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    layers = []
    for l in range(config.n_layers):
        pref = f"layers.{l}."
        heads = {t: [named[f"{pref}{t}.{i}"] for i in range(config.n_heads)] for t in HEAD_TENSORS}
        layers.append(LayerWeights(**heads, **{t: named[pref + t] for t in LAYER_TENSORS}))
    return ModelWeights(
        config=config, layers=layers, proj_w=named["proj_w"], proj_b=named["proj_b"]
    )


def save_model(path: str, model: ModelWeights) -> None:
    io.save_weights(path, model.config.to_dict(), weights_to_named(model))


def load_model(path: str) -> ModelWeights:
    doc, named = io.load_weights(path)
    try:
        return named_to_weights(DecoderConfig.from_dict(doc), named)
    except ValueError as e:
        raise io.FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# Streaming state.


@dataclass
class AttentionState:
    """Per-head cached key/value rows; between 0 and past_size frames."""

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


def init_state(config: DecoderConfig) -> DecoderState:
    dt = config.np_dtype
    layers = []
    for _ in range(config.n_layers):
        attn = AttentionState(
            pk=[np.zeros((0, config.d_head), dtype=dt) for _ in range(config.n_heads)],
            pv=[np.zeros((0, config.d_head), dtype=dt) for _ in range(config.n_heads)],
        )
        conv = ConvState(
            pc1=np.zeros((config.kernel1 - 1, config.d_model), dtype=dt),
            pc2=np.zeros((config.kernel2 - 1, config.d_ff), dtype=dt),
        )
        layers.append(LayerState(attn=attn, conv=conv))
    return DecoderState(layers=layers, frame_offset=0)


def state_tensor_list(state: DecoderState) -> list[np.ndarray]:
    """Flatten to the snapshot order: per layer pk per head, pv per head,
    then the two conv tails."""
    out: list[np.ndarray] = []
    for ls in state.layers:
        out.extend(ls.attn.pk)
        out.extend(ls.attn.pv)
        out.append(ls.conv.pc1)
        out.append(ls.conv.pc2)
    return out


def save_decoder_state(path: str, state: DecoderState) -> None:
    io.save_state(path, state.frame_offset, state_tensor_list(state))


def load_decoder_state(path: str, config: DecoderConfig) -> DecoderState:
    frame_offset, tensors = io.load_state(path)
    per_layer = 2 * config.n_heads + 2
    expected = config.n_layers * per_layer
    if len(tensors) != expected:
        raise io.FormatError(
            f"{path}: snapshot holds {len(tensors)} tensors, config needs {expected}"
        )
    rows = frame_offset if config.past_size == ALL else min(frame_offset, config.past_size)
    layers = []
    for l in range(config.n_layers):
        block = tensors[l * per_layer : (l + 1) * per_layer]
        h = config.n_heads
        pk, pv = block[:h], block[h : 2 * h]
        pc1, pc2 = block[2 * h], block[2 * h + 1]
        for arr in block:
            if arr.dtype != config.np_dtype:
                raise io.FormatError(f"{path}: state dtype {arr.dtype} != config {config.dtype}")
        if pc1.shape != (config.kernel1 - 1, config.d_model):
            raise io.FormatError(f"{path}: conv1 tail shape {pc1.shape} invalid")
        if pc2.shape != (config.kernel2 - 1, config.d_ff):
            raise io.FormatError(f"{path}: conv2 tail shape {pc2.shape} invalid")
        for arr in pk + pv:
            if arr.ndim != 2 or arr.shape[1] != config.d_head:
                raise io.FormatError(f"{path}: cache row width {arr.shape} != d_head")
        for i, (k, v) in enumerate(zip(pk, pv)):
            where = f"{path}: layer {l} head {i}"
            if len(k) != len(v):
                raise io.FormatError(f"{where}: key cache has {len(k)} rows, value cache {len(v)}")
            if config.past_size != ALL and len(k) > config.past_size:
                raise io.FormatError(
                    f"{where}: cache holds {len(k)} rows, more than past_size {config.past_size}"
                )
            if len(k) != rows:
                raise io.FormatError(
                    f"{where}: cache holds {len(k)} rows, frame offset {frame_offset} "
                    f"with past_size {config.past_size} needs {rows}"
                )
        layers.append(
            LayerState(
                attn=AttentionState(pk=list(pk), pv=list(pv)),
                conv=ConvState(pc1=pc1, pc2=pc2),
            )
        )
    return DecoderState(layers=layers, frame_offset=frame_offset)


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
# Incremental route.


def mha_chunk_step(
    x: np.ndarray, w: LayerWeights, st: AttentionState, config: DecoderConfig
) -> tuple[np.ndarray, AttentionState]:
    """Multi-head attention over one chunk plus the cached past.

    One product projects the chunk onto every head's query, key and value
    (`w.wqkv`); each head takes its columns of it. Per head: keys/values
    of the chunk are appended to the cache, every query attends the whole
    concatenation (no intra-chunk mask), and the new cache is the
    trailing past_size rows. Scores scale by 1/sqrt(d_head).
    """
    if x.ndim != 2 or x.shape[1] != config.d_model:
        raise ShapeError(f"mha_chunk_step: chunk shape {x.shape} != (*, {config.d_model})")
    inv = 1.0 / math.sqrt(config.d_head)
    d, dh = config.d_model, config.d_head
    qkv = tensor.matmul(x, w.wqkv)
    heads = []
    new_pk, new_pv = [], []
    for i in range(config.n_heads):
        c = i * dh
        q = qkv[:, c : c + dh]
        k_cat = tensor.concat_time(st.pk[i], qkv[:, d + c : d + c + dh])
        v_cat = tensor.concat_time(st.pv[i], qkv[:, 2 * d + c : 2 * d + c + dh])
        heads.append(tensor.attention(q, k_cat, v_cat, None, inv))
        keep = len(k_cat) if config.past_size == ALL else config.past_size
        new_pk.append(tensor.tail_slice(k_cat, keep))
        new_pv.append(tensor.tail_slice(v_cat, keep))
    o = tensor.matmul(tensor.concat_feat(heads), w.wo)
    return o, AttentionState(pk=new_pk, pv=new_pv)


def ffn_chunk_step(
    x: np.ndarray, w: LayerWeights, st: ConvState, config: DecoderConfig
) -> tuple[np.ndarray, ConvState]:
    """Two causal convolutions with carried tails; both layers ReLU.

    Each conv prepends its kernel-1 cached frames, so the chunked result
    equals the left-zero-padded parallel convolution frame for frame. New
    tails are the last kernel-1 rows of each conv input.
    """
    c1 = tensor.concat_time(st.pc1, x)
    o1 = tensor.relu(tensor.causal_conv1d(c1, w.conv1_w, w.conv1_b))
    c2 = tensor.concat_time(st.pc2, o1)
    o2 = tensor.relu(tensor.causal_conv1d(c2, w.conv2_w, w.conv2_b))
    st2 = ConvState(
        pc1=tensor.tail_slice(c1, config.kernel1 - 1),
        pc2=tensor.tail_slice(c2, config.kernel2 - 1),
    )
    return o2, st2


def fft_block_step(
    x: np.ndarray, w: LayerWeights, st: LayerState, config: DecoderConfig
) -> tuple[np.ndarray, LayerState]:
    """One decoder block, post-norm: LN(x + attention), LN(that + conv FFN)."""
    attn, attn_st = mha_chunk_step(x, w, st.attn, config)
    r1 = tensor.layer_norm(tensor.add(x, attn), w.ln1_gamma, w.ln1_beta, config.ln_eps)
    ffn, conv_st = ffn_chunk_step(r1, w, st.conv, config)
    y = tensor.layer_norm(tensor.add(r1, ffn), w.ln2_gamma, w.ln2_beta, config.ln_eps)
    return y, LayerState(attn=attn_st, conv=conv_st)


def decode_chunk(
    chunk: np.ndarray, model: ModelWeights, state: DecoderState
) -> tuple[np.ndarray, DecoderState]:
    """One feature chunk to one Mel chunk, advancing the stream state."""
    cfg = model.config
    if chunk.ndim != 2 or chunk.shape[1] != cfg.d_model:
        raise ShapeError(f"decode_chunk: chunk shape {chunk.shape} != (*, {cfg.d_model})")
    if len(chunk) == 0:
        raise ShapeError("decode_chunk: empty chunk")
    _check_finite(chunk, "decode_chunk", state.frame_offset)
    pe = positional_encoding(state.frame_offset, len(chunk), cfg.d_model, cfg.dtype)
    h = tensor.add(chunk, pe)
    new_layers = []
    for l in range(cfg.n_layers):
        h, layer_st = fft_block_step(h, model.layers[l], state.layers[l], cfg)
        new_layers.append(layer_st)
    mel = tensor.add_bias(tensor.matmul(h, model.proj_w), model.proj_b)
    return mel, DecoderState(layers=new_layers, frame_offset=state.frame_offset + len(chunk))


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

    `ops` is either the tensor module (plain arrays in and out) or the
    autodiff module (recording nodes). `params` maps the dotted names of
    `weights_to_named` to that namespace's tensors. Attention is
    restricted by `mask`; convolutions see kernel-1 left zero-padding.

    Each layer packs its heads' projections in `LayerWeights.wqkv` order
    and makes one QKV product, as the chunk step does; each head takes
    its columns with `feat_slice`.
    """
    dt = DTYPES[config.dtype]
    t = features.shape[0]
    pe = positional_encoding(0, t, config.d_model, config.dtype)
    h = ops.add(features, pe)
    d, dh = config.d_model, config.d_head
    inv = 1.0 / math.sqrt(dh)
    for l in range(config.n_layers):
        pref = f"layers.{l}."
        wqkv = ops.concat_feat(
            [params[f"{pref}{name}.{i}"] for name in HEAD_TENSORS for i in range(config.n_heads)]
        )
        qkv = ops.matmul(h, wqkv)
        heads = []
        for c in range(0, d, dh):
            q = ops.feat_slice(qkv, c, c + dh)
            k = ops.feat_slice(qkv, d + c, d + c + dh)
            v = ops.feat_slice(qkv, 2 * d + c, 2 * d + c + dh)
            heads.append(ops.attention(q, k, v, mask, inv))
        attn = ops.matmul(ops.concat_feat(heads), params[pref + "wo"])
        r1 = ops.layer_norm(
            ops.add(h, attn), params[pref + "ln1_gamma"], params[pref + "ln1_beta"], config.ln_eps
        )
        pad1 = np.zeros((config.kernel1 - 1, config.d_model), dtype=dt)
        o1 = ops.relu(
            ops.causal_conv1d(
                ops.concat_time(pad1, r1), params[pref + "conv1_w"], params[pref + "conv1_b"]
            )
        )
        pad2 = np.zeros((config.kernel2 - 1, config.d_ff), dtype=dt)
        o2 = ops.relu(
            ops.causal_conv1d(
                ops.concat_time(pad2, o1), params[pref + "conv2_w"], params[pref + "conv2_b"]
            )
        )
        h = ops.layer_norm(
            ops.add(r1, o2), params[pref + "ln2_gamma"], params[pref + "ln2_beta"], config.ln_eps
        )
    return ops.add_bias(ops.matmul(h, params["proj_w"]), params["proj_b"])


def decode_parallel_masked(
    features: np.ndarray, model: ModelWeights, mask: masks.ChunkMask
) -> np.ndarray:
    """Whole-sequence decode under a chunk mask; the oracle route."""
    cfg = model.config
    if features.ndim != 2 or features.shape[1] != cfg.d_model:
        raise ShapeError(
            f"decode_parallel_masked: features shape {features.shape} != (T, {cfg.d_model})"
        )
    if mask.permitted.shape != (len(features), len(features)):
        raise ShapeError(
            f"decode_parallel_masked: mask {mask.permitted.shape} != frames {len(features)}"
        )
    _check_finite(features, "decode_parallel_masked")
    return forward_named(tensor, features, weights_to_named(model), cfg, mask)


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
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    _ = masks._check_past(past_size)
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
