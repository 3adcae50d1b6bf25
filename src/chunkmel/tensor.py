"""Dense numeric primitives for the chunked decoder.

All operations are pure functions over 2-D (time x feature) numpy arrays in
float32 or float64; `matmul` also takes one leading batch axis, which
attention fills with `windows` views. Reductions that feed cross-chunk math
use a fixed left-to-right summation order, so identical inputs always
produce bit-identical outputs and a value summed with interleaved exact
zeros equals the value summed without them. That second property is what
makes chunked decoding with caches agree exactly with one-shot masked
decoding.
"""

from __future__ import annotations

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

class ShapeError(ValueError):
    """Operand shapes or dtypes do not satisfy an operation's contract."""


class MaskError(ValueError):
    """A softmax query row has no permitted key."""


def dtype_name(arr: np.ndarray) -> str:
    name = _DTYPE_NAMES.get(arr.dtype)
    if name is None:
        raise ShapeError(f"unsupported dtype {arr.dtype}; expected f32 or f64")
    return name


def _check_same_dtype(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def sum_ordered(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along `axis` in strict left-to-right order (keepdims).

    The last axis of a 2-D input with at least two rows is summed by
    reducing over the first axis of its contiguous transpose: NumPy adds
    each row of that into the output in turn, so every sum still runs left
    to right, without the running totals `accumulate` writes. A single
    row would be reduced along its contiguous axis, which NumPy sums
    pairwise, so other inputs keep `accumulate`.
    """
    if x.shape[axis] == 0:
        shape = list(x.shape)
        shape[axis] = 1
        return np.zeros(shape, dtype=x.dtype)
    if x.ndim == 2 and axis in (-1, 1) and x.shape[0] >= 2:
        return np.add.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]
    acc = np.add.accumulate(x, axis=axis)
    last = [slice(None)] * acc.ndim
    last[axis] = slice(-1, None)
    return acc[tuple(last)]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with left-to-right accumulation over the inner axis.

    out[i, j] = a[i, 0]*b[0, j] + a[i, 1]*b[1, j] + ... summed in that
    exact order, so the result matches a naive triple loop bit-for-bit.
    np.einsum without the optimize flag accumulates the contracted axis
    sequentially (no BLAS dispatch, no pairwise blocking), which the test
    suite pins against an explicit triple-loop reference. Operands may
    also carry one leading batch axis, (B, m, k)·(B, k, n): each of the B
    products then sums exactly as its own 2-D product.

    The guarantee covers C-contiguous operands, basic-slice views of them
    (row ranges, column ranges such as one head's columns of a fused
    projection) and the `windows` views attention batches: each element
    then sums the same products in the same order as the product of the
    contiguous copies. It does not cover transposed views (`w.T`), for
    which einsum may pick another inner loop; a (96×32)·(32×64) product
    with a transposed right operand came out up to 8.9e-15 off the loop
    reference. Pass `transpose(w)`, a contiguous copy, where exact order
    matters.

    A one-column product is the exception einsum makes: with n == 1 and
    k >= 5 it switches to a dot-product loop with partial sums, off the
    loop reference in the last bits, batched or not. Such a product
    multiplies against `b` padded with one zero column, which takes the
    sequential loop, and keeps the first column. A d_head = 1 model's
    attention makes these.
    """
    if a.ndim == 2 == b.ndim:
        spec = "ik,kj->ij"
    elif a.ndim == 3 == b.ndim and len(a) == len(b):
        spec = "bik,bkj->bij"
    else:
        raise ShapeError(f"matmul: expected 2-D or equally batched 3-D operands, got {a.shape} and {b.shape}")
    k, n = a.shape[-1], b.shape[-1]
    if k != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    _check_same_dtype(a, b, "matmul")
    if k == 0:
        return np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    if n == 1:
        padded = np.zeros(b.shape[:-1] + (2,), dtype=a.dtype)
        padded[..., :1] = b
        return np.ascontiguousarray(np.einsum(spec, a, padded)[..., :1])
    return np.einsum(spec, a, b)


def windows(x: np.ndarray, start: tuple[int, int], step: tuple[int, int], count: int, shape: tuple[int, int]) -> np.ndarray:
    """`count` equal blocks of 2-D `x` as one read-only (count, *shape) view.

    Block i is the `shape` block whose first cell is start + i·step (row,
    column). Attention reads each chunk's queries, keys, values and mask
    cells this way, with no copies. Raises ShapeError unless every block
    lies inside `x`.
    """
    (r, c), (dr, dc), (h, w) = start, step, shape
    if (
        x.ndim != 2
        or count < 1
        or min(r, c, dr, dc, h, w) < 0
        or r + (count - 1) * dr + h > x.shape[0]
        or c + (count - 1) * dc + w > x.shape[1]
    ):
        raise ShapeError(f"windows: {count} blocks of {shape} from {start} by {step} leave {x.shape}")
    if count == 1:  # a basic slice costs a fraction of as_strided
        view = x[None, r : r + h, c : c + w]
        view.flags.writeable = False
        return view
    s0, s1 = x.strides
    return np.lib.stride_tricks.as_strided(
        x[r:, c:], (count, h, w), (dr * s0 + dc * s1, s0, s1), writeable=False
    )


def masked_softmax(logits: np.ndarray, mask=None) -> np.ndarray:
    """Row-wise softmax over the last axis, restricted to permitted keys.

    `mask` is either None, a boolean (T_q, T_k) array, or an object with a
    boolean `.permitted` attribute of that shape (broadcast over any leading
    axes of `logits`). Masked positions get exactly zero weight; each query
    row must keep at least one permitted key.

    Under a mask the row max is taken over permitted keys only, and only
    their exponentials are kept: masked entries never reach `exp` as -inf,
    which takes a slow path, and the clamp at zero keeps a masked entry
    above the row max from overflowing before it is dropped. Permitted
    entries see the same `exp` inputs as after masking with -inf, so the
    result is that softmax bit for bit. After the first difference every
    step works in place, so a large batched block does not allocate a
    buffer per step.
    """
    x = np.asarray(logits)
    if x.ndim < 2:
        raise ShapeError(f"masked_softmax: expected >=2-D logits, got {x.shape}")
    if mask is not None:
        perm = mask.permitted if hasattr(mask, "permitted") else np.asarray(mask, dtype=bool)
        if perm.shape != x.shape[-2:]:
            raise ShapeError(
                f"masked_softmax: mask shape {perm.shape} does not cover logits {x.shape}"
            )
        dead = ~perm.any(axis=1)
        if dead.any():
            rows = np.flatnonzero(dead)
            raise MaskError(f"masked_softmax: fully masked query rows {rows.tolist()}")
        e = x - np.maximum.reduce(x, axis=-1, keepdims=True, where=perm, initial=-np.inf)
        np.minimum(e, x.dtype.type(0), out=e)
        np.exp(e, out=e)
        np.copyto(e, x.dtype.type(0), where=~perm)
    elif x.shape[-1] == 0:
        raise MaskError("masked_softmax: zero keys and no mask")
    else:
        e = x - np.maximum.reduce(x, axis=-1, keepdims=True)
        np.exp(e, out=e)
    return np.divide(e, sum_ordered(e, axis=-1), out=e)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask, inv: float) -> np.ndarray:
    """Scaled dot-product attention: softmax(q kᵀ · inv, restricted by mask) v.

    With `mask` None every query sees every key and the scores form one
    dense block. With a `ChunkMask`, which is its chunk and past sizes,
    the work follows `mask.key_groups`: each group scores its slices of
    queries against only the keys their window holds, one batched score
    product, one `masked_softmax` and one batched value product per group,
    so the cost is O(T·window) rather than O(T²) and a run of chunks costs
    a handful of calls, not one set per chunk. K and V are transposed
    once; queries, keys and values are read through `windows` views. A
    slice of at most one chunk sees its whole window, so only a block of
    several chunks applies the mask, sliced from `mask.permitted`. Where a
    slice has more query rows than V has columns, the value product runs
    on the transposed operands, so that einsum's inner loop runs over the
    longer axis. Keys outside a slice's window have weight exactly zero in
    the dense masked softmax, and `masked_softmax` and `matmul` sum left
    to right, so the result is bit-identical to masking the dense T×T
    score matrix.
    """
    if mask is None:
        return matmul(masked_softmax(scale(matmul(q, transpose(k)), inv), None), v)
    if not mask.total_frames == len(q) == len(k):
        raise ShapeError(
            f"attention: mask of {mask.total_frames} frames does not cover {len(q)} queries x {len(k)} keys"
        )
    kt, vt = transpose(k), transpose(v)
    dk, dv = q.shape[1], v.shape[1]
    out = np.empty((len(q), dv), dtype=v.dtype)
    for g in mask.key_groups:
        n, rows, w = g.count, g.rows, g.width
        qs = windows(q, (g.row, 0), (rows, 0), n, (rows, dk))
        ks = windows(kt, (0, g.key), (0, rows), n, (dk, w))
        scores = scale(matmul(qs, ks), inv).reshape(n * rows, w)
        sub = mask.permitted[g.row : g.row + rows, g.key : g.key + w] if rows > mask.chunk_size else None
        probs = masked_softmax(scores, sub).reshape(n, rows, w)
        dst = out[g.row : g.row + n * rows].reshape(n, rows, dv)
        if rows > dv:
            vs = windows(vt, (0, g.key), (0, rows), n, (dv, w))
            dst[:] = matmul(vs, np.ascontiguousarray(probs.transpose(0, 2, 1))).transpose(0, 2, 1)
        else:
            dst[:] = matmul(probs, windows(v, (g.key, 0), (rows, 0), n, (w, dv)))
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-frame normalization over the feature axis; frame t only sees frame t."""
    if x.ndim != 2:
        raise ShapeError(f"layer_norm: expected 2-D input, got {x.shape}")
    d = x.shape[1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} do not match feature dim {d}"
        )
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    _check_same_dtype(x, gamma, "layer_norm")
    # np.add.reduce over d is what np.mean sums before its divide, minus
    # np.mean's wrapper overhead.
    mu = np.add.reduce(x, axis=1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True) / d
    xhat = xc / np.sqrt(var + x.dtype.type(eps))
    return gamma * xhat + beta


def causal_conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1-D convolution over time; the caller supplies the left context.

    `x` has shape (S_pad + T, d_in) where S_pad = kernel - 1 frames of left
    context are already prepended (carried state, or zeros at sequence
    start). Output frame t is b + w[0]^T x[t] + ... + w[k-1]^T x[t+k-1],
    taps accumulated in kernel order, so frame t of the output depends only
    on input rows t..t+k-1. No padding happens inside this op.

    All k taps come from one product: x against the taps packed side by
    side, (d_in, k·d_out). Tap j's term for frame t is row t+j of that
    product in column block j, the same dot product a per-tap product
    gives, and the blocks are added to the bias in tap order.
    """
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"causal_conv1d: expected x 2-D and w 3-D, got {x.shape} and {w.shape}")
    k, d_in, d_out = w.shape
    if x.shape[1] != d_in:
        raise ShapeError(f"causal_conv1d: input feature dim {x.shape[1]} != kernel d_in {d_in}")
    if b.shape != (d_out,):
        raise ShapeError(f"causal_conv1d: bias shape {b.shape} != ({d_out},)")
    if x.shape[0] < k:
        raise ShapeError(f"causal_conv1d: time length {x.shape[0]} shorter than kernel {k}")
    _check_same_dtype(x, w, "causal_conv1d")
    t_out = x.shape[0] - k + 1
    taps = matmul(x, np.concatenate(w, axis=1))
    out = np.empty((t_out, d_out), dtype=x.dtype)
    out[:] = b
    for j in range(k):
        np.add(out, taps[j : j + t_out, j * d_out : (j + 1) * d_out], out=out)
    return out


def concat_time(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate along the time (first) axis."""
    if a.ndim != b.ndim or a.shape[1:] != b.shape[1:]:
        raise ShapeError(f"concat_time: feature dims differ for {a.shape} and {b.shape}")
    _check_same_dtype(a, b, "concat_time")
    return np.concatenate([a, b], axis=0)


def concat_feat(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate along the feature (second) axis; used to rejoin heads."""
    if not parts:
        raise ShapeError("concat_feat: empty input list")
    t = parts[0].shape[0]
    for p in parts[1:]:
        if p.shape[0] != t:
            raise ShapeError(f"concat_feat: time lengths differ ({t} vs {p.shape[0]})")
        _check_same_dtype(parts[0], p, "concat_feat")
    return np.concatenate(parts, axis=1)


def feat_slice(x: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Feature columns c0 .. c1-1 of every frame, as a view.

    This is how each head takes its query, key and value columns from a
    fused projection; `matmul` multiplies such a view exactly like its
    contiguous copy.
    """
    if x.ndim != 2 or not 0 <= c0 <= c1 <= x.shape[1]:
        raise ShapeError(f"feat_slice: columns [{c0}, {c1}) outside features of {x.shape}")
    return x[:, c0:c1]


def tail_slice(x: np.ndarray, s: int) -> np.ndarray:
    """Last `s` frames of x; the whole tensor if s exceeds its length.

    s = 0 yields an empty tensor, which is how a no-past cache stays empty.
    Returning the full tensor instead of zero-padding lets a cache grow from
    empty at sequence start without fabricating keys.
    """
    if s < 0:
        raise ShapeError(f"tail_slice: negative count {s}")
    if s == 0:
        return x[:0]
    return x[-s:]


def transpose(x: np.ndarray) -> np.ndarray:
    if x.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D input, got {x.shape}")
    return np.ascontiguousarray(x.T)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, x.dtype.type(0))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    _check_same_dtype(a, b, "add")
    return a + b


def add_bias(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Add a per-feature row vector to every frame."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not match features {x.shape}")
    _check_same_dtype(x, b, "add_bias")
    return x + b


def scale(x: np.ndarray, s: float) -> np.ndarray:
    return x * x.dtype.type(s)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    _check_same_dtype(a, b, "mul")
    return a * b


def sum_all(x: np.ndarray) -> np.ndarray:
    """Sum of all entries as a 0-d array."""
    return np.asarray(np.sum(x), dtype=x.dtype)
