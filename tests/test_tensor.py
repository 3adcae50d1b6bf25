"""Tensor-core kernels against independent references.

The matmul and convolution checks demand bit-for-bit agreement with
explicit accumulation loops; that exactness is what the incremental
equals parallel guarantee rests on. Softmax and layer norm are checked
against 60-digit mpmath within f64 tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from chunkmel import masks, tensor
from chunkmel.tensor import MaskError, ShapeError


def rand(shape, dtype=np.float64, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# matmul


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "m,k,n",
    [(1, 1, 1), (3, 5, 2), (7, 1, 4), (4, 257, 3), (16, 32, 8), (1, 5, 1), (30, 16, 1), (97, 33, 1)],
)
def test_matmul_matches_triple_loop_exactly(dtype, m, k, n):
    a = rand((m, k), dtype, seed=m * 100 + k)
    b = rand((k, n), dtype, seed=n * 100 + k + 1)
    got = tensor.matmul(a, b)
    want = dense_reference.matmul_loops(a, b)
    assert got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_exact_on_transposed_views(dtype):
    # transposed views of both operands at a small shape, where einsum's
    # inner loop agrees with the contiguous copies; the docstring leaves
    # transposed views in general outside the exact-order guarantee, and
    # no package code passes them (the autodiff backward uses BLAS `@`)
    a = rand((12, 9), dtype, seed=3)
    b = rand((17, 12), dtype, seed=4)
    got = tensor.matmul(a.T, b.T)
    want = dense_reference.matmul_loops(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 30, 1000])
def test_matmul_exact_on_column_slice_views(dtype, t):
    # the chunk step takes each head's q, k and v as columns of one fused
    # projection; a column-slice view must multiply like its contiguous copy
    fused = rand((t, 96), dtype, seed=t)
    right = rand((16, 45), dtype, seed=t + 1)
    probs = rand((45, t), dtype, seed=t + 4)
    for c in range(0, 96, 16):
        view = fused[:, c : c + 16]
        got = tensor.matmul(view, right)
        assert np.array_equal(got, tensor.matmul(np.ascontiguousarray(view), right))
        # as the right operand, like a head's values in probs·v
        got = tensor.matmul(probs, view)
        assert np.array_equal(got, tensor.matmul(probs, np.ascontiguousarray(view)))
    w = rand((32, 96), dtype, seed=t + 2)
    x = rand((t, 32), dtype, seed=t + 3)
    whole = tensor.matmul(x, w)
    for c in range(0, 96, 16):
        assert np.array_equal(whole[:, c : c + 16], tensor.matmul(x, w[:, c : c + 16].copy()))


def test_matmul_empty_inner_axis_is_zeros():
    out = tensor.matmul(np.empty((3, 0)), np.empty((0, 4)))
    assert out.shape == (3, 4)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_matmul_rejects_bad_operands():
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3), np.float32), np.zeros((3, 2), np.float64))
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3, 4)), np.zeros((4, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "b,m,k,n", [(1, 3, 5, 2), (4, 7, 16, 1), (3, 1, 9, 45), (5, 30, 16, 45), (6, 16, 45, 1), (2, 4, 0, 3)]
)
def test_batched_matmul_matches_triple_loop_per_batch(dtype, b, m, k, n):
    # one column with k >= 5 is where einsum would sum in partial sums
    x = rand((b, m, k), dtype, seed=b * 1000 + m * 10 + k)
    y = rand((b, k, n), dtype, seed=n * 100 + k + 1)
    got = tensor.matmul(x, y)
    assert got.shape == (b, m, n) and got.dtype == dtype
    for i in range(b):
        assert np.array_equal(got[i], dense_reference.matmul_loops(x[i], y[i]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 16])
def test_batched_matmul_exact_on_window_views(dtype, d):
    # the views attention batches: query rows of a fused projection, key
    # columns of a transposed key matrix, value rows, value columns
    fused = rand((95, 3 * d), dtype, seed=d)
    q, v = fused[:, :d], fused[:, 2 * d :]
    kt = tensor.transpose(fused[:, d : 2 * d])
    probs = rand((12, 7, 13), dtype, seed=d + 1)
    products = [
        (tensor.windows(q, (10, 0), (7, 0), 12, (7, d)), tensor.windows(kt, (0, 4), (0, 7), 12, (d, 13))),
        (probs, tensor.windows(v, (4, 0), (7, 0), 12, (13, d))),
        (tensor.windows(tensor.transpose(v), (0, 4), (0, 7), 12, (d, 13)), probs.transpose(0, 2, 1).copy()),
    ]
    for x, y in products:
        got = tensor.matmul(x, y)
        for i in range(12):
            want = dense_reference.matmul_loops(np.ascontiguousarray(x[i]), np.ascontiguousarray(y[i]))
            assert np.array_equal(got[i], want)


def test_windows_are_read_only_views_inside_bounds():
    x = np.arange(30.0).reshape(15, 2)
    w = tensor.windows(x, (1, 0), (4, 0), 3, (6, 2))
    assert w.shape == (3, 6, 2) and np.shares_memory(w, x)
    for i in range(3):
        assert np.array_equal(w[i], x[1 + 4 * i : 7 + 4 * i])
    diag = tensor.windows(np.arange(100).reshape(10, 10), (1, 2), (3, 3), 3, (2, 2))
    assert np.array_equal(diag[2], np.arange(100).reshape(10, 10)[7:9, 8:10])
    for view in (w, tensor.windows(x, (3, 0), (1, 0), 1, (2, 2))):
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
    for start, step, count, shape in [((0, 0), (5, 0), 3, (6, 2)), ((0, 1), (1, 0), 2, (2, 2)), ((0, 0), (1, 0), 0, (1, 1))]:
        with pytest.raises(ShapeError):
            tensor.windows(x, start, step, count, shape)


def test_sum_ordered_matches_running_total_exactly():
    x = rand((5, 11), np.float32, seed=9)
    got = tensor.sum_ordered(x, axis=-1)
    want = np.zeros((5, 1), dtype=np.float32)
    for r in range(5):
        acc = np.float32(0)
        for c in range(11):
            acc = acc + x[r, c]
        want[r, 0] = acc
    assert np.array_equal(got, want)
    empty = tensor.sum_ordered(np.empty((4, 0)), axis=-1)
    assert empty.shape == (4, 1) and np.all(empty == 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sum_ordered_equals_accumulate_over_rows_and_widths(dtype):
    # several rows are summed by a reduction over the transpose, one row
    # by accumulate; both must give the running total's last column
    rng = np.random.default_rng(17)
    for t in range(1, 61):
        for w in range(1, 201, 7 if t > 3 else 1):
            x = (10 * rng.standard_normal((t, w))).astype(dtype)
            got = tensor.sum_ordered(x, axis=-1)
            want = np.add.accumulate(x, axis=-1)[:, -1:]
            assert got.shape == (t, 1)
            assert got.tobytes() == want.tobytes(), (t, w)


# ---------------------------------------------------------------------------
# masked softmax


def test_softmax_matches_mpmath():
    x = rand((6, 14), seed=21) * 10.0
    got = tensor.masked_softmax(x, None)
    want = dense_reference.softmax_rows_mp(x)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_masked_softmax_matches_mpmath_under_mask():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 10)) * 8.0
    perm = rng.random((8, 10)) < 0.5
    perm[:, 0] = True  # keep every row alive
    got = tensor.masked_softmax(x, perm)
    want = dense_reference.softmax_rows_mp(x, perm)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got[~perm], np.zeros(np.count_nonzero(~perm)))


def test_softmax_none_equals_all_true_mask_bitwise():
    x = rand((5, 9), seed=2)
    a = tensor.masked_softmax(x, None)
    b = tensor.masked_softmax(x, np.ones((5, 9), dtype=bool))
    assert np.array_equal(a, b)


def test_masked_rows_equal_standalone_subrow_softmax_bitwise():
    # the equivalence lemma: zero weights interleaved into the ordered
    # denominator sum leave the kept weights' values untouched
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 12))
    perm = np.zeros((4, 12), dtype=bool)
    perm[0, :3] = True
    perm[1, 4:9] = True
    perm[2, ::2] = True
    perm[3, [0, 5, 11]] = True
    full = tensor.masked_softmax(x, perm)
    for r in range(4):
        keep = perm[r]
        sub = tensor.masked_softmax(x[r][keep][None, :], None)[0]
        assert np.array_equal(full[r][keep], sub)
        assert np.all(full[r][~keep] == 0.0)


def softmax_take(x, permitted):
    """The masked softmax as it was first written: masked logits set to
    -inf, the row max over all keys, the denominator a running sum."""
    if permitted is not None:
        x = np.where(permitted, x, x.dtype.type(-np.inf))
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.take(np.add.accumulate(e, axis=-1), [-1], axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_equals_the_minus_inf_form_bytewise(dtype):
    rng = np.random.default_rng(23)
    for shape in [(1, 1), (1, 9), (7, 1), (5, 5), (30, 45), (96, 96), (3, 12, 20)]:
        x = (8 * rng.standard_normal(shape)).astype(dtype)
        permitted = rng.random(shape[-2:]) < 0.4
        permitted[np.arange(shape[-2]), rng.integers(0, shape[-1], shape[-2])] = True
        # a masked logit far above the row max must not overflow
        x[..., ~permitted] += dtype(1e4)
        causal = np.tril(np.ones(shape[-2:], dtype=bool), k=max(0, shape[-1] - shape[-2]))
        for perm in (None, permitted, causal):
            got = tensor.masked_softmax(x, perm)
            assert got.tobytes() == softmax_take(x, perm).tobytes(), (shape, perm)
            if perm is not None:
                assert not got[..., ~perm].any()
    # per-head masks: each head's logits under a mask of its own
    x = (8 * rng.standard_normal((4, 24, 24))).astype(dtype)
    for head in x:
        perm = rng.random((24, 24)) < 0.3
        perm[:, 0] = True
        assert tensor.masked_softmax(head, perm).tobytes() == softmax_take(head, perm).tobytes()


def test_softmax_broadcasts_mask_over_heads():
    x = rand((3, 6, 6), seed=7)
    perm = np.tril(np.ones((6, 6), dtype=bool))
    got = tensor.masked_softmax(x, perm)
    for h in range(3):
        assert np.array_equal(got[h], tensor.masked_softmax(x[h], perm))


def test_softmax_rejects_dead_rows_and_bad_shapes():
    x = np.zeros((3, 4))
    perm = np.ones((3, 4), dtype=bool)
    perm[1] = False
    with pytest.raises(MaskError, match=r"\[1\]"):
        tensor.masked_softmax(x, perm)
    with pytest.raises(ShapeError):
        tensor.masked_softmax(x, np.ones((2, 4), dtype=bool))
    with pytest.raises(ShapeError):
        tensor.masked_softmax(np.zeros(4), None)
    with pytest.raises(MaskError):
        tensor.masked_softmax(np.zeros((2, 0)), None)


def test_softmax_accepts_mask_objects():
    from chunkmel import masks

    x = rand((6, 6), seed=13)
    m = masks.build_static_mask(6, 2, 2)
    assert np.array_equal(
        tensor.masked_softmax(x, m), tensor.masked_softmax(x, m.permitted)
    )


# ---------------------------------------------------------------------------
# attention


def dense_attention(q, k, v, mask, inv):
    """The whole T×T score matrix, masked: what windowing must reproduce."""
    scores = tensor.scale(tensor.matmul(q, tensor.transpose(k)), inv)
    return tensor.matmul(tensor.masked_softmax(scores, mask), v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunk", [1, 4, 7, 30])
def test_attention_windowed_equals_dense_bitwise(dtype, chunk):
    from chunkmel import masks

    for past in sorted({0, (chunk + 1) // 2, chunk, 2 * chunk + 1}) + [masks.ALL]:
        for t in sorted({1, chunk, 3 * chunk + 2, 50, 300}):
            q, k, v = (rand((t, 8), dtype, seed=t + s) for s in range(3))
            m = masks.build_static_mask(t, chunk, past)
            got = tensor.attention(q, k, v, m, 0.35)
            want = dense_attention(q, k, v, m, 0.35)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (chunk, past, t)


ATTENTION_CELLS = [
    # (frames, chunk, past, d_head, dtype)
    (37, 1, 2, 4, np.float64),  # chunk 1
    (40, 1, masks.ALL, 2, np.float64),
    (47, 6, 5, 4, np.float64),  # frames not a multiple of the chunk
    (45, 5, 0, 4, np.float64),  # past 0
    (53, 4, masks.ALL, 4, np.float64),  # past ALL
    (70, 4, 13, 4, np.float64),  # past wider than three chunks
    (61, 3, 2, 1, np.float64),  # d_head 1
    (58, 35, 12, 4, np.float64),  # chunks longer than a block
    (66, 5, 7, 4, np.float32),
    (41, 1, masks.ALL, 1, np.float32),
    (60, 6, 4, 4, np.float64),
]


@pytest.mark.parametrize("t,chunk,past,d,dtype", ATTENTION_CELLS)
def test_attention_equals_dense_reference_bytewise(t, chunk, past, d, dtype):
    q, k, v = (rand((t, d), dtype, seed=t + s) for s in range(3))
    m = masks.build_static_mask(t, chunk, past)
    got = tensor.attention(q, k, v, m, 0.4)
    assert got.dtype == dtype
    assert got.tobytes() == dense_reference.masked_attention_dense(q, k, v, m.permitted, 0.4).tobytes()


def test_attention_rejects_dead_rows_and_bad_masks():
    # a mask of chunk and past sizes has no dead rows; masked_softmax's own
    # check names them (test_softmax_rejects_dead_rows_and_bad_shapes)
    q = rand((40, 4), seed=4)
    with pytest.raises(ShapeError):
        tensor.attention(q, q, q, masks.build_static_mask(39, 4, 2), 0.5)
    # the mask's frames match the queries but not the keys
    with pytest.raises(ShapeError):
        tensor.attention(q, q[:39], q[:39], masks.build_static_mask(40, 4, 2), 0.5)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_matches_mpmath():
    x = rand((7, 16), seed=3) * 3.0
    gamma = rand(16, seed=4)
    beta = rand(16, seed=5)
    got = tensor.layer_norm(x, gamma, beta, eps=1e-5)
    want = dense_reference.layer_norm_mp(x, gamma, beta, eps=1e-5)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_layer_norm_standardizes_rows():
    x = rand((5, 64), seed=6)
    y = tensor.layer_norm(x, np.ones(64), np.zeros(64), eps=1e-12)
    assert np.max(np.abs(y.mean(axis=1))) <= 1e-13
    assert np.max(np.abs(y.std(axis=1) - 1.0)) <= 1e-6


def test_layer_norm_constant_row_collapses_to_beta():
    x = np.full((2, 8), 3.25)
    beta = rand(8, seed=8)
    y = tensor.layer_norm(x, rand(8, seed=7), beta, eps=1e-5)
    assert np.max(np.abs(y - beta)) <= 1e-12


def test_layer_norm_is_per_frame():
    x = rand((6, 10), seed=9)
    full = tensor.layer_norm(x, np.ones(10), np.zeros(10))
    half = tensor.layer_norm(x[:3], np.ones(10), np.zeros(10))
    assert np.array_equal(full[:3], half)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_and_softmax_match_the_numpy_wrapper_composition(dtype):
    # the kernels call the reductions directly; the bits must be those of
    # the np.mean / np.max / np.take composition they replace
    def layer_norm_mean(x, gamma, beta, eps):
        mu = np.mean(x, axis=1, keepdims=True)
        xc = x - mu
        var = np.mean(xc * xc, axis=1, keepdims=True)
        return gamma * (xc / np.sqrt(var + x.dtype.type(eps))) + beta

    for t, d in [(1, 8), (30, 32), (45, 33), (1000, 80)]:
        x = 3 * rand((t, d), dtype, seed=t + d) + 1
        gamma, beta = rand(d, dtype, seed=d + 1), rand(d, dtype, seed=d + 2)
        got = tensor.layer_norm(x, gamma, beta, 1e-5)
        assert got.tobytes() == layer_norm_mean(x, gamma, beta, 1e-5).tobytes()
        permitted = np.random.default_rng(t).random((t, d)) < 0.6
        permitted[:, 0] = True
        for perm in (None, permitted):
            assert tensor.masked_softmax(x, perm).tobytes() == softmax_take(x, perm).tobytes()


def test_layer_norm_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        tensor.layer_norm(np.zeros((2, 3)), np.ones(4), np.zeros(3))
    with pytest.raises(ValueError):
        tensor.layer_norm(np.zeros((2, 3)), np.ones(3), np.zeros(3), eps=0.0)


# ---------------------------------------------------------------------------
# causal convolution


def conv_per_tap(x, w, b):
    """The convolution as one product per tap, added to the bias in tap order."""
    k, _, d_out = w.shape
    t_out = len(x) - k + 1
    out = np.empty((t_out, d_out), dtype=x.dtype)
    out[:] = b
    for j in range(k):
        out = out + tensor.matmul(x[j : j + t_out], w[j])
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_conv_matches_sliding_window_exactly(dtype, k):
    t, d_in, d_out = 9, 6, 4
    x = rand((t + k - 1, d_in), dtype, seed=k)
    w = rand((k, d_in, d_out), dtype, seed=k + 50)
    b = rand(d_out, dtype, seed=k + 99)
    got = tensor.causal_conv1d(x, w, b)
    assert got.shape == (t, d_out)
    assert np.array_equal(got, dense_reference.conv_loops(x, w, b))
    # longer inputs at the decoder's widths, against one product per tap
    for t, d_in, d_out in [(1, 32, 64), (30, 64, 32), (1000, 32, 64)]:
        x = rand((t + k - 1, d_in), dtype, seed=t + k)
        w = rand((k, d_in, d_out), dtype, seed=t + k + 50)
        b = rand(d_out, dtype, seed=t + k + 99)
        assert tensor.causal_conv1d(x, w, b).tobytes() == conv_per_tap(x, w, b).tobytes()


def test_conv_kernel1_equals_pointwise_projection():
    x = rand((8, 5), seed=1)
    w = rand((1, 5, 3), seed=2)
    b = rand(3, seed=3)
    got = tensor.causal_conv1d(x, w, b)
    want = np.empty((8, 3))
    want[:] = b
    want = want + tensor.matmul(x, w[0])
    assert np.array_equal(got, want)


def test_conv_output_frame_ignores_later_input():
    k = 3
    x = rand((12, 4), seed=4)
    w = rand((k, 4, 4), seed=5)
    b = np.zeros(4)
    base = tensor.causal_conv1d(x, w, b)
    bumped = x.copy()
    bumped[7] += 1.0  # feeds output frames 5..7 only
    changed = tensor.causal_conv1d(bumped, w, b)
    assert np.array_equal(base[:5], changed[:5])
    assert not np.array_equal(base[5:8], changed[5:8])
    assert np.array_equal(base[8:], changed[8:])


def test_conv_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        tensor.causal_conv1d(np.zeros((4, 3)), np.zeros((2, 5, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        tensor.causal_conv1d(np.zeros((1, 3)), np.zeros((2, 3, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        tensor.causal_conv1d(np.zeros((4, 3)), np.zeros((2, 3, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# slicing and concatenation


@given(
    na=st.integers(0, 6),
    nb=st.integers(0, 6),
    s=st.integers(0, 15),
)
@settings(max_examples=60, deadline=None)
def test_tail_slice_of_concat_recovers_suffix(na, nb, s):
    a = np.arange(na * 3, dtype=np.float64).reshape(na, 3)
    b = 100.0 + np.arange(nb * 3, dtype=np.float64).reshape(nb, 3)
    cat = tensor.concat_time(a, b)
    tail = tensor.tail_slice(cat, s)
    assert tail.shape[0] == min(s, na + nb)
    if s and s <= nb:
        assert np.array_equal(tail, b[nb - s :])


def test_tail_slice_edges():
    x = rand((4, 2), seed=0)
    assert tensor.tail_slice(x, 0).shape == (0, 2)
    assert np.array_equal(tensor.tail_slice(x, 4), x)
    assert np.array_equal(tensor.tail_slice(x, 99), x)
    with pytest.raises(ShapeError):
        tensor.tail_slice(x, -1)


def test_concat_feat_splits_back():
    parts = [rand((5, w), seed=w) for w in (2, 3, 1)]
    cat = tensor.concat_feat(parts)
    assert cat.shape == (5, 6)
    assert np.array_equal(cat[:, :2], parts[0])
    assert np.array_equal(cat[:, 2:5], parts[1])
    assert np.array_equal(cat[:, 5:], parts[2])
    for (c0, c1), part in zip([(0, 2), (2, 5), (5, 6)], parts):
        assert tensor.feat_slice(cat, c0, c1).tobytes() == part.tobytes()
    assert tensor.feat_slice(cat, 3, 3).shape == (5, 0)
    for c0, c1 in [(-1, 2), (4, 3), (5, 7)]:
        with pytest.raises(ShapeError):
            tensor.feat_slice(cat, c0, c1)
    with pytest.raises(ShapeError):
        tensor.concat_feat([])
    with pytest.raises(ShapeError):
        tensor.concat_feat([rand((2, 2)), rand((3, 2))])


def test_concat_time_rejects_mismatched_features():
    with pytest.raises(ShapeError):
        tensor.concat_time(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# small ops


def test_transpose_and_elementwise_ops():
    x = rand((3, 5), seed=10)
    assert np.array_equal(tensor.transpose(x), x.T)
    assert tensor.transpose(x).flags.c_contiguous
    with pytest.raises(ShapeError):
        tensor.transpose(np.zeros(3))

    y = rand((3, 5), seed=11)
    assert np.array_equal(tensor.add(x, y), x + y)
    assert np.array_equal(tensor.mul(x, y), x * y)
    assert np.array_equal(tensor.scale(x, 2.5), x * 2.5)
    b = rand(5, seed=12)
    assert np.array_equal(tensor.add_bias(x, b), x + b)
    assert np.array_equal(tensor.relu(x), np.maximum(x, 0))
    assert tensor.sum_all(x).shape == ()
    assert float(tensor.sum_all(x)) == float(np.sum(x))
    with pytest.raises(ShapeError):
        tensor.add(x, y.T)
    with pytest.raises(ShapeError):
        tensor.add_bias(x, rand(4, seed=13))


def test_relu_zero_stays_zero_and_preserves_dtype():
    x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
    y = tensor.relu(x)
    assert y.dtype == np.float32
    assert np.array_equal(y, np.array([[0.0, 0.0, 2.0]], dtype=np.float32))


def test_dtype_name_and_rejection():
    assert tensor.dtype_name(np.zeros(1, np.float32)) == "f32"
    assert tensor.dtype_name(np.zeros(1, np.float64)) == "f64"
    with pytest.raises(ShapeError):
        tensor.dtype_name(np.zeros(1, np.int32))


def test_ops_do_not_mutate_inputs():
    x = rand((6, 8), seed=14)
    y = rand((8, 4), seed=15)
    xs, ys = x.copy(), y.copy()
    tensor.matmul(x, y)
    tensor.masked_softmax(x, None)
    tensor.layer_norm(x, np.ones(8), np.zeros(8))
    tensor.relu(x)
    tensor.tail_slice(x, 3)
    assert np.array_equal(x, xs) and np.array_equal(y, ys)
