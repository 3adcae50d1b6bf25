"""Reverse-mode engine: per-primitive gradients, tape mechanics, and the
finite-difference harness itself (including its ability to catch a broken
backward rule).

Check points for ReLU-bearing programs are sampled away from the kink at
zero, where a subgradient convention and central differences must be
allowed to disagree.
"""

import numpy as np
import pytest

import dense_reference
from chunkmel import autodiff, tensor
from chunkmel.tensor import ShapeError


def rand(shape, seed=0, lo=None):
    out = np.random.default_rng(seed).standard_normal(shape)
    if lo is not None:
        out = np.sign(out) * (np.abs(out) + lo)  # push magnitudes off zero
    return out


def fd_pass(program, inputs, params, h=1e-6, tol=1e-4):
    report = autodiff.finite_diff_check(program, inputs, params, h=h, tol=tol)
    assert report["pass"], report
    return report


# ---------------------------------------------------------------------------
# per-primitive finite-difference checks (f64, h=1e-6, rel <= 1e-4)


def test_fd_matmul():
    fd_pass(
        lambda ops, x, p: ops.matmul(ops.matmul(x, p["w1"]), p["w2"]),
        rand((5, 4), 1),
        {"w1": rand((4, 6), 2), "w2": rand((6, 3), 3)},
    )


def test_fd_masked_softmax():
    perm = np.random.default_rng(4).random((5, 5)) < 0.6
    perm[:, 2] = True
    weights = rand((5, 5), 44)  # rows sum to 1, so weight them before reducing
    fd_pass(
        lambda ops, x, p: ops.mul(ops.masked_softmax(ops.matmul(x, p["w"]), perm), weights),
        rand((5, 7), 5),
        {"w": rand((7, 5), 6)},
    )


def test_fd_layer_norm():
    fd_pass(
        lambda ops, x, p: ops.layer_norm(ops.matmul(x, p["w"]), p["g"], p["b"], 1e-5),
        rand((6, 4), 7),
        {"w": rand((4, 8), 8), "g": 1.0 + 0.1 * rand(8, 9), "b": rand(8, 10)},
    )


def test_fd_causal_conv():
    fd_pass(
        lambda ops, x, p: ops.causal_conv1d(x, ops.pack_taps(p["w"]), p["b"]),
        rand((9, 3), 11),
        {"w": rand((3, 3, 4), 12), "b": rand(4, 13)},
    )


def test_fd_relu_away_from_kink():
    fd_pass(
        lambda ops, x, p: ops.relu(ops.matmul(x, p["w"])),
        rand((6, 4), 14, lo=0.3),
        {"w": np.eye(4) + 0.01 * rand((4, 4), 15)},
    )


def test_fd_remaining_primitives():
    def program(ops, x, p):
        t = ops.transpose(ops.matmul(x, p["w"]))
        joined = ops.concat_feat([t, ops.scale(t, 0.5)])
        grown = ops.concat_time(joined, ops.mul(joined, joined))
        kept = ops.tail_slice(grown, 5)
        cols = ops.feat_slice(kept, 2, 9)
        return ops.sum_all(ops.add_bias(ops.add(cols, ops.mul(cols, cols)), p["b"]))

    fd_pass(program, rand((6, 4), 16), {"w": rand((4, 3), 17), "b": rand(7, 18)})


def test_fd_linear_program_passes_at_1e6():
    # linear in the parameter, so central differences are exact to roundoff
    report = autodiff.finite_diff_check(
        lambda ops, x, p: ops.matmul(x, p["w"]),
        rand((4, 3), 19),
        {"w": rand((3, 5), 20)},
        h=1e-6,
        tol=1e-6,
    )
    assert report["pass"], report


# ---------------------------------------------------------------------------
# exact gradient identities


def test_sum_seed_gives_all_ones_gradient():
    x = rand((3, 4), 21)
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.add(inp, p["w"]), x, {"w": rand((3, 4), 22)}
    )
    grads = autodiff.backward(tape)
    assert np.array_equal(grads["w"], np.ones((3, 4)))


def test_dead_relu_gradient_is_exactly_zero():
    w = np.array([[-2.0, 0.0, 3.0]])
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.relu(p["w"]), None, {"w": w}
    )
    grads = autodiff.backward(tape)
    # negative entry and the exact-zero entry both get subgradient 0
    assert np.array_equal(grads["w"], np.array([[0.0, 0.0, 1.0]]))


def test_masked_softmax_gradient_zero_at_masked_positions():
    perm = np.array([[True, True, False], [False, True, True]])
    logits = rand((2, 3), 23)
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.masked_softmax(p["logits"], perm),
        None,
        {"logits": logits},
    )
    grads = autodiff.backward(tape, rand((2, 3), 24))
    assert grads["logits"][0, 2] == 0.0
    assert grads["logits"][1, 0] == 0.0


def test_backward_linear_in_seed():
    x = rand((4, 4), 25)
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.masked_softmax(ops.matmul(inp, p["w"]), None),
        x,
        {"w": rand((4, 4), 26)},
    )
    g = rand((4, 4), 27)
    one = autodiff.backward(tape, g)
    three = autodiff.backward(tape, 3.0 * g)
    assert np.max(np.abs(three["w"] - 3.0 * one["w"])) <= 1e-12


def test_diamond_fanout_accumulates_both_branches():
    # y = x*x + x, so dy/dx = 2x + 1
    x = rand((3, 3), 28)
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.add(ops.mul(p["x"], p["x"]), p["x"]), None, {"x": x}
    )
    grads = autodiff.backward(tape)
    assert np.max(np.abs(grads["x"] - (2.0 * x + 1.0))) <= 1e-12


def test_untouched_parameter_gets_zero_gradient():
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.scale(p["used"], 2.0),
        None,
        {"used": rand((2, 2), 29), "unused": rand((3, 3), 30)},
    )
    grads = autodiff.backward(tape)
    assert np.array_equal(grads["unused"], np.zeros((3, 3)))


def test_recording_is_bit_transparent():
    x = rand((10, 6), 31)
    params = {"w": rand((6, 6), 32), "g": np.ones(6), "b": np.zeros(6)}

    def program(ops, inp, p):
        h = ops.masked_softmax(ops.matmul(inp, p["w"]), None)
        return ops.layer_norm(h, p["g"], p["b"], 1e-5)

    plain = program(tensor, x, params)
    recorded, _ = autodiff.forward_record(program, x, params)
    assert np.array_equal(plain, recorded)


@pytest.mark.parametrize("chunk,past,t", [(4, 3, 100), (30, 15, 300), (1, "all", 70)])
def test_windowed_forward_equals_recorded_dense_tape(chunk, past, t):
    """The plain forward scores key windows; the tape keeps five dense
    attention nodes per head. Their values agree byte for byte."""
    from chunkmel import decoder, masks

    cfg = decoder.DecoderConfig(
        n_layers=2, n_heads=2, d_model=8, d_ff=12, chunk_size=chunk, past_size=past, mel_bins=5
    )
    params = decoder.weights_to_named(decoder.init_weights(cfg, seed=7))
    feats = rand((t, 8), 8)
    mask = masks.build_static_mask(t, chunk, past)

    def program(ops, inp, p):
        return decoder.forward_named(ops, inp, p, cfg, mask)

    plain = program(tensor, feats, params)
    recorded, tape = autodiff.forward_record(program, feats, params)
    assert plain.tobytes() == recorded.tobytes()
    ops = [n.op for n in tape.nodes]
    per_head = cfg.n_layers * cfg.n_heads
    assert ops.count("masked_softmax") == per_head
    assert ops.count("transpose") == per_head
    assert ops.count("scale") == per_head
    assert all(n.value.shape == (t, t) for n in tape.nodes if n.op == "masked_softmax")


def test_backward_rejects_bad_seed_shape():
    _, tape = autodiff.forward_record(
        lambda ops, inp, p: ops.scale(p["w"], 1.0), None, {"w": rand((2, 3), 33)}
    )
    with pytest.raises(ShapeError, match="seed"):
        autodiff.backward(tape, np.zeros((3, 2)))


def test_node_repr_and_metadata():
    n = autodiff.matmul(rand((2, 3), 34), rand((3, 4), 35))
    assert n.shape == (2, 4)
    assert n.dtype == np.float64
    assert len(n) == 2
    assert "matmul" in repr(n)


# ---------------------------------------------------------------------------
# the forward runs on tensor.matmul, the backward products on BLAS


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_matmul_vjp_matches_loop_products(dtype, tol):
    a = rand((30, 32), 50).astype(dtype)
    b = rand((32, 48), 51).astype(dtype)
    g = rand((30, 48), 52).astype(dtype)
    da, db = autodiff.matmul(a, b).vjp(g)
    assert da.dtype == db.dtype == dtype
    assert rel_err(da, dense_reference.matmul_loops(g, np.ascontiguousarray(b.T))) <= tol
    assert rel_err(db, dense_reference.matmul_loops(np.ascontiguousarray(a.T), g)) <= tol


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_causal_conv_vjp_matches_loop_products(dtype, tol, k):
    x = rand((20 + k - 1, 8), 53 + k).astype(dtype)
    w = rand((k, 8, 12), 54 + k).astype(dtype)
    b = rand(12, 55 + k).astype(dtype)
    g = rand((20, 12), 56 + k).astype(dtype)
    dx, dw_packed, db = autodiff.causal_conv1d(x, tensor.pack_taps(w), b).vjp(g)
    (dw,) = autodiff.pack_taps(w).vjp(dw_packed)
    want_dx, want_dw = dense_reference.conv_vjp_loops(x, w, g)
    assert dx.dtype == dw.dtype == dtype
    assert dw.shape == w.shape and dw.flags.c_contiguous
    assert rel_err(dx, want_dx) <= tol
    assert rel_err(dw, want_dw) <= tol
    assert np.array_equal(db, np.sum(g, axis=0))


def test_backward_makes_no_tensor_matmul_calls(monkeypatch):
    from chunkmel import decoder, masks

    cfg = decoder.DecoderConfig(
        n_layers=2, n_heads=3, d_model=12, d_ff=16, chunk_size=4, past_size=3, mel_bins=5
    )
    params = decoder.weights_to_named(decoder.init_weights(cfg, seed=3))
    mask = masks.build_static_mask(20, 4, 3)
    calls = []
    real = tensor.matmul
    monkeypatch.setattr(tensor, "matmul", lambda a, b: calls.append(1) or real(a, b))
    _, tape = autodiff.forward_record(
        lambda ops, x, p: decoder.forward_named(ops, x, p, cfg, mask), rand((20, 12), 57), params
    )
    # per layer: one QKV product, the two dense attention products of
    # each head, the output projection and one product per conv; then the
    # Mel projection
    assert len(calls) == cfg.n_layers * (2 * cfg.n_heads + 4) + 1
    calls.clear()
    grads = autodiff.backward(tape)
    assert calls == []
    assert set(grads) == set(params)


# ---------------------------------------------------------------------------
# the harness catches a corrupted rule


def test_finite_diff_check_flags_corrupted_backward(monkeypatch):
    true_relu = autodiff.relu

    def broken_relu(x):
        node = true_relu(x)
        good = node.vjp

        def vjp(g):
            (dx,) = good(g)
            return (2.0 * dx,)

        node.vjp = vjp
        return node

    monkeypatch.setattr(autodiff, "relu", broken_relu)
    report = autodiff.finite_diff_check(
        lambda ops, x, p: ops.relu(ops.matmul(x, p["w"])),
        rand((5, 3), 36, lo=0.3),
        {"w": np.eye(3) + 0.05 * rand((3, 3), 37), "clean": rand((2, 2), 38)},
    )
    assert not report["pass"]
    assert report["worst_param"] == "w"
    assert report["per_param"]["w"]["max_rel_err"] > 0.1


def test_finite_diff_check_requires_f64():
    with pytest.raises(ShapeError, match="f64"):
        autodiff.finite_diff_check(
            lambda ops, x, p: ops.scale(p["w"], 1.0),
            None,
            {"w": np.zeros((2, 2), dtype=np.float32)},
        )


# ---------------------------------------------------------------------------
# full block

def test_fd_full_block_all_weights():
    from chunkmel import decoder, masks

    cfg = decoder.DecoderConfig(
        n_layers=1, n_heads=2, d_model=8, d_ff=12, chunk_size=4, past_size=3,
        mel_bins=5, dtype="f64",
    )
    model = decoder.init_weights(cfg, seed=41)
    feats = rand((10, 8), 42)
    mask = masks.build_static_mask(10, cfg.chunk_size, cfg.past_size)

    def program(ops, x, p):
        return decoder.forward_named(ops, x, p, cfg, mask)

    # h=1e-5: the loss here sums hundreds of outputs, so the f64 rounding
    # floor at h=1e-6 would exceed the tolerance for near-zero gradient
    # entries; the analytic values are unchanged by the step size.
    report = autodiff.finite_diff_check(
        program, feats, decoder.weights_to_named(model), h=1e-5
    )
    assert report["pass"], {k: v for k, v in report["per_param"].items() if not v["pass"]}
