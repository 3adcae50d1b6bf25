"""Each output check passes on the package's output and fails on a wrong one.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os

import numpy as np
import pytest

import checks
import spans
import workloads as wl
from chunkmel import decoder, masks, training

CFG = wl.CFG


@pytest.fixture(scope="module")
def model():
    return decoder.init_weights(CFG, seed=11)


@pytest.fixture(scope="module")
def stream(model):
    feats = np.random.default_rng(5).standard_normal((97, CFG.d_model))
    chunks, state = decoder.decode_incremental(feats, model)
    return feats, np.concatenate(chunks), state


def test_stream_check_passes_on_package_output(model, stream):
    feats, mel, _ = stream
    checks.check_stream(mel, feats, model, decoder.weights_to_named(model))


def test_stream_check_fails_on_one_flipped_bit(model, stream):
    feats, mel, _ = stream
    bad = mel.copy()
    bad.view(np.uint64)[40, 7] ^= np.uint64(1)  # lowest mantissa bit of one value
    with pytest.raises(checks.CheckFailed, match="differs from the parallel decode"):
        checks.check_stream(bad, feats, model, decoder.weights_to_named(model))


def test_reference_check_fails_on_a_small_offset(model, stream):
    feats, mel, _ = stream
    named = decoder.weights_to_named(model)
    checks.check_reference(mel, feats, named, CFG, CFG.chunk_size, CFG.past_size)
    bad = mel.copy()
    bad[3, 3] += 1e-8
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_reference(bad, feats, named, CFG, CFG.chunk_size, CFG.past_size)


def test_state_check_passes_after_every_chunk(model):
    feats = np.random.default_rng(6).standard_normal((70, CFG.d_model))
    state = decoder.init_state(CFG)
    for start in range(0, len(feats), 10):  # chunks shorter than past_size
        _, state = decoder.decode_chunk(feats[start : start + 10], model, state)
        checks.check_state(state, start + 10, CFG)


def test_state_check_fails_on_a_cache_one_row_too_long(stream):
    _, _, state = stream
    checks.check_state(state, 97, CFG)
    pk = state.layers[1].attn.pk
    pk[0] = np.vstack([pk[0], pk[0][-1:]])
    with pytest.raises(checks.CheckFailed, match="key/value cache"):
        checks.check_state(state, 97, CFG)


def _sample(model):
    task = training.make_task(CFG.d_model, CFG.mel_bins, seed=3)
    rng = np.random.default_rng(4)
    feats, targs = training.generate_batch(task, 40, 1, rng)
    mask = masks.build_static_mask(40, CFG.chunk_size, CFG.past_size)
    params = decoder.weights_to_named(model)
    return params, feats[0], targs[0], mask


def test_gradient_check_passes_on_tape_gradient(model):
    params, x, y, mask = _sample(model)
    grads = wl.tape_gradient(params, x, y, mask)
    coords = wl.gradient_coords(params, np.random.default_rng(0))
    assert checks.check_gradient(grads, x, y, params, CFG, mask.chunk_size, mask.past_size, coords) >= 3


def test_gradient_check_fails_on_a_scaled_coordinate(model):
    params, x, y, mask = _sample(model)
    grads = wl.tape_gradient(params, x, y, mask)
    name, idx = "proj_w", (5, 9)  # after the last ReLU: never skipped as a kink
    grads[name] = grads[name].copy()
    grads[name][idx] *= 1.001
    with pytest.raises(checks.CheckFailed, match="proj_w"):
        checks.check_gradient(grads, x, y, params, CFG, mask.chunk_size, mask.past_size, [(name, idx)])


def test_loss_check_fails_on_a_loss_that_does_not_fall():
    checks.check_losses([0.5, 0.49, 0.47, 0.46])
    with pytest.raises(checks.CheckFailed, match="did not fall"):
        checks.check_losses([0.5, 0.49, 0.5, 0.51])
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_losses([0.5, float("nan"), 0.4, 0.3])


def test_traced_chunk_counts_architecture_matmuls_and_keeps_bytes(model):
    feats = np.random.default_rng(7).standard_normal((60, CFG.d_model))
    plain, _ = decoder.decode_chunk(feats[:30], model, decoder.init_state(CFG))
    tr = spans.Tracer()
    tr.install()
    try:
        root = tr.open(spans.OP_ROOTS["stream"])
        traced, _ = decoder.decode_chunk(feats[:30], model, decoder.init_state(CFG))
        tr.close(root)
    finally:
        tr.uninstall()
    assert traced.tobytes() == plain.tobytes()
    # per layer: 5 per head (q, k, v, scores, probs.v), output projection,
    # one per conv tap; then the Mel projection
    expected = CFG.n_layers * (5 * CFG.n_heads + 1 + CFG.kernel1 + CFG.kernel2) + 1
    assert expected == 35
    assert tr.per_layer("stream")["tensor.matmul.calls"]["value"] == expected
    assert decoder.decode_chunk.__module__ == "chunkmel.decoder"
    assert not hasattr(decoder.decode_chunk, "__wrapped__")


def test_reported_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        doc = json.load(f)
    rec = wl.Recorder()
    for key in ("first_chunk", "chunk", "resume", "stream_rtf", "parallel", "parallel_per_frame",
                "train.static", "train.dynamic"):
        rec.add(key, 1.0, traced=False)
    rec.end_round(wl.calibrate())
    e2e = {"setup_s": "s", "peak_rss_mb": "MB"}
    e2e.update({k: u for k, (_, u) in wl.end_to_end(rec).items()})
    per_layer = {k: spec[2] for k, spec in spans.PER_LAYER.items()}
    per_layer["trace.overhead_pct"] = "%"
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == e2e
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer
    assert [w["name"] for w in doc["workloads"]] == list(wl.KINDS)
