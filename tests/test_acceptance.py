"""Acceptance gate: the eight headline behaviors, one test function each.

Each test pins one externally stated guarantee at its stated tolerance,
so `pytest -v` reads as a one-line verdict per behavior. These are
deliberately end-to-end; the per-module files cover the fine grain.
"""

import time

import numpy as np
import pytest

from chunkmel import autodiff, decoder, evaluation, masks, training


def test_equivalence_full_grid_within_tolerance_both_dtypes():
    """Incremental and masked-parallel decoding agree everywhere on the
    default config grid: 1e-9 in f64, 1e-4 in f32, under 2 minutes per
    dtype."""
    for dtype, tol in (("f64", 1e-9), ("f32", 1e-4)):
        rep = evaluation.equivalence_sweep(dtype=dtype)
        assert len(rep.cells) >= 300
        assert rep.elapsed_s < 120.0, f"{dtype} sweep took {rep.elapsed_s:.1f}s"
        assert rep.ok, (
            f"{dtype}: {len(rep.failures)} cells over {tol}: "
            f"max {rep.max_abs_diff:.3e} at {rep.failures[:3]}"
        )
        assert rep.max_abs_diff <= tol


def test_ablation_dropping_either_cache_breaks_output_and_boundaries():
    """Discarding past keys/values or conv tails between chunks changes
    the output materially (>1e-3) in at least 95% of seeds, and makes
    the chunk-boundary jump statistic strictly worse than intact."""
    cfg = decoder.DecoderConfig()
    assert cfg.past_size != 0
    seeds = list(range(20))
    for mode in ("drop_kv", "drop_conv"):
        rep = evaluation.ablation_check(cfg, seeds=seeds, mode=mode)
        assert rep.frac_broken >= 0.95, f"{mode}: broken in {rep.frac_broken:.2f} of seeds"
        mean_ablated = float(np.mean(rep.boundary_jump_ablated))
        mean_intact = float(np.mean(rep.boundary_jump_intact))
        wins = sum(
            a > i for a, i in zip(rep.boundary_jump_ablated, rep.boundary_jump_intact)
        )
        assert mean_ablated > mean_intact, (
            f"{mode}: boundary jump ablated {mean_ablated:.4f} vs intact "
            f"{mean_intact:.4f} (per-seed wins {wins}/20)"
        )


def test_receptive_field_formula_matches_oracle_through_one_chunk_of_past():
    """The closed form and the exact traversal are asserted to agree on
    every cell with past size from 0 through one full chunk.

    KNOWN RED. The closed form charges one extra chunk per attention hop
    even when the mask grants none (past 0: true reach is the chunk
    itself) and rounds a full-chunk past up to two chunks (past == chunk:
    one hop reaches exactly one chunk back, so true reach is N+1 chunks,
    not N+2). The traversal is ground truth; the discrepancy census
    printed below shows the disagreement is exactly those two boundary
    lines, with full agreement strictly inside 0 < past < chunk.
    """
    mismatches = []
    cells = 0
    for n in range(1, 7):
        for c in (1, 4, 30):
            for p in range(0, c + 1):
                cells += 1
                f = decoder.receptive_field_formula(n, p, c)
                o = decoder.receptive_field_oracle(
                    decoder.DecoderConfig(
                        n_layers=n, n_heads=1, d_model=8, chunk_size=c, past_size=p
                    )
                ).r_oracle
                if f != o:
                    mismatches.append((n, c, p, f, o))

    print("\nbeyond-one-chunk past sizes, reported but not asserted:")
    for mult in (2, 3):
        for n in (1, 2, 3, 6):
            c = 30
            p = mult * c
            f = decoder.receptive_field_formula(n, p, c)
            o = decoder.receptive_field_oracle(
                decoder.DecoderConfig(
                    n_layers=n, n_heads=1, d_model=8, chunk_size=c, past_size=p
                )
            ).r_oracle
            print(f"  layers={n} chunk={c} past={p}: formula {f} oracle {o}")

    boundary_only = all(p in (0, c) for _, c, p, _, _ in mismatches)
    interior_clean = all(
        not (0 < p < c) for _, c, p, _, _ in mismatches
    )
    example = mismatches[0] if mismatches else None
    assert mismatches == [], (
        f"{len(mismatches)} of {cells} cells disagree; "
        f"all at the past=0 / past=chunk boundary: {boundary_only}; "
        f"interior cells all agree: {interior_clean}; "
        f"first example (layers, chunk, past, formula, oracle) = {example}"
    )


def test_gradients_every_primitive_and_full_block_pass_finite_difference():
    """Analytic gradients match central finite differences in f64 at
    relative error 1e-4: once per primitive, once through the whole
    stacked decoder forward."""
    rng = np.random.default_rng(2024)

    def arr(*shape):
        return rng.standard_normal(shape)

    def check(program, params, inputs=None, h=1e-6):
        rep = autodiff.finite_diff_check(
            program, inputs if inputs is not None else np.zeros(1), params, h=h, tol=1e-4
        )
        assert rep["pass"], rep
        return rep

    w32 = arr(3, 2)
    check(lambda ops, w, p: ops.mul(ops.matmul(p["a"], p["b"]), w),
          {"a": arr(3, 4), "b": arr(4, 2)}, inputs=w32)
    w42 = arr(4, 2)
    check(lambda ops, w, p: ops.mul(ops.matmul(ops.transpose(p["a"]), p["b"]), w),
          {"a": arr(3, 4), "b": arr(3, 2)}, inputs=w42)
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 2:] = False
    mask[3, 0] = False
    w44 = arr(4, 4)
    check(lambda ops, w, p: ops.mul(ops.masked_softmax(p["x"], mask), w),
          {"x": arr(4, 4)}, inputs=w44)
    w35 = arr(3, 5)
    check(lambda ops, w, p: ops.mul(ops.layer_norm(p["x"], p["g"], p["b"], 1e-5), w),
          {"x": arr(3, 5), "g": 1.0 + 0.1 * arr(5), "b": arr(5)}, inputs=w35)
    w54 = arr(5, 4)
    check(lambda ops, w, p: ops.mul(ops.causal_conv1d(p["x"], ops.pack_taps(p["w"]), p["b"]), w),
          {"x": arr(6, 3), "w": arr(2, 3, 4), "b": arr(4)}, inputs=w54)
    w53 = arr(5, 3)
    check(lambda ops, w, p: ops.mul(ops.concat_time(p["a"], p["b"]), w),
          {"a": arr(2, 3), "b": arr(3, 3)}, inputs=w53)
    check(lambda ops, w, p: ops.mul(ops.concat_feat([p["a"], p["b"]]), w),
          {"a": arr(3, 2), "b": arr(3, 3)}, inputs=arr(3, 5))
    check(lambda ops, w, p: ops.mul(ops.tail_slice(p["x"], 2), w),
          {"x": arr(5, 3)}, inputs=arr(2, 3))
    off_kink = (0.2 + np.abs(arr(3, 4))) * np.sign(arr(3, 4))
    w34 = arr(3, 4)
    check(lambda ops, w, p: ops.mul(ops.relu(p["x"]), w), {"x": off_kink}, inputs=w34)
    check(lambda ops, w, p: ops.mul(ops.add(p["a"], p["b"]), w),
          {"a": arr(3, 4), "b": arr(3, 4)}, inputs=arr(3, 4))
    check(lambda ops, w, p: ops.mul(ops.add_bias(p["x"], p["b"]), w),
          {"x": arr(3, 4), "b": arr(4)}, inputs=arr(3, 4))
    check(lambda ops, w, p: ops.mul(ops.scale(p["x"], 1.7), w),
          {"x": arr(3, 4)}, inputs=arr(3, 4))
    check(lambda ops, w, p: ops.mul(ops.mul(p["a"], p["b"]), w),
          {"a": arr(3, 4), "b": arr(3, 4)}, inputs=arr(3, 4))
    check(lambda ops, w, p: ops.sum_all(ops.mul(p["x"], p["x"])),
          {"x": arr(3, 4)})

    # Whole stacked forward. |loss| here is tens, so the probe step is
    # 1e-5: at 1e-6 the f64 rounding floor of the central difference
    # (eps*|loss|/2h) crosses the smallest true gradients and the check
    # measures noise, not the analytic gradient.
    cfg = decoder.DecoderConfig(
        n_layers=2, n_heads=2, d_model=6, d_ff=8, chunk_size=4, past_size=3, mel_bins=3
    )
    params = decoder.weights_to_named(decoder.init_weights(cfg, seed=5))
    feats = rng.standard_normal((9, 6))
    block_mask = masks.build_static_mask(9, 4, 3)

    def block_program(ops, inputs, p):
        return decoder.forward_named(ops, inputs, p, cfg, block_mask)

    rep = autodiff.finite_diff_check(block_program, feats, params, h=1e-5, tol=1e-4)
    assert rep["pass"], (rep["worst_param"], rep["worst_rel_err"])


@pytest.mark.slow
def test_training_reaches_tenth_of_initial_loss_on_three_seeds():
    """2000 optimizer steps on the default task cut the loss to at most
    10% of its starting value for every seed, within ten minutes."""
    start = time.perf_counter()
    dec_cfg = decoder.DecoderConfig()
    assert (dec_cfg.d_model, dec_cfg.n_layers, dec_cfg.n_heads) == (32, 2, 2)
    ratios = {}
    for seed in (0, 1, 2):
        tc = training.TrainConfig(steps=2000, seed=seed, frames=96)
        res = training.train(dec_cfg, tc)
        ratios[seed] = res.final_loss / res.initial_loss
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"
    for seed, ratio in ratios.items():
        assert ratio <= 0.10, f"seed {seed}: final/initial = {ratio:.4f}"


@pytest.mark.slow
def test_mask_study_matched_config_beats_grossly_mismatched_majority():
    """The regime-by-inference table has its canonical shape, and for
    each contested regime (past-size gap of 85+ frames available) the
    matched inference config wins in a majority of seeds."""
    dec_cfg = decoder.DecoderConfig()
    regimes = [("static", 30, p) for p in (0, 5, 15, 30)] + [("dynamic",)]
    infers = [(30, p) for p in (0, 5, 15, 30, 60, 90)] + [(30, masks.ALL)]
    table = training.run_mask_study(dec_cfg, regimes, infers, steps=300, seeds=[0, 1, 2])
    assert table.row_labels == [
        "static_c30_p0", "static_c30_p5", "static_c30_p15", "static_c30_p30", "dynamic",
    ]
    assert table.col_labels == [
        "c30_p0", "c30_p5", "c30_p15", "c30_p30", "c30_p60", "c30_p90", "c30_pall",
    ]
    assert table.mean_msd.shape == (5, 7)
    assert np.all(table.mean_msd > 0)
    print("\n" + table.to_csv())
    comps = table.trend["comparisons"]
    assert [c["regime"] for c in comps] == ["static_c30_p0", "static_c30_p5"]
    assert table.trend["majority_holds"] is True, table.trend


def test_latency_first_chunk_beats_parallel_and_stays_flat():
    """At 600 frames, producing the first chunk costs at most half a
    full parallel decode, and late chunks cost no more than early ones
    (median of chunk 50 within 1.5x of chunk 2)."""
    model = decoder.init_weights(evaluation.DEFAULT_BENCH_CONFIG, seed=0)
    rep = evaluation.bench(model, frames=600, repeats=5)
    assert rep.total_frames == 600
    ratio_first = rep.first_chunk_latency_ms / rep.parallel_latency_ms
    assert ratio_first <= 0.5, f"first/parallel = {ratio_first:.3f}"
    flat = rep.per_chunk_median_ms[49] / rep.per_chunk_median_ms[1]
    assert flat <= 1.5, f"chunk50/chunk2 = {flat:.3f}"


def test_state_snapshot_resume_is_bit_identical(tmp_path):
    """Stopping mid-stream, serializing the state, reloading it, and
    continuing reproduces the remaining chunks byte for byte."""
    cfg = decoder.DecoderConfig()
    assert cfg.dtype == "f64"
    model = decoder.init_weights(cfg, seed=3)
    feats = np.random.default_rng(4).standard_normal((96, cfg.d_model))
    full_chunks, _ = decoder.decode_incremental(feats, model)
    _, mid_state = decoder.decode_incremental(feats[:60], model)
    path = str(tmp_path / "mid.cfps")
    decoder.save_decoder_state(path, mid_state)
    resumed = decoder.load_decoder_state(path, cfg)
    rest_chunks, _ = decoder.decode_incremental(feats[60:], model, resumed)
    want = np.concatenate(full_chunks[2:], axis=0)
    got = np.concatenate(rest_chunks, axis=0)
    assert got.tobytes() == want.tobytes()
