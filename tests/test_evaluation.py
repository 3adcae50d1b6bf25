"""Evaluation harness: distance metric, equivalence sweep, ablations,
and the latency benchmark."""

import math

import numpy as np
import pytest

from chunkmel import decoder, evaluation, masks, tensor


class TestMsd:
    def test_worked_example(self):
        # one frame, 3-4-5 triangle per bin pair
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        b = np.zeros((2, 2))
        assert evaluation.msd(a, b) == pytest.approx((3.0 + 4.0) / 2)
        a = np.array([[3.0, 4.0]])
        assert evaluation.msd(a, np.zeros((1, 2))) == 5.0

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((7, 5))
        assert evaluation.msd(a, b) == evaluation.msd(b, a)
        assert evaluation.msd(a, a) == 0.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((9, 6))
        b = rng.standard_normal((9, 6))
        want = np.mean(
            [math.sqrt(float(np.sum((a[i] - b[i]) ** 2))) for i in range(9)]
        )
        assert abs(evaluation.msd(a, b) - want) <= 1e-12

    def test_mean_squared_variant(self):
        a = np.array([[1.0, 3.0]])
        b = np.array([[0.0, 1.0]])
        assert evaluation.msd(a, b, mean_squared=True) == pytest.approx(2.5)

    def test_shape_errors(self):
        with pytest.raises(tensor.ShapeError):
            evaluation.msd(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(tensor.ShapeError):
            evaluation.msd(np.zeros(4), np.zeros(4))


class TestSweep:
    def test_default_grid_size_and_coverage(self):
        grid = evaluation.default_grid()
        assert len(grid) >= 300
        assert len(set(grid)) == len(grid)
        layers = {c[0] for c in grid}
        chunks = {c[3] for c in grid}
        assert layers == {1, 2, 3}
        assert chunks == {1, 4, 7, 30}
        # every cell exercises a legal decode
        for n, h, d, c, p, t in grid:
            assert d % h == 0 and c >= 1 and p >= 0 and t >= 1

    def test_small_sweep_passes_f64(self):
        grid = [(1, 1, 8, 3, 2, 10), (2, 2, 8, 4, 0, 9), (1, 2, 8, 2, 5, 7)]
        rep = evaluation.equivalence_sweep(grid, seeds=(0, 1), dtype="f64")
        assert rep.ok
        assert rep.failures == []
        assert len(rep.cells) == 6
        assert rep.max_abs_diff <= 1e-9
        doc = rep.to_dict()
        assert doc["n_cells"] == 6 and doc["ok"] is True

    def test_small_sweep_passes_f32(self):
        grid = [(1, 1, 8, 3, 2, 10), (2, 2, 16, 4, 4, 13)]
        rep = evaluation.equivalence_sweep(grid, seeds=(0,), dtype="f32")
        assert rep.ok
        assert rep.tol == 1e-4


class TestAblation:
    def test_pointwise_convs_make_drop_conv_harmless(self):
        # kernel 1 means the conv cache is empty; dropping it changes
        # nothing, so the report must show zero difference.
        cfg = decoder.DecoderConfig(
            n_layers=2, n_heads=2, d_model=8, d_ff=12, kernel1=1, kernel2=1,
            chunk_size=5, past_size=5, mel_bins=4,
        )
        rep = evaluation.ablation_check(cfg, seeds=[0, 1, 2], mode="drop_conv", frames=20)
        assert rep.max_abs_diff == [0.0, 0.0, 0.0]
        assert rep.frac_broken == 0.0

    def test_zero_past_makes_drop_kv_harmless(self):
        cfg = decoder.DecoderConfig(
            n_layers=2, n_heads=2, d_model=8, d_ff=12, chunk_size=5, past_size=0, mel_bins=4
        )
        rep = evaluation.ablation_check(cfg, seeds=[0, 1], mode="drop_kv", frames=20)
        assert rep.max_abs_diff == [0.0, 0.0]

    def test_caches_carry_signal(self):
        cfg = decoder.DecoderConfig(
            n_layers=2, n_heads=2, d_model=8, d_ff=12, chunk_size=5, past_size=5, mel_bins=4
        )
        for mode in ("drop_kv", "drop_conv", "drop_both"):
            rep = evaluation.ablation_check(cfg, seeds=[0, 1, 2], mode=mode, frames=20)
            assert rep.frac_broken == 1.0
            assert all(d > 1e-3 for d in rep.max_abs_diff)
            assert rep.mode == mode
            assert len(rep.boundary_jump_ablated) == 3
            assert len(rep.boundary_jump_intact) == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            evaluation.ablation_check(decoder.DecoderConfig(), seeds=[0], mode="drop_all")


class TestBench:
    def test_report_identities(self):
        cfg = decoder.DecoderConfig(
            n_layers=1, n_heads=1, d_model=8, d_ff=12, chunk_size=7, past_size=3, mel_bins=4
        )
        model = decoder.init_weights(cfg, seed=0)
        frames = 23
        rep = evaluation.bench(model, frames=frames, repeats=2, warmup=1, seed=0)
        n_chunks = -(-frames // cfg.chunk_size)
        assert rep.total_frames == frames
        assert len(rep.per_chunk_median_ms) == n_chunks
        assert rep.repeats == 2
        assert rep.audio_duration_s == evaluation.audio_duration_s(frames)
        # rtf definitions recomputed from the report's own numbers
        total_ms = float(np.sum(rep.per_chunk_median_ms))
        assert rep.rtf_incremental == (total_ms / 1000.0) / rep.audio_duration_s
        assert rep.rtf_parallel == (rep.parallel_latency_ms / 1000.0) / rep.audio_duration_s
        assert rep.first_chunk_latency_ms > 0
        assert rep.chunk_ms_p50 <= rep.chunk_ms_p90 <= rep.chunk_ms_p99
        doc = rep.to_dict()
        assert doc["total_frames"] == frames

    def test_audio_duration_constants(self):
        # 256-sample hop at 22.05 kHz
        assert evaluation.audio_duration_s(22050) == 256.0
        assert evaluation.audio_duration_s(600) == pytest.approx(600 * 256 / 22050)

    def test_boundary_jump_statistic(self):
        # A sequence with a spike exactly at each chunk boundary must
        # show boundary mean > interior mean.
        t, c = 20, 5
        mel = np.zeros((t, 3))
        for start in range(c, t, c):
            mel[start] = 1.0
        boundary, interior = evaluation._boundary_jump(mel, c)
        assert boundary > interior
