"""Trainer: reproducibility, optimizer bookkeeping, task generation,
regimes, and the mask study plumbing."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dense_reference
from chunkmel import decoder, masks, tensor, training


def tiny_dec(**kw):
    base = dict(
        n_layers=1,
        n_heads=2,
        d_model=8,
        d_ff=12,
        chunk_size=6,
        past_size=3,
        mel_bins=4,
        dtype="f64",
    )
    base.update(kw)
    return decoder.DecoderConfig(**base)


class TestReproducibility:
    def test_same_seed_same_run(self):
        dec = tiny_dec()
        tc = training.TrainConfig(
            steps=8, seed=5, regime="dynamic", frames=24, batch_size=2
        )
        a = training.train(dec, tc)
        b = training.train(dec, tc)
        assert a.log == b.log
        na = decoder.weights_to_named(a.model)
        nb = decoder.weights_to_named(b.model)
        for name in na:
            assert na[name].tobytes() == nb[name].tobytes()

    def test_training_tape_keeps_the_dense_attention_composition(self, monkeypatch):
        """`autodiff.attention` records the dense score → scale →
        masked_softmax → probs·V composition: a short seeded run ends on
        the same parameter bytes as one whose attention is written out op
        by op."""
        from chunkmel import autodiff

        dec = tiny_dec(n_layers=2)
        tc = training.TrainConfig(steps=4, seed=3, regime="dynamic", frames=40, batch_size=2)
        got = decoder.weights_to_named(training.train(dec, tc).model)

        def written_out(q, k, v, mask, inv):
            scores = autodiff.scale(autodiff.matmul(q, autodiff.transpose(k)), inv)
            return autodiff.matmul(autodiff.masked_softmax(scores, mask), v)

        monkeypatch.setattr(autodiff, "attention", written_out)
        want = decoder.weights_to_named(training.train(dec, tc).model)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_run_is_independent_of_blas_thread_count(self):
        """The backward products run on BLAS: a seeded static and dynamic
        run end on the same parameter bytes with one BLAS thread as with
        two."""
        script = (
            "import hashlib\n"
            "from chunkmel import decoder, training\n"
            "h = hashlib.sha256()\n"
            "for regime in ('static', 'dynamic'):\n"
            "    tc = training.TrainConfig(steps=3, seed=4, regime=regime)\n"
            "    res = training.train(decoder.DecoderConfig(), tc)\n"
            "    named = decoder.weights_to_named(res.model)\n"
            "    for name in sorted(named):\n"
            "        h.update(named[name].tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(decoder.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_zero_lr_freezes_params(self):
        dec = tiny_dec()
        tc = training.TrainConfig(steps=3, seed=0, lr=0.0, frames=18, batch_size=2)
        init = decoder.weights_to_named(decoder.init_weights(dec, seed=0))
        res = training.train(dec, tc)
        out = decoder.weights_to_named(res.model)
        for name in init:
            assert np.array_equal(init[name], out[name])

    def test_log_fields(self):
        dec = tiny_dec()
        tc = training.TrainConfig(steps=4, seed=1, frames=18, batch_size=3)
        res = training.train(dec, tc)
        assert len(res.log) == 4
        for i, entry in enumerate(res.log):
            assert entry["step"] == i
            assert isinstance(entry["loss"], float) and entry["loss"] >= 0
            assert entry["grad_norm"] > 0
            assert isinstance(entry["clipped"], bool)
            # static training uses the decoder config's chunk and past sizes
            assert entry["masks"] == [[dec.chunk_size, dec.past_size]] * 3
        assert res.initial_loss == res.log[0]["loss"]
        assert res.final_loss == res.log[-1]["loss"]


class TestOptimizer:
    def craft(self, norm_target):
        rng = np.random.default_rng(0)
        params = {
            "a": rng.standard_normal((2, 3)),
            "b": rng.standard_normal(4),
        }
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        raw = training.global_grad_norm(grads)
        grads = {k: g * (norm_target / raw) for k, g in grads.items()}
        return params, grads

    def test_matches_elementwise_reference(self):
        for norm_target, want_clip in ((2.0, True), (0.5, False)):
            params, grads = self.craft(norm_target)
            tc = training.TrainConfig(steps=1)
            opt = training.adam_init(params)
            # two consecutive steps so bias correction t=1,2 both covered
            for t in (1, 2):
                new_params, opt2, info = training.adam_update(params, grads, opt, tc)
                assert info["clipped"] is want_clip
                assert abs(info["grad_norm"] - norm_target) <= 1e-12
                scale = tc.clip_norm / norm_target if want_clip else 1.0
                for name, p in params.items():
                    ref_p, ref_m, ref_v = dense_reference.adam_step_loops(
                        p,
                        grads[name] * scale,
                        opt.m[name],
                        opt.v[name],
                        t,
                        tc.lr,
                        tc.beta1,
                        tc.beta2,
                        tc.eps,
                        tc.weight_decay,
                    )
                    assert np.max(np.abs(new_params[name] - ref_p)) <= 1e-12
                    assert np.max(np.abs(opt2.m[name] - ref_m)) <= 1e-15
                    assert np.max(np.abs(opt2.v[name] - ref_v)) <= 1e-15
                params, opt = new_params, opt2

    def test_update_magnitude_capped_when_clipped(self):
        params, grads = self.craft(50.0)
        tc = training.TrainConfig(steps=1, weight_decay=0.0)
        _, _, info = training.adam_update(params, grads, training.adam_init(params), tc)
        assert info["clipped"]
        # after clipping the effective gradient norm is exactly clip_norm
        scaled = {k: g * (tc.clip_norm / info["grad_norm"]) for k, g in grads.items()}
        assert abs(training.global_grad_norm(scaled) - tc.clip_norm) <= 1e-12

    def test_global_norm_is_l2_over_all_entries(self):
        grads = {"x": np.array([3.0]), "y": np.array([[4.0]])}
        assert training.global_grad_norm(grads) == 5.0


class TestTrainStep:
    def test_singleton_batch_loss_decreases(self):
        # Smooth task, tiny step: one update should reduce the loss on
        # the very batch it came from, nearly always.
        dec = decoder.DecoderConfig()
        ok = 0
        for seed in range(20):
            task = training.make_task(dec.d_model, dec.mel_bins, seed=100 + seed)
            rng = np.random.default_rng(seed)
            feats, targets = training.generate_batch(task, 48, 1, rng, dtype=dec.dtype)
            tc = training.TrainConfig(steps=1, seed=seed, regime="static", frames=48, batch_size=1)
            params = decoder.weights_to_named(decoder.init_weights(dec, seed=seed))
            opt = training.adam_init(params)
            mask = masks.build_static_mask(48, 12, 6)
            l1, params, opt, _ = training.train_step(params, dec, tc, feats, targets, [mask], opt)
            l2, _, _, _ = training.train_step(params, dec, tc, feats, targets, [mask], opt)
            ok += l2 < l1
        assert ok >= 19

    def test_all_true_mask_equals_unmasked_loss(self):
        dec = tiny_dec()
        task = training.make_task(dec.d_model, dec.mel_bins, seed=0)
        rng = np.random.default_rng(1)
        t = 12
        feats, targets = training.generate_batch(task, t, 2, rng, dtype=dec.dtype)
        params = decoder.weights_to_named(decoder.init_weights(dec, seed=2))
        tc = training.TrainConfig(steps=1, regime="static", frames=t, batch_size=2)
        mask = masks.build_static_mask(t, t, masks.ALL)
        loss, _, _, _ = training.train_step(
            params, dec, tc, feats, targets, [mask, mask], training.adam_init(params)
        )
        manual = 0.0
        for s in range(2):
            pred = decoder.forward_named(tensor, feats[s], params, dec, None)
            manual += float(np.mean((pred - targets[s]) ** 2))
        assert loss == manual / 2

    def test_non_finite_loss_raises(self):
        dec = tiny_dec()
        task = training.make_task(dec.d_model, dec.mel_bins, seed=0)
        rng = np.random.default_rng(0)
        feats, targets = training.generate_batch(task, 12, 1, rng, dtype=dec.dtype)
        params = decoder.weights_to_named(decoder.init_weights(dec, seed=0))
        params["proj_w"] = params["proj_w"] * np.inf
        tc = training.TrainConfig(steps=1, frames=12, batch_size=1)
        mask = masks.build_static_mask(12, 6, 3)
        with pytest.raises(training.TrainingError):
            training.train_step(params, dec, tc, feats, targets, [mask], training.adam_init(params))

    @pytest.mark.parametrize("regime", ["static", "dynamic"])
    def test_training_never_plans_attention_groups(self, monkeypatch, regime):
        # training attends densely on the tape, so its masks must not pay
        # for the parallel route's key windows
        def refuse(mask):
            raise AssertionError("training planned attention key groups")

        monkeypatch.setattr(masks.ChunkMask, "key_groups", property(refuse))
        tc = training.TrainConfig(steps=2, seed=1, regime=regime, frames=24, batch_size=2)
        training.train(tiny_dec(), tc)

    def test_dynamic_regime_draws_masks_per_sample(self):
        dec = tiny_dec()
        tc = training.TrainConfig(steps=1, seed=3, regime="dynamic", frames=24, batch_size=6)
        res = training.train(dec, tc)
        drawn = [tuple(m) for m in res.log[0]["masks"]]
        assert len(drawn) == 6
        assert len(set(drawn)) > 1


class TestSyntheticTask:
    def test_targets_match_direct_recomputation(self):
        task = training.make_task(8, 5, seed=42)
        rng = np.random.default_rng(7)
        feats, targets = training.generate_batch(task, 20, 2, rng, dtype="f64")
        assert feats.shape == (2, 20, 8)
        assert targets.shape == (2, 20, 5)
        for s in range(2):
            x = feats[s]
            for t in range(20):
                acc = x[t].copy()
                if t >= 3:
                    acc = acc + 0.5 * (x[t - 3] @ task.mix_b)
                if t >= 8:
                    acc = acc + 0.25 * (x[t - 8] @ task.mix_b)
                want = (acc @ task.mix_a) * task.target_scale
                assert np.max(np.abs(targets[s, t] - want)) <= 1e-12

    def test_targets_within_standard_range(self):
        task = training.make_task(32, 80, seed=0)
        rng = np.random.default_rng(0)
        _, targets = training.generate_batch(task, 200, 4, rng)
        assert np.max(np.abs(targets)) <= 4.0

    def test_features_bounded_by_one(self):
        task = training.make_task(16, 8, seed=1)
        rng = np.random.default_rng(1)
        feats, _ = training.generate_batch(task, 300, 4, rng)
        assert np.max(np.abs(feats)) <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            training.TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            training.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            training.TrainConfig(regime="sometimes")

    def test_train_config_dict_roundtrip(self):
        tc = training.TrainConfig(
            steps=5, seed=9, regime="dynamic",
            policy=masks.DynamicMaskPolicy(chunk_range=(2, 9), past_multipliers=(0, 1.5, masks.ALL)),
        )
        assert training.TrainConfig.from_dict(tc.to_dict()) == tc
        assert training.TrainConfig.from_dict(json.loads(json.dumps(tc.to_dict()))) == tc
        with pytest.raises(ValueError):
            training.TrainConfig.from_dict(tc.to_dict() | {"momentum": 0.9})


class TestMaskStudy:
    def test_table_shape_and_formats(self):
        dec = tiny_dec()
        regimes = [("static", 6, 0), ("dynamic",)]
        infers = [(6, 0), (6, 90), (6, "all")]
        table = training.run_mask_study(dec, regimes, infers, steps=2, seeds=[0, 1], frames=18)
        assert table.row_labels == ["static_c6_p0", "dynamic"]
        assert table.col_labels == ["c6_p0", "c6_p90", "c6_pall"]
        assert table.mean_msd.shape == (2, 3)
        assert np.all(table.mean_msd > 0)
        for row in table.row_labels:
            for col in table.col_labels:
                vals = table.per_seed[row][col]
                assert len(vals) == 2
        # mean over per-seed values reproduces the table cell
        got = np.mean(table.per_seed["dynamic"]["c6_p90"])
        assert abs(got - table.mean_msd[1, 1]) <= 1e-12
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "regime,c6_p0,c6_p90,c6_pall"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == pytest.approx(table.mean_msd[0, 0], abs=1e-6)
        doc = table.to_dict()
        assert doc["rows"] == table.row_labels
        assert doc["trend"]["majority_holds"] in (True, False)
        comp = doc["trend"]["comparisons"]
        assert [c["regime"] for c in comp] == ["static_c6_p0"]
        assert comp[0]["mismatched"] == "c6_p90"

    def test_trend_skips_uncontested_regimes(self):
        dec = tiny_dec()
        regimes = [("static", 6, 3)]
        infers = [(6, 3), (6, 60)]
        table = training.run_mask_study(dec, regimes, infers, steps=1, seeds=[0], frames=12)
        assert table.trend["comparisons"] == []
        assert table.trend["majority_holds"] is None
