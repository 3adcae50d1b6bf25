"""Incremental decoder: equivalence, caches, causality, state files,
positional encoding, and receptive field analysis."""

import hashlib
import re

import numpy as np
import pytest

import dense_reference
from chunkmel import autodiff, decoder, io, masks, tensor
from chunkmel.tensor import ShapeError


def tiny_cfg(**kw):
    base = dict(
        n_layers=2,
        n_heads=2,
        d_model=8,
        d_ff=12,
        kernel1=3,
        kernel2=3,
        chunk_size=4,
        past_size=3,
        mel_bins=5,
        dtype="f64",
    )
    base.update(kw)
    return decoder.DecoderConfig(**base)


def make_inputs(cfg, t, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((t, cfg.d_model)).astype(cfg.np_dtype)


def run_both_routes(cfg, t, seed=0):
    model = decoder.init_weights(cfg, seed=seed + 1)
    feats = make_inputs(cfg, t, seed)
    chunks, _ = decoder.decode_incremental(feats, model)
    inc = np.concatenate(chunks, axis=0)
    mask = masks.build_static_mask(t, cfg.chunk_size, cfg.past_size)
    par = decoder.decode_parallel_masked(feats, model, mask)
    return inc, par


class TestEquivalence:
    @pytest.mark.parametrize(
        "cfg_kw, t",
        [
            (dict(), 13),  # partial last chunk
            (dict(past_size=0), 12),
            (dict(past_size=masks.ALL), 11),
            (dict(kernel1=1, kernel2=1), 12),
            (dict(chunk_size=1, past_size=2), 7),
            (dict(n_layers=1, n_heads=1), 9),
        ],
    )
    def test_incremental_matches_parallel(self, cfg_kw, t):
        cfg = tiny_cfg(**cfg_kw)
        inc, par = run_both_routes(cfg, t)
        assert inc.shape == par.shape == (t, cfg.mel_bins)
        assert np.max(np.abs(inc - par)) <= 1e-9

    def test_one_cell_is_bit_exact(self):
        # The two routes share every primitive and sum in the same
        # order, so equality is exact, not approximate.
        inc, par = run_both_routes(tiny_cfg(), 13)
        assert np.array_equal(inc, par)

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("d_model", [4, 8])
    def test_one_column_heads_are_bit_exact(self, dtype, d_model):
        # d_head = 1: every probs·v product has one column, and most have
        # five or more keys, the shape where einsum leaves left-to-right order
        cfg = tiny_cfg(d_model=d_model, n_heads=d_model, dtype=dtype)
        inc, par = run_both_routes(cfg, 40)
        assert inc.tobytes() == par.tobytes()

    def test_single_chunk_equals_all_true_mask(self):
        cfg = tiny_cfg(chunk_size=10, past_size=0)
        model = decoder.init_weights(cfg, seed=3)
        feats = make_inputs(cfg, 10, seed=4)
        chunks, _ = decoder.decode_incremental(feats, model)
        mask = masks.build_static_mask(10, 10, 0)
        assert np.all(mask.permitted)
        par = decoder.decode_parallel_masked(feats, model, mask)
        assert np.array_equal(chunks[0], par)

    def test_f32_route_agreement(self):
        cfg = tiny_cfg(dtype="f32")
        inc, par = run_both_routes(cfg, 13)
        assert inc.dtype == np.float32
        assert np.max(np.abs(inc.astype(np.float64) - par.astype(np.float64))) <= 1e-4


class TestCaches:
    def test_cache_boundedness(self, tmp_path):
        # past 0, below, at and above the chunk of 4, and all; 23 frames end
        # in a 3-frame chunk, and each stream is saved and resumed at frame 12.
        # The measured shapes must be the ones `state_shapes` states.
        for past in (0, 2, 4, 5, masks.ALL):
            cfg = tiny_cfg(chunk_size=4, past_size=past)
            model = decoder.init_weights(cfg, seed=0)
            feats = make_inputs(cfg, 23, seed=1)
            state = decoder.init_state(cfg)
            path = str(tmp_path / "s.cfps")
            for start in range(0, 23, 4):
                _, state = decoder.decode_chunk(feats[start : start + 4], model, state)
                if state.frame_offset == 12:
                    decoder.save_decoder_state(path, state)
                    state = decoder.load_decoder_state(path, cfg)
                consumed = min(23, start + 4)
                rows = consumed if past == masks.ALL else min(past, consumed)
                for ls in state.layers:
                    for pk, pv in zip(ls.attn.pk, ls.attn.pv):
                        assert len(pk) == len(pv) == rows
                    assert ls.conv.pc1.shape == (cfg.kernel1 - 1, cfg.d_model)
                    assert ls.conv.pc2.shape == (cfg.kernel2 - 1, cfg.d_ff)
                shapes = [a.shape for a in decoder.state_tensor_list(state)]
                assert shapes == decoder.state_shapes(cfg, state.frame_offset)
            assert state.frame_offset == 23

    def test_cache_holds_exactly_the_last_past_keys(self):
        # Three chunks of 4 with past 5: afterwards the layer-0 cache
        # must hold the keys of frames 7..11, nothing else.
        cfg = tiny_cfg(chunk_size=4, past_size=5)
        model = decoder.init_weights(cfg, seed=7)
        feats = make_inputs(cfg, 12, seed=8)
        _, state = decoder.decode_incremental(feats, model)
        pe = decoder.positional_encoding(0, 12, cfg.d_model, cfg.dtype)
        x0 = feats + pe
        for i in range(cfg.n_heads):
            pk = state.layers[0].attn.pk[i]
            pv = state.layers[0].attn.pv[i]
            assert pk.shape == (5, cfg.d_head)
            assert np.array_equal(pk, tensor.matmul(x0[7:12], model.named[f"layers.0.wk.{i}"]))
            assert np.array_equal(pv, tensor.matmul(x0[7:12], model.named[f"layers.0.wv.{i}"]))

    def test_all_sentinel_grows_without_bound(self):
        cfg = tiny_cfg(past_size=masks.ALL)
        model = decoder.init_weights(cfg, seed=2)
        feats = make_inputs(cfg, 16, seed=3)
        _, state = decoder.decode_incremental(feats, model)
        assert len(state.layers[0].attn.pk[0]) == 16

    def test_kernel_one_states_are_empty(self):
        cfg = tiny_cfg(kernel1=1, kernel2=1)
        state = decoder.init_state(cfg)
        assert state.layers[0].conv.pc1.shape == (0, cfg.d_model)
        assert state.layers[0].conv.pc2.shape == (0, cfg.d_ff)


class TestCausality:
    def test_future_chunks_never_change_past_output(self):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=5)
        feats = make_inputs(cfg, 16, seed=6)
        base_chunks, _ = decoder.decode_incremental(feats, model)
        tampered = feats.copy()
        tampered[12:] += 10.0
        got_chunks, _ = decoder.decode_incremental(tampered, model)
        for j in range(3):
            assert np.array_equal(base_chunks[j], got_chunks[j])
        mask = masks.build_static_mask(16, cfg.chunk_size, cfg.past_size)
        base_par = decoder.decode_parallel_masked(feats, model, mask)
        got_par = decoder.decode_parallel_masked(tampered, model, mask)
        assert np.array_equal(base_par[:12], got_par[:12])

    def test_zero_past_chunks_attend_independently(self):
        # With S_p=0 and pointwise convs, any frame's output depends
        # only on its own chunk; scrambling chunk 0 leaves chunk 1 rows
        # untouched in the masked parallel route.
        cfg = tiny_cfg(kernel1=1, kernel2=1, n_layers=1, past_size=0, chunk_size=4)
        model = decoder.init_weights(cfg, seed=9)
        feats = make_inputs(cfg, 8, seed=10)
        mask = masks.build_static_mask(8, 4, 0)
        base = decoder.decode_parallel_masked(feats, model, mask)
        scrambled = feats.copy()
        scrambled[:4] = scrambled[:4][::-1] * -2.0
        got = decoder.decode_parallel_masked(scrambled, model, mask)
        assert np.array_equal(base[4:], got[4:])
        assert not np.array_equal(base[:4], got[:4])


class TestStateFiles:
    def test_resume_is_bit_identical(self, tmp_path):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=11)
        feats = make_inputs(cfg, 16, seed=12)
        full_chunks, full_state = decoder.decode_incremental(feats, model)
        half_chunks, half_state = decoder.decode_incremental(feats[:8], model)
        path = str(tmp_path / "mid.cfps")
        decoder.save_decoder_state(path, half_state)
        resumed = decoder.load_decoder_state(path, cfg)
        assert resumed.frame_offset == 8
        rest_chunks, end_state = decoder.decode_incremental(feats[8:], model, resumed)
        joined = np.concatenate(half_chunks + rest_chunks, axis=0)
        assert joined.tobytes() == np.concatenate(full_chunks, axis=0).tobytes()
        assert end_state.frame_offset == full_state.frame_offset
        for a, b in zip(
            decoder.state_tensor_list(end_state), decoder.state_tensor_list(full_state)
        ):
            assert a.tobytes() == b.tobytes()

    def test_model_file_roundtrip(self, tmp_path):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=13)
        path = str(tmp_path / "m.cfpw")
        decoder.save_model(path, model)
        loaded = decoder.load_model(path)
        assert loaded.config == cfg
        a = decoder.weights_to_named(model)
        b = decoder.weights_to_named(loaded)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes()

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_loaded_model_decodes_like_the_initialised_one(self, tmp_path, dtype):
        # the fused projection is packed from the arrays read from the file
        cfg = tiny_cfg(dtype=dtype, n_heads=4)
        model = decoder.init_weights(cfg, seed=14)
        path = str(tmp_path / "m.cfpw")
        decoder.save_model(path, model)
        loaded = decoder.load_model(path)
        feats = make_inputs(cfg, 23, seed=15)
        sa, sb = decoder.init_state(cfg), decoder.init_state(cfg)
        for start in range(0, len(feats), cfg.chunk_size):
            chunk = feats[start : start + cfg.chunk_size]
            ya, sa = decoder.decode_chunk(chunk, model, sa)
            yb, sb = decoder.decode_chunk(chunk, loaded, sb)
            assert ya.tobytes() == yb.tobytes()
            for a, b in zip(decoder.state_tensor_list(sa), decoder.state_tensor_list(sb)):
                assert a.tobytes() == b.tobytes()

    def test_state_validation_errors(self, tmp_path):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=14)
        feats = make_inputs(cfg, 8, seed=15)
        _, state = decoder.decode_incremental(feats, model)
        path = str(tmp_path / "s.cfps")
        decoder.save_decoder_state(path, state)
        with pytest.raises(io.FormatError):
            decoder.load_decoder_state(path, tiny_cfg(n_layers=3))
        with pytest.raises(io.FormatError):
            decoder.load_decoder_state(path, tiny_cfg(dtype="f32"))
        with pytest.raises(io.FormatError):
            decoder.load_decoder_state(path, tiny_cfg(kernel1=5))

    def write_state(self, tmp_path, cfg, frame_offset, k_rows, v_rows=None):
        """A snapshot whose every key cache has k_rows rows, value caches v_rows."""
        v_rows = k_rows if v_rows is None else v_rows
        state = decoder.init_state(cfg)
        for ls in state.layers:
            ls.attn.pk = [np.zeros((k_rows, cfg.d_head)) for _ in ls.attn.pk]
            ls.attn.pv = [np.zeros((v_rows, cfg.d_head)) for _ in ls.attn.pv]
        state.frame_offset = frame_offset
        path = str(tmp_path / "s.cfps")
        decoder.save_decoder_state(path, state)
        return path

    def test_state_rejects_cache_longer_than_past(self, tmp_path):
        cfg = tiny_cfg(past_size=15)
        path = self.write_state(tmp_path, cfg, frame_offset=40, k_rows=40)
        with pytest.raises(
            io.FormatError,
            match=r"layer 0 head 0 key cache is float64 \(40, 4\), "
            r"frame offset 40 with past_size 15 needs f64 \(15, 4\)",
        ):
            decoder.load_decoder_state(path, cfg)

    def test_state_rejects_unequal_key_and_value_caches(self, tmp_path):
        cfg = tiny_cfg(past_size=15)
        path = self.write_state(tmp_path, cfg, frame_offset=40, k_rows=15, v_rows=14)
        with pytest.raises(
            io.FormatError,
            match=r"layer 0 head 0 value cache is float64 \(14, 4\), "
            r"frame offset 40 with past_size 15 needs f64 \(15, 4\)",
        ):
            decoder.load_decoder_state(path, cfg)

    def test_state_rejects_rows_that_do_not_match_frame_offset(self, tmp_path):
        cfg = tiny_cfg(past_size=15)
        path = self.write_state(tmp_path, cfg, frame_offset=40, k_rows=10)
        with pytest.raises(
            io.FormatError, match=r"frame offset 40 with past_size 15 needs f64 \(15, 4\)"
        ):
            decoder.load_decoder_state(path, cfg)
        path = self.write_state(tmp_path, cfg, frame_offset=8, k_rows=10)
        with pytest.raises(
            io.FormatError, match=r"frame offset 8 with past_size 15 needs f64 \(8, 4\)"
        ):
            decoder.load_decoder_state(path, cfg)
        cfg_all = tiny_cfg(past_size=masks.ALL)
        path = self.write_state(tmp_path, cfg_all, frame_offset=40, k_rows=15)
        with pytest.raises(
            io.FormatError, match=r"frame offset 40 with past_size all needs f64 \(40, 4\)"
        ):
            decoder.load_decoder_state(path, cfg_all)
        path = self.write_state(tmp_path, cfg_all, frame_offset=40, k_rows=40)
        assert decoder.load_decoder_state(path, cfg_all).frame_offset == 40

    SNAPSHOT_NAMES = [
        f"layer {l} {what}"
        for l in range(2)
        for what in (
            "head 0 key cache",
            "head 1 key cache",
            "head 0 value cache",
            "head 1 value cache",
            "conv1 tail",
            "conv2 tail",
        )
    ]
    CORRUPTIONS = {
        "row-more": lambda a: np.concatenate([a, a[:1]]),
        "row-fewer": lambda a: a[1:],
        "column-more": lambda a: np.concatenate([a, a[:, :1]], axis=1),
        "f32": lambda a: a.astype(np.float32),
        "flattened": lambda a: a.reshape(-1),
        "nan": lambda a: np.where(np.arange(a.size).reshape(a.shape) == a.size // 2, np.nan, a),
    }

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("position", range(12))
    @pytest.mark.parametrize("past", [3, masks.ALL])
    def test_each_corrupted_snapshot_tensor_is_named(self, tmp_path, past, position, corruption):
        cfg = tiny_cfg(past_size=past)
        _, state = decoder.decode_incremental(
            make_inputs(cfg, 10, seed=19), decoder.init_weights(cfg, seed=20)
        )
        tensors = decoder.state_tensor_list(state)
        assert len(tensors) == len(self.SNAPSHOT_NAMES)
        tensors[position] = self.CORRUPTIONS[corruption](tensors[position])
        path = str(tmp_path / "s.cfps")
        io.save_state(path, state.frame_offset, tensors)
        name = self.SNAPSHOT_NAMES[position]
        with pytest.raises(io.FormatError, match=f"^{re.escape(path)}: {name}[ :]"):
            decoder.load_decoder_state(path, cfg)

    def test_named_weights_roundtrip_and_coverage(self):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=16)
        named = decoder.weights_to_named(model)
        shapes = decoder.weight_shapes(cfg)
        assert list(named) == list(shapes)
        assert [a.shape for a in named.values()] == list(shapes.values())
        back = decoder.ModelWeights(cfg, named)
        for name in shapes:
            assert np.array_equal(back.named[name], model.named[name])
        # the map handed out is a copy: editing it leaves the model alone
        named["layers.0.wq.0"] = np.zeros_like(named["layers.0.wq.0"])
        assert not np.array_equal(model.named["layers.0.wq.0"], named["layers.0.wq.0"])
        missing = decoder.weights_to_named(model)
        del missing["proj_b"]
        with pytest.raises(ValueError, match=r"missing \['proj_b'\]"):
            decoder.ModelWeights(cfg, missing)
        extra = decoder.weights_to_named(model) | {"layers.2.wo": named["layers.0.wo"]}
        with pytest.raises(ValueError, match=r"unexpected \['layers.2.wo'\]"):
            decoder.ModelWeights(cfg, extra)

    def test_model_file_bytes_and_init_order_are_pinned(self, tmp_path):
        path = str(tmp_path / "m.cfpw")
        decoder.save_model(path, decoder.init_weights(decoder.DecoderConfig(), seed=0))
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        assert digest == "743ad0d3e4895697ba484587370501bab0b0ffb40f013a333aaff71e56911df8"


class TestPositionalEncoding:
    def test_first_row_pattern(self):
        pe = decoder.positional_encoding(0, 1, 8)
        assert np.array_equal(pe[0], np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]))

    def test_offset_row_identity(self):
        for k in (1, 5, 17):
            one = decoder.positional_encoding(k, 1, 10)
            table = decoder.positional_encoding(0, k + 1, 10)
            assert np.array_equal(one[0], table[k])

    def test_chunked_concat_equals_one_shot(self):
        whole = decoder.positional_encoding(0, 13, 6)
        parts = [
            decoder.positional_encoding(0, 4, 6),
            decoder.positional_encoding(4, 4, 6),
            decoder.positional_encoding(8, 5, 6),
        ]
        assert np.array_equal(np.concatenate(parts, axis=0), whole)

    def test_against_high_precision_reference(self):
        pe = decoder.positional_encoding(7, 9, 12)
        ref = dense_reference.posenc_mp(7, 9, 12)
        assert np.max(np.abs(pe - ref)) <= 1e-12

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("d_model", [7, 8, 33])
    def test_bytes_equal_the_sinusoid_formula(self, dtype, d_model):
        def formula(offset, length):  # sin and cos of f64 angles, cast at the end
            pos = np.arange(offset, offset + length, dtype=np.float64)[:, None]
            div = np.power(10000.0, np.arange(0, d_model, 2, dtype=np.float64) / float(d_model))
            pe = np.zeros((length, d_model))
            pe[:, 0::2] = np.sin(pos / div)
            pe[:, 1::2] = np.cos(pos / div[: d_model // 2])
            return pe.astype(decoder.DTYPES[dtype])

        table = decoder.positional_encoding(0, 100_001, d_model, dtype)
        assert table.tobytes() == formula(0, 100_001).tobytes()
        for offset in (0, 1, 29, 30, 99_970, 100_000):
            got = decoder.positional_encoding(offset, 30, d_model, dtype)
            assert got.tobytes() == formula(offset, 30).tobytes()

    def test_f32_casts_after_f64_angles(self):
        pe32 = decoder.positional_encoding(3, 5, 8, "f32")
        pe64 = decoder.positional_encoding(3, 5, 8, "f64")
        assert pe32.dtype == np.float32
        assert np.array_equal(pe32, pe64.astype(np.float32))


class TestBlockUnits:
    def test_fused_projection_packs_heads_side_by_side(self):
        cfg = tiny_cfg(n_heads=2)
        model = decoder.init_weights(cfg, seed=19)
        for l in range(cfg.n_layers):
            parts = np.split(model.packed[l].wqkv, 3 * cfg.n_heads, axis=1)
            names = [f"layers.{l}.{t}.{i}" for t in ("wq", "wk", "wv") for i in range(cfg.n_heads)]
            for got, name in zip(parts, names):
                assert np.array_equal(got, model.named[name])

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_conv_taps_are_packed_side_by_side(self, dtype, k):
        cfg = tiny_cfg(kernel1=k, kernel2=5 - k, dtype=dtype)
        model = decoder.init_weights(cfg, seed=k)
        for l in range(cfg.n_layers):
            for conv, packed in (("conv1_w", model.packed[l].conv1_w), ("conv2_w", model.packed[l].conv2_w)):
                taps = model.named[f"layers.{l}.{conv}"]
                assert packed.dtype == cfg.np_dtype and packed.flags.c_contiguous
                assert np.array_equal(packed, np.concatenate([taps[j] for j in range(len(taps))], axis=1))

    def test_decodes_never_repack_weights(self, monkeypatch):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=18)
        x = make_inputs(cfg, 10, seed=18)
        mask = masks.build_static_mask(10, cfg.chunk_size, cfg.past_size)

        def refuse(*args):
            raise AssertionError("a decode repacked weights")

        monkeypatch.setattr(decoder, "pack_layer", refuse)
        monkeypatch.setattr(tensor, "pack_taps", refuse)
        decoder.decode_chunk(x[:4], model, decoder.init_state(cfg))
        decoder.decode_incremental(x, model)
        decoder.decode_parallel_masked(x, model, mask)

    def test_single_chunk_zero_past_is_plain_attention(self):
        cfg = tiny_cfg(past_size=0, n_heads=2)
        model = decoder.init_weights(cfg, seed=20)
        w = model.named
        x = make_inputs(cfg, 6, seed=21)
        st = decoder.init_state(cfg).layers[0].attn
        got, st2 = decoder.mha_chunk_step(tensor, x, model.packed[0].wqkv, w["layers.0.wo"], st, cfg, None)
        heads = []
        for i in range(cfg.n_heads):
            q = x @ w[f"layers.0.wq.{i}"]
            k = x @ w[f"layers.0.wk.{i}"]
            v = x @ w[f"layers.0.wv.{i}"]
            logits = (q @ k.T) / np.sqrt(cfg.d_head)
            probs = dense_reference.softmax_rows_mp(logits)
            heads.append(probs @ v)
        expect = np.concatenate(heads, axis=1) @ w["layers.0.wo"]
        assert np.max(np.abs(got - expect)) <= 1e-12
        assert all(len(pk) == 0 for pk in st2.pk)

    def test_zero_weights_block_is_double_layernorm(self):
        cfg = tiny_cfg()
        named = {name: np.zeros(shape) for name, shape in decoder.weight_shapes(cfg).items()}
        named["layers.0.ln1_gamma"] = np.ones(cfg.d_model)
        named["layers.0.ln2_gamma"] = np.ones(cfg.d_model)
        model = decoder.ModelWeights(cfg, named)
        x = make_inputs(cfg, 5, seed=23)
        st = decoder.init_state(cfg).layers[0]
        y, _ = decoder.fft_block_step(tensor, x, model.named, model.packed[0], 0, st, cfg, None)
        ones = np.ones(cfg.d_model)
        zeros = np.zeros(cfg.d_model)
        expect = tensor.layer_norm(
            tensor.layer_norm(x, ones, zeros, cfg.ln_eps), ones, zeros, cfg.ln_eps
        )
        assert np.array_equal(y, expect)

    def test_chunked_ffn_equals_one_shot(self):
        cfg = tiny_cfg(chunk_size=3)
        model = decoder.init_weights(cfg, seed=24)
        conv = (model.packed[0].conv1_w, model.named["layers.0.conv1_b"])
        conv += (model.packed[0].conv2_w, model.named["layers.0.conv2_b"])
        x = make_inputs(cfg, 12, seed=25)
        st = decoder.init_state(cfg).layers[0].conv
        whole, _ = decoder.ffn_chunk_step(tensor, x, *conv, st, cfg)
        parts = []
        for s in range(0, 12, 3):
            out, st = decoder.ffn_chunk_step(tensor, x[s : s + 3], *conv, st, cfg)
            parts.append(out)
        assert np.array_equal(np.concatenate(parts, axis=0), whole)

    def test_every_route_runs_the_one_block_body(self, monkeypatch):
        cfg = tiny_cfg(n_layers=3)
        model = decoder.init_weights(cfg, seed=26)
        x = make_inputs(cfg, 10, seed=27)
        mask = masks.build_static_mask(10, cfg.chunk_size, cfg.past_size)
        calls = []
        block = decoder.fft_block_step

        def counted(*args):
            calls.append(args[4])
            return block(*args)

        monkeypatch.setattr(decoder, "fft_block_step", counted)
        runs = [
            lambda: decoder.decode_chunk(x[:4], model, decoder.init_state(cfg)),
            lambda: decoder.decode_parallel_masked(x, model, mask),
            lambda: autodiff.forward_record(
                lambda ops, f, p: decoder.forward_named(ops, f, p, cfg, mask), x, model.named
            ),
        ]
        for run in runs:
            calls.clear()
            run()
            assert calls == list(range(cfg.n_layers))


class TestReceptiveField:
    def test_formula_examples(self):
        assert decoder.receptive_field_formula(6, 15, 30) == 210
        assert decoder.receptive_field_formula(2, 60, 30) == 150
        for n, c in [(1, 4), (3, 30), (6, 1)]:
            assert decoder.receptive_field_formula(n, 0, c) == (n + 1) * c

    def test_oracle_adds_one_chunk_per_hop_inside_band(self):
        # For 0 < S_p <= S_c one attention hop reaches exactly one
        # chunk back, so the reach is (N_d+1) chunks.
        for n in range(1, 7):
            for c in (1, 4, 30):
                for p in sorted({1, (c + 1) // 2, c}):
                    rep = decoder.receptive_field_oracle(
                        decoder.DecoderConfig(
                            n_layers=n, n_heads=1, d_model=8, chunk_size=c, past_size=p
                        )
                    )
                    assert rep.r_oracle == (n + 1) * c, (n, c, p)

    def test_oracle_zero_past_reaches_only_own_chunk(self):
        for n in (1, 3, 6):
            rep = decoder.receptive_field_oracle(
                decoder.DecoderConfig(n_layers=n, n_heads=1, d_model=8, chunk_size=4, past_size=0)
            )
            assert rep.r_oracle == 4
            assert rep.r_exact_frames == 4

    def test_oracle_past_beyond_chunk(self):
        # Each hop reaches ceil(S_p/S_c) chunks back, so the exact
        # reach is (N_d * ceil(S_p/S_c) + 1) chunks.
        c = 30
        rep = decoder.receptive_field_oracle(
            decoder.DecoderConfig(n_layers=1, n_heads=1, d_model=8, chunk_size=c, past_size=2 * c)
        )
        assert rep.r_oracle == 3 * c
        rep = decoder.receptive_field_oracle(
            decoder.DecoderConfig(n_layers=2, n_heads=1, d_model=8, chunk_size=c, past_size=2 * c)
        )
        assert rep.r_oracle == 150
        assert rep.r_formula == 150  # the one (N_d, multiple) pair where both agree
        rep = decoder.receptive_field_oracle(
            decoder.DecoderConfig(n_layers=3, n_heads=1, d_model=8, chunk_size=c, past_size=2 * c)
        )
        assert rep.r_oracle == 7 * c
        assert rep.r_formula == 6 * c  # closed form undercounts here; reported, not reconciled

    def test_oracle_all_history(self):
        rep = decoder.receptive_field_oracle(
            decoder.DecoderConfig(n_layers=2, n_heads=1, d_model=8, chunk_size=5, past_size=masks.ALL)
        )
        assert rep.unbounded
        assert rep.r_formula is None
        assert rep.earliest_frame == 0
        assert rep.r_exact_frames == rep.horizon_frames

    def test_per_layer_reach_is_monotone(self):
        rep = decoder.receptive_field_oracle(
            decoder.DecoderConfig(n_layers=4, n_heads=1, d_model=8, chunk_size=6, past_size=6)
        )
        assert len(rep.per_layer) == 4
        assert all(a >= b for a, b in zip(rep.per_layer, rep.per_layer[1:]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            decoder.DecoderConfig(d_model=10, n_heads=3)
        with pytest.raises(ValueError):
            decoder.DecoderConfig(chunk_size=0)
        with pytest.raises(ValueError):
            decoder.DecoderConfig(past_size=-1)
        with pytest.raises(ValueError):
            decoder.DecoderConfig(past_size="half")
        with pytest.raises(ValueError):
            decoder.DecoderConfig(dtype="f16")

    def test_dict_roundtrip_rejects_unknown_keys(self):
        cfg = tiny_cfg()
        assert decoder.DecoderConfig.from_dict(cfg.to_dict()) == cfg
        bad = cfg.to_dict() | {"dropout": 0.1}
        with pytest.raises(ValueError):
            decoder.DecoderConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "field,value",
        [("n_layers", "2"), ("chunk_size", 2.5), ("chunk_size", True), ("past_size", 1.5),
         ("ln_eps", "1e-5"), ("dtype", 64)],
    )
    def test_from_dict_rejects_mistyped_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            decoder.DecoderConfig.from_dict({field: value})

    def test_from_dict_takes_ints_for_floats_and_all_for_past(self):
        cfg = decoder.DecoderConfig.from_dict({"ln_eps": 1, "past_size": masks.ALL})
        assert cfg.ln_eps == 1 and cfg.past_size == masks.ALL

    def test_shape_errors(self):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=0)
        with pytest.raises(ShapeError):
            decoder.decode_incremental(np.zeros((0, cfg.d_model)), model)
        with pytest.raises(ShapeError):
            decoder.decode_incremental(np.zeros((4, cfg.d_model + 1)), model)
        feats = make_inputs(cfg, 6)
        with pytest.raises(ShapeError):
            decoder.decode_parallel_masked(feats, model, masks.build_static_mask(5, 2, 1))

    def test_state_of_another_layer_count_is_a_shape_error(self):
        # a shorter state used to decode as a shorter model, a longer one
        # to fail with IndexError
        for model_layers, state_layers in ((2, 1), (1, 2)):
            model = decoder.init_weights(tiny_cfg(n_layers=model_layers), seed=0)
            state = decoder.init_state(tiny_cfg(n_layers=state_layers))
            feats = make_inputs(model.config, 4)
            with pytest.raises(
                ShapeError, match=f"state has {state_layers} layers, the model {model_layers}"
            ):
                decoder.decode_chunk(feats, model, state)

    def test_non_finite_features_name_the_first_bad_frame(self):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=0)
        feats = make_inputs(cfg, 20)
        feats[13, 2] = np.nan
        feats[17, 0] = np.inf
        mask = masks.build_static_mask(20, cfg.chunk_size, cfg.past_size)
        with pytest.raises(decoder.NonFiniteInputError, match="at frame 13$"):
            decoder.decode_parallel_masked(feats, model, mask)
        with pytest.raises(
            decoder.NonFiniteInputError, match=r"frame 13 \(row 1 of the chunk at frame offset 12\)"
        ):
            decoder.decode_incremental(feats, model)
        _, state = decoder.decode_incremental(feats[:12], model)
        feats[13] = 0.0
        with pytest.raises(decoder.NonFiniteInputError, match=r"frame 17 \(row 1 of the chunk"):
            decoder.decode_incremental(feats[12:], model, state)

    def test_features_of_another_dtype_are_rejected_at_the_route(self):
        cfg = tiny_cfg()
        model = decoder.init_weights(cfg, seed=0)
        feats = make_inputs(cfg, 12).astype(np.float32)
        mask = masks.build_static_mask(12, cfg.chunk_size, cfg.past_size)
        both = "features are float32, the model is float64"
        with pytest.raises(ShapeError, match=f"decode_parallel_masked: {both}"):
            decoder.decode_parallel_masked(feats, model, mask)
        with pytest.raises(ShapeError, match=f"decode_chunk: {both}"):
            decoder.decode_chunk(feats[:4], model, decoder.init_state(cfg))
