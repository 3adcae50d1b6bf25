"""End-to-end command-line behavior: happy paths, exit codes, files."""

import json
import tempfile
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkmel import cli, decoder, io, training

TINY_DECODER = {
    "n_layers": 1,
    "n_heads": 2,
    "d_model": 8,
    "d_ff": 12,
    "chunk_size": 4,
    "past_size": 2,
    "mel_bins": 4,
}


def write_config(tmp_path, name="cfg.json", train=None, decoder_doc=None, **extra):
    doc = {
        "schema": 1,
        "decoder": TINY_DECODER if decoder_doc is None else decoder_doc,
        "train": {"steps": 2, "frames": 12, "batch_size": 2} if train is None else train,
    }
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_model_file(tmp_path, name="m.cfpw", seed=0):
    cfg = decoder.DecoderConfig(**TINY_DECODER)
    path = str(tmp_path / name)
    decoder.save_model(path, decoder.init_weights(cfg, seed=seed))
    return path, cfg


class TestReceptiveFieldCommand:
    def test_prints_formula(self, capsys):
        assert cli.cli_dispatch(["rf", "--layers", "6", "--chunk", "30", "--past", "15"]) == 0
        assert capsys.readouterr().out.strip() == "210"

    def test_oracle_json(self, capsys):
        code = cli.cli_dispatch(
            ["rf", "--layers", "2", "--chunk", "30", "--past", "60", "--oracle"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"] == 150
        assert doc["oracle"] == 150
        assert doc["delta"] == 0


class TestMaskCommand:
    def test_ascii_enumeration(self, capsys):
        code = cli.cli_dispatch(["mask", "--frames", "4", "--chunk", "2", "--past", "1"])
        assert code == 0
        assert capsys.readouterr().out == "##..\n##..\n.###\n.###\n"

    def test_pgm_file(self, tmp_path):
        out = tmp_path / "m.pgm"
        code = cli.cli_dispatch(
            ["mask", "--frames", "6", "--chunk", "2", "--past", "all",
             "--format", "pgm", "--out", str(out)]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n6 6\n255\n")
        assert len(data) == len(b"P5\n6 6\n255\n") + 36

    def test_bad_past_is_usage_error(self, capsys):
        assert cli.cli_dispatch(["mask", "--frames", "4", "--chunk", "2", "--past", "most"]) == 2


class TestMsdCommand:
    def test_identical_files_print_zero(self, tmp_path, capsys):
        arr = np.random.default_rng(0).standard_normal((5, 3))
        p = str(tmp_path / "x.ctn")
        io.save_tensor(p, arr)
        assert cli.cli_dispatch(["msd", p, p]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        p = str(tmp_path / "x.ctn")
        io.save_tensor(p, np.zeros((2, 2)))
        assert cli.cli_dispatch(["msd", p, str(tmp_path / "nope.ctn")]) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_usage_error_naming_file_and_index(self, tmp_path, capsys, bad):
        good = np.zeros((5, 3))
        worse = good.copy()
        worse[3, 1] = bad
        p_good, p_bad = str(tmp_path / "good.ctn"), str(tmp_path / "bad.ctn")
        io.save_tensor(p_good, good)
        io.save_tensor(p_bad, worse)
        for pair in ([p_good, p_bad], [p_bad, p_good]):
            assert cli.cli_dispatch(["msd", *pair]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"{p_bad}: non-finite value at index (3, 1)" in err

    @pytest.mark.parametrize("mean_squared", [[], ["--mean-squared"]])
    def test_zero_frames_are_usage_error(self, tmp_path, capsys, mean_squared):
        p = str(tmp_path / "empty.ctn")
        io.save_tensor(p, np.zeros((0, 80)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.cli_dispatch(["msd", p, p, *mean_squared]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: msd:")


class TestConfigHandling:
    def test_dump_config_roundtrips(self, capsys):
        assert cli.cli_dispatch(["--dump-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        dec, train = cli.parse_run_config(doc)
        assert dec == decoder.DecoderConfig()
        assert train == training.TrainConfig()

    def test_dump_config_holds_24_settable_values(self, capsys):
        assert cli.cli_dispatch(["--dump-config"]) == 0
        doc = json.loads(capsys.readouterr().out)

        def leaves(d):
            return sum(leaves(v) if isinstance(v, dict) else 1 for v in d.values())

        assert leaves({k: v for k, v in doc.items() if k != "schema"}) == 24

    @pytest.mark.parametrize(
        "sections, key",
        [({"seed": 0}, "seed"), ({"train": {"static_chunk": 10}}, "static_chunk"),
         ({"train": {"static_past": 5}}, "static_past"),
         ({"train": {"policy": {"seed": 3}}}, "seed")],
    )
    def test_removed_key_is_format_error_naming_it(self, tmp_path, capsys, sections, key):
        cfg = write_config(tmp_path, **sections)
        assert cli.cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "m.cfpw")]) == 3
        err = capsys.readouterr().err
        assert "unknown" in err and repr(key) in err

    @pytest.mark.parametrize("multipliers", [["x"], [-1], [0.5, None]])
    def test_bad_past_multipliers_are_format_errors(self, tmp_path, capsys, multipliers):
        train = {"steps": 1, "frames": 12, "batch_size": 1, "regime": "dynamic",
                 "policy": {"past_multipliers": multipliers}}
        cfg = write_config(tmp_path, train=train)
        assert cli.cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "m.cfpw")]) == 3
        err = capsys.readouterr().err
        assert "past_multipliers" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("frames", 0), ("beta1", 1.0), ("beta2", -0.5), ("eps", 0), ("weight_decay", -1e-6), ("clip_norm", 0.0)],
    )
    def test_out_of_range_train_field_is_format_error_naming_it(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, train={"steps": 1, "frames": 12, "batch_size": 1, field: value})
        out = tmp_path / "m.cfpw"
        assert cli.cli_dispatch(["train", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{field}={value!r}" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_is_format_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus=1)
        assert cli.cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "m.cfpw")]) == 3

    def test_invalid_json_is_format_error(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.cli_dispatch(["ablate", "--config", str(p), "--mode", "drop_kv"]) == 3

    @pytest.mark.parametrize(
        "sections",
        [{"decoder_doc": TINY_DECODER | {"n_layers": "2"}}, {"train": {"lr": "x"}},
         {"decoder_doc": TINY_DECODER | {"chunk_size": 2.5}}],
    )
    def test_mistyped_field_is_format_error(self, tmp_path, capsys, sections):
        cfg = write_config(tmp_path, **sections)
        assert cli.cli_dispatch(["train", "--config", cfg, "--out", str(tmp_path / "m.cfpw")]) == 3
        assert "is not of type" in capsys.readouterr().err

    def test_no_command_is_usage_error(self, capsys):
        assert cli.cli_dispatch([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.cli_dispatch(["frobnicate"]) == 2


def with_nan_at_2_1(w):
    w = w.copy()
    w[2, 1] = np.nan
    return w


class TestSynthCommand:
    def make_features(self, tmp_path, cfg, t=10, seed=1):
        feats = np.random.default_rng(seed).standard_normal((t, cfg.d_model))
        p = str(tmp_path / "f.ctn")
        io.save_tensor(p, feats)
        return p

    def test_incremental_matches_parallel(self, tmp_path):
        model_path, cfg = tiny_model_file(tmp_path)
        feats_path = self.make_features(tmp_path, cfg)
        inc_path = str(tmp_path / "inc.ctn")
        par_path = str(tmp_path / "par.ctn")
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", feats_path,
             "--mode", "incremental", "--out", inc_path]
        ) == 0
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", feats_path,
             "--mode", "parallel", "--out", par_path]
        ) == 0
        inc = io.load_tensor(inc_path)
        par = io.load_tensor(par_path)
        assert inc.shape == (10, cfg.mel_bins)
        assert np.max(np.abs(inc - par)) <= 1e-9

    def test_feature_dtype_mismatch_is_usage_error(self, tmp_path, capsys):
        model_path, cfg = tiny_model_file(tmp_path)
        feats_path = str(tmp_path / "f32.ctn")
        io.save_tensor(feats_path, np.zeros((6, cfg.d_model), dtype=np.float32))
        for mode in ("incremental", "parallel"):
            code = cli.cli_dispatch(
                ["synth", "--model", model_path, "--features", feats_path,
                 "--mode", mode, "--out", str(tmp_path / "o.ctn")]
            )
            assert code == 2
            assert "features are float32, the model is float64" in capsys.readouterr().err

    def test_state_resume_matches_uninterrupted(self, tmp_path):
        model_path, cfg = tiny_model_file(tmp_path)
        feats = np.random.default_rng(2).standard_normal((12, cfg.d_model))
        whole = str(tmp_path / "whole.ctn")
        first = str(tmp_path / "first.ctn")
        second = str(tmp_path / "second.ctn")
        io.save_tensor(whole, feats)
        io.save_tensor(first, feats[:8])
        io.save_tensor(second, feats[8:])
        state = str(tmp_path / "mid.cfps")
        out_whole = str(tmp_path / "mel_whole.ctn")
        out_a = str(tmp_path / "mel_a.ctn")
        out_b = str(tmp_path / "mel_b.ctn")
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", whole, "--out", out_whole]
        ) == 0
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", first,
             "--out", out_a, "--state-out", state]
        ) == 0
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", second,
             "--out", out_b, "--state-in", state]
        ) == 0
        joined = np.concatenate([io.load_tensor(out_a), io.load_tensor(out_b)], axis=0)
        assert joined.tobytes() == io.load_tensor(out_whole).tobytes()

    def test_chunk_past_overrides(self, tmp_path):
        model_path, cfg = tiny_model_file(tmp_path)
        feats_path = self.make_features(tmp_path, cfg)
        out = str(tmp_path / "mel.ctn")
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", feats_path,
             "--chunk", "10", "--past", "0", "--out", out]
        ) == 0
        # chunk == T with past 0 is the all-true single-chunk decode
        par = str(tmp_path / "par.ctn")
        assert cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", feats_path, "--mode", "parallel",
             "--chunk", "10", "--past", "0", "--out", par]
        ) == 0
        assert io.load_tensor(out).tobytes() == io.load_tensor(par).tobytes()

    def test_parallel_rejects_state_flags(self, tmp_path, capsys):
        model_path, cfg = tiny_model_file(tmp_path)
        feats_path = self.make_features(tmp_path, cfg)
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", feats_path, "--mode", "parallel",
             "--out", str(tmp_path / "o.ctn"), "--state-out", str(tmp_path / "s.cfps")]
        )
        assert code == 2

    def test_non_finite_features_are_usage_errors(self, tmp_path, capsys):
        model_path, cfg = tiny_model_file(tmp_path)
        feats = np.random.default_rng(3).standard_normal((10, cfg.d_model))
        feats[5, 1] = np.nan
        feats_path = str(tmp_path / "nan.ctn")
        io.save_tensor(feats_path, feats)
        for mode in ("incremental", "parallel"):
            code = cli.cli_dispatch(
                ["synth", "--model", model_path, "--features", feats_path, "--mode", mode,
                 "--out", str(tmp_path / "o.ctn")]
            )
            assert code == 2
            assert "non-finite feature at frame 5" in capsys.readouterr().err

    def test_oversized_state_cache_is_format_error(self, tmp_path, capsys):
        model_path, cfg = tiny_model_file(tmp_path)
        state = decoder.init_state(cfg)
        for ls in state.layers:
            ls.attn.pk = [np.zeros((40, cfg.d_head)) for _ in ls.attn.pk]
            ls.attn.pv = [np.zeros((40, cfg.d_head)) for _ in ls.attn.pv]
        state.frame_offset = 40
        state_path = str(tmp_path / "big.cfps")
        decoder.save_decoder_state(state_path, state)
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", self.make_features(tmp_path, cfg),
             "--out", str(tmp_path / "o.ctn"), "--state-in", state_path]
        )
        assert code == 3
        assert (
            "layer 0 head 0 key cache is float64 (40, 4), frame offset 40 with past_size 2 "
            "needs f64 (2, 4)" in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "name, bad, message",
        [
            ("layers.0.wo", lambda w: np.zeros((8, 16)), "config needs f64 (8, 8)"),
            ("layers.0.ln1_gamma", lambda w: w.astype(np.float32), "float32"),
            ("layers.0.conv1_w", lambda w: w[:2], "config needs f64 (3, 8, 12)"),
            ("proj_w", with_nan_at_2_1, "non-finite value at index (2, 1)"),
        ],
        ids=["wide-wo", "f32-gamma", "two-tap-conv", "nan-proj"],
    )
    def test_bad_model_weights_are_format_errors(self, tmp_path, capsys, name, bad, message):
        model_path, cfg = tiny_model_file(tmp_path)
        header, named = io.load_weights(model_path)
        named[name] = bad(named[name])
        io.save_weights(model_path, header, named)
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", self.make_features(tmp_path, cfg),
             "--out", str(tmp_path / "o.ctn")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert name in err and message in err

    def test_non_finite_state_is_format_error(self, tmp_path, capsys):
        cfg = decoder.DecoderConfig(**(TINY_DECODER | {"n_layers": 2}))
        model_path = str(tmp_path / "m.cfpw")
        model = decoder.init_weights(cfg, seed=0)
        decoder.save_model(model_path, model)
        feats = np.random.default_rng(4).standard_normal((8, cfg.d_model))
        _, state = decoder.decode_incremental(feats, model)
        state.layers[1].attn.pk[0][1, 2] = np.inf
        state_path = str(tmp_path / "inf.cfps")
        decoder.save_decoder_state(state_path, state)
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", self.make_features(tmp_path, cfg),
             "--out", str(tmp_path / "o.ctn"), "--state-in", state_path]
        )
        assert code == 3
        assert "layer 1 head 0 key cache: non-finite value at index (1, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk_size", ["30", 0])
    def test_bad_model_header_is_format_error(self, tmp_path, capsys, chunk_size):
        model_path, cfg = tiny_model_file(tmp_path)
        header = cfg.to_dict() | {"chunk_size": chunk_size}
        _, named = io.load_weights(model_path)
        io.save_weights(model_path, header, named)
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", self.make_features(tmp_path, cfg),
             "--out", str(tmp_path / "o.ctn")]
        )
        assert code == 3
        assert "chunk_size" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [b'"chunk_size"', b"layers.0.wk.1"], ids=["config", "name"])
    def test_non_utf8_model_text_is_format_error(self, tmp_path, capsys, field):
        # one byte of a config key or of a tensor name made invalid UTF-8
        model_path, cfg = tiny_model_file(tmp_path)
        with open(model_path, "rb") as f:
            data = f.read()
        assert data.count(field) == 1
        with open(model_path, "wb") as f:
            f.write(data.replace(field, field[:1] + b"\xff" + field[2:]))
        code = cli.cli_dispatch(
            ["synth", "--model", model_path, "--features", self.make_features(tmp_path, cfg),
             "--out", str(tmp_path / "o.ctn")]
        )
        assert code == 3
        assert "utf-8" in capsys.readouterr().err.lower()

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        feats_path = str(tmp_path / "f.ctn")
        io.save_tensor(feats_path, np.zeros((4, 8)))
        code = cli.cli_dispatch(
            ["synth", "--model", str(tmp_path / "no.cfpw"), "--features", feats_path,
             "--out", str(tmp_path / "o.ctn")]
        )
        assert code == 3


class TestTrainCommand:
    def test_train_writes_model_and_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        model_out = str(tmp_path / "trained.cfpw")
        log_out = str(tmp_path / "log.json")
        code = cli.cli_dispatch(
            ["train", "--config", cfg, "--steps", "3", "--seed", "7",
             "--mask", "dynamic", "--out", model_out, "--log", log_out]
        )
        assert code == 0
        model = decoder.load_model(model_out)
        assert model.config == decoder.DecoderConfig(**TINY_DECODER)
        log = json.loads(open(log_out).read())
        assert len(log["steps"]) == 3
        assert log["train"]["regime"] == "dynamic"
        assert log["train"]["seed"] == 7
        assert "initial_loss" in log and "final_loss" in log
        assert "trained 3 steps" in capsys.readouterr().err

    def test_zero_steps_log_holds_null_losses(self, tmp_path, capsys):
        def refuse(name):
            raise ValueError(f"log holds {name}")

        log_out = str(tmp_path / "log.json")
        code = cli.cli_dispatch(
            ["train", "--config", write_config(tmp_path), "--steps", "0",
             "--out", str(tmp_path / "m.cfpw"), "--log", log_out]
        )
        assert code == 0
        log = json.loads(open(log_out).read(), parse_constant=refuse)
        assert log["initial_loss"] is None and log["final_loss"] is None
        assert log["steps"] == []
        err = capsys.readouterr().err
        assert "trained 0 steps" in err and "nan" not in err


class TestReportCommands:
    def test_equiv_default_grid(self, tmp_path):
        out = str(tmp_path / "equiv.json")
        assert cli.cli_dispatch(["equiv", "--seeds", "1", "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["ok"] is True
        assert doc["n_cells"] >= 300
        assert doc["max_abs_diff"] <= 1e-9

    def test_equiv_takes_no_config(self, tmp_path, capsys):
        # the sweep runs its own grid, so a config file would be ignored
        assert cli.cli_dispatch(["equiv", "--config", write_config(tmp_path)]) == 2

    def test_bench_json(self, tmp_path):
        model_path, _cfg = tiny_model_file(tmp_path)
        out = str(tmp_path / "bench.json")
        code = cli.cli_dispatch(
            ["bench", "--model", model_path, "--frames", "23", "--repeats", "1", "--out", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["total_frames"] == 23
        assert doc["rtf_incremental"] > 0
        assert len(doc["per_chunk_median_ms"]) == 6

    def test_study_csv_and_json(self, tmp_path):
        cfg = write_config(tmp_path, train={"steps": 1, "frames": 12, "batch_size": 1})
        out_csv = str(tmp_path / "study.csv")
        out_json = str(tmp_path / "study.json")
        code = cli.cli_dispatch(
            ["study", "--config", cfg, "--seeds", "1", "--out", out_csv, "--json", out_json]
        )
        assert code == 0
        lines = open(out_csv).read().strip().split("\n")
        assert lines[0] == "regime,c30_p0,c30_p5,c30_p15,c30_p30,c30_p60,c30_p90,c30_pall"
        assert len(lines) == 6  # header + 4 static regimes + dynamic
        doc = json.loads(open(out_json).read())
        assert doc["rows"][-1] == "dynamic"
        assert len(doc["mean_msd"]) == 5

    def test_ablate_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "abl.json")
        code = cli.cli_dispatch(
            ["ablate", "--config", cfg, "--mode", "drop_kv", "--seeds", "2", "--out", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["mode"] == "drop_kv"
        assert len(doc["max_abs_diff"]) == 2
        assert doc["frac_broken"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--repeats", "0", "--frames", "30"],
            ["equiv", "--seeds", "0"],
            ["ablate", "--seeds", "0", "--mode", "drop_kv"],
            ["study", "--seeds", "0"],
        ],
        ids=["bench", "equiv", "ablate", "study"],
    )
    def test_count_that_checks_nothing_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.cli_dispatch(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


@cache
def valid_synth_inputs() -> dict[str, bytes]:
    """The bytes of a valid model, feature and state file for one tiny
    `synth --state-in` run."""
    cfg = decoder.DecoderConfig(**TINY_DECODER)
    model = decoder.init_weights(cfg, seed=0)
    rng = np.random.default_rng(5)
    _, state = decoder.decode_incremental(rng.standard_normal((6, cfg.d_model)), model)
    with tempfile.TemporaryDirectory() as d:
        paths = {"model": f"{d}/m.cfpw", "features": f"{d}/f.ctn1", "state": f"{d}/s.cfps"}
        decoder.save_model(paths["model"], model)
        io.save_tensor(paths["features"], rng.standard_normal((9, cfg.d_model)))
        decoder.save_decoder_state(paths["state"], state)
        return {k: Path(p).read_bytes() for k, p in paths.items()}


MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("insert"), st.integers(0, 2**20), st.binary(min_size=1, max_size=9)),
)


def mutate(data: bytes, mutation) -> bytes:
    kind, at = mutation[0], mutation[1] % (len(data) + 1)
    if kind == "flip":
        at %= len(data)
        return data[:at] + bytes([data[at] ^ (1 << mutation[2])]) + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + mutation[2] + data[at:]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["model", "features", "state"]), mutation=MUTATIONS)
def test_mutated_input_file_exits_0_with_finite_mel_or_3(target, mutation):
    """A flipped, cut or grown CTN1, CFPW or CFPS file either decodes to a
    finite Mel or is refused as a file error. The one other exit is the
    documented usage error for non-finite features (exit 2)."""
    files = valid_synth_inputs() | {}
    files[target] = mutate(files[target], mutation)
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            Path(d, name).write_bytes(data)
        out = Path(d, "mel.ctn1")
        argv = ["synth", "--model", f"{d}/model", "--features", f"{d}/features",
                "--state-in", f"{d}/state", "--out", str(out)]
        code = cli.cli_dispatch(argv)
        if code == 0:
            assert np.isfinite(io.load_tensor(str(out))).all()
        elif code == 2:
            assert target == "features" and not np.isfinite(io.load_tensor(f"{d}/features")).all()
        else:
            assert code == 3
