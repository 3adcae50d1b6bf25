"""Command-line entry point: one binary, one subcommand per capability.

Exit codes: 0 success, 1 check failure (an asserted property did not
hold), 2 usage error, 3 I/O or file-format error. Human diagnostics go to
stderr; machine output (JSON, CSV, tensors) goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import decoder, evaluation, io, masks, training

RUN_CONFIG_SCHEMA = 1


def default_run_config() -> dict:
    return {
        "schema": RUN_CONFIG_SCHEMA,
        "decoder": decoder.DecoderConfig().to_dict(),
        "train": training.TrainConfig().to_dict(),
    }


def parse_run_config(doc: dict) -> tuple[decoder.DecoderConfig, training.TrainConfig]:
    if not isinstance(doc, dict):
        raise ValueError("run config must be a JSON object")
    if doc.get("schema") != RUN_CONFIG_SCHEMA:
        raise ValueError(f"unsupported config schema {doc.get('schema')!r}, expected {RUN_CONFIG_SCHEMA}")
    unknown = set(doc) - {"schema", "decoder", "train"}
    if unknown:
        raise ValueError(f"unknown run config keys: {sorted(unknown)}")
    return (
        decoder.DecoderConfig.from_dict(doc.get("decoder", {})),
        training.TrainConfig.from_dict(doc.get("train", {})),
    )


def load_run_config(path: str | None) -> tuple[decoder.DecoderConfig, training.TrainConfig]:
    if path is None:
        return parse_run_config(default_run_config())
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise io.FormatError(f"{path}: invalid JSON: {e}") from e
    try:
        return parse_run_config(doc)
    except ValueError as e:
        raise io.FormatError(f"{path}: {e}") from e


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _past_value(raw: str) -> int | str:
    if raw == masks.ALL:
        return masks.ALL
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"past must be an integer or {masks.ALL!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("past must be >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chunkmel", description=__doc__)
    parser.add_argument(
        "--dump-config", action="store_true", help="print the full default run config JSON and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("equiv", help="incremental vs parallel equivalence sweep")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--dtype", choices=("f32", "f64"), default="f64")
    p.add_argument("--out", default=None)

    p = sub.add_parser("rf", help="receptive field: closed form and exact traversal")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--chunk", type=int, required=True)
    p.add_argument("--past", type=int, required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("mask", help="dump a chunk attention mask")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--chunk", type=int, required=True)
    p.add_argument("--past", type=_past_value, required=True)
    p.add_argument("--format", choices=("ascii", "pgm"), default="ascii")
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="train the toy model")
    p.add_argument("--config", default=None)
    p.add_argument("--mask", choices=("static", "dynamic"), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)

    p = sub.add_parser("synth", help="decode features to Mel")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=("incremental", "parallel"), default="incremental")
    p.add_argument("--chunk", type=int, default=None)
    p.add_argument("--past", type=_past_value, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--state-out", default=None)
    p.add_argument("--state-in", default=None)

    p = sub.add_parser("bench", help="latency and RTF benchmark")
    p.add_argument("--model", default=None)
    p.add_argument("--frames", type=int, default=600)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("msd", help="spectral distance between two tensors")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mean-squared", action="store_true")

    p = sub.add_parser("study", help="mask regime x inference config table")
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("ablate", help="cache ablation report")
    p.add_argument("--config", default=None)
    p.add_argument("--mode", choices=("drop_kv", "drop_conv", "drop_both"), required=True)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", default=None)
    return parser


def _cmd_equiv(args) -> int:
    report = evaluation.equivalence_sweep(seeds=tuple(range(args.seeds)), dtype=args.dtype)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    if not report.ok:
        print(f"equivalence sweep failed: {len(report.failures)} cells over tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_rf(args) -> int:
    formula = decoder.receptive_field_formula(args.layers, args.past, args.chunk)
    if not args.oracle:
        print(formula)
        return 0
    cfg = decoder.DecoderConfig(
        n_layers=args.layers, chunk_size=args.chunk, past_size=args.past
    )
    report = decoder.receptive_field_oracle(cfg)
    print(
        json.dumps(
            {
                "formula": formula,
                "oracle": report.r_oracle,
                "delta": formula - report.r_oracle,
                "exact_frames": report.r_exact_frames,
            },
            indent=2,
        )
    )
    return 0


def _cmd_mask(args) -> int:
    mask = masks.build_static_mask(args.frames, args.chunk, args.past)
    if args.format == "ascii":
        _emit(mask.ascii() + "\n", args.out)
    else:
        data = mask.pgm()
        if args.out:
            with open(args.out, "wb") as f:
                f.write(data)
        else:
            sys.stdout.buffer.write(data)
    return 0


def _cmd_train(args) -> int:
    dec_cfg, train_cfg = load_run_config(args.config)
    flags = {"regime": args.mask, "steps": args.steps, "seed": args.seed}
    train_cfg = replace(train_cfg, **{k: v for k, v in flags.items() if v is not None})
    result = training.train(dec_cfg, train_cfg)
    decoder.save_model(args.out, result.model)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "initial_loss": result.initial_loss,
                    "final_loss": result.final_loss,
                    "train": train_cfg.to_dict(),
                    "decoder": dec_cfg.to_dict(),
                    "steps": result.log,
                },
                f,
                indent=2,
            )
    if result.log:
        summary = f"loss {result.initial_loss:.6f} -> {result.final_loss:.6f}"
    else:
        summary = "no loss"
    print(f"trained {train_cfg.steps} steps: {summary}", file=sys.stderr)
    return 0


def _cmd_synth(args) -> int:
    model = decoder.load_model(args.model)
    feats = io.load_tensor(args.features)
    cfg = model.config
    if args.chunk is not None or args.past is not None:
        cfg = replace(
            cfg,
            chunk_size=args.chunk if args.chunk is not None else cfg.chunk_size,
            past_size=args.past if args.past is not None else cfg.past_size,
        )
        model = replace(model, config=cfg)
    if args.mode == "incremental":
        state = None
        if args.state_in:
            state = decoder.load_decoder_state(args.state_in, cfg)
        chunks, final_state = decoder.decode_incremental(feats, model, state)
        mel = np.concatenate(chunks, axis=0)
    else:
        if args.state_in or args.state_out:
            print("state snapshots apply to incremental mode only", file=sys.stderr)
            return 2
        mask = masks.build_static_mask(len(feats), cfg.chunk_size, cfg.past_size)
        mel = decoder.decode_parallel_masked(feats, model, mask)
    # finite inputs can still overflow, e.g. a weight or feature near 1e300
    finite = np.isfinite(mel).all(axis=1)
    if not finite.all():
        print(
            f"error: decoded Mel is non-finite from frame {int(np.argmin(finite))}: the model, "
            "features or state hold values too large to decode",
            file=sys.stderr,
        )
        return 3
    if args.state_out:
        decoder.save_decoder_state(args.state_out, final_state)
    io.save_tensor(args.out, mel)
    return 0


def _cmd_bench(args) -> int:
    if args.model:
        model = decoder.load_model(args.model)
    else:
        model = decoder.init_weights(evaluation.DEFAULT_BENCH_CONFIG, seed=args.seed)
    result = evaluation.bench(model, frames=args.frames, repeats=args.repeats, seed=args.seed)
    if args.json or args.out:
        _emit(json.dumps(result.to_dict(), indent=2), args.out)
    else:
        print(
            f"first chunk {result.first_chunk_latency_ms:.3f} ms, "
            f"last chunk {result.last_chunk_latency_ms:.3f} ms, "
            f"parallel {result.parallel_latency_ms:.3f} ms, "
            f"RTF inc {result.rtf_incremental:.5f}, RTF par {result.rtf_parallel:.5f}"
        )
    return 0


def _cmd_msd(args) -> int:
    a = io.load_tensor(args.a)
    b = io.load_tensor(args.b)
    for path, arr in ((args.a, a), (args.b, b)):
        at = decoder._non_finite_at(arr)
        if at is not None:
            raise decoder.NonFiniteInputError(f"{path}: non-finite value at index {at}")
    print(evaluation.msd(a, b, mean_squared=args.mean_squared))
    return 0


def _cmd_study(args) -> int:
    dec_cfg, train_cfg = load_run_config(args.config)
    regimes = [("static", 30, p) for p in (0, 5, 15, 30)] + [("dynamic",)]
    infer = [(30, p) for p in (0, 5, 15, 30, 60, 90)] + [(30, masks.ALL)]
    table = training.run_mask_study(
        dec_cfg,
        regimes,
        infer,
        steps=train_cfg.steps,
        seeds=list(range(args.seeds)),
        frames=train_cfg.frames,
    )
    _emit(table.to_csv(), args.out)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(table.to_dict(), f, indent=2)
    return 0


def _cmd_ablate(args) -> int:
    dec_cfg, _ = load_run_config(args.config)
    report = evaluation.ablation_check(dec_cfg, seeds=list(range(args.seeds)), mode=args.mode)
    _emit(json.dumps(report.to_dict(), indent=2), args.out)
    return 0


_COMMANDS = {
    "equiv": _cmd_equiv,
    "rf": _cmd_rf,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "msd": _cmd_msd,
    "study": _cmd_study,
    "ablate": _cmd_ablate,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.dump_config:
        print(json.dumps(default_run_config(), indent=2))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except training.TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (io.FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
