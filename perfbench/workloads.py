"""The three workloads: inputs made from the seed, timed rounds, output checks.

Every operation is timed alone with a monotonic clock; input generation
and output checks sit outside the timed calls. A round is a fixed list of
operations, so a run always attempts whole rounds. The package is driven
only through its public functions, looked up on the module at call time
so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks
from chunkmel import autodiff, decoder, evaluation, masks, training

KINDS = ("stream", "parallel", "train")
CFG = decoder.DecoderConfig()  # 2 layers, 2 heads, d_model 32, chunk 30, past 15
REGIMES = ("static", "dynamic")

# Utterance lengths per round: a fixed ladder, each length moved by a
# seeded jitter of up to JITTER frames, in seeded order. The ladder keeps
# the work per round, and so the medians, the same across seeds.
STREAM_LADDER = tuple(150 + 40 * i for i in range(8))  # 150 .. 430 frames
PARALLEL_LADDER = (300, 533, 767, 1000)
JITTER = 8
GRAD_COORDS = 6  # finite-difference coordinates per gradient check


# What the package raises on a failed operation (ShapeError, MaskError and
# FormatError are ValueErrors; TrainingError is a RuntimeError).
OP_ERRORS = (ValueError, RuntimeError, OSError)


def _rng(seed: int, kind: str, round_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed, KINDS.index(kind), round_idx])


def _length(ladder, rung: int, rng) -> int:
    return ladder[rung] + int(rng.integers(-JITTER, JITTER + 1))


def stream_inputs(seed: int, round_idx: int) -> list[tuple[np.ndarray, int]]:
    """(features, handoff chunk) per utterance; features are N(0, 1). The
    handoff resumes on a full chunk, never the first."""
    rng = _rng(seed, "stream", round_idx)
    out = []
    for rung in rng.permutation(len(STREAM_LADDER)):
        n = _length(STREAM_LADDER, rung, rng)
        out.append((rng.standard_normal((n, CFG.d_model)), int(rng.integers(1, n // CFG.chunk_size))))
    return out


def parallel_inputs(seed: int, round_idx: int) -> list[tuple[int, np.ndarray]]:
    """(ladder rung, features) per utterance, in seeded order; features N(0, 1)."""
    rng = _rng(seed, "parallel", round_idx)
    out = []
    for rung in rng.permutation(len(PARALLEL_LADDER)):
        n = _length(PARALLEL_LADDER, rung, rng)
        out.append((int(rung), rng.standard_normal((n, CFG.d_model))))
    return out


@dataclass
class Trainer:
    """One optimizer run, stepped the way `training.train` steps it."""

    cfg: training.TrainConfig
    params: dict
    opt: object
    rng: np.random.Generator
    losses: list = field(default_factory=list)


@dataclass
class Context:
    kind: str
    seed: int
    model: decoder.ModelWeights
    named: dict
    workdir: str
    first_inputs: object = None
    task: object = None
    trainers: dict = field(default_factory=dict)


def setup(kind: str, seed: int, model_path: str, workdir: str) -> Context:
    """Load the model from its CFPW file and make the first round's inputs."""
    model = decoder.load_model(model_path)
    ctx = Context(kind, seed, model, decoder.weights_to_named(model), workdir)
    if kind == "stream":
        ctx.first_inputs = stream_inputs(seed, 0)
    elif kind == "parallel":
        ctx.first_inputs = parallel_inputs(seed, 0)
    else:
        ctx.task = training.make_task(CFG.d_model, CFG.mel_bins, seed=seed + 7919)
        for r, regime in enumerate(REGIMES):
            cfg = training.TrainConfig(regime=regime, seed=seed)
            params = dict(ctx.named)
            ctx.trainers[regime] = Trainer(
                cfg, params, training.adam_init(params), np.random.default_rng([seed, r])
            )
    return ctx


_CAL_A = np.random.default_rng(0).standard_normal((30, 32))
_CAL_B = np.random.default_rng(1).standard_normal((32, 16))
CAL_REPEATS = 5


def _calibration_kernel() -> np.ndarray:
    for _ in range(20):
        x = np.einsum("ik,kj->ij", _CAL_A, _CAL_B)
        y = np.concatenate([x, x], axis=1)
        e = np.exp(y - y.max(axis=1, keepdims=True))
        out = e / e.sum(axis=1, keepdims=True)
    return out


def calibrate() -> float:
    """Median ms of a fixed NumPy routine the package never runs.

    Its work is the kind a chunk step does (small einsums, concatenation,
    an exp-normalise, interpreter overhead per call), so it slows down and
    speeds up with the host as the package's operations do.
    """
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter_ns()
        _calibration_kernel()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return float(np.median(times))


class Recorder:
    """Per-key timings of one run, each also divided by the calibration time
    measured right after its round (its cost, in calibration units); traced
    rounds kept apart. Operations attempted and failed per kind."""

    def __init__(self):
        self.ms = defaultdict(list)
        self.cost = defaultdict(list)
        self.traced_cost = defaultdict(list)
        self.calib_ms = []
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)
        self._round = []

    def add(self, key: str, ms: float, traced: bool) -> None:
        self._round.append((key, ms, traced))

    def end_round(self, calib_ms: float) -> None:
        self.calib_ms.append(calib_ms)
        for key, ms, traced in self._round:
            if traced:
                self.traced_cost[key].append(ms / calib_ms)
            else:
                self.ms[key].append(ms)
                self.cost[key].append(ms / calib_ms)
        self._round = []


def _timed(tr, root: str, fn, *args):
    """Call fn(*args), under a root span when traced; return (result, ms)."""
    i = tr.open(root) if tr is not None else None
    try:
        t0 = time.perf_counter_ns()
        out = fn(*args)
        ms = (time.perf_counter_ns() - t0) / 1e6
    finally:
        if i is not None:
            tr.close(i)
    return out, ms


def stream_round(ctx: Context, inputs, rec: Recorder, tr=None) -> None:
    """Each utterance fed chunk by chunk from a fresh state, handed off once
    through a state file at a chunk boundary, then checked whole."""
    model, c = ctx.model, CFG.chunk_size
    traced = tr is not None
    path = os.path.join(ctx.workdir, "handoff.cfps")
    for feats, handoff in inputs:
        rec.attempted["stream"] += 1
        try:
            state = decoder.init_state(CFG)
            mels, utt_ms = [], 0.0
            for k, start in enumerate(range(0, len(feats), c)):
                load_ms = 0.0
                if k == handoff:
                    _timed(tr, "stream.save", decoder.save_decoder_state, path, state)
                    state, load_ms = _timed(tr, "stream.load", decoder.load_decoder_state, path, CFG)
                chunk = feats[start : start + c]
                (mel, state), ms = _timed(tr, "stream.chunk", decoder.decode_chunk, chunk, model, state)
                checks.check_state(state, start + len(chunk), CFG)
                mels.append(mel)
                utt_ms += ms
                if k == 0:
                    rec.add("first_chunk", ms, traced)
                elif len(chunk) == c:  # latency statistics over full chunks only
                    rec.add("chunk", ms, traced)
                if k == handoff:
                    rec.add("resume", load_ms + ms, traced)
            rec.add("stream_rtf", utt_ms / evaluation.audio_duration_s(len(feats)), traced)
        except OP_ERRORS as e:
            rec.failed["stream"] += 1
            print(f"stream operation failed: {type(e).__name__}: {e}", flush=True)
            continue
        checks.check_stream(np.concatenate(mels), feats, model, ctx.named)


def parallel_round(ctx: Context, inputs, rec: Recorder, tr=None) -> None:
    """Static mask plus masked whole-sequence decode, as `synth --mode parallel`."""

    def decode(feats):
        mask = masks.build_static_mask(len(feats), CFG.chunk_size, CFG.past_size)
        return decoder.decode_parallel_masked(feats, ctx.model, mask)

    round_ms, round_frames = 0.0, 0
    for rung, feats in inputs:
        rec.attempted["parallel"] += 1
        try:
            mel, ms = _timed(tr, "parallel.utterance", decode, feats)
        except OP_ERRORS as e:
            rec.failed["parallel"] += 1
            print(f"parallel operation failed: {type(e).__name__}: {e}", flush=True)
            continue
        rec.add("parallel", ms, tr is not None)
        round_ms += ms
        round_frames += len(feats)
        checks.check_reference(mel, feats, ctx.named, CFG, CFG.chunk_size, CFG.past_size)
    if round_frames:
        rec.add("parallel_per_frame", round_ms / round_frames, tr is not None)


def _train_step(ctx: Context, tn: Trainer):
    """One iteration of the `training.train` loop: batch, masks, step."""
    t, b = tn.cfg.frames, tn.cfg.batch_size
    feats, targs = training.generate_batch(ctx.task, t, b, tn.rng, dtype=CFG.dtype)
    if tn.cfg.regime == "static":
        batch_masks = [masks.build_static_mask(t, CFG.chunk_size, CFG.past_size)] * b
    else:
        batch_masks = [masks.sample_dynamic_mask(t, tn.cfg.policy, tn.rng) for _ in range(b)]
    loss, tn.params, tn.opt, _ = training.train_step(
        tn.params, CFG, tn.cfg, feats, targs, batch_masks, tn.opt
    )
    return loss, feats, targs, batch_masks


def train_round(ctx: Context, round_idx: int, rec: Recorder, tr=None) -> None:
    """One step per regime; then one sample's tape gradient, of the regime
    the round index picks, is checked by finite differences."""
    for regime in REGIMES:
        tn = ctx.trainers[regime]
        rec.attempted["train"] += 1
        try:
            (loss, feats, targs, batch_masks), ms = _timed(tr, "train.step", _train_step, ctx, tn)
        except OP_ERRORS as e:
            rec.failed["train"] += 1
            print(f"train operation failed: {type(e).__name__}: {e}", flush=True)
            continue
        rec.add(f"train.{regime}", ms, tr is not None)
        tn.losses.append(loss)
        if regime == REGIMES[round_idx % len(REGIMES)]:
            gradient_check(tn, feats[0], targs[0], batch_masks[0], _rng(ctx.seed, "train", round_idx))


def tape_gradient(params, features, targets, mask):
    """One sample's gradient of its MSE, recorded on the package's tape."""

    def program(ops, inputs, p):
        return decoder.forward_named(ops, inputs, p, CFG, mask)

    pred, tape = autodiff.forward_record(program, features, params)
    diff = pred - targets
    return autodiff.backward(tape, (2.0 / diff.size) * diff)


def gradient_coords(params, rng, n: int = GRAD_COORDS) -> list[tuple[str, tuple]]:
    names = sorted(params)
    coords = []
    for _ in range(n):
        name = names[int(rng.integers(len(names)))]
        coords.append((name, tuple(int(rng.integers(s)) for s in params[name].shape)))
    return coords


def gradient_check(tn: Trainer, features, targets, mask, rng) -> None:
    grads = tape_gradient(tn.params, features, targets, mask)
    coords = gradient_coords(tn.params, rng)
    checks.check_gradient(
        grads, features, targets, tn.params, CFG, mask.chunk_size, mask.past_size, coords
    )


def run_round(ctx: Context, round_idx: int, rec: Recorder, tr=None) -> None:
    if ctx.kind == "stream":
        inputs = ctx.first_inputs if round_idx == 0 else stream_inputs(ctx.seed, round_idx)
        stream_round(ctx, inputs, rec, tr)
    elif ctx.kind == "parallel":
        inputs = ctx.first_inputs if round_idx == 0 else parallel_inputs(ctx.seed, round_idx)
        parallel_round(ctx, inputs, rec, tr)
    else:
        train_round(ctx, round_idx, rec, tr)


def end_to_end(rec: Recorder) -> dict[str, tuple[float, str]]:
    """The gated metrics: name -> (value, unit).

    Times are in calibration units (`calib`): each operation's time over
    the calibration time measured right after its round. The host's speed
    moves by half between phases here and both move together, so the
    quotient holds steady where the milliseconds do not.
    """
    med = lambda key: float(np.median(rec.cost[key]))
    return {
        "first_chunk_cost": (med("first_chunk"), "calib"),
        "chunk_cost_p50": (med("chunk"), "calib"),
        "stream_rtf_cost": (med("stream_rtf"), "calib/s"),
        "resume_cost": (med("resume"), "calib"),
        "parallel_frames_per_calib": (1.0 / med("parallel_per_frame"), "frames/calib"),
        "train_step_cost.static": (med("train.static"), "calib"),
        "train_step_cost.dynamic": (med("train.dynamic"), "calib"),
    }


def ungated(rec: Recorder) -> dict[str, tuple[float, str, int]]:
    """The operations in plain milliseconds and the chunk tail, printed and
    not gated: name -> (value, unit, samples). Across seeds their spread was
    0.2 to 0.5 of the median here."""
    med = lambda key: float(np.median(rec.ms[key]))
    n = lambda key: len(rec.ms[key])
    return {
        "calibration_ms_p50": (float(np.median(rec.calib_ms)), "ms", len(rec.calib_ms)),
        "first_chunk_ms_p50": (med("first_chunk"), "ms", n("first_chunk")),
        "chunk_ms_p50": (med("chunk"), "ms", n("chunk")),
        "chunk_ms_p99": (float(np.percentile(rec.ms["chunk"], 99)), "ms", n("chunk")),
        "chunk_cost_p99": (float(np.percentile(rec.cost["chunk"], 99)), "calib", n("chunk")),
        "stream_rtf_p50": (med("stream_rtf") / 1000.0, "ratio", n("stream_rtf")),
        "resume_ms_p50": (med("resume"), "ms", n("resume")),
        "parallel_ms_p50": (med("parallel"), "ms", n("parallel")),
        "train_step_ms_p50.static": (med("train.static"), "ms", n("train.static")),
        "train_step_ms_p50.dynamic": (med("train.dynamic"), "ms", n("train.dynamic")),
    }


# Per kind, the samples whose median gives the tracing overhead; parallel
# uses the per-frame cost of a round, since one utterance's cost depends on
# its ladder rung.
PRIMARY = {"stream": ("first_chunk", "chunk"), "parallel": ("parallel_per_frame",), "train": ("train.static", "train.dynamic")}


def tracing_overhead_pct(rec: Recorder, kind: str) -> float:
    """Median operation cost of traced rounds over untraced rounds, minus one."""
    plain = [v for k in PRIMARY[kind] for v in rec.cost[k]]
    traced = [v for k in PRIMARY[kind] for v in rec.traced_cost[k]]
    return 100.0 * (float(np.median(traced)) / float(np.median(plain)) - 1.0)
