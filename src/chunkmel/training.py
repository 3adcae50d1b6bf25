"""Toy-scale constrained-mask training on a synthetic streaming task.

The task is deliberately small and frame-local: targets mix the current
input frame with two lagged, linearly transformed copies (3 and 8 frames
back, zero-padded history), so any receptive field of 9+ frames can solve
it and differences between mask regimes come from the masks, not task
difficulty. Targets are scaled into [-4, 4].

Training runs the parallel masked forward under either a fixed (static)
mask, built from the decoder config's chunk_size and past_size, or a
per-sample random (dynamic) mask, with Adam, coupled L2 weight
decay, and global-norm gradient clipping. Everything is seeded; a run
reproduces bit for bit on the same machine and BLAS build, with one BLAS
thread or two. It is not promised to across machines: the backward
products run on BLAS, and an OpenBLAS built with DYNAMIC_ARCH picks its
kernels for the processor it runs on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff, decoder, masks, tensor

LAG_TAPS = ((0, 1.0), (3, 0.5), (8, 0.25))
# Input sinusoid frequencies, rad/frame; see `make_task` for the band.
FREQ_RANGE = (0.3, 2.8)
# Held-out utterances per seed that score each mask-study cell.
STUDY_EVAL_BATCH = 4


class TrainingError(RuntimeError):
    """Training aborted; the message carries the diagnostic."""


@dataclass
class SyntheticTask:
    """Seeded generator state: sinusoid inputs, fixed linear target map."""

    d_model: int
    mel_bins: int
    seed: int
    mix_a: np.ndarray
    mix_b: np.ndarray
    target_scale: float


def make_task(d_model: int, mel_bins: int, seed: int) -> SyntheticTask:
    """Draw the mixing matrices and derive the [-4, 4] target scale.

    Inputs are bounded by 1 per dim, so |target| <= cA * (1 + 0.75 * cB)
    before scaling, with cA, cB the max column L1 norms. Dividing 4 by
    that bound guarantees the standardized range.

    The FREQ_RANGE band is broadband on purpose: with frequencies up to
    2.8 rad/frame the lagged copies at 3 and 8 frames decorrelate from
    their neighbors, so a model must attend to those frames rather than
    interpolate, and attending outside the trained window costs accuracy.
    """
    rng = np.random.default_rng(seed)
    mix_a = rng.uniform(-1.0, 1.0, size=(d_model, mel_bins))
    mix_b = rng.uniform(-1.0, 1.0, size=(d_model, d_model))
    c_a = float(np.max(np.sum(np.abs(mix_a), axis=0)))
    c_b = float(np.max(np.sum(np.abs(mix_b), axis=0)))
    bound = c_a * (1.0 + 0.75 * c_b)
    return SyntheticTask(
        d_model=d_model,
        mel_bins=mel_bins,
        seed=seed,
        mix_a=mix_a,
        mix_b=mix_b,
        target_scale=4.0 / bound,
    )


def generate_batch(
    task: SyntheticTask, t: int, batch: int, rng: np.random.Generator, dtype: str = "f64"
) -> tuple[np.ndarray, np.ndarray]:
    """(features, targets) of shapes (batch, T, d_model), (batch, T, mel).

    Each feature dim is a sum of 4 random-frequency, random-phase
    sinusoids of amplitude 0.25. Targets apply the task's lag taps to B
    and project through A, frame for frame.
    """
    lo, hi = FREQ_RANGE
    omega = rng.uniform(lo, hi, size=(batch, task.d_model, 4))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(batch, task.d_model, 4))
    steps = np.arange(t, dtype=np.float64)
    # (batch, d, 4, T) -> sum over the 4 components -> (batch, T, d)
    waves = 0.25 * np.sin(omega[..., None] * steps + phase[..., None])
    feats = waves.sum(axis=2).transpose(0, 2, 1)
    d = task.d_model
    # the per-frame product commutes with the lag, so one product over
    # every frame of the batch serves each lagged tap
    through_b = (feats.reshape(batch * t, d) @ task.mix_b).reshape(batch, t, d)
    mixed = np.zeros((batch, t, d))
    for lag, gain in LAG_TAPS:
        term = feats if lag == 0 else through_b
        mixed[:, lag:] += gain * term[:, : max(t - lag, 0)]
    targets = (mixed.reshape(batch * t, d) @ task.mix_a).reshape(batch, t, task.mel_bins)
    targets *= task.target_scale
    dt = tensor.DTYPES[dtype]
    return feats.astype(dt), targets.astype(dt)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-6
    batch_size: int = 8
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    steps: int = 2000
    seed: int = 0
    regime: str = "static"
    policy: masks.DynamicMaskPolicy = field(default_factory=masks.DynamicMaskPolicy)
    frames: int = 96

    def __post_init__(self):
        if self.lr < 0 or self.steps < 0 or self.batch_size < 1:
            raise ValueError("lr and steps must be non-negative, batch_size >= 1")
        # written so that a NaN fails too
        ranges = {
            "frames": self.frames >= 1,
            "beta1": 0 <= self.beta1 < 1,
            "beta2": 0 <= self.beta2 < 1,
            "eps": self.eps > 0,
            "weight_decay": self.weight_decay >= 0,
            "clip_norm": self.clip_norm > 0,
        }
        bad = [name for name, ok in ranges.items() if not ok]
        if bad:
            raise ValueError(
                f"train config fields out of range: {', '.join(f'{n}={getattr(self, n)!r}' for n in bad)} "
                "(need frames >= 1, beta1 and beta2 in [0, 1), eps > 0, weight_decay >= 0, clip_norm > 0)"
            )
        if self.regime not in ("static", "dynamic"):
            raise ValueError(f"regime must be static or dynamic, got {self.regime!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return decoder.config_from_doc(cls, doc, "train config")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        step=0,
    )


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        g = g.astype(np.float64, copy=False)
        total += float(np.sum(g * g))
    return math.sqrt(total)


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    opt: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState, dict]:
    """Clip by global norm, add coupled L2 decay, apply one Adam step.

    Functional: returns fresh parameter and moment dicts. The decay term
    is added after clipping so the reported norm describes the raw loss
    gradient.
    """
    norm = global_grad_norm(grads)
    clipped = norm > cfg.clip_norm
    scale = cfg.clip_norm / norm if clipped else 1.0
    t = opt.step + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name] * p.dtype.type(scale)
        if cfg.weight_decay:
            g = g + p.dtype.type(cfg.weight_decay) * p
        m = cfg.beta1 * opt.m[name] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * opt.v[name] + (1.0 - cfg.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        new_params[name] = p - p.dtype.type(cfg.lr) * update
        new_m[name], new_v[name] = m, v
    info = {"grad_norm": norm, "clipped": clipped}
    return new_params, AdamState(m=new_m, v=new_v, step=t), info


def _sample_masks(
    t: int, batch: int, train_cfg: TrainConfig, dec_cfg: decoder.DecoderConfig, rng
) -> list[masks.ChunkMask]:
    if train_cfg.regime == "static":
        return [masks.build_static_mask(t, dec_cfg.chunk_size, dec_cfg.past_size)] * batch
    return [masks.sample_dynamic_mask(t, train_cfg.policy, rng) for _ in range(batch)]


def train_step(
    params: dict[str, np.ndarray],
    dec_cfg: decoder.DecoderConfig,
    train_cfg: TrainConfig,
    features: np.ndarray,
    targets: np.ndarray,
    batch_masks: list[masks.ChunkMask],
    opt: AdamState,
) -> tuple[float, dict[str, np.ndarray], AdamState, dict]:
    """One optimizer step on one batch; loss is MSE over frames and bins.

    Each sample runs the masked parallel forward under its own mask. The
    backward seed is the analytic dLoss/dprediction, so the scalar loss
    arithmetic stays outside the tape.
    """
    batch = features.shape[0]
    total_loss = 0.0
    grand: dict[str, np.ndarray] | None = None
    for s in range(batch):
        mask = batch_masks[s]

        def program(ops, inputs, p):
            return decoder.forward_named(ops, inputs, p, dec_cfg, mask)

        pred, tape = autodiff.forward_record(program, features[s], params)
        diff = pred - targets[s]
        sample_loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)
        total_loss += sample_loss
        seed = (2.0 / (diff.size * batch)) * diff
        grads = autodiff.backward(tape, seed.astype(pred.dtype))
        if grand is None:
            grand = grads
        else:
            for name in grand:
                grand[name] = grand[name] + grads[name]
    loss = total_loss / batch
    if not math.isfinite(loss):
        raise TrainingError(
            f"non-finite loss {loss!r} at optimizer step {opt.step + 1}; "
            f"grad norm so far {global_grad_norm(grand or {}):.3e}"
        )
    assert grand is not None
    new_params, new_opt, info = adam_update(params, grand, opt, train_cfg)
    return loss, new_params, new_opt, info


@dataclass
class TrainResult:
    model: decoder.ModelWeights
    log: list[dict]
    initial_loss: float | None  # None after zero steps: there is no loss
    final_loss: float | None


def train(
    dec_cfg: decoder.DecoderConfig,
    train_cfg: TrainConfig,
    task: SyntheticTask | None = None,
) -> TrainResult:
    """Full training loop; returns the trained model and a per-step log.

    One generator seeded by train_cfg.seed drives init, data, and mask
    draws, so a (config, seed) pair pins the whole run.
    """
    if task is None:
        task = make_task(dec_cfg.d_model, dec_cfg.mel_bins, seed=train_cfg.seed + 7919)
    model = decoder.init_weights(dec_cfg, seed=train_cfg.seed)
    params = decoder.weights_to_named(model)
    opt = adam_init(params)
    rng = np.random.default_rng(train_cfg.seed + 1)
    log: list[dict] = []
    for step in range(train_cfg.steps):
        feats, targs = generate_batch(
            task, train_cfg.frames, train_cfg.batch_size, rng, dtype=dec_cfg.dtype
        )
        batch_masks = _sample_masks(
            train_cfg.frames, train_cfg.batch_size, train_cfg, dec_cfg, rng
        )
        loss, params, opt, info = train_step(
            params, dec_cfg, train_cfg, feats, targs, batch_masks, opt
        )
        log.append(
            {
                "step": step,
                "loss": loss,
                "grad_norm": info["grad_norm"],
                "clipped": info["clipped"],
                "masks": [[m.chunk_size, m.past_size] for m in batch_masks],
            }
        )
    final_model = decoder.ModelWeights(dec_cfg, params)
    return TrainResult(
        model=final_model,
        log=log,
        initial_loss=log[0]["loss"] if log else None,
        final_loss=log[-1]["loss"] if log else None,
    )


# ---------------------------------------------------------------------------
# Mask study (train regimes x inference configs).


@dataclass
class StudyTable:
    """Distance table: one row per training regime, one column per
    inference config, averaged over seeds; raw per-seed values kept."""

    row_labels: list[str]
    col_labels: list[str]
    mean_msd: np.ndarray
    per_seed: dict[str, dict[str, list[float]]]
    seeds: list[int]
    trend: dict

    def to_csv(self) -> str:
        lines = ["regime," + ",".join(self.col_labels)]
        for r, label in enumerate(self.row_labels):
            cells = ",".join(f"{v:.6f}" for v in self.mean_msd[r])
            lines.append(f"{label},{cells}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "rows": self.row_labels,
            "cols": self.col_labels,
            "mean_msd": self.mean_msd.tolist(),
            "per_seed": self.per_seed,
            "seeds": self.seeds,
            "trend": self.trend,
        }


def _regime_label(regime) -> str:
    kind = regime[0]
    if kind == "static":
        return f"static_c{regime[1]}_p{regime[2]}"
    return "dynamic"


def _infer_label(cfg) -> str:
    return f"c{cfg[0]}_p{cfg[1]}"


def run_mask_study(
    dec_cfg: decoder.DecoderConfig,
    train_regimes: list[tuple],
    infer_configs: list[tuple[int, int | str]],
    steps: int,
    seeds: list[int],
    frames: int = 96,
) -> StudyTable:
    """Train one model per (regime, seed), decode under each inference
    config, and score against the task's ground-truth targets.

    Regimes are ("static", chunk, past), trained with the decoder config's
    chunk and past sizes set to those, or ("dynamic",). The trend block
    compares each static regime's matched inference column against its
    most past-mismatched column (|past difference| >= 85 frames), the
    quantity the study exists to expose.
    """
    from . import evaluation

    if not seeds:
        raise ValueError("mask study needs at least one seed")
    row_labels = [_regime_label(r) for r in train_regimes]
    col_labels = [_infer_label(c) for c in infer_configs]
    table = np.zeros((len(train_regimes), len(infer_configs)))
    per_seed: dict[str, dict[str, list[float]]] = {
        r: {c: [] for c in col_labels} for r in row_labels
    }
    for seed in seeds:
        task = make_task(dec_cfg.d_model, dec_cfg.mel_bins, seed=9001 + seed)
        eval_rng = np.random.default_rng(4242 + seed)
        eval_feats, eval_targs = generate_batch(
            task, frames, STUDY_EVAL_BATCH, eval_rng, dtype=dec_cfg.dtype
        )
        for r, regime in enumerate(train_regimes):
            train_dec = dec_cfg
            if regime[0] == "static":
                train_dec = replace(dec_cfg, chunk_size=regime[1], past_size=regime[2])
            tc = TrainConfig(steps=steps, seed=seed, regime=regime[0], frames=frames)
            result = train(train_dec, tc, task=task)
            for c, (infer_chunk, infer_past) in enumerate(infer_configs):
                infer_cfg = replace(dec_cfg, chunk_size=infer_chunk, past_size=infer_past)
                infer_model = replace(result.model, config=infer_cfg)
                values = []
                for s in range(STUDY_EVAL_BATCH):
                    chunks, _ = decoder.decode_incremental(eval_feats[s], infer_model)
                    mel = np.concatenate(chunks, axis=0)
                    values.append(evaluation.msd(mel, eval_targs[s]))
                score = float(np.mean(values))
                table[r, c] += score / len(seeds)
                per_seed[row_labels[r]][col_labels[c]].append(score)

    trend = {"comparisons": [], "majority_holds": None}
    wins, contests = 0, 0
    for r, regime in enumerate(train_regimes):
        if regime[0] != "static":
            continue
        matched_label = _infer_label((regime[1], regime[2]))
        if matched_label not in col_labels or not isinstance(regime[2], (int, np.integer)):
            continue
        mismatched = [
            c
            for c in infer_configs
            if isinstance(c[1], (int, np.integer)) and abs(c[1] - regime[2]) >= 85
        ]
        if not mismatched:
            continue
        worst = max(mismatched, key=lambda c: abs(c[1] - regime[2]))
        worst_label = _infer_label(worst)
        matched_vals = per_seed[row_labels[r]][matched_label]
        worst_vals = per_seed[row_labels[r]][worst_label]
        seat_wins = sum(1 for a, b in zip(matched_vals, worst_vals) if a < b)
        wins += seat_wins
        contests += len(matched_vals)
        trend["comparisons"].append(
            {
                "regime": row_labels[r],
                "matched": matched_label,
                "mismatched": worst_label,
                "matched_msd": matched_vals,
                "mismatched_msd": worst_vals,
                "seed_wins": seat_wins,
                "seeds": len(matched_vals),
            }
        )
    if contests:
        trend["majority_holds"] = wins * 2 > contests
    return StudyTable(
        row_labels=row_labels,
        col_labels=col_labels,
        mean_msd=table,
        per_seed=per_seed,
        seeds=list(seeds),
        trend=trend,
    )
