"""Metrics and measurement: spectral distance, equivalence sweeps, cache
ablations, and latency / real-time-factor benchmarks.

Latency conventions: the first Mel chunk's wall time is the perceived
response latency; the incremental real-time factor divides the summed
per-chunk time of the whole utterance by the duration of the synthesized
audio (hop 256 at 22050 Hz). Absolute
milliseconds depend on the machine; the asserted properties are ratios
and flatness across chunk indices.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import decoder, masks, tensor

HOP_LENGTH = 256
SAMPLE_RATE = 22050

# Small, fast model used by benchmarks and ablations when the caller does
# not supply one; chunk_size 10 gives 60 chunks at the T=600 bench length.
DEFAULT_BENCH_CONFIG = decoder.DecoderConfig(chunk_size=10, past_size=10, mel_bins=80)

# Largest incremental-vs-parallel difference a sweep cell may show, per dtype.
SWEEP_TOL = {"f64": 1e-9, "f32": 1e-4}
SWEEP_MEL_BINS = 8
# An ablated decode differing from the intact one by more than this is broken.
BREAK_TOL = 1e-3


def msd(a: np.ndarray, b: np.ndarray, mean_squared: bool = False) -> float:
    """Spectral distance: mean over frames of the per-frame L2 norm.

    `mean_squared` switches to the plain mean of squared differences
    (a different scale; the default is the documented one).
    """
    if a.shape != b.shape or a.ndim != 2:
        raise tensor.ShapeError(f"msd: shapes {a.shape} and {b.shape} must match, 2-D")
    if len(a) == 0:
        raise tensor.ShapeError(f"msd: no frames to compare in shape {a.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    if mean_squared:
        return float(np.mean(diff * diff))
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=1))))


# ---------------------------------------------------------------------------
# Equivalence sweep.


@dataclass
class SweepCell:
    n_layers: int
    n_heads: int
    d_model: int
    chunk_size: int
    past_size: int
    frames: int
    seed: int
    max_abs_diff: float
    argmax: tuple[int, int]


@dataclass
class SweepReport:
    dtype: str
    tol: float
    cells: list[SweepCell]
    max_abs_diff: float
    failures: list[SweepCell]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "dtype": self.dtype,
            "tol": self.tol,
            "n_cells": len(self.cells),
            "max_abs_diff": self.max_abs_diff,
            "ok": self.ok,
            "failures": [asdict(c) for c in self.failures],
            "elapsed_s": self.elapsed_s,
        }


def default_grid() -> list[tuple[int, int, int, int, int, int]]:
    """(n_layers, n_heads, d_model, chunk, past, frames) tuples, deduped."""
    cells = []
    seen = set()
    for n_layers in (1, 2, 3):
        for n_heads in (1, 2, 4):
            for d_model in (8, 16, 32):
                for chunk in (1, 4, 7, 30):
                    pasts = {0, (chunk + 1) // 2, chunk, 2 * chunk + 1}
                    frames = {1, chunk, 3 * chunk + 2, 50}
                    for past in sorted(pasts):
                        for t in sorted(frames):
                            key = (n_layers, n_heads, d_model, chunk, past, t)
                            if key not in seen:
                                seen.add(key)
                                cells.append(key)
    return cells


def equivalence_sweep(
    grid: list[tuple[int, int, int, int, int, int]] | None = None,
    seeds: tuple[int, ...] = (0,),
    dtype: str = "f64",
) -> SweepReport:
    """Incremental vs masked-parallel max |difference| over a config grid.

    Every cell decodes random features both ways with fresh random
    weights; a cell above tolerance lands in `failures` with its config,
    seed, and argmax position so it can be replayed directly. The
    tolerance is SWEEP_TOL[dtype].
    """
    if dtype not in SWEEP_TOL:
        raise ValueError(f"dtype must be one of {sorted(SWEEP_TOL)}, got {dtype!r}")
    tol = SWEEP_TOL[dtype]
    if grid is None:
        grid = default_grid()
    if not seeds or not grid:
        raise ValueError("equivalence sweep needs at least one seed and one grid cell")
    start = time.perf_counter()
    cells: list[SweepCell] = []
    failures: list[SweepCell] = []
    worst = 0.0
    for n_layers, n_heads, d_model, chunk, past, t in grid:
        for seed in seeds:
            cfg = decoder.DecoderConfig(
                n_layers=n_layers,
                n_heads=n_heads,
                d_model=d_model,
                d_ff=2 * d_model,
                chunk_size=chunk,
                past_size=past,
                mel_bins=SWEEP_MEL_BINS,
                dtype=dtype,
            )
            model = decoder.init_weights(cfg, seed=seed)
            rng = np.random.default_rng(seed * 7919 + t)
            feats = rng.standard_normal((t, d_model)).astype(cfg.np_dtype)
            inc_chunks, _ = decoder.decode_incremental(feats, model)
            inc = np.concatenate(inc_chunks, axis=0)
            mask = masks.build_static_mask(t, chunk, past)
            par = decoder.decode_parallel_masked(feats, model, mask)
            diff = np.abs(inc.astype(np.float64) - par.astype(np.float64))
            max_diff = float(diff.max())
            argmax = np.unravel_index(int(np.argmax(diff)), diff.shape)
            cell = SweepCell(
                n_layers=n_layers,
                n_heads=n_heads,
                d_model=d_model,
                chunk_size=chunk,
                past_size=past,
                frames=t,
                seed=seed,
                max_abs_diff=max_diff,
                argmax=(int(argmax[0]), int(argmax[1])),
            )
            cells.append(cell)
            worst = max(worst, max_diff)
            if max_diff > tol:
                failures.append(cell)
    return SweepReport(
        dtype=dtype,
        tol=tol,
        cells=cells,
        max_abs_diff=worst,
        failures=failures,
        elapsed_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Cache ablations.


def _boundary_jump(mel: np.ndarray, chunk_size: int) -> tuple[float, float]:
    """Mean |Mel[t] - Mel[t-1]| at chunk boundaries vs interior frames."""
    t = len(mel)
    steps = np.mean(np.abs(np.diff(mel, axis=0)), axis=1)
    boundary = [c - 1 for c in range(chunk_size, t, chunk_size)]
    at_boundary = set(boundary)
    interior = [i for i in range(t - 1) if i not in at_boundary]
    b = float(np.mean(steps[boundary])) if boundary else 0.0
    i = float(np.mean(steps[interior])) if interior else 0.0
    return b, i


def _decode_ablated(
    features: np.ndarray, model: decoder.ModelWeights, mode: str
) -> np.ndarray:
    """Incremental decode that discards the selected cache between chunks.

    drop_kv clears the attention cache to its empty start state; drop_conv
    resets the conv tails to zeros; drop_both does both. The chunk loop is
    otherwise identical to the intact path.
    """
    cfg = model.config
    fresh = decoder.init_state(cfg)
    state = decoder.init_state(cfg)
    outs = []
    for start in range(0, len(features), cfg.chunk_size):
        mel, state = decoder.decode_chunk(features[start : start + cfg.chunk_size], model, state)
        outs.append(mel)
        layers = []
        for ls, blank in zip(state.layers, fresh.layers):
            attn = blank.attn if mode in ("drop_kv", "drop_both") else ls.attn
            conv = blank.conv if mode in ("drop_conv", "drop_both") else ls.conv
            layers.append(decoder.LayerState(attn=attn, conv=conv))
        state = decoder.DecoderState(layers=layers, frame_offset=state.frame_offset)
    return np.concatenate(outs, axis=0)


@dataclass
class AblationReport:
    mode: str
    seeds: list[int]
    max_abs_diff: list[float]
    boundary_jump_ablated: list[float]
    boundary_jump_intact: list[float]
    interior_jump_ablated: list[float]
    frac_broken: float

    def to_dict(self) -> dict:
        return asdict(self)


def ablation_check(
    cfg: decoder.DecoderConfig,
    seeds: list[int],
    mode: str,
    frames: int = 60,
) -> AblationReport:
    """Quantify how much dropping a cache between chunks changes output.

    For each seed: decode intact, decode with the cache discarded, record
    max |difference| and the boundary-vs-interior jump statistics.
    `frac_broken` is the fraction of seeds whose difference exceeds
    BREAK_TOL.
    """
    if mode not in ("drop_kv", "drop_conv", "drop_both"):
        raise ValueError(f"unknown ablation mode {mode!r}")
    if not seeds:
        raise ValueError("ablation needs at least one seed")
    max_diffs, jump_abl, jump_int, interior_abl = [], [], [], []
    for seed in seeds:
        model = decoder.init_weights(cfg, seed=seed)
        rng = np.random.default_rng(seed + 555)
        feats = rng.standard_normal((frames, cfg.d_model)).astype(cfg.np_dtype)
        chunks, _ = decoder.decode_incremental(feats, model)
        intact = np.concatenate(chunks, axis=0)
        ablated = _decode_ablated(feats, model, mode)
        max_diffs.append(float(np.max(np.abs(intact - ablated))))
        b_a, i_a = _boundary_jump(ablated, cfg.chunk_size)
        b_i, _ = _boundary_jump(intact, cfg.chunk_size)
        jump_abl.append(b_a)
        jump_int.append(b_i)
        interior_abl.append(i_a)
    frac = float(np.mean([d > BREAK_TOL for d in max_diffs]))
    return AblationReport(
        mode=mode,
        seeds=list(seeds),
        max_abs_diff=max_diffs,
        boundary_jump_ablated=jump_abl,
        boundary_jump_intact=jump_int,
        interior_jump_ablated=interior_abl,
        frac_broken=frac,
    )


# ---------------------------------------------------------------------------
# Latency benchmark.


@dataclass
class BenchResult:
    first_chunk_latency_ms: float
    last_chunk_latency_ms: float
    parallel_latency_ms: float
    total_frames: int
    audio_duration_s: float
    rtf_incremental: float
    rtf_parallel: float
    repeats: int
    chunk_ms_p50: float
    chunk_ms_p90: float
    chunk_ms_p99: float
    per_chunk_median_ms: list[float]

    def to_dict(self) -> dict:
        return asdict(self)


def audio_duration_s(frames: int) -> float:
    return frames * HOP_LENGTH / SAMPLE_RATE


def bench(
    model: decoder.ModelWeights,
    frames: int,
    repeats: int = 5,
    warmup: int = 3,
    seed: int = 0,
) -> BenchResult:
    """Wall-clock both decode routes; medians over repeats.

    Per-chunk times come from a monotonic clock around each chunk step;
    warm-up passes are run and discarded first. Latencies are medians,
    percentiles pool every timed chunk.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cfg = model.config
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((frames, cfg.d_model)).astype(cfg.np_dtype)
    past = cfg.past_size
    mask = masks.build_static_mask(frames, cfg.chunk_size, past)

    for _ in range(warmup):
        decoder.decode_incremental(feats, model)
        decoder.decode_parallel_masked(feats, model, mask)

    n_chunks = -(-frames // cfg.chunk_size)
    chunk_times = np.zeros((repeats, n_chunks))
    parallel_times = []
    for r in range(repeats):
        state = decoder.init_state(cfg)
        for c, start in enumerate(range(0, frames, cfg.chunk_size)):
            chunk = feats[start : start + cfg.chunk_size]
            t0 = time.perf_counter_ns()
            _, state = decoder.decode_chunk(chunk, model, state)
            chunk_times[r, c] = (time.perf_counter_ns() - t0) / 1e6
        t0 = time.perf_counter_ns()
        decoder.decode_parallel_masked(feats, model, mask)
        parallel_times.append((time.perf_counter_ns() - t0) / 1e6)

    per_chunk_median = np.median(chunk_times, axis=0)
    duration = audio_duration_s(frames)
    first_ms = float(per_chunk_median[0])
    last_ms = float(per_chunk_median[-1])
    parallel_ms = float(np.median(parallel_times))
    pooled = chunk_times.reshape(-1)
    return BenchResult(
        first_chunk_latency_ms=first_ms,
        last_chunk_latency_ms=last_ms,
        parallel_latency_ms=parallel_ms,
        total_frames=frames,
        audio_duration_s=duration,
        rtf_incremental=(float(np.sum(per_chunk_median)) / 1000.0) / duration,
        rtf_parallel=(parallel_ms / 1000.0) / duration,
        repeats=repeats,
        chunk_ms_p50=float(np.percentile(pooled, 50)),
        chunk_ms_p90=float(np.percentile(pooled, 90)),
        chunk_ms_p99=float(np.percentile(pooled, 99)),
        per_chunk_median_ms=[float(v) for v in per_chunk_median],
    )
