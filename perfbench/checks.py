"""Output checks for every operation the benchmark times.

Each check compares against a property of the method or against the
independent reference forward, never against a stored copy, and raises
`CheckFailed` naming what differs.
"""

from __future__ import annotations

import numpy as np

import reference
from chunkmel import decoder, masks

F64_TOL = 1e-9  # the package's stated f64 equivalence tolerance
GRAD_STEP = 1e-6
GRAD_TOL = 1e-5
GRAD_FLOOR = 1e-4  # below this the step's round-off (~1e-10) dominates
GRAD_MIN_COMPARED = 3


class CheckFailed(AssertionError):
    """A timed operation returned a wrong output."""


def check_state(state, frames_consumed: int, cfg) -> None:
    """Caches hold min(frames consumed, past) rows; conv tails kernel-1 rows."""
    rows = min(frames_consumed, cfg.past_size)
    for l, ls in enumerate(state.layers):
        for cache in ls.attn.pk + ls.attn.pv:
            if cache.shape != (rows, cfg.d_head):
                raise CheckFailed(
                    f"layer {l}: key/value cache {cache.shape} after {frames_consumed} frames, "
                    f"expected ({rows}, {cfg.d_head})"
                )
        if len(ls.conv.pc1) != cfg.kernel1 - 1 or len(ls.conv.pc2) != cfg.kernel2 - 1:
            raise CheckFailed(
                f"layer {l}: conv tails hold {len(ls.conv.pc1)} and {len(ls.conv.pc2)} rows, "
                f"expected {cfg.kernel1 - 1} and {cfg.kernel2 - 1}"
            )
    if state.frame_offset != frames_consumed:
        raise CheckFailed(f"frame offset {state.frame_offset} != {frames_consumed} frames consumed")


def check_reference(mel: np.ndarray, features: np.ndarray, named, cfg, chunk: int, past) -> None:
    """Agreement with the independent reference within the f64 tolerance."""
    ref, _ = reference.forward(features, named, cfg, chunk, past)
    if mel.shape != ref.shape:
        raise CheckFailed(f"output shape {mel.shape} != reference {ref.shape}")
    err = float(np.max(np.abs(mel - ref)))
    if not err <= F64_TOL:
        raise CheckFailed(f"max |output - reference| = {err:.3e} > {F64_TOL:.0e}")


def check_stream(mel: np.ndarray, features: np.ndarray, model, named) -> None:
    """A stream's output is byte-identical to the masked parallel decode
    under the static mask, and agrees with the reference."""
    cfg = model.config
    mask = masks.build_static_mask(len(features), cfg.chunk_size, cfg.past_size)
    whole = decoder.decode_parallel_masked(features, model, mask)
    if mel.shape != whole.shape or mel.tobytes() != whole.tobytes():
        diff = np.argwhere(mel != whole) if mel.shape == whole.shape else None
        where = f" first at (frame, bin) {tuple(diff[0])}" if diff is not None and len(diff) else ""
        raise CheckFailed(f"stream output differs from the parallel decode{where}")
    check_reference(mel, features, named, cfg, cfg.chunk_size, cfg.past_size)


def check_losses(losses: list[float]) -> None:
    """Every loss is finite and the last quarter's mean is below the first's."""
    if not losses or not np.all(np.isfinite(losses)):
        raise CheckFailed(f"non-finite or missing training loss in {losses[:8]}")
    k = max(1, len(losses) // 4)
    first, last = float(np.mean(losses[:k])), float(np.mean(losses[-k:]))
    if not last < first:
        raise CheckFailed(f"loss did not fall: first {k} steps {first:.6f}, last {k} steps {last:.6f}")


def check_gradient(grads, features, targets, named, cfg, chunk: int, past, coords) -> int:
    """Central finite differences of one sample's MSE through the reference
    forward against the tape gradient `grads`, at the given (name, index)
    coordinates.

    A coordinate whose perturbation flips a ReLU input's sign is skipped:
    the loss has a kink inside the step there. Returns how many coordinates
    were compared; fewer than GRAD_MIN_COMPARED is itself a failure.
    """

    def loss(params):
        out, signs = reference.forward(features, params, cfg, chunk, past)
        return float(np.mean((out - targets) ** 2)), signs

    compared = 0
    for name, idx in coords:
        work = dict(named)
        work[name] = np.array(named[name], dtype=np.float64)
        orig = work[name][idx]
        work[name][idx] = orig + GRAD_STEP
        plus, s_plus = loss(work)
        work[name][idx] = orig - GRAD_STEP
        minus, s_minus = loss(work)
        if any((a != b).any() for a, b in zip(s_plus, s_minus)):
            continue
        numeric = (plus - minus) / (2 * GRAD_STEP)
        analytic = float(grads[name][idx])
        rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), GRAD_FLOOR)
        if rel > GRAD_TOL:
            raise CheckFailed(
                f"gradient of {name}{list(idx)}: tape {analytic:.9e}, finite difference "
                f"{numeric:.9e} (relative error {rel:.2e} > {GRAD_TOL:.0e})"
            )
        compared += 1
    if compared < GRAD_MIN_COMPARED:
        raise CheckFailed(f"only {compared} gradient coordinates away from a ReLU kink")
    return compared
