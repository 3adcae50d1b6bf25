"""Independent reference forward for the benchmark's output checks.

Plain NumPy with `@` matmuls. It builds its own chunk mask and positional
encoding and imports none of the package's kernels, so agreement with the
package is evidence, not tautology. It reads weights only as the flat
name -> array map of `chunkmel.decoder.weights_to_named`.
"""

from __future__ import annotations

import math

import numpy as np


def chunk_mask(frames: int, chunk: int, past) -> np.ndarray:
    """permitted[q, k]: key k is in q's chunk or in the `past` frames before it.

    `past` is a frame count or the string "all" for the whole history.
    """
    q_start = (np.arange(frames) // chunk) * chunk
    q_end = np.minimum(q_start + chunk, frames)
    first = np.zeros(frames, dtype=int) if past == "all" else np.maximum(0, q_start - past)
    keys = np.arange(frames)
    return (keys[None, :] >= first[:, None]) & (keys[None, :] < q_end[:, None])


def positional(frames: int, d_model: int) -> np.ndarray:
    pos = np.arange(frames, dtype=np.float64)[:, None]
    div = 10000.0 ** (np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    pe = np.zeros((frames, d_model))
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div[: d_model // 2])
    return pe


def _layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def _conv(x, w, b):
    """Causal conv with kernel-1 zero rows of left padding."""
    k = w.shape[0]
    xp = np.vstack([np.zeros((k - 1, x.shape[1])), x])
    return b + sum(xp[j : j + len(x)] @ w[j] for j in range(k))


def forward(features, named, cfg, chunk: int, past) -> tuple[np.ndarray, list[np.ndarray]]:
    """Masked whole-sequence decode in f64.

    `cfg` supplies n_layers, n_heads and ln_eps. Returns the Mel frames and
    the sign pattern of every ReLU input, which tells a finite-difference
    check whether a perturbation crossed a kink.
    """
    t, d = features.shape
    permitted = chunk_mask(t, chunk, past)
    inv = 1.0 / math.sqrt(d // cfg.n_heads)
    h = features + positional(t, d)
    signs = []
    for l in range(cfg.n_layers):
        p = f"layers.{l}."
        heads = []
        for i in range(cfg.n_heads):
            q, k, v = (h @ named[p + f"{m}.{i}"] for m in ("wq", "wk", "wv"))
            s = np.where(permitted, (q @ k.T) * inv, -np.inf)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            heads.append((e / e.sum(axis=1, keepdims=True)) @ v)
        r1 = _layer_norm(
            h + np.hstack(heads) @ named[p + "wo"], named[p + "ln1_gamma"], named[p + "ln1_beta"], cfg.ln_eps
        )
        z1 = _conv(r1, named[p + "conv1_w"], named[p + "conv1_b"])
        z2 = _conv(np.maximum(z1, 0.0), named[p + "conv2_w"], named[p + "conv2_b"])
        signs += [z1 > 0, z2 > 0]
        h = _layer_norm(r1 + np.maximum(z2, 0.0), named[p + "ln2_gamma"], named[p + "ln2_beta"], cfg.ln_eps)
    return h @ named["proj_w"] + named["proj_b"], signs
