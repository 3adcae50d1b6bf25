"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: explicit Python loops
with numpy scalar arithmetic (which stays in the operand dtype), or
mpmath when a check needs more precision than f64 can offer. Nothing in
this module imports the package's own kernels, so agreement is evidence,
not tautology.
"""

import mpmath
import numpy as np

mpmath.mp.dps = 60


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop product, inner axis accumulated strictly left to right."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = a.dtype.type(0)
            for q in range(k):
                acc = acc + a[i, q] * b[q, j]
            out[i, j] = acc
    return out


def masked_attention_dense(q, k, v, permitted, inv):
    """softmax(q kᵀ · inv under `permitted`) v over the whole T×T matrix.

    Every sum runs left to right over its full axis, as a column loop of
    whole-array adds: scores over the head dimension, the softmax
    denominator and the value product over all T keys, masked keys
    included as exact zeros. The row max is taken over permitted keys and
    masked scores enter `exp` as -inf.
    """
    dt = q.dtype.type
    scores = np.zeros((len(q), len(k)), dtype=q.dtype)
    for j in range(q.shape[1]):
        scores = scores + q[:, j : j + 1] * k[:, j]
    scores = scores * dt(inv)
    rowmax = np.where(permitted, scores, -np.inf).max(axis=1, keepdims=True)
    e = np.exp(np.where(permitted, scores - rowmax, -np.inf))
    total = np.zeros((len(q), 1), dtype=q.dtype)
    for j in range(len(k)):
        total = total + e[:, j : j + 1]
    probs = e / total
    out = np.zeros((len(q), v.shape[1]), dtype=q.dtype)
    for j in range(len(k)):
        out = out + probs[:, j : j + 1] * v[j]
    return out


def softmax_rows_mp(logits: np.ndarray, permitted: np.ndarray | None = None) -> np.ndarray:
    """Row softmax in 60-digit arithmetic; masked entries exactly zero."""
    x = np.asarray(logits, dtype=np.float64)
    out = np.zeros_like(x)
    for r in range(x.shape[0]):
        keep = (
            np.ones(x.shape[1], dtype=bool) if permitted is None else permitted[r]
        )
        vals = [mpmath.mpf(float(v)) for v in x[r][keep]]
        mx = max(vals)
        exps = [mpmath.e ** (v - mx) for v in vals]
        denom = mpmath.fsum(exps)
        probs = iter(e / denom for e in exps)
        for c in range(x.shape[1]):
            out[r, c] = float(next(probs)) if keep[c] else 0.0
    return out


def layer_norm_mp(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    """Per-row normalization in 60-digit arithmetic."""
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    d = x.shape[1]
    for r in range(x.shape[0]):
        row = [mpmath.mpf(float(v)) for v in x[r]]
        mu = mpmath.fsum(row) / d
        var = mpmath.fsum([(v - mu) ** 2 for v in row]) / d
        inv = 1 / mpmath.sqrt(var + mpmath.mpf(eps))
        for c in range(d):
            out[r, c] = float(mpmath.mpf(float(gamma[c])) * (row[c] - mu) * inv + mpmath.mpf(float(beta[c])))
    return out


def conv_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sliding-window convolution, bias first, then taps in kernel order.

    Each tap contributes a left-to-right dot product, mirroring the
    production op's accumulation structure exactly.
    """
    k, d_in, d_out = w.shape
    t_out = x.shape[0] - k + 1
    out = np.zeros((t_out, d_out), dtype=x.dtype)
    for t in range(t_out):
        for o in range(d_out):
            acc = b[o]
            for j in range(k):
                s = x.dtype.type(0)
                for i in range(d_in):
                    s = s + x[t + j, i] * w[j, i, o]
                acc = acc + s
            out[t, o] = acc
    return out


def conv_vjp_loops(x: np.ndarray, w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Input and kernel gradients of `conv_loops` for output gradient `g`.

    dx[t+j, i] sums g[t, o]·w[j, i, o] over taps j and outputs o;
    dw[j, i, o] sums x[t+j, i]·g[t, o] over frames t, each left to right.
    """
    k, d_in, d_out = w.shape
    t_out = g.shape[0]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for j in range(k):
        for t in range(t_out):
            for i in range(d_in):
                s = x.dtype.type(0)
                for o in range(d_out):
                    s = s + g[t, o] * w[j, i, o]
                dx[t + j, i] = dx[t + j, i] + s
        for i in range(d_in):
            for o in range(d_out):
                s = x.dtype.type(0)
                for t in range(t_out):
                    s = s + x[t + j, i] * g[t, o]
                dw[j, i, o] = s
    return dx, dw


def posenc_mp(offset: int, length: int, d_model: int) -> np.ndarray:
    """Sinusoidal positional rows in 60-digit arithmetic."""
    out = np.zeros((length, d_model), dtype=np.float64)
    for r in range(length):
        pos = mpmath.mpf(offset + r)
        for c in range(d_model):
            pair = (c // 2) * 2
            angle = pos / mpmath.mpf(10000.0) ** (mpmath.mpf(pair) / d_model)
            out[r, c] = float(mpmath.sin(angle) if c % 2 == 0 else mpmath.cos(angle))
    return out


def adam_step_loops(p, g, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One Adam update on flat f64 vectors, written element by element."""
    p, g, m, v = (np.asarray(a, dtype=np.float64).copy() for a in (p, g, m, v))
    g = g + weight_decay * p
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mhat = m / (1 - beta1**t)
    vhat = v / (1 - beta2**t)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m, v
