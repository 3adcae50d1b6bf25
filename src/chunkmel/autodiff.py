"""Tape-based reverse-mode gradients over the tensor-core op set.

This module mirrors every differentiable function in `tensor` under the
same name, so a program written against an `ops` namespace runs unchanged
in two modes: `program(tensor, ...)` computes plain values, while
`forward_record(program, ...)` runs it here and records a tape for
`backward`. Recorded forward values are computed by the `tensor`
functions themselves, so recording is bit-transparent: the forward is
exact. The backward is not held to that order. The matmul and
convolution vjps multiply with NumPy `@`, which dispatches to BLAS, so
gradients are reproducible on one machine and BLAS build but may differ
in the last bits from the left-to-right loop products, and across
machines.

ReLU's gradient at exactly zero is defined as zero. Finite-difference
checks must therefore sample inputs away from the kink.
"""

from __future__ import annotations

import contextvars
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor
from .tensor import ShapeError


# The node list of the recording in progress, if any. Every node is
# created after its parents, so creation order is a topological order.
_recording: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "autodiff_recording", default=None
)


class Node:
    """One recorded value: the result of an op applied to parent nodes.

    `vjp` maps the gradient at this node to a tuple of gradients, one per
    parent, in parent order. Leaves have no parents and no vjp. A node
    created while `forward_record` runs joins that recording's node list.
    """

    __slots__ = ("value", "op", "parents", "vjp")

    def __init__(
        self,
        value: np.ndarray,
        op: str = "leaf",
        parents: tuple["Node", ...] = (),
        vjp: Callable[[np.ndarray], tuple] | None = None,
    ):
        self.value = value
        self.op = op
        self.parents = parents
        self.vjp = vjp
        nodes = _recording.get()
        if nodes is not None:
            nodes.append(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def dtype(self) -> np.dtype:
        return self.value.dtype

    def __len__(self) -> int:
        return len(self.value)

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.value.shape})"


@dataclass
class Tape:
    """A completed recording: the output node, all nodes in topological
    order (parents before children), and the named parameter leaves.
    Nodes the output does not depend on get no gradient."""

    output: Node
    nodes: list[Node]
    params: dict[str, Node]


def _lift(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(np.asarray(x))


# ---------------------------------------------------------------------------
# Traced ops. Names and signatures match the `tensor` module.


def matmul(a, b) -> Node:
    an, bn = _lift(a), _lift(b)
    out = tensor.matmul(an.value, bn.value)

    def vjp(g):
        return g @ bn.value.T, an.value.T @ g

    return Node(out, "matmul", (an, bn), vjp)


def transpose(x) -> Node:
    xn = _lift(x)
    out = tensor.transpose(xn.value)

    def vjp(g):
        return (np.ascontiguousarray(g.T),)

    return Node(out, "transpose", (xn,), vjp)


def masked_softmax(logits, mask=None) -> Node:
    """Softmax rows; the mask is data, not a differentiable input.

    Probabilities at masked positions are exactly zero, so the backward
    product zeroes those gradient entries exactly as well.
    """
    xn = _lift(logits)
    p = tensor.masked_softmax(xn.value, mask)

    def vjp(g):
        inner = np.sum(g * p, axis=-1, keepdims=True)
        return (p * (g - inner),)

    return Node(p, "masked_softmax", (xn,), vjp)


def attention(q, k, v, mask, inv: float) -> Node:
    """`tensor.attention` recorded as its five dense nodes.

    The value equals the windowed `tensor.attention` bit for bit. The tape
    keeps the dense T×T form so that the gradients, and the order in which
    they are summed, do not depend on the mask's window.
    """
    return matmul(masked_softmax(scale(matmul(q, transpose(k)), inv), mask), v)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Node:
    xn, gn, bn = _lift(x), _lift(gamma), _lift(beta)
    out = tensor.layer_norm(xn.value, gn.value, bn.value, eps)
    xv = xn.value
    mu = np.mean(xv, axis=-1, keepdims=True)
    xc = xv - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xv.dtype.type(eps))
    xhat = xc * inv

    def vjp(g):
        dgamma = np.sum(g * xhat, axis=0)
        dbeta = np.sum(g, axis=0)
        dxhat = g * gn.value
        dx = inv * (
            dxhat
            - np.mean(dxhat, axis=-1, keepdims=True)
            - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return Node(out, "layer_norm", (xn, gn, bn), vjp)


def causal_conv1d(x, w, b) -> Node:
    xn, wn, bn = _lift(x), _lift(w), _lift(b)
    out = tensor.causal_conv1d(xn.value, wn.value, bn.value)

    def vjp(g):
        k = wn.value.shape[0]
        t_out = g.shape[0]
        dx = np.zeros_like(xn.value)
        dw = np.zeros_like(wn.value)
        for j in range(k):
            dx[j : j + t_out] += g @ wn.value[j].T
            dw[j] = xn.value[j : j + t_out].T @ g
        return dx, dw, np.sum(g, axis=0)

    return Node(out, "causal_conv1d", (xn, wn, bn), vjp)


def concat_time(a, b) -> Node:
    an, bn = _lift(a), _lift(b)
    out = tensor.concat_time(an.value, bn.value)
    na = an.value.shape[0]

    def vjp(g):
        return g[:na], g[na:]

    return Node(out, "concat_time", (an, bn), vjp)


def concat_feat(parts) -> Node:
    nodes = tuple(_lift(p) for p in parts)
    out = tensor.concat_feat([n.value for n in nodes])
    widths = [n.value.shape[1] for n in nodes]

    def vjp(g):
        pieces = []
        off = 0
        for width in widths:
            pieces.append(g[:, off : off + width])
            off += width
        return tuple(pieces)

    return Node(out, "concat_feat", nodes, vjp)


def feat_slice(x, c0: int, c1: int) -> Node:
    xn = _lift(x)
    out = tensor.feat_slice(xn.value, c0, c1)

    def vjp(g):
        dx = np.zeros_like(xn.value)
        dx[:, c0:c1] = g
        return (dx,)

    return Node(out, "feat_slice", (xn,), vjp)


def tail_slice(x, s: int) -> Node:
    xn = _lift(x)
    out = tensor.tail_slice(xn.value, s)
    n = xn.value.shape[0]
    kept = out.shape[0]

    def vjp(g):
        dx = np.zeros_like(xn.value)
        if kept:
            dx[n - kept :] = g
        return (dx,)

    return Node(out, "tail_slice", (xn,), vjp)


def relu(x) -> Node:
    xn = _lift(x)
    out = tensor.relu(xn.value)

    def vjp(g):
        # subgradient at 0 is 0: strict inequality drops those entries
        return (g * (xn.value > 0),)

    return Node(out, "relu", (xn,), vjp)


def add(a, b) -> Node:
    an, bn = _lift(a), _lift(b)
    out = tensor.add(an.value, bn.value)

    def vjp(g):
        return g, g

    return Node(out, "add", (an, bn), vjp)


def add_bias(x, b) -> Node:
    xn, bn = _lift(x), _lift(b)
    out = tensor.add_bias(xn.value, bn.value)

    def vjp(g):
        return g, np.sum(g, axis=0)

    return Node(out, "add_bias", (xn, bn), vjp)


def scale(x, s: float) -> Node:
    xn = _lift(x)
    out = tensor.scale(xn.value, s)
    c = xn.value.dtype.type(s)

    def vjp(g):
        return (g * c,)

    return Node(out, "scale", (xn,), vjp)


def mul(a, b) -> Node:
    an, bn = _lift(a), _lift(b)
    out = tensor.mul(an.value, bn.value)

    def vjp(g):
        return g * bn.value, g * an.value

    return Node(out, "mul", (an, bn), vjp)


def sum_all(x) -> Node:
    xn = _lift(x)
    out = tensor.sum_all(xn.value)

    def vjp(g):
        return (g * np.ones_like(xn.value),)

    return Node(out, "sum_all", (xn,), vjp)


# ---------------------------------------------------------------------------
# Recording and backward.


def _lift_container(x):
    if isinstance(x, Node):
        return x
    if isinstance(x, np.ndarray):
        return Node(x)
    if isinstance(x, dict):
        return {k: _lift_container(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_lift_container(v) for v in x)
    return x


def forward_record(program, inputs, params: dict[str, np.ndarray]) -> tuple[np.ndarray, Tape]:
    """Run `program(ops, inputs, params)` with this module as `ops`.

    Array inputs are lifted to unnamed constant leaves; each entry of
    `params` becomes a named leaf whose gradient `backward` reports. The
    returned output value is exactly what the untraced program computes.
    The tape lists every node the program created, in creation order.
    """
    nodes: list[Node] = []
    token = _recording.set(nodes)
    try:
        param_nodes = {name: Node(np.asarray(v), op=f"param:{name}") for name, v in params.items()}
        out = _lift(program(sys.modules[__name__], _lift_container(inputs), param_nodes))
    finally:
        _recording.reset(token)
    return out.value, Tape(out, nodes, param_nodes)


def backward(tape: Tape, seed_grad: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Accumulate gradients from the tape output down to the parameters.

    Returns one gradient per recorded parameter, zeros for parameters the
    output does not depend on. `seed_grad` defaults to all ones.
    """
    out = tape.output
    if seed_grad is None:
        seed = np.ones_like(out.value)
    else:
        seed = np.asarray(seed_grad, dtype=out.value.dtype)
    if seed.shape != out.value.shape:
        raise ShapeError(
            f"backward: seed gradient shape {seed.shape} does not match "
            f"output shape {out.value.shape}"
        )
    grads: dict[int, np.ndarray] = {id(out): seed}
    for node in reversed(tape.nodes):
        g = grads.get(id(node))
        if g is None:
            continue
        if g.shape != node.value.shape:
            raise ShapeError(
                f"backward: gradient shape {g.shape} does not match value "
                f"shape {node.value.shape} at op {node.op!r}"
            )
        if node.vjp is None:
            continue
        del grads[id(node)]
        parts = node.vjp(g)
        for parent, part in zip(node.parents, parts):
            prev = grads.get(id(parent))
            grads[id(parent)] = part if prev is None else prev + part
    return {
        name: grads[id(node)] if id(node) in grads else np.zeros_like(node.value)
        for name, node in tape.params.items()
    }


def finite_diff_check(program, inputs, params: dict[str, np.ndarray], h: float = 1e-6, tol: float = 1e-4) -> dict:
    """Compare analytic gradients against central finite differences.

    The scalar loss is the sum of the program output. Works in f64 only;
    relative error is |a - n| / max(1e-8, |a| + |n|), reported per
    parameter as its max over elements.
    """
    for name, p in params.items():
        if np.asarray(p).dtype != np.float64:
            raise ShapeError(f"finite_diff_check: parameter {name!r} must be f64")
    _, tape = forward_record(program, inputs, params)
    analytic = backward(tape, np.ones_like(tape.output.value))

    def loss(ps):
        out, _ = forward_record(program, inputs, ps)
        return float(np.sum(out))

    per_param: dict[str, dict] = {}
    worst_param, worst_rel = None, -1.0
    for name, p in params.items():
        work = np.array(p, dtype=np.float64)
        probe = dict(params)
        probe[name] = work
        a = analytic[name]
        max_rel, max_at = 0.0, None
        for idx in np.ndindex(p.shape):
            orig = work[idx]
            work[idx] = orig + h
            plus = loss(probe)
            work[idx] = orig - h
            minus = loss(probe)
            work[idx] = orig
            numeric = (plus - minus) / (2.0 * h)
            a_val = float(a[idx]) if a.ndim else float(a)
            rel = abs(a_val - numeric) / max(1e-8, abs(a_val) + abs(numeric))
            if rel > max_rel:
                max_rel, max_at = rel, idx
        per_param[name] = {"max_rel_err": max_rel, "at": max_at, "pass": max_rel <= tol}
        if max_rel > worst_rel:
            worst_param, worst_rel = name, max_rel
    return {
        "h": h,
        "tol": tol,
        "pass": all(entry["pass"] for entry in per_param.values()),
        "per_param": per_param,
        "worst_param": worst_param,
        "worst_rel_err": worst_rel,
    }
