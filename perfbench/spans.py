"""Span tracing of the package's layers, from outside the package.

`Tracer.install` replaces public functions of `tensor`, `masks`, `decoder`,
`autodiff`, `training` and `io` by wrappers that record one span each:
name, start, end and parent. The package calls its own layers through
module attributes, so nested calls (a conv's matmuls, a block's layer
norms) become child spans. Spans are recorded only inside a root span
that the benchmark opens around a timed operation; output checks run
outside any root and stay untraced. Spans stay in memory and `write`
saves them when the run ends. `uninstall` restores the originals, so
untraced rounds run the package unchanged.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from chunkmel import autodiff, decoder, io, masks, tensor, training

WRAPPED = {
    tensor: (
        "matmul", "masked_softmax", "layer_norm", "causal_conv1d",
        "add", "add_bias", "scale", "relu", "mul",
        "concat_time", "concat_feat", "tail_slice", "transpose",
    ),
    masks: ("build_static_mask", "sample_dynamic_mask"),
    decoder: (
        "decode_chunk", "mha_chunk_step", "ffn_chunk_step", "fft_block_step",
        "positional_encoding", "forward_named", "decode_parallel_masked",
        "init_state", "save_decoder_state", "load_decoder_state", "load_model",
    ),
    autodiff: ("forward_record", "backward"),
    training: ("generate_batch", "train_step", "adam_update"),
    io: ("save_state", "load_state", "load_weights"),
}

ELEMENTWISE = ("tensor.add", "tensor.add_bias", "tensor.scale", "tensor.relu", "tensor.mul")
LAYOUT = ("tensor.concat_time", "tensor.concat_feat", "tensor.tail_slice", "tensor.transpose")

# metric -> (statistic, spans or counter, unit, what one operation is).
# "op" is the operation of the kind that enters the layer: a chunk for
# stream, an utterance for parallel, an optimizer step for train.
PER_LAYER = {
    "tensor.matmul.calls": ("calls", ("tensor.matmul",), "count", "op"),
    "tensor.matmul.self_ms": ("self", ("tensor.matmul",), "ms", "op"),
    "tensor.masked_softmax.calls": ("calls", ("tensor.masked_softmax",), "count", "op"),
    "tensor.masked_softmax.self_ms": ("self", ("tensor.masked_softmax",), "ms", "op"),
    "tensor.layer_norm.self_ms": ("self", ("tensor.layer_norm",), "ms", "op"),
    "tensor.causal_conv1d.self_ms": ("self", ("tensor.causal_conv1d",), "ms", "op"),
    "tensor.elementwise.self_ms": ("self", ELEMENTWISE, "ms", "op"),
    "tensor.layout.self_ms": ("self", LAYOUT, "ms", "op"),
    "decoder.decode_chunk.ms": ("total", ("decoder.decode_chunk",), "ms", "op"),
    "decoder.mha_chunk_step.self_ms": ("self", ("decoder.mha_chunk_step",), "ms", "op"),
    "decoder.ffn_chunk_step.self_ms": ("self", ("decoder.ffn_chunk_step",), "ms", "op"),
    "decoder.fft_block_step.self_ms": ("self", ("decoder.fft_block_step",), "ms", "op"),
    "decoder.positional_encoding.self_ms": ("self", ("decoder.positional_encoding",), "ms", "op"),
    "decoder.forward_named.self_ms": ("self", ("decoder.forward_named",), "ms", "op"),
    "decoder.kv_cache_rows": ("counter", "decoder.kv_cache_rows", "count", "op"),
    "decoder.state_bytes": ("counter", "decoder.state_bytes", "bytes", "op"),
    "masks.build_static_mask.ms": ("total", ("masks.build_static_mask",), "ms", "op"),
    "masks.sample_dynamic_mask.ms": ("total", ("masks.sample_dynamic_mask",), "ms", "op"),
    "autodiff.forward_record.self_ms": ("self", ("autodiff.forward_record",), "ms", "op"),
    "autodiff.backward.self_ms": ("self", ("autodiff.backward",), "ms", "op"),
    "autodiff.tape_nodes": ("counter", "autodiff.tape_nodes", "count", "op"),
    "training.generate_batch.ms": ("total", ("training.generate_batch",), "ms", "op"),
    "training.train_step.self_ms": ("self", ("training.train_step",), "ms", "op"),
    "training.adam_update.ms": ("total", ("training.adam_update",), "ms", "op"),
    "io.save_state.ms": ("total", ("io.save_state",), "ms", "handoff"),
    "io.load_state.ms": ("total", ("io.load_state",), "ms", "handoff"),
    "io.state_bytes": ("counter", "io.state_bytes", "bytes", "handoff"),
    "io.load_weights.ms": ("total", ("io.load_weights",), "ms", "setup"),
}

# Root span names the workloads open; the part before the dot is the kind.
OP_ROOTS = {"stream": "stream.chunk", "parallel": "parallel.utterance", "train": "train.step"}
HANDOFF_ROOT = "stream.save"
SETUP_ROOT = "setup.load"


def _count_decode_chunk(tr, args, out):
    _, state = out
    tr.count("decoder.kv_cache_rows", max(len(pk) for ls in state.layers for pk in ls.attn.pk))
    tr.count("decoder.state_bytes", sum(a.nbytes for a in decoder.state_tensor_list(state)))


def _count_tape(tr, args, out):
    tr.count("autodiff.tape_nodes", len(out[1].nodes))


def _count_state_file(tr, args, out):
    tr.count("io.state_bytes", os.path.getsize(args[0]))


HOOKS = {
    "decoder.decode_chunk": _count_decode_chunk,
    "autodiff.forward_record": _count_tape,
    "io.save_state": _count_state_file,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span; a span opened at depth 0 is a root operation."""
        i = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        kind = self.names[self.name[self._stack[0]]].split(".")[0]
        self.counters[(kind, key)] += value

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        tr = self

        def traced(*args, **kwargs):
            if not tr._stack:
                return fn(*args, **kwargs)
            i = tr.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(i)
            if hook is not None:
                hook(tr, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for mod, fnames in WRAPPED.items():
            short = mod.__name__.rsplit(".", 1)[1]
            for fname in fnames:
                orig = getattr(mod, fname)
                self._saved.append((mod, fname, orig))
                setattr(mod, fname, self._wrap(orig, f"{short}.{fname}"))

    def uninstall(self) -> None:
        while self._saved:
            mod, fname, orig = self._saved.pop()
            setattr(mod, fname, orig)

    def _aggregate(self):
        """Per (kind, span name): calls, self ns and total ns; roots per name."""
        n = len(self.start)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_ns = dur - covered
        names = [self.names[i] for i in name.tolist()]
        root = list(range(n))
        for i, p in enumerate(parent.tolist()):  # parents precede children
            if p >= 0:
                root[i] = root[p]
        calls, self_t, total = defaultdict(int), defaultdict(float), defaultdict(float)
        roots = defaultdict(int)
        for span, rid, s, d in zip(names, root, self_ns.tolist(), dur.tolist()):
            key = (names[rid].split(".")[0], span)
            calls[key] += 1
            self_t[key] += s
            total[key] += d
        for rid in np.flatnonzero(~nested).tolist():
            roots[names[rid]] += 1
        return calls, self_t, total, roots

    def per_layer(self, own_kind: str) -> dict[str, dict]:
        """Every PER_LAYER metric, per operation of the run's own workload.

        A layer the workload never enters is reported per operation of the
        first other kind that enters it, in the order stream, parallel, train.
        """
        calls, self_t, total, roots = self._aggregate()
        ops = {kind: roots.get(root, 0) for kind, root in OP_ROOTS.items()}
        order = [own_kind] + [k for k in OP_ROOTS if k != own_kind]
        out = {}
        for metric, (stat, source, unit, per) in PER_LAYER.items():
            if per == "handoff":
                candidates = [("stream", roots.get(HANDOFF_ROOT, 0))]
            elif per == "setup":
                candidates = [("setup", roots.get(SETUP_ROOT, 0))]
            else:
                candidates = [(k, ops[k]) for k in order]
            value = 0.0
            for kind, n_ops in candidates:
                if stat == "counter":
                    entered = (kind, source) in self.counters
                else:
                    entered = any(calls.get((kind, s), 0) for s in source)
                if not entered or not n_ops:
                    continue
                if stat == "counter":
                    value = self.counters[(kind, source)] / n_ops
                elif stat == "calls":
                    value = sum(calls.get((kind, s), 0) for s in source) / n_ops
                else:
                    table = self_t if stat == "self" else total
                    value = sum(table.get((kind, s), 0.0) for s in source) / n_ops / 1e6
                break
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """Save every span (name, start, end, parent) and counter, gzipped JSON."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "counters": {f"{k}:{c}": v for (k, c), v in self.counters.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)
