"""Chunk attention masks for constrained training and the parallel oracle.

A chunk mask is its sizes. It partitions the time axis into consecutive
chunks of `chunk_size` frames (the last chunk may be shorter). A query
may attend to every key in its own chunk and to `past_size` frames
immediately before that chunk's start; `past_size` may also be ALL,
meaning the entire history. All queries inside one chunk share one key
window, which is what lets a whole chunk attend one shared cache at
inference.

For the parallel route a mask also plans its own attention work
(`ChunkMask.key_groups`) from those windows: the runs of chunks whose
windows repeat one chunk apart, so that `tensor.attention` scores a
whole run in one batched product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

ALL = "all"

PastSize = int | str

# Query rows per attention block where chunk windows do not repeat (past
# ALL, the first chunks, a short last chunk), rounded up to whole chunks;
# a chunk this long is a block of its own. Fewer rows pay per-call
# overhead: a T=600 parallel decode at chunk 1, past ALL (default model,
# 2-core x86-64) took 59 ms with one-row blocks, 27 ms with 8-row, 20 ms
# with 32-row and 23 ms with 128-row blocks. At chunk 1, past 1, where
# the windows repeat and all chunks form one batched group, it took 9 ms.
ATTENTION_BLOCK_ROWS = 32


class KeyGroup(NamedTuple):
    """`count` equal slices of attention work, scored in one batch.

    Slice i holds query rows [row + i·rows, row + (i+1)·rows) and their
    keys [key + i·rows, key + i·rows + width): a run of chunks whose
    windows repeat one chunk apart, or (count 1) a block of whole chunks
    over the union of their windows.
    """

    row: int
    rows: int
    count: int
    key: int
    width: int


@dataclass(frozen=True)
class ChunkMask:
    """A chunk mask as its sizes; the (query, key) permission matrix and
    the attention plan both derive from them.

    Chunk i spans frames [start, min(start + chunk_size, T)) with start =
    i·chunk_size, and its queries see the keys [max(0, start - past_size),
    min(start + chunk_size, T)), from key 0 under past ALL. The trailing
    partial chunk still counts its past from the true chunk start.
    """

    chunk_size: int
    past_size: PastSize
    total_frames: int

    def __post_init__(self):
        if self.total_frames < 1:
            raise ValueError(f"total_frames must be >= 1, got {self.total_frames}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        _check_past(self.past_size)

    def _first_key(self, start: int) -> int:
        """First key of the window of the chunk that starts at frame `start`."""
        return 0 if self.past_size == ALL else max(0, start - self.past_size)

    @cached_property
    def permitted(self) -> np.ndarray:
        """Read-only boolean (T, T) matrix: query row, key column."""
        t, c = self.total_frames, self.chunk_size
        perm = np.zeros((t, t), dtype=bool)
        for start in range(0, t, c):
            end = min(start + c, t)
            perm[start:end, self._first_key(start) : end] = True
        perm.setflags(write=False)
        return perm

    @cached_property
    def key_groups(self) -> tuple[KeyGroup, ...]:
        """The attention work over this mask, as `tensor.attention` runs it.

        From chunk ⌈past/chunk⌉ on, every full chunk sees the past_size
        keys before it and its own, so those windows have one width and
        start one chunk apart. A run of two or more such chunks is one
        batched group, if the chunks are shorter than ATTENTION_BLOCK_ROWS:
        a longer chunk is a block big enough to run alone, and batching
        such slices only makes larger buffers. The other chunks (the first
        ones, a short last chunk, all of them under past ALL) gather into
        blocks of at least ATTENTION_BLOCK_ROWS rows, each scored over the
        union of its chunks' windows. Every query row lies in exactly one
        group, and every key it may see lies in the span its group scores.
        Derived on first use and cached.
        """
        t, c, p = self.total_frames, self.chunk_size, self.past_size
        n, full = -(-t // c), t // c

        def block(a, b):  # chunks a .. b-1 over the union of their windows
            key, end = self._first_key(a * c), min(b * c, t)
            return KeyGroup(a * c, end - a * c, 1, key, end - key)

        def blocks(a, b):  # chunks a .. b-1 in blocks of at least ATTENTION_BLOCK_ROWS rows
            step = -(-ATTENTION_BLOCK_ROWS // c)
            return [block(i, min(i + step, b)) for i in range(a, b, step)]

        run = n if p == ALL or c >= ATTENTION_BLOCK_ROWS else -(-p // c)  # first chunk of the run
        if full - run < 2:
            return tuple(blocks(0, n))
        batched = KeyGroup(run * c, c, full - run, run * c - p, c + p)
        return tuple(blocks(0, run) + [batched] + blocks(full, n))

    def ascii(self) -> str:
        """Rows of '#' (permitted) and '.' (blocked), query per line."""
        return "\n".join(
            "".join("#" if p else "." for p in row) for row in self.permitted
        )

    def pgm(self) -> bytes:
        """Binary PGM (P5) image, permitted cells dark on white."""
        t = self.total_frames
        pixels = np.where(self.permitted, 0, 255).astype(np.uint8)
        return f"P5\n{t} {t}\n255\n".encode("ascii") + pixels.tobytes()


@dataclass
class DynamicMaskPolicy:
    """Random mask regime: chunk size uniform over an inclusive range,
    past size a uniform choice of multipliers of the drawn chunk size."""

    chunk_range: tuple[int, int] = (1, 50)
    past_multipliers: tuple[float | str, ...] = (0, 0.25, 0.5, 1, 2, 3, ALL)

    def __post_init__(self):
        lo, hi = self.chunk_range
        if not (1 <= lo <= hi):
            raise ValueError(f"invalid chunk_range {self.chunk_range}")
        if not self.past_multipliers:
            raise ValueError("past_multipliers must be non-empty")
        for m in self.past_multipliers:
            number = isinstance(m, numbers.Real) and not isinstance(m, bool)
            if m != ALL and not (number and 0 <= m < math.inf):
                raise ValueError(
                    f"past_multipliers entries must be finite numbers >= 0 or {ALL!r}, got {m!r}"
                )


def _check_past(past_size: PastSize) -> None:
    if past_size == ALL:
        return
    if not isinstance(past_size, (int, np.integer)) or past_size < 0:
        raise ValueError(f"past_size must be a non-negative frame count or {ALL!r}, got {past_size!r}")


def build_static_mask(total_frames: int, chunk_size: int, past_size: PastSize) -> ChunkMask:
    """Mask with fixed chunk and past sizes (see `ChunkMask`).

    past_size = ALL opens the whole history before the chunk end.
    """
    return ChunkMask(chunk_size, past_size, total_frames)


def sample_dynamic_mask(total_frames: int, policy: DynamicMaskPolicy, rng: np.random.Generator) -> ChunkMask:
    """Draw one (chunk size, past size) pair and build its static mask.

    The chunk size is drawn first, then the multiplier, so a given rng
    state always yields the same mask. Fractional multipliers floor.
    """
    lo, hi = policy.chunk_range
    chunk = int(rng.integers(lo, hi + 1))
    mult = policy.past_multipliers[int(rng.integers(0, len(policy.past_multipliers)))]
    past: PastSize = ALL if mult == ALL else int(math.floor(mult * chunk))
    return build_static_mask(total_frames, chunk, past)
