"""Chunk attention masks for constrained training and the parallel oracle.

A chunk mask partitions the time axis into consecutive chunks of
`chunk_size` frames (the last chunk may be shorter). A query may attend
to every key in its own chunk and to `past_size` frames immediately
before that chunk's start; `past_size` may also be ALL, meaning the
entire history. All queries inside one chunk share one row pattern,
which is what lets a whole chunk attend one shared cache at inference.

For the parallel route a mask also plans its own attention work
(`ChunkMask.key_groups`): each chunk's key window, and the runs of chunks
whose windows repeat one chunk apart, so that `tensor.attention` scores a
whole run in one batched product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import tensor

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
    over the union of their windows. `dense` means every query of every
    slice may see every key of its slice, so no mask needs applying.
    """

    row: int
    rows: int
    count: int
    key: int
    width: int
    dense: bool

    def cells(self, permitted: np.ndarray) -> np.ndarray:
        """The slices' cells of a (T, T) permission matrix, as a read-only
        (count, rows, width) view."""
        return tensor.windows(
            permitted, (self.row, self.key), (self.rows, self.rows), self.count, (self.rows, self.width)
        )


@dataclass(frozen=True)
class ChunkMask:
    """Boolean (query, key) permission matrix plus the sizes that built it.

    The mask is frozen after construction, matrix included; build a new
    mask instead of editing one.
    """

    permitted: np.ndarray
    chunk_size: int
    past_size: PastSize
    total_frames: int

    def __post_init__(self):
        self.permitted.setflags(write=False)

    @cached_property
    def key_groups(self) -> tuple[KeyGroup, ...]:
        """The attention work over this mask, as `tensor.attention` runs it.

        Every query row lies in exactly one group, and every permitted key
        of a row lies in the key span its group scores, for any
        `permitted`. Each chunk's window is first read off its first row;
        one count of the permitted cells inside the groups against all of
        them checks that guess, and a mask whose rows differ within a
        chunk is planned again from each chunk's union of keys. Derived on
        first use and cached: training builds masks it never plans.
        """
        perm, c = self.permitted, self.chunk_size
        first = perm[::c]
        lo = np.argmax(first, axis=1)
        groups, covered = _plan(perm, c, lo, lo + np.count_nonzero(first, axis=1))
        if covered != np.count_nonzero(perm):
            starts = np.arange(0, len(perm), c)
            lo = np.minimum.reduceat(np.argmax(perm, axis=1), starts)
            hi = np.maximum.reduceat(len(perm) - np.argmax(perm[:, ::-1], axis=1), starts)
            groups, _ = _plan(perm, c, lo, hi)
        return groups

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


def _plan(perm: np.ndarray, chunk: int, lo: np.ndarray, hi: np.ndarray) -> tuple[tuple[KeyGroup, ...], int]:
    """Group the chunks whose key windows are [lo, hi), and count the
    permitted cells the groups score.

    A run of two or more full chunks whose windows have one width and
    start one chunk apart is one batched group, if the chunks are shorter
    than ATTENTION_BLOCK_ROWS: a longer chunk is a block big enough to
    run alone, and batching such slices only makes larger buffers. Other
    chunks gather into blocks of at least ATTENTION_BLOCK_ROWS rows, each
    scored over the union of its chunks' windows; a run starting ends the
    block.
    """
    t = len(perm)
    n = len(lo)
    width = hi - lo
    follows = np.zeros(n, dtype=bool)
    if chunk < ATTENTION_BLOCK_ROWS:
        full = n if t % chunk == 0 else n - 1
        follows[1:full] = (width[1:full] == width[: full - 1]) & (lo[1:full] == lo[: full - 1] + chunk)
    heads = np.flatnonzero(~follows).tolist() + [n]
    lo, hi = lo.tolist(), hi.tolist()

    def block(a, b):  # chunks a .. b-1 over the union of their windows
        key = min(lo[a:b])
        return a * chunk, min(b * chunk, t) - a * chunk, 1, key, max(hi[a:b]) - key

    spans = []
    first = 0  # first chunk not yet in a group
    for a, b in zip(heads, heads[1:]):
        if b - a > 1:
            if first < a:
                spans.append(block(first, a))
            spans.append((a * chunk, chunk, b - a, lo[a], hi[a] - lo[a]))
            first = b
        elif (b - first) * chunk >= ATTENTION_BLOCK_ROWS:
            spans.append(block(first, b))
            first = b
    if first < n:
        spans.append(block(first, n))
    groups, covered = [], 0
    for row, rows, count, key, w in spans:
        cells = int(np.count_nonzero(KeyGroup(row, rows, count, key, w, False).cells(perm)))
        covered += cells
        groups.append(KeyGroup(row, rows, count, key, w, w > 0 and cells == count * rows * w))
    return tuple(groups), covered


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
    """Mask with fixed chunk and past sizes.

    Chunk c spans frames [c*chunk_size, min((c+1)*chunk_size, T)); its
    queries may see keys from max(0, chunk_start - past_size) up to the
    chunk end. past_size = ALL opens the whole history before the chunk
    end. The trailing partial chunk still counts its past from the true
    chunk start.
    """
    if total_frames < 1:
        raise ValueError(f"total_frames must be >= 1, got {total_frames}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    _check_past(past_size)
    t = total_frames
    permitted = np.zeros((t, t), dtype=bool)
    for start in range(0, t, chunk_size):
        end = min(start + chunk_size, t)
        first_key = 0 if past_size == ALL else max(0, start - past_size)
        permitted[start:end, first_key:end] = True
    return ChunkMask(permitted, chunk_size, past_size, t)


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
