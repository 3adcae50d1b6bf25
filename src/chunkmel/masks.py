"""Chunk attention masks for constrained training and the parallel oracle.

A chunk mask partitions the time axis into consecutive chunks of
`chunk_size` frames (the last chunk may be shorter). A query may attend
to every key in its own chunk and to `past_size` frames immediately
before that chunk's start; `past_size` may also be ALL, meaning the
entire history. All queries inside one chunk share one row pattern,
which is what lets a whole chunk attend one shared cache at inference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

ALL = "all"

PastSize = int | str


@dataclass
class ChunkMask:
    """Boolean (query, key) permission matrix plus the sizes that built it.

    The matrix is frozen after construction; build a new mask instead of
    editing one.
    """

    permitted: np.ndarray
    chunk_size: int
    past_size: PastSize
    total_frames: int

    def __post_init__(self):
        self.permitted.setflags(write=False)

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
