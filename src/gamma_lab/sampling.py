"""Reproducible random streams built on counter-based (Philox) generators.

All randomness in the package flows from a single 64-bit master seed through
named substreams: ``substream(seed, "chain", replicate, "pool")`` always
denotes the same stream, no matter where or in what order it is opened.
Labels are strings (hashed with crc32) or integers, combined into a
``SeedSequence`` spawn key.

Sample matrices are generated in fixed-size chunks of ``CHUNK_ROWS`` rows,
each chunk from its own spawned stream.  Chunk boundaries depend only on the
row count, never on the number of worker threads, so any parallel map over
chunks reassembles to bit-identical output.  ``measures.draw_pool`` is the
one consumer of :func:`chunk_streams`: every pool is drawn through it.
"""

from __future__ import annotations

import zlib
from typing import Iterator

import numpy as np

CHUNK_ROWS = 1 << 16


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    raise TypeError(f"stream label must be int or str, got {type(label)!r}")


def substream(seed: int, *labels) -> np.random.SeedSequence:
    """Named, order-independent child seed sequence of a master seed."""
    return np.random.SeedSequence(
        entropy=int(seed) & (1 << 64) - 1,
        spawn_key=tuple(_label_key(l) for l in labels),
    )


def generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def derive_seed(seed: int, *labels) -> int:
    """A 64-bit integer seed for a named substream (for APIs taking ints)."""
    return int(substream(seed, *labels).generate_state(1, np.uint64)[0])


def chunk_edges(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the fixed chunk partition of n rows."""
    return [(lo, min(lo + CHUNK_ROWS, n)) for lo in range(0, n, CHUNK_ROWS)]


def chunk_streams(
    seed_seq: np.random.SeedSequence, n: int
) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield (start, stop, generator) per chunk; deterministic in n and seed."""
    edges = chunk_edges(n)
    children = seed_seq.spawn(len(edges))
    for (lo, hi), child in zip(edges, children):
        yield lo, hi, generator(child)
