"""Reproducible random streams built on counter-based (Philox) generators.

All randomness in the package flows from a single 64-bit master seed through
named substreams: ``substream(seed, "chain", replicate, "pool")`` always
denotes the same stream, no matter where or in what order it is opened.
Labels are strings (hashed with crc32) or integers, combined into a
``SeedSequence`` spawn key.

Sample matrices are generated in fixed-size chunks of ``CHUNK_ROWS`` rows,
each chunk from its own spawned stream.  Inside a chunk the rows come in
blocks of ``BLOCK_ROWS``, each drawn ``SLAB_ROWS`` rows at a time from that
chunk's generator, one slab after another, which yields exactly the rows of
a single draw of the whole chunk while holding only one block in memory.
A block is a ``(rows, width)`` view with contiguous columns (the transpose
of a C-order ``(width, rows)`` buffer): consumers index columns, and each
block has a fresh buffer, so a caller may keep it.  Chunk boundaries depend
only on the row count, never on the number of worker threads, so any
parallel map over chunks reassembles to bit-identical output.
``measures.draw_pool`` spawns the chunk streams: every pool is drawn
through it.

:func:`ordered_map` is the one parallel map of the package.  It runs the
chain experiment's replicates, and inside each replicate the chunks of its
pool pass; results come back in item order, so every reduction over them
adds in the same order at any thread count.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK_ROWS = 1 << 16
BLOCK_ROWS = 1 << 12  # rows per block inside a chunk; divides CHUNK_ROWS
SLAB_ROWS = 1 << 8  # rows per generator call inside a block; divides BLOCK_ROWS


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


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]`` on up to ``threads`` worker threads, in item order."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
