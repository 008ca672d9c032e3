"""Reproducible random streams built on SFC64 generators.

All randomness in the package flows from a single 64-bit master seed through
named substreams: ``substream(seed, "chain", replicate, "pool")`` always
denotes the same stream, no matter where or in what order it is opened.
Labels are strings (hashed with crc32) or integers, combined into a
``SeedSequence`` spawn key.

Sample matrices are generated in fixed-size chunks of ``CHUNK_ROWS`` rows,
each chunk from its own spawned stream, so no generator needs to jump
ahead: SFC64 (numpy's small fast chaotic generator) serves, and draws
normals about 1.4x and uniforms about 2.3x faster than the counter-based
Philox.  Inside a chunk the rows come in blocks of ``BLOCK_ROWS``, drawn
one after another from the chunk's generator.  A block's bytes are the
column-major fill of a C-order ``(width, rows)`` buffer: one draw of the
whole block, or, for the exact beta and gamma constructions, one draw per
``SLAB_ROWS`` rows of it.  The blocks are handed out in evaluation
batches of whole blocks, about ``BATCH_VALUES`` values each and never
across a chunk edge: a batch is the ``.T`` of its own C-order
``(width, rows)`` buffer, a ``(rows, width)`` view with contiguous
columns.  Consumers index columns, and each batch has a fresh buffer, so
a caller may keep it.  A block's bytes depend only on the stream, the
chunk and the block index, and chunk boundaries depend only on the row
count, never on the number of worker threads, so any parallel map over
chunks reassembles to bit-identical output.  ``measures.draw_pool``
spawns the chunk streams: every pool is drawn through it.

:func:`ordered_map` is the one parallel map of the package.  It runs the
chain experiment's replicates, the chunks of every pool pass
(``measures.pool_pass``) and the estimates of a chain replicate's rows
stage; results come back in item order, so every reduction over them adds
in the same order at any thread count.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import PreconditionError

CHUNK_ROWS = 1 << 16
BLOCK_ROWS = 1 << 12  # rows per block inside a chunk; divides CHUNK_ROWS
SLAB_ROWS = 1 << 8  # rows per construction draw inside a block; divides BLOCK_ROWS
BATCH_VALUES = 1 << 19  # values per evaluation batch of whole blocks inside a chunk


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    if isinstance(label, str):
        return zlib.crc32(label.encode("utf-8"))
    raise TypeError(f"stream label must be int or str, got {type(label)!r}")


def substream(seed: int, *labels) -> np.random.SeedSequence:
    """Named, order-independent child seed sequence of a master seed.

    The seed is a 64-bit entropy word: one outside 0..2**64 - 1 is a
    PreconditionError, since keeping its low 64 bits would alias another.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise PreconditionError(f"seed {seed} is outside 0..2**64 - 1")
    return np.random.SeedSequence(
        entropy=seed, spawn_key=tuple(_label_key(l) for l in labels),
    )


def generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(seed_seq))


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
