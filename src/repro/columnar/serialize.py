"""Compact, durable serialization for columnar blocks.

Blocks ship to worker processes and spill to disk (the out-of-core
layer), so their wire size matters. Serialization uses pickle protocol
5: numpy columns serialize as raw contiguous buffers (no per-element
overhead) and interned tables carry each distinct string exactly once.
A block holds no caches (similarity memos live with the similarity
functions), so a round-tripped block is value-identical.

Round-tripping is lossless for scoring: every kernel output over a
deserialized block is bit-identical to the original (asserted in
tests/test_columnar.py).
"""

from __future__ import annotations

import pickle

from repro.columnar.block import ColumnarBlock

__all__ = ["block_to_bytes", "block_from_bytes"]

#: Protocol 5 keeps large array columns as out-of-band-capable raw
#: buffers; available on every supported interpreter (3.8+).
_PROTOCOL = 5


def block_to_bytes(block: ColumnarBlock) -> bytes:
    """Serialize ``block``."""
    return pickle.dumps(block, protocol=_PROTOCOL)


def block_from_bytes(payload: bytes) -> ColumnarBlock:
    """Reconstruct a block serialized by :func:`block_to_bytes`."""
    block = pickle.loads(payload)
    if not isinstance(block, ColumnarBlock):
        raise TypeError(
            f"payload does not deserialize to a ColumnarBlock: "
            f"{type(block).__name__}"
        )
    return block
