"""Schema-agnostic token blocking (Papadakis et al.).

Every word token appearing in *any* attribute value becomes a block
key. No schema knowledge needed — exactly what highly heterogeneous
multi-source corpora call for — at the price of enormous redundancy,
which is what meta-blocking (see :mod:`repro.linkage.metablocking`)
exists to prune.
"""

from __future__ import annotations

from repro.core.record import Record
from repro.linkage.blocking.base import KeyBlocker, require_positive
from repro.text.normalize import normalize_value
from repro.text.tokens import word_tokens

__all__ = ["TokenBlocker"]


class TokenBlocker(KeyBlocker):
    """Block on every token of every attribute value.

    ``max_block_size`` drops stop-word blocks; ``min_token_length``
    skips tokens too short to be discriminative.
    """

    name = "token"

    def __init__(
        self,
        max_block_size: int | None = None,
        min_token_length: int = 2,
    ) -> None:
        super().__init__(max_block_size)
        require_positive("min_token_length", min_token_length)
        self._min_token_length = min_token_length

    def record_keys(self, record: Record) -> set[str]:
        """The record's distinct tokens: each indexes it once."""
        tokens: set[str] = set()
        for value in record.attributes.values():
            for token in word_tokens(normalize_value(value)):
                if len(token) >= self._min_token_length:
                    tokens.add(token)
        return tokens
