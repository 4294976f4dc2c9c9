"""Canopy clustering blocking (McCallum, Nigam & Ungar).

Canopies are built with a *cheap* similarity (token Jaccard here):
pick a random seed record, gather everything within the *loose*
threshold into its canopy, and remove from the seed pool everything
within the *tight* threshold. Canopies overlap, so a record can appear
in several blocks — recall insurance that key-equality blocking lacks.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import Block, BlockCollection, Blocker
from repro.text.tokens import word_tokens

__all__ = ["CanopyBlocker"]


class CanopyBlocker(Blocker):
    """Overlapping canopies under a cheap token-Jaccard similarity.

    Parameters
    ----------
    text_function:
        Maps a record to the text its tokens are drawn from (defaults
        to all attribute values concatenated).
    loose, tight:
        Jaccard thresholds with ``0 <= loose <= tight <= 1``. ``loose``
        admits records into a canopy; ``tight`` removes them from the
        seed pool.

    Canopy results depend on seed order, which one fixed seed shuffles,
    so runs are reproducible.
    """

    name = "canopy"

    def __init__(
        self,
        text_function: Callable[[Record], str] | None = None,
        loose: float = 0.3,
        tight: float = 0.6,
    ) -> None:
        if not 0.0 <= loose <= tight <= 1.0:
            raise ConfigurationError(
                f"need 0 <= loose <= tight <= 1, got {loose}, {tight}"
            )
        self._text_function = text_function or (lambda r: r.text())
        self._loose = loose
        self._tight = tight

    def block(self, records: Sequence[Record]) -> BlockCollection:
        tokens: dict[str, frozenset[str]] = {
            record.record_id: frozenset(
                word_tokens(self._text_function(record))
            )
            for record in records
        }
        # Inverted index: token → record ids, to avoid all-pairs scans.
        index: dict[str, set[str]] = {}
        for record_id, record_tokens in tokens.items():
            for token in record_tokens:
                index.setdefault(token, set()).add(record_id)

        rng = random.Random(0)
        pool = sorted(tokens)
        rng.shuffle(pool)
        alive = set(pool)
        collection = BlockCollection()
        canopy_index = 0
        for seed_id in pool:
            if seed_id not in alive:
                continue
            seed_tokens = tokens[seed_id]
            members = [seed_id]
            removed = {seed_id}
            candidates: set[str] = set()
            for token in seed_tokens:
                candidates.update(index.get(token, ()))
            candidates.discard(seed_id)
            for other_id in sorted(candidates):
                other_tokens = tokens[other_id]
                union = len(seed_tokens | other_tokens)
                if union == 0:
                    continue
                similarity = len(seed_tokens & other_tokens) / union
                if similarity >= self._loose:
                    members.append(other_id)
                    if similarity >= self._tight:
                        removed.add(other_id)
            alive -= removed
            if len(members) > 1:
                collection.add(
                    Block(f"canopy{canopy_index:06d}", tuple(members))
                )
            canopy_index += 1
        return collection
