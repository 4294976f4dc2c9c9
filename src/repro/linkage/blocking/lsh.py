"""MinHash/LSH blocking: similarity-thresholded candidates at scale.

Token and q-gram blocking key on *shared tokens*; MinHash LSH keys on
*estimated Jaccard similarity*. Each record's token set is sketched
with ``n_hashes`` min-hashes; the sketch is cut into ``bands`` bands of
``rows = n_hashes / bands`` hashes, and records colliding on any whole
band become candidates. The collision probability of a pair with
Jaccard similarity ``s`` is ``1 − (1 − s^rows)^bands`` — the classic
S-curve whose threshold ``(1/bands)^(1/rows)`` the constructor reports.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.blocking.base import KeyBlocker
from repro.text.normalize import normalize_value
from repro.text.tokens import word_tokens

__all__ = ["MinHashBlocker"]

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _stable_hash(token: str) -> int:
    """Deterministic 32-bit hash (Python's str hash is salted)."""
    value = 2166136261
    for character in token:
        value ^= ord(character)
        value = (value * 16777619) & 0xFFFFFFFF
    return value


class MinHashBlocker(KeyBlocker):
    """LSH over MinHash sketches of record token sets.

    Parameters
    ----------
    n_hashes:
        Sketch size; must be divisible by ``bands``.
    bands:
        Number of LSH bands. More bands → lower similarity threshold
        (more candidates).
    text_function:
        Record → text whose word tokens are sketched (defaults to all
        attribute values).
    seed:
        Seeds the hash-family parameters.
    """

    name = "minhash-lsh"

    def __init__(
        self,
        n_hashes: int = 64,
        bands: int = 16,
        text_function: Callable[[Record], str] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_hashes < 1 or bands < 1:
            raise ConfigurationError("n_hashes and bands must be >= 1")
        if n_hashes % bands != 0:
            raise ConfigurationError(
                f"bands ({bands}) must divide n_hashes ({n_hashes})"
            )
        self._n_hashes = n_hashes
        self._bands = bands
        self._rows = n_hashes // bands
        self._text_function = text_function or (lambda r: r.text())
        import random

        rng = random.Random(seed)
        self._a = [
            rng.randrange(1, _MERSENNE_PRIME) for __ in range(n_hashes)
        ]
        self._b = [
            rng.randrange(0, _MERSENNE_PRIME) for __ in range(n_hashes)
        ]

    @property
    def similarity_threshold(self) -> float:
        """Approximate Jaccard similarity at 50% collision probability."""
        return (1.0 / self._bands) ** (1.0 / self._rows)

    def _sketch(self, tokens: Sequence[str]) -> tuple[int, ...] | None:
        if not tokens:
            return None
        hashes = [_stable_hash(token) for token in tokens]
        sketch = []
        for a, b in zip(self._a, self._b):
            sketch.append(
                min(
                    ((a * h + b) % _MERSENNE_PRIME) & _MAX_HASH
                    for h in hashes
                )
            )
        return tuple(sketch)

    def record_keys(self, record: Record) -> list[str]:
        """One key per band: the band index and its slice of the sketch."""
        tokens = word_tokens(normalize_value(self._text_function(record)))
        sketch = self._sketch(tokens)
        if sketch is None:
            return []
        keys = []
        for band in range(self._bands):
            start = band * self._rows
            signature = sketch[start : start + self._rows]
            keys.append(f"b{band}:" + ",".join(map(str, signature)))
        return keys
