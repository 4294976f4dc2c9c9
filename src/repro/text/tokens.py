"""Tokenizers used by blocking, schema matching, and similarity.

Two token granularities cover all consumers in the library:

* **word tokens** — for token blocking and set similarities;
* **q-grams** — character n-grams for typo-robust blocking and matching.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = [
    "TOKEN_CACHE_MAXSIZE",
    "word_tokens",
    "word_token_tuple",
    "qgrams",
]

_WORD = re.compile(r"[a-z0-9]+")

#: Hard bound on the tokenization memo cache — capped, and left out of
#: run reports, for the same reasons as
#: :data:`repro.text.normalize.NORMALIZE_CACHE_MAXSIZE`.
TOKEN_CACHE_MAXSIZE = 16384


@lru_cache(maxsize=TOKEN_CACHE_MAXSIZE)
def word_token_tuple(text: str) -> tuple[str, ...]:
    """Memoized, immutable variant of :func:`word_tokens`.

    The comparison hot path tokenizes the same record values once per
    candidate pair; caching an immutable tuple makes repeat calls free
    without risking aliasing bugs from a shared mutable list.
    """
    return tuple(_WORD.findall(text.lower()))


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens, in order of appearance."""
    return list(word_token_tuple(text))


def qgrams(text: str, q: int = 3, pad: bool = True) -> list[str]:
    """Character q-grams of ``text``.

    With ``pad=True`` (the default) the string is padded with ``q - 1``
    ``#``/``$`` sentinels on each side, so that prefixes and suffixes
    generate distinguishable grams — the standard construction for
    q-gram blocking.

    >>> qgrams("abc", q=2)
    ['#a', 'ab', 'bc', 'c$']
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    lowered = text.lower()
    if pad and q > 1:
        lowered = "#" * (q - 1) + lowered + "$" * (q - 1)
    if len(lowered) < q:
        return [lowered] if lowered else []
    return [lowered[i : i + q] for i in range(len(lowered) - q + 1)]

