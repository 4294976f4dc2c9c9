"""Reusable blocking-key functions.

Key functions are tiny; these cover the standard constructions:
normalized value, first token, every token, and Soundex code. Every
factory accepts ``aliases`` — fallback attribute names tried when the
primary one is absent — because heterogeneous sources rarely agree on
attribute naming (the record's title may be ``name``, ``title``, or
``model`` depending on the source).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.record import Record
from repro.linkage.blocking.base import KeyFunction
from repro.text.normalize import normalize_value
from repro.text.phonetic import soundex
from repro.text.tokens import word_tokens

__all__ = [
    "NAME_ALIASES",
    "normalized_attribute_key",
    "first_token_key",
    "soundex_key",
    "token_set_key",
]

#: The title-like attribute dialects of the built-in vocabularies.
NAME_ALIASES: tuple[str, ...] = (
    "title", "product name", "model", "item name",
)


def _lookup(
    record: Record, attribute: str, aliases: Sequence[str]
) -> str | None:
    value = record.get(attribute)
    if value is not None:
        return value
    for alias in aliases:
        value = record.get(alias)
        if value is not None:
            return value
    return None


def normalized_attribute_key(
    attribute: str, aliases: Sequence[str] = ()
) -> KeyFunction:
    """Normalized value of ``attribute`` as the key."""

    def key(record: Record) -> str | None:
        value = _lookup(record, attribute, aliases)
        return normalize_value(value) if value is not None else None

    return key


def first_token_key(
    attribute: str, aliases: Sequence[str] = ()
) -> KeyFunction:
    """First word token of ``attribute`` (e.g. the brand in a title)."""

    def key(record: Record) -> str | None:
        value = _lookup(record, attribute, aliases)
        if value is None:
            return None
        tokens = word_tokens(value)
        return tokens[0] if tokens else None

    return key


def soundex_key(
    attribute: str, aliases: Sequence[str] = ()
) -> KeyFunction:
    """Soundex code of the first token of ``attribute``."""

    def key(record: Record) -> str | None:
        value = _lookup(record, attribute, aliases)
        if value is None:
            return None
        tokens = word_tokens(value)
        return soundex(tokens[0]) if tokens else None

    return key


def token_set_key(
    attribute: str, aliases: Sequence[str] = ()
) -> KeyFunction:
    """Every word token of ``attribute`` as a separate key (multi-key)."""

    def key(record: Record) -> Iterable[str]:
        value = _lookup(record, attribute, aliases)
        if value is None:
            return ()
        return word_tokens(value)

    return key

