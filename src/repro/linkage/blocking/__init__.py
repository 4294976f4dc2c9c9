"""Blocking schemes: standard, sorted neighborhood, canopy, q-gram,
suffix array, schema-agnostic token blocking, and composition."""

from repro.linkage.blocking.base import (
    Block,
    BlockCollection,
    Blocker,
    KeyBlocker,
    KeyFunction,
)
from repro.linkage.blocking.canopy import CanopyBlocker
from repro.linkage.blocking.composite import CompositeBlocker
from repro.linkage.blocking.lsh import MinHashBlocker
from repro.linkage.blocking.keys import (
    NAME_ALIASES,
    attribute_key,
    compound_key,
    first_token_key,
    normalized_attribute_key,
    prefix_key,
    soundex_key,
    token_set_key,
)
from repro.linkage.blocking.qgram import QGramBlocker
from repro.linkage.blocking.sorted_neighborhood import (
    SortedNeighborhoodBlocker,
)
from repro.linkage.blocking.standard import StandardBlocker
from repro.linkage.blocking.suffix import SuffixArrayBlocker
from repro.linkage.blocking.token import TokenBlocker

__all__ = [
    "Block",
    "BlockCollection",
    "Blocker",
    "CanopyBlocker",
    "CompositeBlocker",
    "KeyBlocker",
    "KeyFunction",
    "MinHashBlocker",
    "NAME_ALIASES",
    "QGramBlocker",
    "SortedNeighborhoodBlocker",
    "StandardBlocker",
    "SuffixArrayBlocker",
    "TokenBlocker",
    "attribute_key",
    "compound_key",
    "first_token_key",
    "normalized_attribute_key",
    "prefix_key",
    "soundex_key",
    "token_set_key",
]
