"""Blocking schemes: standard, sorted neighborhood, canopy, q-gram,
suffix array, schema-agnostic token blocking, and composition."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "base": "Block BlockCollection Blocker KeyBlocker KeyFunction",
        "canopy": "CanopyBlocker",
        "composite": "CompositeBlocker",
        "keys": (
            "NAME_ALIASES first_token_key normalized_attribute_key "
            "soundex_key token_set_key"
        ),
        "lsh": "MinHashBlocker",
        "qgram": "QGramBlocker",
        "sorted_neighborhood": "SortedNeighborhoodBlocker",
        "standard": "StandardBlocker",
        "suffix": "SuffixArrayBlocker",
        "token": "TokenBlocker",
    },
)
