"""Text substrate: normalization, tokenizers, phonetics, similarities."""

from repro.text.normalize import (
    Measurement,
    canonical_value,
    normalize_attribute_name,
    normalize_value,
    normalize_whitespace,
    parse_measurement,
    to_base_unit,
)
from repro.text.phonetic import soundex
from repro.text.similarity import (
    _jaro_winkler_memo,
    cosine_similarity,
    damerau_levenshtein_distance,
    dice_similarity,
    exact_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    measurement_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
    product_name_similarity,
)
from repro.text.tfidf import TfidfModel, soft_tfidf_similarity
from repro.text.tokens import (
    qgrams,
    shingles,
    token_counts,
    word_token_tuple,
    word_tokens,
)

#: The bounded memo caches of the value-comparison stack, by report
#: name. This is the registry :func:`repro.obs.observe_text_caches`
#: reads to publish hit/miss gauges; anything added here shows up in
#: run reports. ``repro.linkage.comparison`` registers its value-level
#: memos (``"value_similarity"``, ``"value_payload"``) here when it is
#: imported.
MEMO_CACHES = {
    "normalize_value": normalize_value,
    "word_tokens": word_token_tuple,
    "jaro_winkler": _jaro_winkler_memo,
}


def clear_memo_caches() -> None:
    """Empty every cache in :data:`MEMO_CACHES`.

    The memos are process-wide and never change a result, only when it
    is computed — so the one place this matters is timing: two modes
    timed one after the other in one process share them, and the second
    runs on the first's entries unless they are emptied in between.
    """
    for cache in MEMO_CACHES.values():
        cache.cache_clear()


__all__ = [
    "MEMO_CACHES",
    "Measurement",
    "TfidfModel",
    "canonical_value",
    "clear_memo_caches",
    "cosine_similarity",
    "damerau_levenshtein_distance",
    "dice_similarity",
    "exact_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "measurement_similarity",
    "monge_elkan_similarity",
    "normalize_attribute_name",
    "normalize_value",
    "normalize_whitespace",
    "numeric_similarity",
    "overlap_coefficient",
    "parse_measurement",
    "product_name_similarity",
    "qgrams",
    "shingles",
    "soft_tfidf_similarity",
    "soundex",
    "to_base_unit",
    "token_counts",
    "word_tokens",
]
