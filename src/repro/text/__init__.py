"""Text substrate: normalization, tokenizers, phonetics, similarities."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "normalize": (
            "Measurement canonical_value normalize_attribute_name "
            "normalize_value normalize_whitespace parse_measurement "
            "to_base_unit"
        ),
        "phonetic": "soundex",
        "similarity": (
            "cosine_similarity dice_similarity exact_similarity "
            "jaccard_similarity jaro_similarity jaro_winkler_similarity "
            "levenshtein_distance levenshtein_similarity "
            "measurement_similarity monge_elkan_similarity "
            "numeric_similarity overlap_coefficient product_name_similarity"
        ),
        "tokens": "qgrams word_tokens",
    },
)
