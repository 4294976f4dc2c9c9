"""String and value similarity functions.

Every function returns a similarity in ``[0, 1]`` (1 = identical) so
that comparators can mix them freely. Edit-distance primitives are also
exposed raw for callers that need counts.

The toolbox covers the families the record-linkage literature relies
on: edit-based (Levenshtein, Damerau, Jaro, Jaro-Winkler), token-based
(Jaccard, Dice, overlap, cosine), hybrid (Monge-Elkan), and typed
(numeric with relative tolerance, measurements with unit conversion).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from repro.text.normalize import parse_measurement
from repro.text.tokens import word_tokens

__all__ = [
    "TOKEN_SIMILARITY_CACHE_MAXSIZE",
    "levenshtein_distance",
    "damerau_levenshtein_distance",
    "levenshtein_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_similarity",
    "overlap_coefficient",
    "cosine_similarity",
    "monge_elkan_similarity",
    "monge_elkan_tokens",
    "numeric_similarity",
    "measurement_similarity",
    "exact_similarity",
    "product_name_similarity",
    "product_name_similarity_tokens",
]

#: Bound on the token tier — the Jaro-Winkler memo every token-level
#: consumer (Monge-Elkan, product names, the schema name matcher, plain
#: string fields) shares. Redundant sources re-publish the same tokens:
#: the ledger's ``stream_steady`` makes 478,515 token comparisons over
#: 196 distinct ordered pairs, ``batch_wide`` sees 28,408 distinct
#: pairs. Sized on ``batch_wide``, the workload it is tight for: 8,192
#: entries cost +6.4 % peak RSS at a 76 % hit rate, 32,768 (every pair
#: resident) cost +13 % and were rejected. Observable via
#: :func:`repro.obs.observe_text_caches`, like
#: :data:`repro.text.normalize.NORMALIZE_CACHE_MAXSIZE`.
TOKEN_SIMILARITY_CACHE_MAXSIZE = 8192


def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character edits transforming ``a`` → ``b``."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[i] + 1,      # deletion
                    current[i - 1] + 1,   # insertion
                    previous[i - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def damerau_levenshtein_distance(a: str, b: str) -> int:
    """Edit distance that additionally allows adjacent transpositions."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Optimal string alignment variant: O(len(a) * len(b)), three rows.
    two_ago: list[int] | None = None
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            best = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + cost,
            )
            if (
                two_ago is not None
                and i > 1
                and j > 1
                and ca == b[j - 2]
                and a[i - 2] == cb
            ):
                best = min(best, two_ago[j - 2] + 1)
            current.append(best)
        two_ago, previous = previous, current
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Levenshtein distance normalized to a similarity in [0, 1]."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity: matches within half the longer length, plus
    transposition penalty."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    # Greedy matching, as the textbook window scan does it: each
    # character of ``a`` takes the first untaken equal character of
    # ``b`` inside its window. ``str.find`` does the scan in C.
    find = b.find
    taken = [False] * len(b)
    a_matched: list[str] = []
    for i, ca in enumerate(a):
        high = i + window + 1
        j = find(ca, i - window if i > window else 0, high)
        while j >= 0 and taken[j]:
            j = find(ca, j + 1, high)
        if j >= 0:
            taken[j] = True
            a_matched.append(ca)
    matches = len(a_matched)
    if matches == 0:
        return 0.0
    # One pass over ``b``'s matched characters, in ``b`` order, against
    # ``a``'s matched characters in ``a`` order.
    out_of_order = 0
    k = 0
    for cb, flag in zip(b, taken):
        if flag:
            if cb != a_matched[k]:
                out_of_order += 1
            k += 1
    transpositions = out_of_order // 2
    return (
        matches / len(a)
        + matches / len(b)
        + (matches - transpositions) / matches
    ) / 3.0


@lru_cache(maxsize=TOKEN_SIMILARITY_CACHE_MAXSIZE)
def _jaro_winkler_memo(a: str, b: str, prefix_weight: float) -> float:
    """The token tier: Jaro-Winkler of one *ordered* argument triple.

    Greedy Jaro matching runs from ``a``'s side and nothing here proves
    it symmetric, so ``(a, b)`` and ``(b, a)`` are separate entries — a
    canonicalised key would answer one order with the other's float.
    """
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro similarity boosted for a shared prefix of up to 4 characters.

    Memoized per ordered ``(a, b, prefix_weight)`` (see
    :data:`TOKEN_SIMILARITY_CACHE_MAXSIZE`); the argument check runs on
    every call.
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(
            f"prefix_weight must be in [0, 0.25], got {prefix_weight}"
        )
    return _jaro_winkler_memo(a, b, prefix_weight)


def _as_set(value: str | Iterable[str]) -> set[str]:
    """Token set of ``value``.

    Strings are word-tokenized; any other iterable is treated as
    *already tokenized* and used verbatim — duplicates collapse, but
    tokens are never re-tokenized, re-cased, or filtered, so callers
    that pass empty-string or non-ASCII tokens get exactly those tokens
    as set elements (the tokenizer itself never produces either: it
    emits only non-empty ``[a-z0-9]+`` runs).
    """
    if isinstance(value, str):
        return set(word_tokens(value))
    return set(value)


def jaccard_similarity(a: str | Iterable[str], b: str | Iterable[str]) -> float:
    """|A ∩ B| / |A ∪ B| over word tokens (or pre-tokenized iterables)."""
    set_a, set_b = _as_set(a), _as_set(b)
    if not set_a and not set_b:
        return 1.0
    union = set_a | set_b
    if not union:
        return 0.0
    return len(set_a & set_b) / len(union)


def dice_similarity(a: str | Iterable[str], b: str | Iterable[str]) -> float:
    """2|A ∩ B| / (|A| + |B|) over word tokens."""
    set_a, set_b = _as_set(a), _as_set(b)
    if not set_a and not set_b:
        return 1.0
    total = len(set_a) + len(set_b)
    if total == 0:
        return 0.0
    return 2.0 * len(set_a & set_b) / total


def overlap_coefficient(a: str | Iterable[str], b: str | Iterable[str]) -> float:
    """|A ∩ B| / min(|A|, |B|) over word tokens."""
    set_a, set_b = _as_set(a), _as_set(b)
    if not set_a and not set_b:
        return 1.0
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller


def _as_counts(value: Counter[str] | str | Iterable[str]) -> Counter[str]:
    """Token-count view of ``value``.

    Strings are word-tokenized; Counters pass through; any other
    iterable is treated as *already tokenized* and counted verbatim
    (duplicates keep their multiplicity). Historically a pre-tokenized
    list was handed to the tokenizer, which crashed on non-string
    input — token iterables are now first-class, matching ``_as_set``.
    """
    if isinstance(value, Counter):
        return value
    if isinstance(value, str):
        return Counter(word_tokens(value))
    return Counter(value)


def cosine_similarity(
    a: Counter[str] | str | Iterable[str],
    b: Counter[str] | str | Iterable[str],
) -> float:
    """Cosine of token-count vectors (strings are word-tokenized,
    non-Counter iterables are counted as pre-tokenized input)."""
    counts_a = _as_counts(a)
    counts_b = _as_counts(b)
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    shared = counts_a.keys() & counts_b.keys()
    dot = sum(counts_a[t] * counts_b[t] for t in shared)
    norm_a = math.sqrt(sum(v * v for v in counts_a.values()))
    norm_b = math.sqrt(sum(v * v for v in counts_b.values()))
    return dot / (norm_a * norm_b)


def monge_elkan_tokens(
    tokens_a: Sequence[str], tokens_b: Sequence[str]
) -> float:
    """Monge-Elkan over pre-tokenized inputs (the prepared fast path).

    Identical arithmetic to :func:`monge_elkan_similarity`; callers that
    have already tokenized (e.g. prepared records) skip re-tokenizing.
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0

    def directed(xs: Sequence[str], ys: Sequence[str]) -> float:
        return (
            sum(max(jaro_winkler_similarity(x, y) for y in ys) for x in xs)
            / len(xs)
        )

    return (directed(tokens_a, tokens_b) + directed(tokens_b, tokens_a)) / 2.0


def monge_elkan_similarity(a: str, b: str) -> float:
    """Average best Jaro-Winkler of each token of ``a`` against ``b``.

    Asymmetric in principle; this implementation symmetrizes by
    averaging both directions, which is the common practice.
    """
    return monge_elkan_tokens(word_tokens(a), word_tokens(b))


def numeric_similarity(a: float, b: float, tolerance: float = 0.1) -> float:
    """1 at equality, linearly decaying to 0 at ``tolerance`` relative gap.

    The gap is relative to the larger magnitude, so the function is
    symmetric and scale-free. ``tolerance=0.1`` means values 10% apart
    (or more) score 0.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if a == b:
        return 1.0
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 1.0
    relative_gap = abs(a - b) / scale
    return max(0.0, 1.0 - relative_gap / tolerance)


def measurement_similarity(a: str, b: str, tolerance: float = 0.05) -> float:
    """Similarity of two measurement strings after unit normalization.

    ``"5.5 in"`` vs ``"13.97 cm"`` score 1.0. Falls back to normalized
    Levenshtein when either side fails to parse as a measurement, so it
    is safe to apply to arbitrary value strings.
    """
    meas_a = parse_measurement(a)
    meas_b = parse_measurement(b)
    if meas_a is None or meas_b is None:
        return levenshtein_similarity(a.lower().strip(), b.lower().strip())
    base_a = meas_a.in_base_unit()
    base_b = meas_b.in_base_unit()
    if base_a.unit != base_b.unit:
        return 0.0
    return numeric_similarity(base_a.value, base_b.value, tolerance=tolerance)


def exact_similarity(a: str, b: str) -> float:
    """1.0 iff the strings are identical, else 0.0."""
    return 1.0 if a == b else 0.0


def _numeric_token_set(tokens: Iterable[str]) -> set[str]:
    """The subset of ``tokens`` containing at least one digit.

    ``str.isdigit`` is intentionally used per character, so tokens
    carrying *any* Unicode digit (including non-ASCII digits like
    ``"٣"``) count as numeric when handed pre-tokenized input, even
    though the built-in tokenizer itself only ever emits ASCII
    ``[a-z0-9]+`` tokens. Empty-string tokens are never numeric.
    """
    return {
        token
        for token in tokens
        if any(character.isdigit() for character in token)
    }


def _numeric_tokens(text: str) -> set[str]:
    return _numeric_token_set(word_tokens(text))


def product_name_similarity_tokens(
    tokens_a: Sequence[str],
    numbers_a: frozenset[str] | set[str],
    tokens_b: Sequence[str],
    numbers_b: frozenset[str] | set[str],
) -> float:
    """Model-number-aware name similarity over pre-tokenized inputs.

    Identical arithmetic to :func:`product_name_similarity`; ``numbers_*``
    must be the numeric-token subsets of ``tokens_*`` (see
    :func:`repro.linkage.engine.prepare_records`, which caches both).
    """
    base = monge_elkan_tokens(tokens_a, tokens_b)
    if not numbers_a and not numbers_b:
        return base
    if not numbers_a or not numbers_b:
        return base * 0.7
    matched = 0
    for token_a in numbers_a:
        if any(
            jaro_winkler_similarity(token_a, token_b) >= 0.8
            for token_b in numbers_b
        ):
            matched += 1
    overlap = matched / max(len(numbers_a), len(numbers_b))
    return base * (0.25 + 0.75 * overlap)


def product_name_similarity(a: str, b: str) -> float:
    """Name similarity where mismatched model numbers are near-fatal.

    Product names share long brand/series prefixes ("canon pro 512" vs
    "canon pro 3"), so plain token similarity over-matches. This
    measure starts from Monge-Elkan and multiplies in the agreement of
    the *numeric* tokens (soft-matched with Jaro-Winkler ≥ 0.8 so a
    typo'd digit still counts): names whose model numbers disagree are
    pushed well below any sensible match threshold.
    """
    tokens_a = word_tokens(a)
    tokens_b = word_tokens(b)
    return product_name_similarity_tokens(
        tokens_a, _numeric_token_set(tokens_a),
        tokens_b, _numeric_token_set(tokens_b),
    )
