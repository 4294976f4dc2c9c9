"""String and value similarity functions.

Every function returns a similarity in ``[0, 1]`` (1 = identical) so
that comparators can mix them freely. Edit-distance primitives are also
exposed raw for callers that need counts.

The toolbox covers the families the record-linkage literature relies
on: edit-based (Levenshtein, Jaro, Jaro-Winkler), token-based
(Jaccard, Dice, overlap, cosine), hybrid (Monge-Elkan), and typed
(numeric with relative tolerance, measurements with unit conversion).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Sequence

from repro.text.normalize import parse_measurement
from repro.text.tokens import word_tokens

__all__ = [
    "levenshtein_distance",
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
    "model_number_factor",
]

def levenshtein_distance(a: str, b: str) -> int:
    """Minimum number of single-character edits transforming ``a`` → ``b``.

    Hyyrö's bit-vector form of the textbook dynamic program (Myers
    1999; Hyyrö 2001): one column of the DP table is two bit vectors of
    vertical +1/−1 deltas over the shorter string, and each character
    of the longer one advances the column in a few integer operations.
    Python ints are unbounded, so no word size limits the length. The
    distances are the DP's, integer for integer.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    # Bit i of match[c] is set iff a[i] == c.
    match: dict[str, int] = {}
    bit = 1
    for character in a:
        match[character] = match.get(character, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    plus, minus = full, 0  # D[i][0] - D[i-1][0] = +1 for every row i
    distance = len(a)
    for character in b:
        equal = match.get(character, 0)
        vertical = equal | minus
        horizontal = (((equal & plus) + plus) ^ plus) | equal
        horizontal_plus = minus | ~(horizontal | plus)
        horizontal_minus = plus & horizontal
        if horizontal_plus & last:
            distance += 1
        elif horizontal_minus & last:
            distance -= 1
        # Row 0 is D[0][j] = j: its horizontal delta is always +1.
        horizontal_plus = horizontal_plus << 1 | 1
        horizontal_minus <<= 1
        plus = (horizontal_minus | ~(vertical | horizontal_plus)) & full
        minus = horizontal_plus & vertical
    return distance


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


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro similarity boosted for a shared prefix of up to 4 characters."""
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(
            f"prefix_weight must be in [0, 0.25], got {prefix_weight}"
        )
    jaro = jaro_similarity(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


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
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Monge-Elkan over pre-tokenized inputs (the prepared fast path).

    Identical arithmetic to :func:`monge_elkan_similarity`; callers that
    have already tokenized (e.g. prepared records) skip re-tokenizing.
    ``inner`` scores one token pair (a comparator passes its memoized
    Jaro-Winkler). Jaro-Winkler is symmetric, so one |A|×|B| grid
    serves both directions: its row maxima score ``a`` against ``b``,
    its column maxima ``b`` against ``a``.
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    grid = [[inner(x, y) for y in tokens_b] for x in tokens_a]
    forward = math.fsum(map(max, grid)) / len(tokens_a)
    backward = math.fsum(map(max, zip(*grid))) / len(tokens_b)
    return (forward + backward) / 2.0


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


#: The relative gap at which two measurements stop being similar.
MEASUREMENT_TOLERANCE = 0.05


def measurement_similarity(a: str, b: str) -> float:
    """Similarity of two measurement strings after unit normalization.

    ``"5.5 in"`` vs ``"13.97 cm"`` score 1.0, and the score falls to 0 at
    a relative gap of :data:`MEASUREMENT_TOLERANCE`. Falls back to normalized
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
    return numeric_similarity(
        base_a.value, base_b.value, tolerance=MEASUREMENT_TOLERANCE
    )


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


def model_number_factor(
    numbers_a: frozenset[str] | set[str],
    numbers_b: frozenset[str] | set[str],
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float | None:
    """The model-number factor :func:`product_name_similarity` multiplies
    into its Monge-Elkan base: ``None`` when neither name carries a
    number, 0.7 when one does, ``0.25 + 0.75 * overlap`` when both do.

    The base is at most 1, so the factor alone bounds the name score
    from above without the token grid (``RecordComparator.decide``
    reads it so). Numbers soft-match when ``inner`` scores them ≥ 0.8.
    """
    if not numbers_a and not numbers_b:
        return None
    if not numbers_a or not numbers_b:
        return 0.7

    def partnered(xs, ys) -> int:
        return sum(
            any(inner(x, y) >= 0.8 for y in ys) for x in xs
        )

    # Counted from both sides, the smaller count kept, so the score does
    # not depend on which name is the left argument: "123 124" finds two
    # partners in "123", and "123" one in "123 124".
    matched = min(
        partnered(numbers_a, numbers_b), partnered(numbers_b, numbers_a)
    )
    overlap = matched / max(len(numbers_a), len(numbers_b))
    return 0.25 + 0.75 * overlap


def product_name_similarity_tokens(
    tokens_a: Sequence[str],
    numbers_a: frozenset[str] | set[str],
    tokens_b: Sequence[str],
    numbers_b: frozenset[str] | set[str],
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Model-number-aware name similarity over pre-tokenized inputs.

    Identical arithmetic to :func:`product_name_similarity`; ``numbers_*``
    must be the numeric-token subsets of ``tokens_*`` (see
    :meth:`repro.linkage.RecordComparator.prepare`, which caches both).
    ``inner`` scores one token pair, as in :func:`monge_elkan_tokens`.
    """
    base = monge_elkan_tokens(tokens_a, tokens_b, inner)
    factor = model_number_factor(numbers_a, numbers_b, inner)
    return base if factor is None else base * factor


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
