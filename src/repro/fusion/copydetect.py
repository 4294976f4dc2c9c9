"""Bayesian copy detection between sources (Dong et al., VLDB'09).

Two independent sources agree on *true* values (both are pulled toward
the truth) but rarely agree on the *same false* value — there are many
ways to be wrong. A copier, however, replicates its parent's false
values verbatim. Copy detection is therefore a likelihood-ratio test
over the three observable outcomes on items both sources claim:

* agree on a value currently believed **true** — weak evidence either
  way;
* agree on a value currently believed **false** — strong evidence of
  copying;
* disagree — evidence of independence.

The posterior of dependence combines the per-item likelihood ratios
with a prior; direction is evaluated both ways (s1 copies s2 and vice
versa) and the better-fitting direction's likelihood is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.fusion.base import _SET, ClaimSet

__all__ = ["CopyDetector"]

_EPSILON = 1e-12


def _outcome_counter(
    claims: ClaimSet, truths: Mapping[str, str], sources: Sequence[str]
) -> Callable[[str, str], tuple[int, int, int]]:
    """``counts(a, b)``: the (agree-true, agree-false, disagree) counts
    of two of ``sources`` over the items both claim.

    What a pair shares does not depend on ``truths``: ``shared`` and
    ``agree`` are the popcounts of the ``&`` of the two sources' item
    and claim-key masks in the claim index (a source with no claims has
    none). What a round adds is one mask of the believed-true keys, and
    per pair the popcount of the agreements it covers — the agreements
    on a value believed true. The other two counts follow by
    subtraction. The mask is set in one pass: for a single pair, over
    the first source's claims (two sources agree only on keys each
    claims); otherwise over ``truths``, at each truth's key number (a
    truth no source claims sets a bit above every key).
    """
    items, keys, key_number = claims.index().bitsets
    above = len(key_number)
    believed = bytearray(b"0") * (above + 1)
    if len(sources) == 2:
        for claim in claims.claims_by(sources[0]):
            if truths.get(claim.item_id) == claim.value:
                believed[key_number[claim.item_id, claim.value]] = _SET
    else:
        for key in map(key_number.get, truths.items(), repeat(above)):
            believed[key] = _SET
    true_keys = int(believed[::-1], 2)

    def counts(source_a: str, source_b: str) -> tuple[int, int, int]:
        shared = (items.get(source_a, 0) & items.get(source_b, 0)).bit_count()
        agreed = keys.get(source_a, 0) & keys.get(source_b, 0)
        agree = agreed.bit_count()
        agree_true = (agreed & true_keys).bit_count()
        return agree_true, agree - agree_true, shared - agree

    return counts


@dataclass(frozen=True)
class CopyDetector:
    """Pairwise copy detection with fixed model parameters.

    Parameters
    ----------
    copy_rate:
        Assumed per-item probability that a copier copies (the model's
        ``c``).
    prior:
        Prior probability that an arbitrary source pair is dependent.
    n_false_values:
        Assumed number of distinct false values per item.
    min_overlap:
        Pairs sharing fewer items than this are skipped (not enough
        evidence either way).
    """

    copy_rate: float = 0.8
    prior: float = 0.1
    n_false_values: int = 10
    min_overlap: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.copy_rate < 1.0:
            raise ConfigurationError("copy_rate must be in (0, 1)")
        if not 0.0 < self.prior < 1.0:
            raise ConfigurationError("prior must be in (0, 1)")
        if self.n_false_values < 1:
            raise ConfigurationError("n_false_values must be >= 1")

    def _log_likelihood_independent(
        self, counts: tuple[int, int, int], accuracy_a: float, accuracy_b: float
    ) -> float:
        agree_true, agree_false, disagree = counts
        n = self.n_false_values
        p_true = accuracy_a * accuracy_b
        p_false = (1 - accuracy_a) * (1 - accuracy_b) / n
        p_diff = max(_EPSILON, 1.0 - p_true - p_false)
        return (
            agree_true * math.log(max(_EPSILON, p_true))
            + agree_false * math.log(max(_EPSILON, p_false))
            + disagree * math.log(p_diff)
        )

    def _log_likelihood_copying(
        self,
        counts: tuple[int, int, int],
        copier_accuracy: float,
        parent_accuracy: float,
    ) -> float:
        """Log-likelihood that the first source copies the second."""
        agree_true, agree_false, disagree = counts
        c = self.copy_rate
        n = self.n_false_values
        p_true = c * parent_accuracy + (1 - c) * copier_accuracy * parent_accuracy
        p_false = c * (1 - parent_accuracy) + (
            (1 - c) * (1 - copier_accuracy) * (1 - parent_accuracy) / n
        )
        p_diff = max(_EPSILON, 1.0 - p_true - p_false)
        return (
            agree_true * math.log(max(_EPSILON, p_true))
            + agree_false * math.log(max(_EPSILON, p_false))
            + disagree * math.log(p_diff)
        )

    def _dependence(
        self,
        counts: tuple[int, int, int],
        accuracy_a: float,
        accuracy_b: float,
    ) -> float:
        """Posterior probability of dependence given a pair's counts."""
        if sum(counts) < self.min_overlap:
            return 0.0
        independent = self._log_likelihood_independent(
            counts, accuracy_a, accuracy_b
        )
        a_copies_b = self._log_likelihood_copying(
            counts, accuracy_a, accuracy_b
        )
        b_copies_a = self._log_likelihood_copying(
            counts, accuracy_b, accuracy_a
        )
        dependent = max(a_copies_b, b_copies_a)
        # Posterior via the log-odds form, numerically safe.
        log_odds = (
            math.log(self.prior / (1.0 - self.prior))
            + dependent
            - independent
        )
        if log_odds > 50:
            return 1.0
        if log_odds < -50:
            return 0.0
        odds = math.exp(log_odds)
        return odds / (1.0 + odds)

    def pair_probability(
        self,
        claims: ClaimSet,
        source_a: str,
        source_b: str,
        truths: Mapping[str, str],
        accuracies: Mapping[str, float],
    ) -> float:
        """Posterior probability that the pair is dependent."""
        pair = (source_a, source_b)
        return self._dependence(
            _outcome_counter(claims, truths, pair)(*pair),
            accuracies.get(source_a, 0.8),
            accuracies.get(source_b, 0.8),
        )

    def direction(
        self,
        claims: ClaimSet,
        source_a: str,
        source_b: str,
        truths: Mapping[str, str],
        accuracies: Mapping[str, float],
    ) -> float:
        """Directional preference in ``[-1, 1]``: +1 ⇒ ``a`` copies ``b``.

        Direction is inferred from the likelihood asymmetry of the two
        copying hypotheses (the copier's independent errors never show
        up on the parent's side, which skews the fit). Values near 0
        mean the evidence cannot orient the edge — the common case the
        literature warns about.
        """
        pair = (source_a, source_b)
        counts = _outcome_counter(claims, truths, pair)(*pair)
        if sum(counts) < self.min_overlap:
            return 0.0
        accuracy_a = accuracies.get(source_a, 0.8)
        accuracy_b = accuracies.get(source_b, 0.8)
        a_copies_b = self._log_likelihood_copying(
            counts, accuracy_a, accuracy_b
        )
        b_copies_a = self._log_likelihood_copying(
            counts, accuracy_b, accuracy_a
        )
        gap = a_copies_b - b_copies_a
        # Squash through tanh so wildly confident fits saturate at ±1.
        return math.tanh(gap / 4.0)

    def detect(
        self,
        claims: ClaimSet,
        truths: Mapping[str, str],
        accuracies: Mapping[str, float],
    ) -> dict[tuple[str, str], float]:
        """Posterior dependence probability for every source pair.

        Keys are unordered pairs spelled ``(a, b)`` with ``a < b`` —
        which of the two copies is :meth:`direction`'s question — in
        source first-seen order; pairs whose probability is zero
        (insufficient overlap included) are omitted.
        """
        sources = claims.sources()
        counts = _outcome_counter(claims, truths, sources)
        probabilities: dict[tuple[str, str], float] = {}
        for i, source_a in enumerate(sources):
            accuracy_a = accuracies.get(source_a, 0.8)
            for source_b in sources[i + 1 :]:
                probability = self._dependence(
                    counts(source_a, source_b),
                    accuracy_a,
                    accuracies.get(source_b, 0.8),
                )
                if probability > 0.0:
                    key = (min(source_a, source_b), max(source_a, source_b))
                    probabilities[key] = probability
        return probabilities
