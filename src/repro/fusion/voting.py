"""Majority voting: the fusion baseline.

One source, one vote. Everything smarter in this package exists
because voting fails exactly when sources are unequally accurate or
copy from each other — but it is the baseline every fusion study
reports first.
"""

from __future__ import annotations

from repro.fusion.base import ClaimSet, Fuser, FusionResult

__all__ = ["VotingFuser"]


class VotingFuser(Fuser):
    """Choose each item's most-claimed value.

    Ties break deterministically toward the value whose supporting
    sources come first in claim order (stable across runs).
    """

    name = "vote"

    def fuse(self, claims: ClaimSet) -> FusionResult:
        claims.require_nonempty()
        chosen: dict[str, str] = {}
        confidence: dict[str, float] = {}
        for item, item_claims in claims.groups():
            counts: dict[str, int] = {}
            for claim in item_claims:
                counts[claim.value] = counts.get(claim.value, 0) + 1
            best_value = max(
                counts,
                key=lambda value: (counts[value], -list(counts).index(value)),
            )
            chosen[item] = best_value
            confidence[item] = counts[best_value] / len(item_claims)
        return FusionResult(chosen=chosen, confidence=confidence)
