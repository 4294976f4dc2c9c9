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
        for item, values, supporters, __ in claims.groups():
            counts = [len(who) for who in supporters]
            best = counts.index(max(counts))
            chosen[item] = values[best]
            confidence[item] = counts[best] / sum(counts)
        return FusionResult(chosen=chosen, confidence=confidence)
