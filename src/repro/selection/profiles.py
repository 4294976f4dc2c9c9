"""Source profiling for selection: coverage, accuracy, agreement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.fusion.base import ClaimSet
from repro.fusion.voting import VotingFuser

__all__ = ["SourceStats", "profile_sources"]


@dataclass(frozen=True)
class SourceStats:
    """Selection-relevant statistics of one source."""

    source_id: str
    n_claims: int
    coverage: float
    accuracy_estimate: float

    @property
    def expected_correct_items(self) -> float:
        """Coverage × accuracy — a crude standalone utility."""
        return self.coverage * self.accuracy_estimate


def profile_sources(
    claims: ClaimSet,
    reference_truth: Mapping[str, str] | None = None,
) -> dict[str, SourceStats]:
    """Profile every source in a claim set.

    Accuracy is estimated against ``reference_truth`` when given (a
    labeled sample, or a trusted fusion result's answers); without it,
    against the majority vote — the bootstrap every selection system
    starts from.
    """
    n_items = len(claims.items())
    if reference_truth is None:
        reference_truth = VotingFuser().fuse(claims).chosen
    stats: dict[str, SourceStats] = {}
    for source in claims.sources():
        source_claims = claims.claims_by(source)
        correct = sum(
            1
            for claim in source_claims
            if reference_truth.get(claim.item_id) == claim.value
        )
        accuracy = correct / len(source_claims) if source_claims else 0.0
        stats[source] = SourceStats(
            source_id=source,
            n_claims=len(source_claims),
            coverage=len(source_claims) / n_items if n_items else 0.0,
            accuracy_estimate=accuracy,
        )
    return stats
