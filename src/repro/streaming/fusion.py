"""Drift-tracking source accuracy: decayed counts, decayed posteriors.

Batch fusion assumes source accuracy is a constant of the world. Under
velocity it is not: a source's feed degrades, an editor changes, a
scraper re-points — and the claims it made a thousand windows ago say
little about the claims it makes now. :class:`DecayedAccuracyTracker`
makes the accuracy posteriors *forget*: it keeps per-source correctness
counts that are multiplied by ``decay`` at every window close, so the
posterior is an exponentially-weighted estimate over recent windows.
``decay=1.0`` is the undecayed (lifetime-average) baseline the drift
regressions compare against.
:class:`~repro.streaming.runtime.StreamingResolver` advances one
tracker per window and fuses each entity under its estimates.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.errors import ConfigurationError

__all__ = ["DecayedAccuracyTracker"]

#: Pseudo-observations backing the prior accuracy; small enough that a
#: few windows of evidence dominate, large enough that one window of
#: noise does not.
DEFAULT_PRIOR_STRENGTH = 8.0


class DecayedAccuracyTracker:
    """Per-source accuracy posteriors with exponential forgetting.

    Each source carries decayed ``correct`` / ``total`` pseudo-counts;
    the point estimate blends them with a Beta-like prior::

        accuracy = (DEFAULT_PRIOR_STRENGTH * prior + correct)
                   / (DEFAULT_PRIOR_STRENGTH + total)

    :meth:`advance` multiplies every count by ``decay`` — one call per
    closed window keeps the effective memory at ``1 / (1 - decay)``
    windows. With ``decay=1.0`` nothing is forgotten (the undecayed
    baseline whose estimates go stale after a drift).
    """

    def __init__(
        self,
        priors: Mapping[str, float],
        decay: float = 1.0,
        default_prior: float = 0.5,
    ) -> None:
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError("decay must be in (0, 1]")
        if not 0.0 < default_prior < 1.0:
            raise ConfigurationError("default_prior must be in (0, 1)")
        self._priors = dict(priors)
        self._decay = decay
        self._default_prior = default_prior
        self._correct: dict[str, float] = {}
        self._total: dict[str, float] = {}

    @property
    def decay(self) -> float:
        return self._decay

    def prior(self, source: str) -> float:
        """The configured prior accuracy of ``source``."""
        return self._priors.get(source, self._default_prior)

    def advance(self) -> None:
        """Apply one decay step (call once per closed window)."""
        if self._decay >= 1.0:
            return
        for source in self._total:
            self._correct[source] *= self._decay
            self._total[source] *= self._decay

    def observe(self, source: str, correct: bool) -> None:
        """Fold one claim outcome into ``source``'s counts."""
        self._correct[source] = self._correct.get(source, 0.0) + (
            1.0 if correct else 0.0
        )
        self._total[source] = self._total.get(source, 0.0) + 1.0

    def accuracy(self, source: str) -> float:
        """The current point estimate for ``source``."""
        prior = self.prior(source)
        total = self._total.get(source, 0.0)
        correct = self._correct.get(source, 0.0)
        return (DEFAULT_PRIOR_STRENGTH * prior + correct) / (
            DEFAULT_PRIOR_STRENGTH + total
        )

    def estimates(self) -> dict[str, float]:
        """Estimates for every source seen or configured, sorted by id."""
        sources = sorted(set(self._priors) | set(self._total))
        return {source: self.accuracy(source) for source in sources}

    def state(self) -> dict:
        """JSON-able checkpoint payload (exact restore)."""
        return {
            "correct": dict(sorted(self._correct.items())),
            "total": dict(sorted(self._total.items())),
        }

    def restore(self, state: Mapping) -> None:
        """Restore counts captured by :meth:`state`."""
        self._correct = dict(state["correct"])
        self._total = dict(state["total"])
