"""Active learning for match classification (humans in the loop).

Labels are the scarce resource in linkage: a domain expert (or crowd
worker) can judge a few hundred pairs, not a few million. Active
learning spends that budget where it matters — on the pairs the
current classifier is *least sure about* (scores nearest the decision
boundary), rather than on uniformly sampled pairs that are mostly
obvious non-matches.

:class:`ActiveThresholdLearner` learns a score threshold over a fixed
comparator: each round it queries the oracle on the most uncertain
unlabeled pairs, then re-fits the threshold to minimize labeled error.
An optional oracle noise rate models imperfect crowd answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import ConfigurationError, EmptyInputError
from repro.linkage.comparison import ComparisonVector

__all__ = ["LabeledPair", "ActiveThresholdLearner", "noisy_oracle"]

Oracle = Callable[[str, str], bool]


@dataclass(frozen=True)
class LabeledPair:
    """One oracle-labeled pair."""

    left_id: str
    right_id: str
    score: float
    is_match: bool


def noisy_oracle(
    truth: Oracle, noise_rate: float, seed: int = 0
) -> Oracle:
    """Wrap a perfect oracle with symmetric label noise.

    Models crowd workers: with probability ``noise_rate`` the answer
    flips. Deterministic per (pair, seed) so repeated queries agree.
    """
    if not 0.0 <= noise_rate < 0.5:
        raise ConfigurationError("noise_rate must be in [0, 0.5)")

    def oracle(left_id: str, right_id: str) -> bool:
        answer = truth(left_id, right_id)
        # A string seed, not hash(): str hashes differ per process.
        low, high = sorted((left_id, right_id))
        rng = random.Random(f"{low}\x1f{high}\x1f{seed}")
        if rng.random() < noise_rate:
            return not answer
        return answer

    return oracle


class ActiveThresholdLearner:
    """Threshold learning with uncertainty-sampled oracle queries.

    Parameters
    ----------
    vectors:
        The comparison vectors of all candidate pairs (computed once by
        the caller; scores are what the learner consumes).
    batch_size:
        Oracle queries per round.
    strategy:
        ``"uncertainty"`` queries the unlabeled pairs whose score is
        nearest the current threshold (with an ``exploration`` fraction
        of random picks mixed in — pure boundary sampling is unstable
        under label noise); ``"random"`` is the baseline.
    exploration:
        Fraction of each uncertainty batch drawn at random.
    seed:
        Randomness for the random strategy, exploration, tie-breaking.
    """

    def __init__(
        self,
        vectors: Sequence[ComparisonVector],
        batch_size: int = 10,
        strategy: str = "uncertainty",
        initial_threshold: float = 0.5,
        exploration: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not vectors:
            raise EmptyInputError("active learning needs candidate vectors")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if strategy not in ("uncertainty", "random"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if not 0.0 <= exploration <= 1.0:
            raise ConfigurationError("exploration must be in [0, 1]")
        self._vectors = list(vectors)
        self._batch_size = batch_size
        self._strategy = strategy
        self._threshold = initial_threshold
        self._exploration = exploration
        self._rng = random.Random(seed)
        self._labeled: list[LabeledPair] = []
        self._labeled_keys: set[frozenset[str]] = set()

    @property
    def threshold(self) -> float:
        """The current learned decision threshold."""
        return self._threshold

    @property
    def labeled(self) -> tuple[LabeledPair, ...]:
        """All labels gathered so far."""
        return tuple(self._labeled)

    def _unlabeled(self) -> list[ComparisonVector]:
        return [
            vector
            for vector in self._vectors
            if frozenset((vector.left_id, vector.right_id))
            not in self._labeled_keys
        ]

    def _pick_batch(self) -> list[ComparisonVector]:
        unlabeled = self._unlabeled()
        if not unlabeled:
            return []
        if self._strategy == "random":
            self._rng.shuffle(unlabeled)
            return unlabeled[: self._batch_size]
        n_random = round(self._batch_size * self._exploration)
        n_boundary = self._batch_size - n_random
        unlabeled.sort(
            key=lambda vector: (
                abs(vector.score - self._threshold),
                vector.left_id,
                vector.right_id,
            )
        )
        batch = unlabeled[:n_boundary]
        rest = unlabeled[n_boundary:]
        self._rng.shuffle(rest)
        batch.extend(rest[:n_random])
        return batch

    def _refit_threshold(self) -> None:
        """Fit a 1-D logistic model score → P(match); threshold at 0.5.

        Logistic regression degrades gracefully under label noise where
        exact zero-one-error minimization jumps between extreme cuts.
        A handful of Newton-ish gradient steps is plenty in 1-D.
        """
        if not self._labeled:
            return
        labels = [1.0 if pair.is_match else 0.0 for pair in self._labeled]
        scores = [pair.score for pair in self._labeled]
        if len(set(labels)) < 2:
            # One-class evidence: nudge the threshold past everything
            # seen, in the direction the labels imply.
            extreme = max(scores) if labels[0] == 0.0 else min(scores)
            margin = 0.02
            self._threshold = min(
                1.0,
                max(0.0, extreme + margin if labels[0] == 0.0 else extreme - margin),
            )
            return
        import math

        weight, bias = 8.0, -8.0 * self._threshold  # warm start
        learning_rate = 2.0
        for __ in range(300):
            gradient_w = 0.0
            gradient_b = 0.0
            for score, label in zip(scores, labels):
                predicted = 1.0 / (1.0 + math.exp(-(weight * score + bias)))
                gradient_w += (predicted - label) * score
                gradient_b += predicted - label
            n = len(scores)
            weight -= learning_rate * gradient_w / n
            bias -= learning_rate * gradient_b / n
        if weight <= 0:
            return  # degenerate fit; keep the previous threshold
        self._threshold = min(1.0, max(0.0, -bias / weight))

    def run_round(self, oracle: Oracle) -> int:
        """Query one batch and refit; returns queries actually spent."""
        batch = self._pick_batch()
        for vector in batch:
            is_match = oracle(vector.left_id, vector.right_id)
            self._labeled.append(
                LabeledPair(
                    vector.left_id, vector.right_id, vector.score, is_match
                )
            )
            self._labeled_keys.add(
                frozenset((vector.left_id, vector.right_id))
            )
        self._refit_threshold()
        return len(batch)

    def predict_matches(self) -> set[frozenset[str]]:
        """All candidate pairs at/above the learned threshold."""
        return {
            frozenset((vector.left_id, vector.right_id))
            for vector in self._vectors
            if vector.score >= self._threshold
        }
