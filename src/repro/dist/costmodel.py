"""Cluster cost model: from per-reducer work to makespan and speedup.

The experiments on distributed ER report wall-clock speedup curves.
On a simulated cluster the analogue is exact: a reducer's completion
time is its startup overhead plus its comparison work times the
per-comparison cost; the job finishes when the slowest reducer does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.dist.partition import MatchTask

__all__ = ["ClusterCostModel", "PartitionCost"]


@dataclass(frozen=True)
class PartitionCost:
    """Cost summary of one partitioning at one cluster size."""

    n_reducers: int
    per_reducer_comparisons: tuple[int, ...]
    makespan: float
    total_work: float
    speedup: float
    skew: float

    @property
    def efficiency(self) -> float:
        """Speedup divided by reducer count (1.0 = perfect scaling)."""
        return self.speedup / self.n_reducers if self.n_reducers else 0.0


@dataclass(frozen=True)
class ClusterCostModel:
    """Simulated cluster timing parameters.

    ``comparison_cost`` is the time of one record-pair comparison;
    ``task_overhead`` is per match task (scheduling/IO); ``startup`` is
    per reducer (JVM spin-up in the systems this models).
    """

    comparison_cost: float = 1.0
    task_overhead: float = 2.0
    startup: float = 50.0

    def __post_init__(self) -> None:
        if self.comparison_cost <= 0:
            raise ConfigurationError("comparison_cost must be positive")
        if self.task_overhead < 0 or self.startup < 0:
            raise ConfigurationError("overheads must be >= 0")

    def reducer_time(self, tasks: Sequence[MatchTask]) -> float:
        """Completion time of one reducer's task list."""
        comparisons = sum(task.n_comparisons for task in tasks)
        return (
            self.startup
            + len(tasks) * self.task_overhead
            + comparisons * self.comparison_cost
        )

    def evaluate(
        self, partition: Sequence[Sequence[MatchTask]]
    ) -> PartitionCost:
        """Score one partitioning: makespan, speedup vs 1 reducer, skew."""
        if not partition:
            raise ConfigurationError("partition must have >= 1 reducer")
        times = [self.reducer_time(tasks) for tasks in partition]
        comparisons = tuple(
            sum(task.n_comparisons for task in tasks) for tasks in partition
        )
        makespan = max(times)
        # The 1-reducer baseline: all tasks on one machine.
        all_tasks = [task for tasks in partition for task in tasks]
        serial = self.reducer_time(all_tasks)
        mean_load = sum(comparisons) / len(comparisons)
        skew = (max(comparisons) / mean_load) if mean_load else 1.0
        return PartitionCost(
            n_reducers=len(partition),
            per_reducer_comparisons=comparisons,
            makespan=makespan,
            total_work=sum(times),
            speedup=serial / makespan if makespan else 1.0,
            skew=skew,
        )
