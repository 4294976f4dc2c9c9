"""Run reports: one structured artifact per instrumented run.

A :class:`RunReport` freezes a tracer's span tree plus the metrics
snapshot and renders both ways benchmarks and CI need them: a
plain-text tree for humans (:meth:`RunReport.render`) and JSON for
machines (:meth:`RunReport.to_json`), with a lossless round-trip
(:meth:`RunReport.from_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.tracer import Span

__all__ = ["RunReport"]


def _format_duration(duration: float | None) -> str:
    if duration is None:
        return "open"
    if duration >= 0.1:
        return f"{duration:.3f}s"
    return f"{duration * 1000:.2f}ms"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    return str(value)


@dataclass
class RunReport:
    """The structured artifact of one instrumented run."""

    name: str
    spans: list[Span] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            name=data["name"],
            spans=[Span.from_dict(span) for span in data["spans"]],
            metrics=data.get("metrics", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def find_span(self, name: str) -> Span | None:
        """First span named ``name`` anywhere in the tree."""
        for root in self.spans:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def span_names(self) -> list[str]:
        """Every span name in the tree, depth-first."""
        names: list[str] = []

        def walk(span: Span) -> None:
            names.append(span.name)
            for child in span.children:
                walk(child)

        for root in self.spans:
            walk(root)
        return names

    # --- rendering ---------------------------------------------------

    def render(self) -> str:
        """The human-readable report: span tree, then metric tables."""
        lines = [f"run report: {self.name}"]
        for root in self.spans:
            self._render_span(root, lines, prefix="", is_last=True)
        counters = self.metrics.get("counters", {})
        gauges = self.metrics.get("gauges", {})
        histograms = self.metrics.get("histograms", {})
        if counters:
            lines.append("counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                lines.append(
                    f"  {name.ljust(width)}  {_format_value(counters[name])}"
                )
        if gauges:
            lines.append("gauges:")
            width = max(len(name) for name in gauges)
            for name in sorted(gauges):
                lines.append(
                    f"  {name.ljust(width)}  {_format_value(gauges[name])}"
                )
        if histograms:
            lines.append("histograms:")
            for name in sorted(histograms):
                data = histograms[name]
                summary = (
                    f"  {name}  count={data['count']}"
                    f" sum={_format_value(data['sum'])}"
                )
                if data["count"]:
                    mean = data["sum"] / data["count"]
                    summary += (
                        f" min={_format_value(data['min'])}"
                        f" mean={_format_value(mean)}"
                        f" max={_format_value(data['max'])}"
                    )
                lines.append(summary)
                if data["count"]:
                    for bound, count in zip(
                        data["buckets"], data["counts"]
                    ):
                        if count:
                            lines.append(
                                f"    <= {_format_value(bound)}  {count}"
                            )
                    overflow = data["counts"][len(data["buckets"])]
                    if overflow:
                        bound = data["buckets"][-1]
                        lines.append(
                            f"    >  {_format_value(bound)}  {overflow}"
                        )
        return "\n".join(lines)

    def _render_span(
        self, span: Span, lines: list[str], prefix: str, is_last: bool
    ) -> None:
        connector = "└─ " if is_last else "├─ "
        attributes = "  ".join(
            f"{key}={_format_value(value)}"
            for key, value in span.attributes.items()
        )
        label = f"{span.name}  [{_format_duration(span.duration)}]"
        if attributes:
            label = f"{label}  {attributes}"
        lines.append(prefix + connector + label)
        child_prefix = prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(span.children):
            self._render_span(
                child,
                lines,
                child_prefix,
                index == len(span.children) - 1,
            )
