"""The harness's own span recorder.

Spans are recorded from outside the library: a workload's traced pass
either opens a span around its call into a layer (``with rec.span``)
or patches a layer's public callable with a span-opening wrapper
(``rec.wrap``), and restores it afterwards. A span has a name
(``<layer>.<what>``), a start, an end, the span that caused it and the
id of the workload run. Spans stay in memory; ``dump`` writes them out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager

from refclock import clock

__all__ = ["Recorder"]


class Recorder:
    """Collects the spans of one traced workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, bool, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; nested spans name this one as their parent."""
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = clock()
        try:
            yield span
        finally:
            span["end"] = clock()
            self._stack.pop()

    def root(self):
        """The span of the whole traced call, ``run.traced``."""
        return self.span("run.traced")

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Patch ``owner.attribute`` so every call records a span."""
        had_own = attribute in vars(owner)
        own_value = vars(owner).get(attribute)
        # On a class take the plain function, so ``self`` keeps flowing
        # through the wrapper; on an instance or module, what getattr binds.
        target = own_value if isinstance(owner, type) else getattr(
            owner, attribute
        )

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return target(*args, **kwargs)

        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, had_own, own_value))

    def restore(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._patched:
            owner, attribute, had_own, own_value = self._patched.pop()
            if had_own:
                setattr(owner, attribute, own_value)
            else:
                delattr(owner, attribute)

    # --- reading the spans back --------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
        )

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - covered[span["id"]]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first segment)."""
        layers: dict[str, float] = {}
        for name, own in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
