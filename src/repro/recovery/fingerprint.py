"""Deterministic fingerprints: "is this checkpoint from the same run?"

Resuming a checkpointed run is only safe when the resumed process is
computing *the same thing* the killed process was. The fingerprint is
that guard: a stable SHA-256 digest over the semantic configuration
and the dataset content, identical across processes and machines (no
``id()``, no salted ``hash()``, no timestamps). The
:class:`~repro.recovery.store.RunStore` records it in the run manifest
and refuses to resume under a different one.

Fields that steer *execution* but not *results* — injected clocks and
sleeps, fault injectors, dead-letter file paths — are excluded, so a
run killed by an injected ``kill`` fault resumes cleanly under the
same config with the injector removed.

A comparator and a threshold classifier render by what defines them
(fields, similarities, weights, … ; the match and review thresholds).
Any other object renders by its type, and a callable — a similarity,
a key function, a ``translate`` — by its qualified name: two closures
of one factory fingerprint alike.
"""

from __future__ import annotations

import dataclasses
import hashlib

__all__ = [
    "claims_signature",
    "config_fingerprint",
    "content_signature",
    "dataset_fingerprint",
]

#: Dataclass fields that carry execution plumbing rather than semantics;
#: two configs differing only here compute identical results. The
#: supervision knobs belong here by the supervisor's own contract: a
#: supervised run's output is byte-identical to an unfaulted one, so a
#: run killed under one restart budget may resume under another.
NONSEMANTIC_FIELDS = frozenset(
    {
        "clock",
        "sleep",
        "fault_injector",
        "tracer",
        "dead_letter_path",
        "dead_letter_max_entries",
        "heartbeat",
        "supervision",
    }
)


def _canonical(value) -> str:
    """A stable, process-independent rendering of ``value``."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bytes):
        return "bytes:" + hashlib.sha256(value).hexdigest()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        rendered = ",".join(
            f"{field.name}={_canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
            if field.name not in NONSEMANTIC_FIELDS
        )
        return f"{type(value).__qualname__}({rendered})"
    if isinstance(value, dict):
        items = ",".join(
            f"{_canonical(key)}:{_canonical(item)}"
            for key, item in sorted(
                value.items(), key=lambda pair: repr(pair[0])
            )
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    definition = _definition(value)
    if definition is not None:
        return f"{type(value).__qualname__}{_canonical(definition)}"
    if callable(value):
        name = getattr(
            value,
            "__qualname__",
            getattr(value, "__name__", type(value).__qualname__),
        )
        return f"callable:{name}"
    return f"object:{type(value).__qualname__}"


def _definition(value) -> dict | None:
    """What defines a comparator or a threshold classifier; ``None``
    for any other object."""
    from repro.linkage.classify.threshold import ThresholdClassifier
    from repro.linkage.comparison import RecordComparator

    if isinstance(value, RecordComparator):
        return {
            "fields": value.fields,
            "missing_penalty": value.missing_penalty,
            "translate": value.translate,
        }
    if isinstance(value, ThresholdClassifier):
        return {
            "match_threshold": value.match_threshold,
            "review_threshold": value.review_threshold,
        }
    return None


def config_fingerprint(*parts) -> str:
    """SHA-256 hex digest over the canonical form of ``parts``.

    Accepts any mix of dataclass configs, primitives, and containers;
    pre-computed digests (e.g. :func:`dataset_fingerprint` output) fold
    in as plain strings.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_canonical(part).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def content_signature(items, signed_by: str = "") -> str:
    """SHA-256 hex digest over ``signed_by`` and the ``repr`` of
    ``items``: the signature of an artifact computed from exactly these
    items under the configuration ``signed_by`` fingerprints."""
    return hashlib.sha256(f"{signed_by}\x1e{items!r}".encode("utf-8")).hexdigest()


def claims_signature(claims) -> str:
    """SHA-256 hex digest over a :class:`~repro.fusion.base.ClaimSet`,
    its claims in insertion order.

    Used by the iterative solvers to tie per-iteration checkpoints to
    their exact input, and every solver's answer depends on claim order
    (float addition order, ties, the order of ``chosen``): the same
    claims in another order sign differently.
    """
    digest = hashlib.sha256()
    for claim in claims:
        digest.update(claim.source_id.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(claim.item_id.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(claim.value.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def dataset_fingerprint(dataset) -> str:
    """SHA-256 hex digest over a dataset's full record content.

    One linear pass over every record's id, source, and attribute
    values — cheap insurance against resuming a checkpoint against a
    corpus that changed underneath it.
    """
    digest = hashlib.sha256()
    for record in dataset.records():
        digest.update(record.record_id.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(record.source_id.encode("utf-8"))
        digest.update(b"\x1f")
        for name in sorted(record.attributes):
            digest.update(name.encode("utf-8"))
            digest.update(b"=")
            digest.update(str(record.attributes[name]).encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1e")
    return digest.hexdigest()
