"""Durable checkpointing and crash-resumable runs.

`RunStore` persists stage/chunk/iteration checkpoints with atomic
write-rename semantics and content checksums, and decides whether a
saved artifact belongs to the run now resuming: signed artifacts of
another computation read as absent, a namespace bound to another
fingerprint refuses to resume. See DESIGN.md.
"""

from repro.recovery.fingerprint import (
    claims_signature,
    config_fingerprint,
    content_signature,
    dataset_fingerprint,
)
from repro.recovery.store import (
    CheckpointMismatchError,
    RecoveryError,
    RunStore,
    as_store,
    spill_store,
)

__all__ = [
    "CheckpointMismatchError",
    "RecoveryError",
    "RunStore",
    "as_store",
    "claims_signature",
    "config_fingerprint",
    "content_signature",
    "dataset_fingerprint",
    "spill_store",
]
