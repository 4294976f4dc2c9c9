"""Durable checkpointing and crash-resumable runs.

`RunStore` persists stage/chunk/iteration checkpoints with atomic
write-rename semantics and content checksums, and decides whether a
saved artifact belongs to the run now resuming: signed artifacts of
another computation read as absent, a namespace bound to another
fingerprint refuses to resume. See DESIGN.md.
"""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "fingerprint": (
            "claims_signature config_fingerprint content_signature "
            "dataset_fingerprint"
        ),
        "store": (
            "CheckpointMismatchError RecoveryError RunStore as_store "
            "spill_store"
        ),
    },
)
