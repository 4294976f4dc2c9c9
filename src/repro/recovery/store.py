"""The durable run store: checkpoints that survive process death.

A :class:`RunStore` is a directory of checkpoint artifacts plus a JSON
run manifest, built for exactly one job: let a killed integration run
— OOM-kill, deploy restart, power loss — resume from its last
completed unit of work instead of recomputing from scratch. Its
guarantees:

1. **Atomic write-rename** — every artifact (and the manifest) is
   written to a temporary file, flushed, fsynced, and ``os.replace``d
   into place, so a crash mid-write never leaves a half-visible
   checkpoint under the real name.
2. **Content checksums** — each artifact embeds a SHA-256 of its
   payload; a torn, truncated, or bit-flipped file fails verification
   on load.
3. **Corruption is absence** — any artifact that fails the magic,
   checksum, or unpickling check is treated as *not checkpointed* (and
   counted on ``recovery.corrupt``), never raised: the worst outcome
   of a damaged checkpoint is recomputation.

Whether a saved artifact belongs to the computation now running is
decided here, by one of two rules:

4. **Signed artifacts recompute** — :meth:`RunStore.save` stamps an
   artifact with the ``signature`` of what determined it (its input
   and the configuration that computed it); a :meth:`RunStore.load`
   under another signature reads it as absent, counted on
   ``recovery.signature_mismatch``. A stale checkpoint costs time,
   never correctness.
5. **Bound namespaces raise** — :meth:`RunStore.bind_fingerprint`
   claims a store, or any namespace of one, for one run
   configuration (:mod:`repro.recovery.fingerprint`); binding another
   raises :class:`CheckpointMismatchError` rather than silently mixing
   artifacts of two different runs.

Keys are dotted paths (``"stage.schema"``, ``"linkage.chunk.3"``);
:meth:`RunStore.sub` scopes a key prefix so each execution layer
(engine chunks, solver state, pipeline stages) checkpoints into its
own namespace of the same store. A namespace is a store of its own
and pickles as its location, so a worker process reopens it. Save,
load and skip traffic is emitted as ``recovery.*`` counters through
the attached tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import struct
import tempfile
from pathlib import Path

from repro.core.errors import ReproError
from repro.obs import NULL_TRACER

__all__ = [
    "CheckpointMismatchError",
    "RecoveryError",
    "RunStore",
    "as_store",
    "spill_store",
]

_MAGIC = b"REPRO-CKPT-1\n"
_STREAM_MAGIC = b"REPRO-CKPT-S1\n"
_MANIFEST = "manifest.json"
_ARTIFACT_DIR = "artifacts"
_FRAME_HEAD = struct.Struct(">Q")


class RecoveryError(ReproError):
    """Base class for checkpoint/recovery errors."""


class CheckpointMismatchError(RecoveryError):
    """The store holds checkpoints of a *different* run.

    Raised when the fingerprint bound at resume time disagrees with
    the one the store (or namespace) is bound to — resuming would
    silently mix artifacts computed under another config or dataset.
    """

    def __init__(self, recorded: str, offered: str, root: str) -> None:
        super().__init__(
            f"run store at {root!r} was created with config fingerprint "
            f"{recorded[:12]}… but this run has {offered[:12]}…; refusing "
            "to resume a different run's checkpoints (use a fresh store, "
            "or re-run with the original configuration and dataset)"
        )
        self.recorded = recorded
        self.offered = offered


def _atomic_write(path: Path, data: bytes, durable: bool) -> None:
    """Write-rename: ``data`` appears at ``path`` entirely or not at all."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def _artifact_stem(key: str) -> str:
    """A filesystem-safe, collision-free file stem for ``key``."""
    safe = "".join(
        ch if ch.isalnum() or ch in "._-" else "-" for ch in key
    )[:80]
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]
    return f"{safe}-{digest}"


def _reopen(root: str, prefix: str, durable: bool) -> "RunStore":
    """Unpickle a store: its location, opened afresh."""
    store = RunStore(root, durable=durable)
    store._prefix = prefix
    return store


class RunStore:
    """A durable checkpoint directory for one resumable run.

    Parameters
    ----------
    root:
        Directory to create/open. A fresh directory is a fresh run; an
        existing one resumes it (subject to the fingerprint check).
    run_id:
        Recorded in the manifest for humans and CI artifacts.
    tracer:
        An :class:`repro.obs.Tracer` for the ``recovery.*`` counters;
        reassignable via :attr:`tracer` (the pipeline binds its run
        tracer at start). Defaults to the no-op tracer.
    durable:
        When ``True`` (default) artifact and manifest writes fsync
        before rename; ``False`` keeps atomicity but trades crash
        durability for speed (checksums still detect any damage).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        run_id: str = "run",
        tracer=None,
        durable: bool = True,
    ) -> None:
        self._root = Path(root)
        self._artifacts = self._root / _ARTIFACT_DIR
        self._artifacts.mkdir(parents=True, exist_ok=True)
        self._durable = durable
        self._prefix = ""
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._manifest = self._load_manifest(run_id)

    def __reduce__(self):
        # The location travels, not the open state: a worker reopens it.
        return _reopen, (str(self._root), self._prefix, self._durable)

    def sub(self, prefix: str) -> "RunStore":
        """This store under ``prefix.``: the same directory, manifest
        and (until reassigned) tracer, with every key namespaced."""
        view = object.__new__(type(self))
        view.__dict__.update(
            self.__dict__, _prefix=self._prefix + prefix.rstrip(".") + "."
        )
        return view

    # --- manifest ----------------------------------------------------

    def _load_manifest(self, run_id: str) -> dict:
        path = self._root / _MANIFEST
        if path.exists():
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
                if isinstance(manifest, dict) and "version" in manifest:
                    return manifest
            except (OSError, ValueError):
                pass
            # A torn manifest is recoverable: artifacts are
            # self-describing, so start a fresh ledger over them.
            self._tracer.counter("recovery.corrupt").inc()
        return {
            "version": 1,
            "run_id": run_id,
            "seq": 0,
            "stages": [],
            "completed": False,
        }

    def _flush_manifest(self) -> None:
        data = json.dumps(
            self._manifest, indent=2, sort_keys=True
        ).encode("utf-8")
        _atomic_write(self._root / _MANIFEST, data, self._durable)

    @property
    def manifest(self) -> dict:
        """A deep copy of the manifest (run id, stage ledger)."""
        return json.loads(json.dumps(self._manifest))

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @property
    def run_id(self) -> str:
        return self._manifest["run_id"]

    @property
    def completed(self) -> bool:
        """Whether :meth:`mark_complete` was called for this run."""
        return bool(self._manifest["completed"])

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def mark_stage(self, stage: str, key: str, sha256: str | None = None) -> None:
        """Append (or refresh) one stage-ledger entry in the manifest."""
        self._manifest["seq"] += 1
        entry = {
            "stage": stage,
            "key": key,
            "sha256": sha256,
            "seq": self._manifest["seq"],
        }
        self._manifest["stages"] = [
            item
            for item in self._manifest["stages"]
            if item["stage"] != stage
        ] + [entry]
        self._flush_manifest()

    def completed_stages(self) -> tuple[str, ...]:
        """Stage names in the ledger, in completion (seq) order."""
        return tuple(
            item["stage"]
            for item in sorted(
                self._manifest["stages"], key=lambda item: item["seq"]
            )
        )

    def mark_complete(self) -> None:
        """Record that the run finished end to end."""
        self._manifest["completed"] = True
        self._flush_manifest()

    # --- the two staleness rules -------------------------------------

    def _binding_path(self) -> Path:
        return self._artifacts / f"{_artifact_stem(self._prefix)}.bound"

    @property
    def fingerprint(self) -> str | None:
        """The fingerprint this namespace is bound to, if any."""
        try:
            return self._binding_path().read_text(encoding="utf-8")
        except OSError:
            return None

    def bind_fingerprint(self, fingerprint: str) -> None:
        """Claim this namespace for runs with ``fingerprint``.

        A fresh namespace adopts it; one already bound to the same
        fingerprint is a valid resume; any other fingerprint raises
        :class:`CheckpointMismatchError`. The binding is a file of the
        namespace's own, written once by whoever binds first — never
        the manifest, which a worker process must not rewrite.
        """
        recorded = self.fingerprint
        if recorded is None:
            _atomic_write(
                self._binding_path(), fingerprint.encode("utf-8"), self._durable
            )
        elif recorded != fingerprint:
            where = str(self._root)
            if self._prefix:
                where += f" [{self._prefix[:-1]}]"
            raise CheckpointMismatchError(recorded, fingerprint, where)

    # --- artifacts ---------------------------------------------------

    def _path_for(self, key: str) -> Path:
        return self._artifacts / f"{_artifact_stem(self._prefix + key)}.ckpt"

    def save(self, key: str, value, signature: str | None = None) -> dict:
        """Durably checkpoint ``value`` under ``key``.

        ``signature`` stamps the artifact with what determined it; see
        :meth:`load`. Returns the artifact metadata (``key``/``sha256``/
        ``size``). The write is atomic: a concurrent or crashed save
        never exposes a partial artifact under the final name.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        sha = hashlib.sha256(payload).hexdigest()
        meta = {"key": self._prefix + key, "sha256": sha, "size": len(payload)}
        if signature is not None:
            meta["signature"] = signature
        header = json.dumps(meta, sort_keys=True).encode("utf-8")
        _atomic_write(
            self._path_for(key),
            _MAGIC + header + b"\n" + payload,
            self._durable,
        )
        self._tracer.counter("recovery.saves").inc()
        self._tracer.counter("recovery.save_bytes").inc(len(payload))
        return meta

    def load(self, key: str, signature: str | None = None):
        """The checkpointed value, or ``None`` when absent or damaged.

        Every failure mode — missing file, bad magic, torn payload,
        checksum mismatch, unpicklable bytes — is treated as "not
        checkpointed": the caller recomputes, the run never crashes on
        a bad checkpoint. (``None`` is therefore not a storable value.)
        A signed load (``signature`` given) also reads an artifact
        saved under any other signature, or none, as absent.
        """
        try:
            raw = self._path_for(key).read_bytes()
        except OSError:
            self._tracer.counter("recovery.misses").inc()
            return None
        decoded = self._decode(raw, self._prefix + key)
        if (
            decoded is not None
            and signature is not None
            and decoded[0].get("signature") != signature
        ):
            self._tracer.counter("recovery.signature_mismatch").inc()
            return None
        value = None
        if decoded is not None:
            with contextlib.suppress(Exception):
                value = pickle.loads(decoded[1])
        if value is None:
            self._tracer.counter("recovery.corrupt").inc()
            return None
        self._tracer.counter("recovery.loads").inc()
        return value

    def intact(self, key: str) -> bool:
        """Whether an artifact for ``key`` passes every check
        :meth:`load` makes before unpickling it: magic, header, key,
        size and sha256. Nothing is unpickled."""
        try:
            raw = self._path_for(key).read_bytes()
        except OSError:
            return False
        return self._decode(raw, self._prefix + key) is not None

    @staticmethod
    def _decode(raw: bytes, key: str) -> tuple[dict, bytes] | None:
        """The header and verified payload of an artifact for ``key``."""
        if not raw.startswith(_MAGIC):
            return None
        try:
            header, payload = raw[len(_MAGIC):].split(b"\n", 1)
            meta = json.loads(header)
        except ValueError:
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("key") != key
            or len(payload) != meta.get("size")
            or hashlib.sha256(payload).hexdigest() != meta.get("sha256")
        ):
            return None
        return meta, payload

    # --- streaming artifacts -----------------------------------------
    #
    # The spill files of the out-of-core layer (repro.outofcore) are
    # written through these: the same atomic write-rename and checksum
    # guarantees as save/load, but the payload is a sequence of
    # length-prefixed pickle frames, so a run larger than memory is
    # written and read back one item at a time.

    def save_stream(self, key: str, items) -> dict:
        """Durably checkpoint an *iterable* as a framed artifact.

        Unlike :meth:`save`, the value is never materialized as one
        pickle: each item becomes a length-prefixed frame, with a
        running SHA-256 over the frame payloads sealed into a JSON
        trailer. The write is still atomic (temp + rename), so a crash
        mid-spill never leaves a half-visible run under the real name.
        Returns the artifact metadata (``key``/``sha256``/``size``/
        ``frames``).
        """
        path = self._path_for(key)
        key = self._prefix + key
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        digest = hashlib.sha256()
        frames = 0
        size = 0
        header = json.dumps(
            {"key": key, "stream": True}, sort_keys=True
        ).encode("utf-8")
        with open(tmp, "wb") as handle:
            handle.write(_STREAM_MAGIC)
            handle.write(header + b"\n")
            for item in items:
                payload = pickle.dumps(
                    item, protocol=pickle.HIGHEST_PROTOCOL
                )
                handle.write(_FRAME_HEAD.pack(len(payload)))
                handle.write(payload)
                digest.update(payload)
                frames += 1
                size += len(payload)
            handle.write(_FRAME_HEAD.pack(0))
            trailer = json.dumps(
                {"frames": frames, "sha256": digest.hexdigest()},
                sort_keys=True,
            ).encode("utf-8")
            handle.write(trailer)
            handle.flush()
            if self._durable:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._tracer.counter("recovery.saves").inc()
        self._tracer.counter("recovery.save_bytes").inc(size)
        return {
            "key": key,
            "sha256": digest.hexdigest(),
            "size": size,
            "frames": frames,
        }

    def load_stream(self, key: str):
        """An iterator over a streaming artifact, or ``None`` if absent.

        A missing file or damaged header means "not checkpointed"
        (``None``), exactly like :meth:`load`. Damage *inside* the
        stream — a torn frame or a trailer-checksum mismatch — raises
        :class:`RecoveryError` instead: by the time it is detected,
        items have already been yielded, and silently stopping would be
        indistinguishable from a complete, shorter stream.
        """
        path = self._path_for(key)
        key = self._prefix + key
        try:
            with open(path, "rb") as handle:
                if handle.read(len(_STREAM_MAGIC)) != _STREAM_MAGIC:
                    self._tracer.counter("recovery.corrupt").inc()
                    return None
                header = json.loads(handle.readline())
                if header.get("key") != key:
                    self._tracer.counter("recovery.corrupt").inc()
                    return None
                offset = handle.tell()
        except OSError:
            self._tracer.counter("recovery.misses").inc()
            return None
        except Exception:  # noqa: BLE001 — damaged header means absent
            self._tracer.counter("recovery.corrupt").inc()
            return None
        self._tracer.counter("recovery.loads").inc()
        return self._stream_frames(path, key, offset)

    @staticmethod
    def _stream_frames(path: Path, key: str, offset: int):
        digest = hashlib.sha256()
        frames = 0
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                while True:
                    head = handle.read(_FRAME_HEAD.size)
                    if len(head) != _FRAME_HEAD.size:
                        raise RecoveryError(
                            f"streaming artifact {key!r}: torn frame head"
                        )
                    (length,) = _FRAME_HEAD.unpack(head)
                    if length == 0:
                        break
                    payload = handle.read(length)
                    if len(payload) != length:
                        raise RecoveryError(
                            f"streaming artifact {key!r}: torn frame"
                        )
                    digest.update(payload)
                    frames += 1
                    yield pickle.loads(payload)
                trailer = json.loads(handle.read())
        except RecoveryError:
            raise
        except Exception as error:  # noqa: BLE001 — any mid-stream damage
            raise RecoveryError(
                f"streaming artifact {key!r} is damaged: {error}"
            ) from error
        if (
            trailer.get("frames") != frames
            or trailer.get("sha256") != digest.hexdigest()
        ):
            raise RecoveryError(
                f"streaming artifact {key!r}: trailer checksum mismatch"
            )

    def delete(self, key: str) -> None:
        """Drop one artifact (missing is fine)."""
        try:
            self._path_for(key).unlink()
        except OSError:
            pass

    def keys(self) -> tuple[str, ...]:
        """Keys of every intact artifact in this namespace, sorted."""
        found = []
        for path in self._artifacts.glob("*.ckpt"):
            try:
                with open(path, "rb") as handle:
                    # Both magics share the "REPRO-CKPT" prefix but
                    # differ in length; read the longer and re-check.
                    head = handle.read(len(_STREAM_MAGIC))
                    if not (
                        head == _STREAM_MAGIC or head.startswith(_MAGIC)
                    ):
                        continue
                    if head != _STREAM_MAGIC:
                        handle.seek(len(_MAGIC))
                    header = handle.readline()
                key = json.loads(header)["key"]
            except Exception:  # noqa: BLE001 — skip damaged files
                continue
            if key.startswith(self._prefix):
                found.append(key[len(self._prefix):])
        return tuple(sorted(found))

    def __repr__(self) -> str:
        prefix = f", prefix={self._prefix!r}" if self._prefix else ""
        return (
            f"RunStore({str(self._root)!r}, run_id={self.run_id!r}, "
            f"stages={len(self._manifest['stages'])}{prefix})"
        )


def as_store(location, durable: bool = True):
    """``location`` as a checkpoint store: a directory path opens a
    :class:`RunStore` there; a store (or ``None``) is returned as is."""
    if isinstance(location, (str, os.PathLike)):
        return RunStore(location, durable=durable)
    return location


def spill_store(spill_dir, cleanup: contextlib.ExitStack):
    """The store an out-of-core run spills into: ``spill_dir`` as a
    non-durable store, or — for ``None`` — one over a temporary
    directory that ``cleanup`` removes, whether the run returns or a
    stage raises."""
    if spill_dir is None:
        spill_dir = cleanup.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-spill-")
        )
    return as_store(spill_dir, durable=False)
