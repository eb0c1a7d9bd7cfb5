"""Checkpoint file format: magic + JSON manifest + compressed payload.

Layout of a ``.ckpt`` file::

    bytes 0..8    MAGIC  b"RPCKPT01"
    bytes 8..12   manifest length N (big-endian uint32)
    bytes 12..12+N   manifest: canonical JSON (sorted keys, no whitespace)
    bytes 12+N..  payload: zlib-compressed pickle (protocol 4)

The manifest carries everything needed to decide whether a snapshot is
*valid to restore* before touching the payload:

* ``schema`` — checkpoint schema version; bumped whenever the snapshot
  contract changes incompatibly.
* ``python`` — ``major.minor`` of the writing interpreter.
  Informational: the payload is a stock pickle any supported
  interpreter reads.  The warm-store key still folds it in, because
  pickle bytes may differ between interpreters and equal keys must mean
  equal payloads.
* ``fingerprint`` — :func:`repro.harness.cache.library_fingerprint` of
  the writing library.  A snapshot of a simulation is only meaningful
  against the exact code that produced it; a stale snapshot must miss,
  never half-restore.
* ``config_digest`` / ``workload`` / ``nodes`` — identity of the
  simulated machine and its workload
  (:func:`repro.harness.cache.config_digest`,
  :func:`repro.harness.cache.workload_token`).
* ``sim_now`` — simulated time at capture (informational; shown by
  ``repro checkpoint info``).
* ``payload_sha256`` / ``payload_bytes`` — integrity digest and
  decompressed size of the payload.

No wall-clock timestamp is recorded: two checkpoints of the same state
are byte-identical, so checkpoint files themselves are cacheable and
diffable.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
import zlib
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "MAGIC", "SCHEMA", "CheckpointError",
    "write_checkpoint", "read_checkpoint", "read_manifest",
    "python_version_tag",
]

MAGIC = b"RPCKPT01"
#: Schema version of the snapshot contract (manifest layout + what the
#: payload contains).  Bump on incompatible change.  Schema 1 payloads
#: embedded closure bytecode; schema 2 payloads are stock pickle.
#: Schema 3: the cache-path records (requests, L1/L2 lines, duplicate-tag
#: and pending entries) are slotted and banks hold their memory
#: controller, so schema-2 object layouts no longer restore.
#: Schema 4: the simulator no longer carries a host-profiler attribute,
#: so a schema-3 snapshot can hold a profiler object that no longer
#: exists.
#: Schema 5: event-queue entries are ``(time, seq, fn, args)`` tuples and
#: the simulator keeps no cancellation counters, so a schema-4 queue of
#: ``EventHandle`` objects no longer restores.
#: Schema 6: packets are slotted, directory entries are named tuples, and
#: the IQ's disposition wrapper class is gone.
#: Schema 7: the system controller keeps no error log, so a schema-6
#: controller's layout no longer restores.
#: Schema 8: the topology keeps its own node and neighbour maps in place
#: of a networkx graph, and CPUs and L1 parameters carry no TLB state, so
#: a schema-7 topology or core no longer restores.
SCHEMA = 8

_LEN = struct.Struct(">I")


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or invalid for this restore."""


def python_version_tag() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def build_manifest(payload: bytes, *, fingerprint: str,
                   config_digest: str, workload: Optional[str],
                   nodes: int, sim_now: int,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    manifest: Dict[str, Any] = {
        "schema": SCHEMA,
        "python": python_version_tag(),
        "fingerprint": fingerprint,
        "config_digest": config_digest,
        "workload": workload,
        "nodes": nodes,
        "sim_now": sim_now,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    if extra:
        manifest.update(extra)
    return manifest


def encode(manifest: Dict[str, Any], payload: bytes) -> bytes:
    """Serialise (manifest, payload) to the on-disk byte string."""
    doc = json.dumps(manifest, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return MAGIC + _LEN.pack(len(doc)) + doc + zlib.compress(payload, 6)


def decode(blob: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Split an on-disk byte string back into (manifest, payload)."""
    if len(blob) < len(MAGIC) + _LEN.size or not blob.startswith(MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    off = len(MAGIC)
    (doc_len,) = _LEN.unpack_from(blob, off)
    off += _LEN.size
    if len(blob) < off + doc_len:
        raise CheckpointError("truncated checkpoint manifest")
    try:
        manifest = json.loads(blob[off:off + doc_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from None
    try:
        payload = zlib.decompress(blob[off + doc_len:])
    except zlib.error as exc:
        raise CheckpointError(f"corrupt checkpoint payload: {exc}") from None
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("payload_sha256"):
        raise CheckpointError(
            f"checkpoint payload digest mismatch: manifest says "
            f"{manifest.get('payload_sha256')}, payload hashes to {digest}")
    return manifest, payload


def validate_manifest(manifest: Dict[str, Any], *,
                      fingerprint: Optional[str] = None,
                      config_digest: Optional[str] = None,
                      strict: bool = True) -> None:
    """Refuse snapshots this library cannot faithfully restore.

    The schema is always enforced.  Library fingerprint and config
    digest are enforced when *strict* — the CLI offers ``--force`` to
    drop them for debugging, but the warm-store path never does.
    """
    if manifest.get("schema") != SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {manifest.get('schema')} != supported "
            f"{SCHEMA}")
    if strict and fingerprint is not None \
            and manifest.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "checkpoint was written by a different library version "
            f"(fingerprint {manifest.get('fingerprint')!r} != "
            f"{fingerprint!r}); re-create it or pass --force")
    if strict and config_digest is not None \
            and manifest.get("config_digest") != config_digest:
        raise CheckpointError(
            f"checkpoint is for config digest "
            f"{manifest.get('config_digest')!r}, expected "
            f"{config_digest!r}")


def write_checkpoint(path: str, manifest: Dict[str, Any],
                     payload: bytes, exclusive: bool = False) -> bool:
    """Atomically write a checkpoint file (tmp + rename); True if written.

    ``exclusive=True`` routes through the shared file-lock + write-if-
    absent primitive (:func:`repro.harness.cache.locked_exclusive_write`)
    the digest-keyed stores use: concurrent workers producing the same
    key leave exactly one entry, first writer wins.  The default
    overwrites — an explicit user path (``repro checkpoint save --out``)
    legitimately replaces older content.
    """
    blob = encode(manifest, payload)
    if exclusive:
        from ..harness.cache import locked_exclusive_write

        return locked_exclusive_write(path, blob)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return True


def read_checkpoint(path: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and integrity-check a checkpoint file; no validation beyond
    structure/digest (callers validate against their own context)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    return decode(blob)


def read_manifest(path: str) -> Dict[str, Any]:
    """Read only the manifest (cheap: stops before decompressing)."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + _LEN.size)
            if len(head) < len(MAGIC) + _LEN.size or \
                    not head.startswith(MAGIC):
                raise CheckpointError("not a checkpoint file (bad magic)")
            (doc_len,) = _LEN.unpack_from(head, len(MAGIC))
            doc = fh.read(doc_len)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(doc) < doc_len:
        raise CheckpointError("truncated checkpoint manifest")
    try:
        return json.loads(doc.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from None
