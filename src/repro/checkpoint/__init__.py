"""Checkpoint/restore subsystem: warm-state snapshots of the machine.

Layers (bottom up):

* :mod:`~repro.checkpoint.machine` — what a snapshot *is* (system +
  event queue + workload + txn counter, one stock pickle that keeps
  shared-object identity) and *when* it may be taken (between events:
  the warm-boundary hook, the periodic ticker).
* :mod:`~repro.checkpoint.format` — the versioned, digest-stamped
  ``.ckpt`` file: magic + JSON manifest + zlib payload, deterministic
  byte-for-byte.
* :mod:`~repro.checkpoint.store` — the warm-checkpoint store the
  harness's ``warmup=True`` path keys into.

This module is the facade the CLI verbs (``repro checkpoint
save|restore|info``) and tests use.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from .format import (CheckpointError, SCHEMA, build_manifest,
                     read_checkpoint, read_manifest, validate_manifest,
                     write_checkpoint)
from .machine import (PeriodicCheckpointer, WarmCapture, WindowHandoff,
                      restore_system, snapshot_bytes)
from .store import WARM_STORE, WarmStore, warm_key

__all__ = [
    "CheckpointError", "SCHEMA",
    "snapshot_bytes", "restore_system", "WarmCapture",
    "PeriodicCheckpointer", "WindowHandoff",
    "WarmStore", "WARM_STORE", "warm_key",
    "save_checkpoint", "load_checkpoint", "checkpoint_info",
    "build_manifest", "read_checkpoint", "read_manifest",
    "validate_manifest", "write_checkpoint",
]


def save_checkpoint(path: str, system, *, payload: Optional[bytes] = None,
                    workload: Optional[str] = None,
                    sim_now: Optional[int] = None,
                    extra: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Write *system* (or a pre-captured *payload* of it) to *path*.

    Without an explicit payload the system is snapshotted now — the
    caller is responsible for being between events (e.g. after
    ``run_to_completion`` returned, or from a scheduled callback).
    Returns the manifest that was written.
    """
    from ..harness.cache import config_digest, library_fingerprint

    if payload is None:
        payload = snapshot_bytes(system)
        if sim_now is None:
            sim_now = system.sim.now
    manifest = build_manifest(
        payload,
        fingerprint=library_fingerprint(),
        config_digest=config_digest(system.config),
        workload=workload,
        nodes=system.num_nodes,
        sim_now=int(sim_now if sim_now is not None else system.sim.now),
        extra=extra,
    )
    write_checkpoint(path, manifest, payload)
    return manifest


def load_checkpoint(path: str, *, expect_config=None, force: bool = False
                    ) -> Tuple[Dict[str, Any], Any]:
    """Read, validate and restore a checkpoint file.

    The schema is always enforced; library fingerprint and (when
    *expect_config* is given) config digest are enforced unless *force*.
    Returns ``(manifest, system)``.
    """
    from ..harness.cache import config_digest, library_fingerprint

    manifest, payload = read_checkpoint(path)
    validate_manifest(
        manifest,
        fingerprint=library_fingerprint(),
        config_digest=(config_digest(expect_config)
                       if expect_config is not None else None),
        strict=not force,
    )
    return manifest, restore_system(payload)


def checkpoint_info(path: str) -> Dict[str, Any]:
    """The manifest of a checkpoint file (no payload decompression)."""
    return read_manifest(path)
