"""Warm-checkpoint store: cached post-warm-up snapshots on disk.

The amortisation behind ``simulate(..., warmup=True)``: warming a large
OLTP footprint dominates wall-clock for short measurement runs, yet the
warm state is a pure function of (library, config, workload, node count,
observability settings).  So the first run of a (config, workload) point
snapshots the machine at the warm-up boundary and files it here; every
later run — other sweep points sharing the warm-up, a resumed sweep, a
re-run after a crash — restores the snapshot and skips straight to
measurement.

The store lives under ``cache_dir()/checkpoints/`` next to the result
cache, with the same environment knobs (``REPRO_CACHE_DIR``,
``REPRO_NO_CACHE``) and the same atomic-write discipline.
``DiskCache.clear()`` (``repro cache --clear``) only deletes result
entries, so it deliberately leaves these alone — clearing *results* must
not discard warm state, which is far more expensive to rebuild.

Keys fold in everything a snapshot depends on: checkpoint schema,
library fingerprint, config digest, workload token, node count, the
observability settings (check/trace/probe/sampler — they shape the
object graph itself: a sampler's pending tick lives in the event queue)
and ``REPRO_SCALE``.  An opaque workload (no stable token) is simply
not stored, mirroring the result cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

from ..harness.cache import (cache_dir, cache_enabled, config_digest,
                             library_fingerprint, workload_token)
from . import format as ckpt_format

__all__ = ["WarmStore", "WARM_STORE", "warm_key"]


def warm_key(config, factory, num_nodes: int, units_attr: str,
             check_coherence: bool, trace_capacity: int, probe_rate: int,
             sample_interval_ps: int,
             variant: str = "detailed") -> Optional[str]:
    """Warm-store key for one (config, workload) point, or None if the
    workload has no stable identity.

    ``variant`` namespaces snapshots whose warm state is *not* the
    detailed warm-up image: sampled runs park their CPUs at the boundary
    (and functional warming is an approximation), so their snapshots
    must never answer a ``warmup=True`` detailed run, and vice versa.
    The default leaves historical detailed keys unchanged.
    """
    token = workload_token(factory)
    if token is None:
        return None
    fields = {
            "schema": ckpt_format.SCHEMA,
            "python": ckpt_format.python_version_tag(),
            "lib": library_fingerprint(),
            "config": config_digest(config),
            "workload": token,
            "nodes": num_nodes,
            "units_attr": units_attr,
            "check": bool(check_coherence),
            "trace": int(trace_capacity),
            "probe": int(probe_rate),
            "sample": int(sample_interval_ps),
            "scale": os.environ.get("REPRO_SCALE", "1.0"),
    }
    if variant != "detailed":
        fields["variant"] = variant
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class WarmStore:
    """A directory of warm-state ``.ckpt`` files keyed like the result
    cache (parallel workers write concurrently: atomic tmp+rename, and
    distinct points never share a key)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self.hits = 0
        self.misses = 0

    @property
    def path(self) -> str:
        return self._path or os.path.join(cache_dir(), "checkpoints")

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".ckpt")

    def get(self, key: Optional[str]
            ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Return ``(manifest, payload)`` for *key*, or None on a miss.

        The manifest is strictly validated (schema, library
        fingerprint): a snapshot from changed code misses rather than
        half-restoring.
        """
        if key is None or not cache_enabled():
            return None
        path = self._file(key)
        if not os.path.exists(path):
            self.misses += 1
            return None
        try:
            manifest, payload = ckpt_format.read_checkpoint(path)
            ckpt_format.validate_manifest(
                manifest, fingerprint=library_fingerprint())
        except ckpt_format.CheckpointError:
            self.misses += 1
            return None
        self.hits += 1
        return manifest, payload

    def put(self, key: Optional[str], manifest: Dict[str, Any],
            payload: bytes) -> bool:
        """Store a snapshot; True if this call created the entry.

        Writes are locked and first-writer-wins
        (:func:`repro.harness.cache.locked_exclusive_write`): snapshots
        are deterministic functions of their key, so when ``--jobs``
        workers or concurrent runs sharing the cache root race on the
        same warm boundary the loser's payload is byte-identical and
        skipping it is the dedupe.
        """
        if key is None or not cache_enabled():
            return False
        try:
            return ckpt_format.write_checkpoint(
                self._file(key), manifest, payload, exclusive=True)
        except OSError:
            return False

    def info(self) -> Dict[str, Any]:
        entries = 0
        size = 0
        if os.path.isdir(self.path):
            for root, _dirs, files in os.walk(self.path):
                for fname in files:
                    if fname.endswith(".ckpt"):
                        entries += 1
                        try:
                            size += os.path.getsize(os.path.join(root, fname))
                        except OSError:
                            pass
        return {"path": self.path, "entries": entries, "bytes": size,
                "hits": self.hits, "misses": self.misses,
                "enabled": cache_enabled()}

    def clear(self) -> int:
        """Delete every stored snapshot; returns the number removed."""
        removed = 0
        if os.path.isdir(self.path):
            for root, _dirs, files in os.walk(self.path):
                for fname in files:
                    if fname.endswith(".ckpt"):
                        try:
                            os.unlink(os.path.join(root, fname))
                            removed += 1
                        except OSError:
                            pass
        return removed


#: process-wide warm-checkpoint store used by the runner / parallel harness
WARM_STORE = WarmStore()
