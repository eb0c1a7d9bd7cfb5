"""Persistent on-disk result cache for deterministic simulations.

Every simulation in this library is a pure function of its inputs: the
configuration, the workload parameters, the node count and the library
code itself (DESIGN.md, "Determinism").  That makes whole ``RunResult``
records safely cacheable across processes — a re-run of a benchmark or
example that already simulated a point can return the stored record
bit-for-bit instead of re-simulating.

Keys (:meth:`repro.harness.runner.RunSpec.key`) combine:

* a digest of the fully-resolved :class:`~repro.core.config.ChipConfig`
  (every latency, cache geometry and core parameter),
* a workload token (factory class + parameters, see
  :func:`workload_token`),
* node count, ``REPRO_SCALE`` and every field of the resolved
  ``RunSpec`` (sanitizer and trace, observers, sampled-mode settings),
* a fingerprint of the installed ``repro`` source tree plus
  ``repro.__version__`` — any code change invalidates the whole cache,
  so stale results can never leak across library versions.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/piranha-repro`` or ``~/.cache/piranha-repro``).
* ``REPRO_NO_CACHE=1`` — disable both this cache and the in-process memo.

Entries are one JSON file per result, written atomically (tmp + rename),
so concurrent writers (e.g. the parallel harness's workers' parent) can
never expose a torn record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tempfile
from typing import Any, Dict, List, Optional

try:  # POSIX advisory locks; on platforms without fcntl the atomic
    import fcntl  # rename alone still protects readers from torn entries
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

_FINGERPRINT: Optional[str] = None


class FileLock:
    """Advisory exclusive lock on ``path + ".lock"`` (context manager).

    Serialises *writers* of a shared cache/store entry across processes:
    the disk result cache and the checkpoint store both take the entry's
    lock around their write-if-absent sequence, so two workers producing
    the same digest cannot interleave — the first writer wins and the
    second observes the finished entry.  Readers never lock: atomic
    tmp+rename guarantees they see old-or-new, never a torn file.

    On platforms without :mod:`fcntl` the lock degrades to a no-op;
    rename atomicity still holds, only first-writer-wins does not.
    """

    def __init__(self, path: str) -> None:
        self.path = path + ".lock"
        self._fh = None

    def __enter__(self) -> "FileLock":
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        if fcntl is not None:
            self._fh = open(self.path, "a+b")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None


def locked_exclusive_write(path: str, data: bytes) -> bool:
    """Write *data* to *path* iff no entry exists yet; True if written.

    The content-addressed write primitive shared by the result cache
    and the warm-checkpoint store: take the entry lock, re-check
    existence (another worker may have won the race while we waited),
    then tmp+rename inside the lock.  Returns False when the entry
    already existed — the caller's payload is byte-identical by key
    construction, so losing the race *is* the dedupe hit.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with FileLock(path):
        if os.path.exists(path):
            return False
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    return True


def cache_enabled() -> bool:
    """Result caching is on unless ``REPRO_NO_CACHE`` is truthy."""
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def cache_dir() -> str:
    """Resolve the on-disk cache directory (not created until first put)."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "piranha-repro")


def _fingerprint_tree(pkg_dir: str, version: str) -> str:
    """Digest every ``.py`` file under *pkg_dir*, subpackages included.

    The walk is fully recursive and deterministic (sorted dirs and
    files), so *every* subpackage — ``repro.fuzz``, ``repro.checkpoint``,
    anything added later — participates in the fingerprint without
    needing to be listed anywhere.
    """
    h = hashlib.sha256()
    h.update(version.encode())
    for root, dirs, files in sorted(os.walk(pkg_dir)):
        dirs.sort()
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            h.update(os.path.relpath(path, pkg_dir).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def library_fingerprint(root: Optional[str] = None) -> str:
    """Digest of the installed ``repro`` sources (plus ``__version__``).

    Computed once per process; any edit to any module under ``repro``
    (including subpackages such as ``repro.fuzz`` and
    ``repro.checkpoint``) yields a different fingerprint, so cached
    results and warm checkpoints can never survive a code change that
    might alter simulation behaviour.

    *root* overrides the tree to digest (bypassing the per-process memo);
    it exists so tests can prove subpackage coverage against a synthetic
    tree.
    """
    global _FINGERPRINT
    if root is not None:
        return _fingerprint_tree(root, "")
    if _FINGERPRINT is None:
        import repro

        pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
        _FINGERPRINT = _fingerprint_tree(pkg_dir, repro.__version__)
    return _FINGERPRINT


def config_digest(config) -> str:
    """Stable digest of a fully-resolved ChipConfig (all nested fields)."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def workload_token(factory) -> Optional[str]:
    """Stable identity for a workload factory, or None if opaque.

    Factories can provide an explicit ``cache_token`` attribute/method;
    frozen-dataclass factories (the ones in
    :mod:`repro.harness.experiments`) token themselves via their
    deterministic dataclass repr.  Opaque callables (closures, lambdas)
    return None: they are never cached (neither memo nor disk), because
    their parameters cannot be fingerprinted.
    """
    token = getattr(factory, "cache_token", None)
    if token is not None:
        return str(token() if callable(token) else token)
    if dataclasses.is_dataclass(factory) and not isinstance(factory, type):
        cls = type(factory)
        return f"{cls.__module__}.{cls.__qualname__}:{factory!r}"
    return None


#: A result entry's file name; it sits in the directory named by the
#: key's first two characters (see ``DiskCache._file``).
_ENTRY_RE = re.compile(r"([0-9a-f]{64})\.json")


class DiskCache:
    """A directory of JSON-serialised :class:`RunResult` records.

    The cache root is shared with the warm-checkpoint store
    (``checkpoints/``); this class only ever touches its own
    ``<2 hex>/<64 hex>.json`` entries."""

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self.hits = 0
        self.misses = 0

    @property
    def path(self) -> str:
        return self._path or cache_dir()

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".json")

    def get(self, key: Optional[str]):
        """Return the cached RunResult for *key*, or None."""
        from .runner import RunResult

        if key is None or not cache_enabled():
            return None
        try:
            with open(self._file(key), "r", encoding="utf-8") as f:
                payload = json.load(f)
            result = RunResult(**payload["result"])
        except (OSError, ValueError, TypeError, KeyError):
            # missing, torn, or schema-incompatible entry: treat as a miss
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: Optional[str], result) -> bool:
        """Store *result* under *key* (locked, atomic, first-writer-wins).

        Returns True when this call created the entry, False when it was
        disabled, unkeyable, or another worker already stored the same
        digest (results are deterministic functions of the key, so the
        existing entry is byte-equivalent — skipping the write is the
        dedupe, not a loss).
        """
        if key is None or not cache_enabled():
            return False
        payload = {"result": dataclasses.asdict(result)}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            return locked_exclusive_write(self._file(key), data)
        except OSError:
            return False

    def _entries(self) -> List[str]:
        """Paths of every stored result, and of nothing else under the root."""
        paths = []
        try:
            shards = os.listdir(self.path)
        except OSError:
            return paths
        for shard in shards:
            try:
                names = os.listdir(os.path.join(self.path, shard))
            except OSError:
                continue
            for name in names:
                match = _ENTRY_RE.fullmatch(name)
                if match and match.group(1)[:2] == shard:
                    paths.append(os.path.join(self.path, shard, name))
        return paths

    def info(self) -> Dict[str, Any]:
        """Entry count / size / hit counters (for ``python -m repro cache``)."""
        entries = 0
        size = 0
        for path in self._entries():
            entries += 1
            try:
                size += os.path.getsize(path)
            except OSError:
                pass
        return {"path": self.path, "entries": entries, "bytes": size,
                "hits": self.hits, "misses": self.misses,
                "enabled": cache_enabled()}

    def clear(self) -> int:
        """Delete every cached result; returns the number removed.

        Warm checkpoints under the same root are left alone: clearing
        *results* must not discard warm state, which is far more
        expensive to rebuild."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed


#: process-wide disk cache used by the runner / parallel harness
DISK_CACHE = DiskCache()
