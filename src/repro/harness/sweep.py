"""Parameter-sweep utilities for sensitivity studies.

Runs one workload across a family of derived configurations (varying one
or more :class:`~repro.core.config.ChipConfig` fields) and collects
RunResult-style records — the machinery behind the cores-vs-cache and
keep-open sweeps, reusable for ad-hoc studies::

    from repro.harness.sweep import sweep_field
    results = sweep_field("P8", oltp_factory, "l2.size_bytes",
                          [512 << 10, 1 << 20, 2 << 20], jobs=4)

Sweep points are independent simulations, so they parallelise across
processes: pass ``jobs=N`` (or set ``REPRO_JOBS``) to fan out via
:mod:`repro.harness.parallel`.  Metric assembly is shared with
:func:`repro.harness.runner.simulate` — the serial, parallel and cached
paths all produce identical records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, List, Optional, Sequence

from ..core.config import ChipConfig, preset
from .cache import (cache_dir, cache_enabled, config_digest,
                    library_fingerprint, workload_token)
from .parallel import Job, run_jobs
from .runner import RunResult, run_configured


def parse_sweep_value(text: str):
    """Parse one swept value: int (with K/M/G suffix), float, or string.

    The CLI ``sweep`` verb applies it to each comma-separated
    ``--values`` item, so ``512K`` sweeps the integer 524288."""
    text = text.strip()
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1].upper() in suffixes:
        try:
            return int(float(text[:-1]) * suffixes[text[-1].upper()])
        except ValueError:
            pass
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def replace_field(config: ChipConfig, dotted: str, value) -> ChipConfig:
    """Return a config with ``dotted`` (e.g. ``"l2.size_bytes"`` or
    ``"core.clock_mhz"``) replaced by *value*."""
    parts = dotted.split(".")
    if len(parts) > 2:
        raise ValueError(f"at most one level of nesting supported: {dotted!r}")
    if not all(parts):
        raise ValueError(f"empty component in field path: {dotted!r}")
    if len(parts) == 1:
        if parts[0] not in {f.name for f in dataclasses.fields(config)}:
            raise ValueError(
                f"unknown config field {parts[0]!r}; available: "
                f"{sorted(f.name for f in dataclasses.fields(config))}")
        return dataclasses.replace(config, **{parts[0]: value})
    group, leaf = parts
    sub = getattr(config, group, None)
    if sub is None or not dataclasses.is_dataclass(sub):
        raise ValueError(f"unknown config group {group!r} in {dotted!r}")
    if leaf not in {f.name for f in dataclasses.fields(sub)}:
        raise ValueError(
            f"unknown field {leaf!r} in config group {group!r}; available: "
            f"{sorted(f.name for f in dataclasses.fields(sub))}")
    new_sub = dataclasses.replace(sub, **{leaf: value})
    return dataclasses.replace(config, **{group: new_sub})


def record_from_result(result: RunResult) -> Dict:
    """Flatten a RunResult into the sweep's metrics-dict shape."""
    return {
        "config": result.config,
        "time_per_unit_ns": result.time_per_unit_ns,
        "throughput": result.throughput,
        "busy_frac": result.busy_frac,
        "l2_frac": result.l2_frac,
        "mem_frac": result.mem_frac,
        "miss_hit_frac": result.miss_hit_frac,
        "miss_fwd_frac": result.miss_fwd_frac,
        "miss_mem_frac": result.miss_mem_frac,
    }


def run_config(config: ChipConfig, workload_factory: Callable,
               num_nodes: int = 1, units_attr: str = "transactions",
               check_coherence: bool = False) -> Dict:
    """Simulate one configuration; returns a metrics dict.

    Delegates to :func:`repro.harness.runner.run_configured`, the single
    shared measurement implementation (metric assembly used to be
    duplicated here and could drift from the runner's)."""
    return record_from_result(
        run_configured(config, workload_factory, num_nodes=num_nodes,
                       units_attr=units_attr,
                       check_coherence=check_coherence))


def sweep_configs(base: ChipConfig, dotted: str,
                  values: Sequence) -> List[ChipConfig]:
    """Materialise the derived configuration for each swept value."""
    out = []
    for value in values:
        config = replace_field(base, dotted, value)
        out.append(dataclasses.replace(
            config, name=f"{base.name}[{dotted}={value}]"))
    return out


def sweep_key(base_config: ChipConfig, workload_factory: Callable,
              dotted: str, values: Sequence, num_nodes: int,
              units_attr: str, check_coherence: bool) -> Optional[str]:
    """Stable identity of one sweep (for its progress manifest), or None
    when the workload factory is opaque (nothing resumable to key on)."""
    token = workload_token(workload_factory)
    if token is None:
        return None
    payload = json.dumps(
        {
            "lib": library_fingerprint(),
            "base": config_digest(base_config),
            "field": dotted,
            "values": [str(v) for v in values],
            "workload": token,
            "nodes": num_nodes,
            "units_attr": units_attr,
            "check": bool(check_coherence),
            "scale": os.environ.get("REPRO_SCALE", "1.0"),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def manifest_path(key: str) -> str:
    return os.path.join(cache_dir(), "sweeps", key + ".json")


def load_manifest(key: Optional[str]) -> Optional[Dict]:
    """The progress manifest for a sweep key, or None."""
    if key is None:
        return None
    try:
        with open(manifest_path(key), "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _write_manifest(key: str, manifest: Dict) -> None:
    path = manifest_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(manifest, f, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def sweep_field(base, workload_factory: Callable, dotted: str,
                values: Sequence, num_nodes: int = 1,
                units_attr: str = "transactions",
                jobs: Optional[int] = None,
                check_coherence: bool = False,
                warmup: bool = False,
                resume: bool = False) -> List[Dict]:
    """Sweep one config field over *values*; returns one record per point
    (with the swept value under ``"value"``).

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else 1)
    fans the points out across worker processes; records are identical to
    a serial sweep regardless of the worker count.  ``check_coherence``
    runs every point under the protocol sanitizer (any violation raises
    out of the sweep).

    ``warmup`` routes every point through the warm-checkpoint store —
    note the points of a *field* sweep have distinct configs and so
    distinct warm snapshots; the amortisation is across re-runs of the
    same sweep, i.e. exactly the ``resume`` scenario.  ``resume``
    (implies ``warmup``) additionally maintains a progress manifest under
    ``cache_dir()/sweeps/``: a killed sweep re-invoked with
    ``resume=True`` answers completed points from the result cache,
    restores interrupted points from their warm snapshots, and finishes
    only the remaining work.
    """
    if resume:
        warmup = True
    base_config = preset(base) if isinstance(base, str) else base
    configs = sweep_configs(base_config, dotted, values)

    key = None
    manifest = None
    on_result = None
    if resume and cache_enabled():
        key = sweep_key(base_config, workload_factory, dotted, values,
                        num_nodes, units_attr, check_coherence)
        if key is not None:
            manifest = load_manifest(key) or {
                "field": dotted,
                "values": [str(v) for v in values],
                "total": len(values),
                "done": [],
            }
            # a manifest from a partial run with different values (the
            # key folds values in, so this means a hash collision or
            # hand-editing): start clean rather than trust it
            if manifest.get("total") != len(values):
                manifest = {"field": dotted,
                            "values": [str(v) for v in values],
                            "total": len(values), "done": []}

            def on_result(i: int, _job: Job, _result: RunResult,
                          _key: str = key) -> None:
                done = set(manifest["done"])
                done.add(i)
                manifest["done"] = sorted(done)
                _write_manifest(_key, manifest)

    results = run_jobs(
        [Job(config=c, factory=workload_factory, num_nodes=num_nodes,
             units_attr=units_attr, check_coherence=check_coherence,
             warmup=warmup)
         for c in configs],
        jobs=jobs,
        on_result=on_result,
    )
    out = []
    for value, result in zip(values, results):
        record = record_from_result(result)
        record["value"] = value
        out.append(record)
    return out
