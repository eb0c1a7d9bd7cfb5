"""Calibration helper: run OLTP across configs and print paper-target ratios.

Usage: PYTHONPATH=src python scripts/calibrate_oltp.py [FIELD=VALUE ...]

Each FIELD is an ``OltpParams`` field and each VALUE is parsed like a
``repro sweep`` value (``512K``, ``0.45``, ...).  The points run through
the cached harness (``run_jobs``), so ``REPRO_JOBS`` fans them out and a
re-run answers from the result cache.
"""
import dataclasses
import sys

from repro.core import preset
from repro.harness import Job, OltpFactory, run_jobs
from repro.harness.sweep import parse_sweep_value
from repro.workloads.oltp import OltpParams

CONFIGS = ("P1", "P2", "P4", "P8", "OOO", "INO", "P8F")


def parse_params(argv) -> OltpParams:
    """``OltpParams`` with each ``FIELD=VALUE`` of *argv* applied; exits
    with a message on a malformed argument, an unknown field or a value
    of the wrong type."""
    defaults = OltpParams()
    fields = sorted(f.name for f in dataclasses.fields(OltpParams))
    overrides = {}
    for arg in argv:
        name, sep, text = arg.partition("=")
        if not sep:
            sys.exit(f"error: expected FIELD=VALUE, got {arg!r}")
        if name not in fields:
            sys.exit(f"error: unknown OltpParams field {name!r}; "
                     f"available: {', '.join(fields)}")
        value = parse_sweep_value(text)
        default = getattr(defaults, name)
        if isinstance(default, float) and isinstance(value, int):
            value = float(value)
        if type(value) is not type(default):
            sys.exit(f"error: {name}={text!r} is not a valid "
                     f"{type(default).__name__}")
        overrides[name] = value
    return dataclasses.replace(defaults, **overrides)


def main():
    factory = OltpFactory(parse_params(sys.argv[1:]))
    results = dict(zip(CONFIGS, run_jobs(
        [Job(preset(name), factory) for name in CONFIGS])))
    for name, r in results.items():
        cpu0 = r.extras["counters"][0]["cpus"][0]
        print(f"{name:4s}x{r.cpus}: t/txn={r.time_per_unit_ns:7.1f}ns "
              f"busy={r.busy_frac:.2f} l2={r.l2_frac:.2f} "
              f"mem={r.mem_frac:.2f} "
              f"miss[hit={r.miss_hit_frac:.2f} fwd={r.miss_fwd_frac:.2f} "
              f"mem={r.miss_mem_frac:.2f}] "
              f"I/M={cpu0['instructions'] / max(1, cpu0['misses']):.1f} "
              f"wall={r.sim_wall_s:.0f}s")
    r = {name: result.throughput for name, result in results.items()}
    print(f"\nOOO/P1 = {r['OOO']/r['P1']:.2f} (2.3)   INO/P1 = {r['INO']/r['P1']:.2f} (1.6)")
    print(f"P8/P1  = {r['P8']/r['P1']:.2f} (~7)    P8/OOO = {r['P8']/r['OOO']:.2f} (2.9)")
    print(f"P8F/OOO= {r['P8F']/r['OOO']:.2f} (5.0)  P2/P1={r['P2']/r['P1']:.2f} P4/P1={r['P4']/r['P1']:.2f}")


if __name__ == "__main__":
    main()
