"""Maintain ``record.json``: reference outputs and the baseline record.

Run from the root of the repository::

    python3 perfbench/record.py refs
    python3 perfbench/record.py runs --workload p8-oltp --seeds 1-10
    python3 perfbench/record.py runs --workload p8-oltp --seeds 1-3 --trace 1 --save

``refs`` simulates every workload on the default and the held-out seed
and stores each payload digest, payload and work counts (plus, for the
sampled workload, the detailed payload ``sample_error`` is taken
against).  ``runs`` runs ``run.py`` once per seed, each in a fresh
process, and prints every metric's median, quartiles and quartile spread
against its bound in ``BENCHMARK.json``; ``--save`` stores them as the
baseline with the git revision, CPU count and Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402


def save(record: dict) -> None:
    with open(bench.RECORD_PATH, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def make_refs(record: dict) -> None:
    refs = record.setdefault("references", {})
    for workload in bench.WORKLOADS.values():
        for seed in (bench.DEFAULT_SEED, bench.HELD_OUT_SEED):
            run = bench.simulate_once(workload, seed)
            entry = {
                "digest": bench.payload_digest(run.result),
                "payload": list(run.result.payload_tuple()),
                "work_counts": bench.work_counts(run),
            }
            if workload.mode == "sampled":
                detailed = bench.simulate_once(workload.detailed(), seed)
                entry["detailed_payload"] = list(
                    detailed.result.payload_tuple())
                entry["sample_error"] = bench.sample_error(
                    tuple(entry["payload"]), tuple(entry["detailed_payload"]))
            refs.setdefault(workload.name, {})[str(seed)] = entry
            print(f"{workload.name} seed {seed}: {entry['digest'][:16]}"
                  f"{' error %.4f' % entry['sample_error'] if 'sample_error' in entry else ''}")


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def make_runs(args) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds or spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            sys.stderr.write(proc.stderr)
        print(f"seed {seed}: correct={out['correct']} attempted="
              f"{out['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                  if k in bounds), flush=True)
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    stats = {}
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        spread = (q3 - q1) / q2 if q2 else 0.0
        stats[name] = {"median": q2, "q1": q1, "q3": q3, "runs": len(vals)}
        if name in bounds:
            print(f"  {name:16s} median {q2:.5g}  spread {spread:.3f}  "
                  f"bound {bounds[name]}")
    if args.save:
        record = bench.load_record()
        base = record.setdefault("baseline", {})
        base["host"] = {
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
        key = "traced" if args.trace else "untraced"
        base.setdefault(args.workload, {})[key] = stats
        save(record)


def git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("refs")
    runs = sub.add_parser("runs")
    runs.add_argument("--workload", required=True,
                      choices=list(bench.WORKLOADS))
    runs.add_argument("--seeds", default="1-10")
    runs.add_argument("--seconds", type=float, default=0)
    runs.add_argument("--trace", type=int, choices=(0, 1), default=0)
    runs.add_argument("--save", action="store_true")
    args = ap.parse_args(argv)
    os.environ["REPRO_NO_CACHE"] = "1"
    if args.cmd == "refs":
        record = bench.load_record()
        make_refs(record)
        save(record)
    else:
        make_runs(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
