#!/usr/bin/env python3
"""Benchmark entry point for the MediaWorm simulator.

Builds the `qosbench` package (a Cargo workspace of its own that depends
on the repository's crates by path), runs one workload and prints every
metric by name with its unit and direction. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 qosbench/run.py --workload switch-sat --seed 42 --seconds 30 --trace 0
    python3 qosbench/run.py --self-test

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones and writes the run's spans next to the binary.
`--self-test` runs every workload at tiny windows, checks that every
metric BENCHMARK.json names is emitted, and checks that a forged credit
makes the audit count a failed operation.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a single benchmark invocation may run before it is killed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"qosbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary in release mode; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "qosbench")


def run_binary(binary, args):
    """Runs one invocation; returns its parsed last line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args)}: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        fail(f"{' '.join(args)}: unreadable result: {e}")


def command_output(cmd, cwd=ROOT):
    try:
        out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from, so results from
    checkouts without git history can still be matched to their code."""
    h = hashlib.sha256()
    for top in ("crates", "qosbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def environment():
    return {
        "host_cores": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "build_profile": "release",
    }


def declared(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def missing_metrics(bench, trace, values):
    return [m["name"] for m in declared(bench, trace)
            if not isinstance(values.get(m["name"]), (int, float))
            or not math.isfinite(values[m["name"]])]


def benchmark(args, bench):
    binary = build()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(target_dir(), f"qosbench-spans-{args.workload}-seed{args.seed}.json")
        flags += ["--trace-out", spans]
    out = run_binary(binary, flags)
    values = out["values"]

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, "info": out["info"]}))
    print(f"{'metric':34} {'value':>16}  {'unit':16} better")
    metrics = {}
    for m in declared(bench, args.trace):
        v = values.get(m["name"])
        if v is None:
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:34} {v:>16.6g}  {m['unit']:16} {m['better']}")
    for f in out["failures"]:
        print(f"FAILED {f}")
        print(f"qosbench: FAILED {f}", file=sys.stderr)
    missing = missing_metrics(bench, args.trace, values)
    for name in missing:
        print(f"MISSING {name}")
    print(f"operations: {out['failed']} failed / {out['attempted']} attempted")
    print(json.dumps({"correct": out["failed"] == 0 and not missing,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))


def self_test(bench):
    binary = build()
    problems = []
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            if not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append(f"{m['name']}: no unit or direction")
    for w in bench["workloads"]:
        for trace in (0, 1):
            out = run_binary(binary, ["--workload", w["name"], "--seed", "42", "--seconds", "1",
                                      "--trace", str(trace), "--tiny"])
            tag = f"{w['name']} trace {trace}"
            if out["failed"] or out["failures"]:
                problems.append(f"{tag}: {out['failures']}")
            for name in missing_metrics(bench, trace, out["values"]):
                problems.append(f"{tag}: metric {name} not emitted")
            print(f"{tag}: {out['attempted']} operations, "
                  f"{len(out['values'])} metrics, {out['failed']} failed")
    faulty = run_binary(binary, ["--workload", "switch-cbr-verified", "--seed", "42",
                                 "--seconds", "1", "--trace", "0", "--tiny", "--credit-fault"])
    audit_caught = any("audit" in f for f in faulty["failures"])
    print(f"forged credit: {faulty['failed']} of {faulty['attempted']} operations failed")
    if faulty["failed"] < 1 or not audit_caught:
        problems.append("a forged credit did not make the audit check fail an operation")
    for p in problems:
        print(f"PROBLEM {p}")
    if problems:
        sys.exit(1)
    print("self-test passed")


def main():
    bench = load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test(bench)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        benchmark(args, bench)


if __name__ == "__main__":
    main()
