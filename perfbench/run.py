#!/usr/bin/env python3
"""Runs one workload of the symbreak benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark crate (`perfbench/`, release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and
prints the provenance of the run as one JSON line followed by the result
as the last line of standard output. Build output and diagnostics go to
standard error. Exits non-zero, without a result, if the build fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("engine_race_3m", "engine_race_2c", "fleet_3m_singletons", "fleet_2c_stalled", "socket_2c_stalled")
# The workload itself must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def steal_ticks():
    """Steal ticks summed over all CPUs (the `cpu` line of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """The git commit when the checkout is itself a repository, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path) for name in names
            if "target" not in os.path.relpath(d, ROOT).split(os.sep))
        for name in sorted(files):
            if name.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.relpath(os.path.join(ROOT, target), ROOT)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--worker", os.path.join(release, "perfbench_shard_worker"),
           # Relative, so the Unix socket paths stay short.
           "--socket-dir", os.path.join(target, "sockets")]
    steal_before = steal_ticks()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    steal_after = steal_ticks()
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited with {run.returncode}")

    provenance = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "steal_ticks": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
    }
    print(json.dumps({"provenance": provenance}))
    print(lines[-1])


if __name__ == "__main__":
    main()
