#!/usr/bin/env python3
"""fbdcsim benchmark entry point.

Builds the benchmark binary from the checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), prints the host record, runs one
workload and passes its report through. The last line of standard output
is the JSON result.

    python3 perfbench/run.py --workload rack_tcp --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --workload fleet_fbflow --record-reference

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import fcntl
import functools
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ["rack_scripted", "rack_tcp", "rack_tcp_flows", "fleet_fbflow"]
# A run is stopped after this long, so a hung workload fails within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


@functools.lru_cache(maxsize=None)
def source_digest():
    """SHA-256 over everything the binary is built from (the checkout may
    not be a git repository, so this identifies the program under test)."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "CMakeLists.txt")]
    for top in ("include", "src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def build_dir():
    """One build directory per checkout path and source digest. CMake pins
    the source path in its cache and make trusts file times, so a directory
    shared by two checkouts (or two versions of one) could quietly build
    the wrong sources."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    key = hashlib.sha256(f"{os.path.realpath(ROOT)}\0{source_digest()}".encode())
    return os.path.join(base, f"perfbench-{key.hexdigest()[:16]}")


def build():
    """Configures once per build directory, then builds; returns the binary
    path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no fbdcsim sources next to {HERE}; cannot build the program under test")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", out, "--target", "perfbench",
                          "-j", str(os.cpu_count() or 1)])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail("build failed")
    return os.path.join(out, "perfbench")


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_host_record(args):
    print(f"perfbench: seed={args.seed} rev={git_revision()} source={source_digest()}")
    print(f"perfbench: nproc={os.cpu_count()} cpu={cpu_model()}")


def run_binary(binary, workload, args, seconds, trace, reference=REFERENCE):
    """Runs one workload; returns (stdout lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", args.size,
           "--reference", reference]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    if trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans_{workload}_{args.size}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result line")
    return lines, result


def record_reference(binary, workload, args):
    """Stores one pass's fingerprint for (workload, size, seed), provided
    every other check of that pass passed."""
    lines, result = run_binary(binary, workload, args, 0.001, 0, reference=os.devnull)
    found = [l for l in lines if l.startswith("perfbench: fingerprint ")]
    if not found or not result["correct"]:
        sys.stderr.write("\n".join(lines) + "\n")
        fail(f"{workload}: no clean fingerprint to record")
    entry = found[0].split(" ", 2)[2]
    key = entry.rsplit(" ", 1)[0]
    kept = []
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            kept = [l.rstrip("\n") for l in f if not l.startswith(key + " ")]
    with open(REFERENCE, "w") as f:
        f.write("\n".join(kept + [entry]) + "\n")
    print(f"perfbench: recorded {entry}")


def run_all(binary, args):
    """Every workload untraced, one process each, as one table."""
    rows = []
    for workload in WORKLOADS:
        lines, result = run_binary(binary, workload, args, args.seconds, 0)
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        flow = [l for l in lines if l.strip().startswith("flow_rate ")]
        if flow:
            value, unit = flow[0].split()[1:3]
            metrics["flow_rate"] = (float(value), unit)
        ratio = result["failed"] / result["attempted"]
        metrics["failed_ratio"] = (ratio, "failed/attempted")
        rows.append((workload, metrics))
    for workload, metrics in rows:
        print(f"\n{workload}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {unit}")
    return 0 if all(m["failed_ratio"][0] == 0 for _, m in rows) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "min"], default="full")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="flip one bit of the reference (the check must then fail)")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's fingerprint in perfbench/reference.txt")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    print_host_record(args)
    if args.record_reference:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            record_reference(binary, workload, args)
        return 0
    if args.workload == "all":
        return run_all(binary, args)
    lines, _ = run_binary(binary, args.workload, args, args.seconds, args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
