#!/usr/bin/env python3
"""Builds biot_bench from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 16 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build/ (an
optimized CMake build of perfbench/CMakeLists.txt, which compiles ../src).
The binary prints one detail line with everything it measured; this
script relays it and prints, as the last line, the result object
{"correct", "attempted", "failed", "metrics"} whose metrics are those
BENCHMARK.json names: the end-to-end ones (--trace 0) or the per-layer
ones (--trace 1). The exit status is non-zero when the build fails, a
correctness check fails or an end-to-end metric was not measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, jobs):
    """Configures (once) and builds biot_bench; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target", "biot_bench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "biot_bench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_from(detail, trace):
    """Builds the result object from a run's detail line. Returns it and the
    list of problems: a named metric reported with another unit, or an
    end-to-end metric not measured. A per-layer metric the workload does not
    exercise reads 0."""
    problems = []
    metrics = {}
    for name, unit in expected_metrics(trace).items():
        got = detail["metrics"].get(name)
        value = got["value"] if got else None
        if got and got["unit"] != unit:
            problems.append("%s is in %s, not %s" % (name, got["unit"], unit))
        if value is None and not trace:
            problems.append("end-to-end metric %s not measured" % name)
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet", "ingest", "restart"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    nproc = os.cpu_count() or 1
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir, min(nproc, 4))
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work_dir = os.path.join(build_dir, "work")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    provenance = {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--provenance", json.dumps(provenance)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output (exit %d)" % proc.returncode)
    try:
        detail = json.loads(lines[-1])["detail"]
    except (json.JSONDecodeError, KeyError):
        fail("last line is not a detail object: %r" % lines[-1][:200])
    result, problems = result_from(detail, args.trace)
    if problems:
        fail("; ".join(problems))
    print("\n".join(lines))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
