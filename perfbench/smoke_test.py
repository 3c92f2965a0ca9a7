#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Builds biot_bench like run.py does, then checks that:
  - every workload, untraced and traced, passes its correctness checks;
  - every workload measures every end-to-end metric BENCHMARK.json names,
    and some traced workload measures each per-layer one, each in its unit;
  - two same-seed fleet runs give bit-identical sim-time latencies;
  - on the traced fleet run, no layer's estimated busy time exceeds the
    simulator's measured wall time and the residual left for the
    scheduler and network is not negative;
  - a deliberately corrupted check value makes every workload exit non-zero.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("fleet", "ingest", "restart")


def bench(binary, work_dir, workload, seed, trace=0, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--work-dir", work_dir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-1])["detail"] if lines else {}
    return proc.returncode, detail


def expect(ok, what):
    if not ok:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(run.ROOT, ".bench_build"))
    binary = run.build(build_dir, min(os.cpu_count() or 1, 4))
    work_dir = tempfile.mkdtemp(dir=build_dir, prefix="smoke-")

    traced = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, detail = bench(binary, work_dir, workload, 7, trace)
            expect(code == 0 and detail.get("correct") is True,
                   "%s trace=%d passes its checks %s" %
                   (workload, trace, detail.get("check_failures", "")))
            _, problems = run.result_from(detail, trace)
            expect(not problems, "%s trace=%d reports its metrics in their "
                   "units %s" % (workload, trace, problems))
            if trace:
                traced |= set(detail["metrics"])
            if workload == "fleet" and trace == 1:
                m = {n: v["value"] for n, v in detail["metrics"].items()}
                sim = m["sim.run.busy_s"]
                for part in ("node.admit.busy_s", "crypto.sign.busy_s",
                             "consensus.pow.busy_s", "common.codec.busy_s"):
                    expect(0 < m[part] <= sim, "fleet %s = %.4f s is within "
                           "the simulator's %.4f s" % (part, m[part], sim))
                expect(m["sim.residual_s"] >= 0,
                       "fleet residual %.4f s is not negative" %
                       m["sim.residual_s"])
    missing = sorted(set(run.expected_metrics(1)) - traced)
    expect(not missing, "every per-layer metric is measured by some "
           "workload %s" % missing)

    _, first = bench(binary, work_dir, "fleet", 11)
    _, second = bench(binary, work_dir, "fleet", 11)
    sim_time = [n for n in first["metrics"] if "_sim_s_" in n]
    expect(len(sim_time) >= 2, "fleet reports sim-time latencies")
    for name in sim_time:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        expect(a == b, "same-seed %s identical (%r == %r)" % (name, a, b))

    for workload in WORKLOADS:
        code, detail = bench(binary, work_dir, workload, 7,
                             extra=("--inject-fault",))
        expect(code != 0 and detail.get("correct") is False and
               detail.get("failed", 0) > 0,
               "%s fails when its check value is corrupted" % workload)
    os.rmdir(work_dir)
    print("smoke test passed")


if __name__ == "__main__":
    main()
