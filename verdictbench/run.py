#!/usr/bin/env python3
"""The verdict benchmark's single command.

    python3 verdictbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 verdictbench/run.py --self-test

Run from the repository root. The first call builds the benchmark and the
VYRD libraries it links (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. A run then sets the workload up SETUP_REPS
times in fresh processes (setup_s is their median), measures once in
another fresh process, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones plus setup_s; with --trace 1 they are the
per-layer ledger, and the span trace is kept under .bench_work/traces/.

--self-test runs every workload at a tiny size, traced and untraced, on
two seeds, and checks that every metric BENCHMARK.json names is emitted
and that no verdict check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["composite-live", "composite-replay", "queue-io-replay",
             "multiset-detect"]
SETUP_REPS = 3
# Per-process time limits (a set-up takes 2 to 3 s; the measure phase runs
# --seconds plus the detection probe and, when traced, the ledger). Three
# set-ups plus a 12 s measurement stay inside 180 s even when every
# process hits its limit.
SETUP_TIMEOUT_S = 30
MEASURE_SLACK_S = 60


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "verdict_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "verdict_bench")


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1]), lines[:-1]


def run_once(exe, workload, seed, seconds, trace, scale, quiet=False):
    """Runs set-up SETUP_REPS times and the measurement once.
    Returns the result object (raises on any failure)."""
    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", workload, "--seed", str(seed),
              "--work-dir", work, "--scale", repr(scale),
              "--trace", "1" if trace else "0"]
    try:
        setups = []
        for _ in range(SETUP_REPS):
            p = subprocess.run([exe, "--phase", "setup"] + common,
                               stdout=subprocess.PIPE, text=True,
                               timeout=SETUP_TIMEOUT_S, check=True)
            setups.append(last_json(p.stdout)[0]["setup_s"])
        p = subprocess.run([exe, "--phase", "measure",
                            "--seconds", repr(seconds)] + common,
                           stdout=subprocess.PIPE, text=True,
                           timeout=seconds + MEASURE_SLACK_S, check=True)
        result, ledger = last_json(p.stdout)
        if not quiet:
            for line in ledger:
                print(line)
            print("setup_s: %s (median of %d)" %
                  (" ".join("%.4f" % s for s in setups), SETUP_REPS))
        if trace:
            traces = os.path.join(ROOT, ".bench_work", "traces")
            os.makedirs(traces, exist_ok=True)
            for name in ("trace.json", "setup-trace.json"):
                src = os.path.join(work, name)
                if os.path.exists(src):
                    dst = os.path.join(traces, "%s-seed%d-%s" %
                                       (workload, seed, name))
                    shutil.copyfile(src, dst)
                    if not quiet:
                        print("trace kept at %s" % os.path.relpath(dst, ROOT))
        else:
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = sorted(m["name"] for m in spec["end_to_end"])
    layer = sorted(m["name"] for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    bad = 0
    # The second seed is the held-out seed later claims must also hold on.
    for seed in (1, 2):
        for workload in WORKLOADS:
            for trace in (0, 1):
                r = run_once(exe, workload, seed, 1, trace, 0.02, quiet=True)
                want = layer if trace else e2e
                got = sorted(r["metrics"])
                problems = []
                if got != want:
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(set(want) - set(got)),
                        sorted(set(got) - set(want))))
                if not r["correct"] or r["failed"] or r["attempted"] < 1:
                    problems.append("verdicts: %d of %d failed" %
                                    (r["failed"], r["attempted"]))
                print("%-4s %-17s seed %d trace %d: %s" % (
                    "FAIL" if problems else "ok", workload, seed, trace,
                    "; ".join(problems) or "%d verdicts, %d metrics" %
                    (r["attempted"], len(got))))
                bad += bool(problems)
    print("self-test: %s" % ("FAILED" if bad else "passed"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size multiplier (self-test uses 0.02)")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    exe = build()
    if a.self_test:
        return self_test(exe)
    if not a.workload:
        ap.error("--workload is required")
    r = run_once(exe, a.workload, a.seed, a.seconds, a.trace, a.scale)
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
