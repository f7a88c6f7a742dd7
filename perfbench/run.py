#!/usr/bin/env python3
"""qoesim benchmark: build qoebench from source, run one workload, check it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--record DIR]

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, default .bench_build. Later runs rebuild incrementally.

Prints the build/host stamp, the output digest and every metric with its
unit, then, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. --record DIR also writes the full record
(stamp, digest, exact counters, metrics) to DIR for compare.py.
See perfbench/METRICS.md for what each metric means.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("access_sweep", "backbone_web", "access_aqm")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--record", metavar="DIR",
                   help="also write the full record into DIR")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= a.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return a


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "experiment.hpp")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env, cwd=ROOT)
            if r.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(out, "qoebench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary, out


def run_bench(binary, out_dir, a):
    trace_out = os.path.join(out_dir, f"spans-{a.workload}-{a.seed}.jsonl")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", trace_out]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"qoebench exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"qoebench exited with {r.returncode}", r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("qoebench printed nothing")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("qoebench's last line is not JSON")


def main():
    a = parse_args()
    spec = load_spec()
    binary, out_dir = build()
    rec = run_bench(binary, out_dir, a)

    stamp = rec["stamp"]
    if (stamp["build_type"] != "Release" or not stamp["ndebug"]
            or stamp["sanitizer"]):
        fail(f"refusing timings from a non-Release build: {stamp}", 3)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    checks = list(rec["checks"])
    metrics = {}
    for m in wanted:
        v = rec["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            checks.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    attempted, failed = int(rec["attempted"]), int(rec["failed"])
    correct = not checks and failed == 0 and attempted > 0
    print(f"stamp nproc={stamp['nproc']} compiler={stamp['compiler']!r} "
          f"build_type={stamp['build_type']} ndebug={stamp['ndebug']}")
    print(f"workload={a.workload} seed={a.seed} trace={a.trace} "
          f"reps={rec['reps']} cells_per_rep={rec['cells_per_rep']}")
    print(f"digest={rec['digest']}")
    print(f"failed_frac={failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} cells)")
    for why in rec["failures"] + checks:
        print(f"CHECK FAILED: {why}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "cell_ms_p90" in rec:
        print(f"(cell_ms_p90 = {rec['cell_ms_p90']:.6g} ms over "
              f"{rec['cell_samples']:.0f} cell samples; informative only)")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if a.record:
        os.makedirs(a.record, exist_ok=True)
        stem = f"{a.workload}-trace{a.trace}-seed{a.seed}"
        n = 0
        while os.path.exists(os.path.join(a.record, f"{stem}-{n}.json")):
            n += 1
        with open(os.path.join(a.record, f"{stem}-{n}.json"), "w") as f:
            json.dump({"time": time.time(), "record": rec, "result": result},
                      f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
