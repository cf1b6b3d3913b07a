#!/usr/bin/env python3
"""Build mlad_bench from source and run one workload of the end-to-end benchmark.

Run from anywhere; paths are taken relative to this file's repository:

  python3 bench/e2e/run.py --workload serve-8link --seed 1 --seconds 15 --trace 0
  python3 bench/e2e/run.py --workload tcp-64link-2shard --seed 3 --trace 1 --json out.json
  python3 bench/e2e/run.py --smoke        # every workload on tiny inputs

The binary is built (Release) under .bench_build/ at the repository root.
The last line of standard output is the run's result, one JSON object with
the keys correct, attempted, failed and metrics; its metric names and units
are checked against BENCHMARK.json. The exit status is non-zero when the
build fails, a check fails or the run does not finish in time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "e2e")
BINARY = os.path.join(BUILD_DIR, "mlad_bench")
WORKLOADS = ["serve-8link", "serve-256link-4shard", "tcp-64link-2shard", "train"]
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mlad_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, smoke, json_path, trace_out):
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", os.path.join(BUILD, "work"),
           "--trace-out", trace_out or os.path.join(BUILD, "trace-%s.jsonl" % workload)]
    if smoke:
        cmd.append("--smoke")
    if json_path:
        cmd += ["--json", json_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    last = lines[-1] if lines else ""
    body = lines[:-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stdout.write(proc.stdout)
        print("run.py: %s exited with status %d" % (workload, proc.returncode),
              file=sys.stderr)
        return proc.returncode or 1, None

    want = expected_metrics(trace)
    if want is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            sys.stdout.write("\n".join(body) + "\n")
            print("run.py: metrics differ from BENCHMARK.json: missing %s, "
                  "extra or mis-united %s" % (sorted(set(want) - set(got)),
                                               sorted(set(got.items()) - set(want.items()))),
                  file=sys.stderr)
            return 1, None
    sys.stdout.write("\n".join(body) + "\n")
    return 0, last


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="write the full result record here")
    ap.add_argument("--trace-out", help="where --trace 1 writes its spans")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; without --workload, runs every workload")
    args = ap.parse_args()
    if args.workload is None and not args.smoke:
        ap.error("--workload is required (or --smoke)")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    last = None
    for workload in workloads:
        rc, line = run(workload, args.seed, args.seconds, bool(args.trace),
                       args.smoke, args.json, args.trace_out)
        status = status or rc
        last = line if rc == 0 else None
        if rc == 0 and len(workloads) > 1:
            print(line)
    if status == 0 and len(workloads) == 1:
        print(last)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
