#!/usr/bin/env python3
"""Build bench_e2e from source and report one workload as one JSON line.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). With --trace 0 the result carries every end_to_end metric of
BENCHMARK.json, with --trace 1 every per_layer metric; the last line of
stdout is {"correct", "attempted", "failed", "metrics"}. The exit status is
nonzero when the build fails, a metric is missing, or any output was wrong.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The benchmark must end within 180 s; leave room for the report.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and bring bench_e2e up to date (quick when already built)."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs,
                     "--target", "bench_e2e"]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def run_bench(cmd):
    """Run the benchmark in its own process group, so a timeout also ends
    the per-workload child it forks."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)
    out_json = os.path.join(build_dir, "result.json")
    if os.path.exists(out_json):
        os.remove(out_json)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", out_json]
    if args.trace:
        cmd += ["--trace", os.path.join(build_dir, "trace")]
    status = run_bench(cmd)
    if not os.path.exists(out_json):
        sys.exit(f"bench_e2e exited {status} without a result")

    with open(out_json) as f:
        report = json.load(f)
    rec = report["workloads"][0]
    metrics = {}
    for m in wanted:
        if args.trace:
            value = rec["layers"].get(m["name"])
        else:
            got = rec["metrics"].get(m["name"], {})
            value = got.get("value")
            if got and got["unit"] != m["unit"]:
                sys.exit(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if value is None:
            sys.exit(f"bench_e2e reported no value for {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = bool(report["all_ok"] and rec["ok"] and status == 0)
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
