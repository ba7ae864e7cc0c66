#!/usr/bin/env python3
"""End-to-end benchmark of the Video-zilla serving stack.

    python3 perfbench/run.py --workload ingest|direct --seed N --seconds S \
        --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (which compiles
../src itself) in Release into $CARGO_TARGET_DIR or .bench_build/, records
the run's conditions, runs the benchmark's self-test, then one workload.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones with --trace 1).
See perfbench/NOTES.md for the workloads, metrics and steadiness rules.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every run must end within 180 s; the first one in a checkout builds too.
RUN_BUDGET_S = 170.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def cpu_times():
    """(total, steal) jiffies of the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice.
    return sum(fields[:8]), steal


def load_average():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mount = parts[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(deadline):
    """Configures and builds vzbench; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as build_log:
            steps = [
                ["cmake", "--build", out, "--target", "vzbench", "-j",
                 str(max(1, len(os.sched_getaffinity(0))))],
            ]
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", out,
                                 "-DCMAKE_BUILD_TYPE=Release"])
            for step in steps:
                try:
                    done = subprocess.run(step, stdout=build_log,
                                          stderr=subprocess.STDOUT,
                                          timeout=max(1, deadline - time.time()))
                except subprocess.TimeoutExpired:
                    log("build timed out; see " + log_path)
                    return None
                if done.returncode != 0:
                    log("build failed; see " + log_path)
                    return None
    return os.path.join(out, "vzbench")


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(argv, deadline):
    """Runs argv in its own session; kills the whole group on timeout.
    Returns (returncode, stdout) or (None, partial stdout) on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "direct"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    started = time.time()
    deadline = started + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no source tree at ./src: run from the root of a checkout")
        return 2

    load_at_start = load_average()
    binary = build(started + 900.0)
    if binary is None:
        return 1
    # A build in this run eats into the measurement budget, never the reverse.
    deadline = max(deadline, time.time() + 150.0)

    code, out = run_child([binary, "selftest"], deadline)
    print(out, end="")
    if code != 0:
        log("self-test failed: the benchmark's own statistics are wrong")
        return 1
    calibration_ms = None
    for line in out.splitlines():
        if line.startswith("calibration_ms "):
            calibration_ms = float(line.split()[1])

    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    total0, steal0 = cpu_times()
    code, out = run_child(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out_dir], deadline)
    total1, steal1 = cpu_times()
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if code is None or result is None:
        print("\n".join(lines))
        log("workload run failed" if code is not None else
            "workload run timed out")
        return 1

    nproc = len(os.sched_getaffinity(0))
    steal_share = (steal1 - steal0) / max(1, total1 - total0)
    disturbed = steal_share > 0.05 or load_at_start[0] > nproc
    conditions = {
        "nproc": nproc,
        "build_type": build_type(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "wal_fs": "in-memory io::Env of the benchmark (ingest server); "
                  "checkout on " + filesystem_of(ROOT),
        "load_avg_at_start": load_at_start,
        "host_calibration_ms": calibration_ms,
        "steal_share": round(steal_share, 4),
        "disturbed": disturbed,
    }
    print("\n".join(lines[:-1]))
    print("conditions " + json.dumps(conditions, sort_keys=True))
    if disturbed:
        print("DISTURBED RUN: steal share %.3f, load average %.2f at start "
              "on %d CPUs — kept, not dropped" %
              (steal_share, load_at_start[0], nproc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
