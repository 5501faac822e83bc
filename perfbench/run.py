#!/usr/bin/env python3
"""relc's benchmark: build the benchmark from this checkout, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a relc checkout. The first run configures and builds
the benchmark package (perfbench/CMakeLists.txt: the relc libraries, relcd,
relc-gen, the suite's generated C and the `perfbench` binary) under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; later runs only check
that the build is current. The binary runs in a fresh work directory that
is removed afterwards. Its last stdout line is the JSON result.

warm-certify and the traced run read a long-lived certificate cache. It is
built once per build of the binary, by a `perfbench --prepare` process that
runs before the measured one, so set-up time never includes it.

Extra flags are passed to the binary: --self-test (every correctness check
must refuse a corrupted output) and --suite-only-cache (warm-certify over a
cache holding only the suite's entries, none from past builds).
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold-certify", "warm-certify", "daemon-mixed", "generated-code")
# A run may take this long beyond --seconds (set-up, its last round, drain).
RUN_SLACK_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir, prepare):
    """Configures (once) and builds perfbench and relcd, then runs
    `prepare` (or nothing) under the same lock; False on failure."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "..", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = [cmake, "-S", bench_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        jobs = str(min(os.cpu_count() or 1, 8))
        cmd = [cmake, "--build", build_dir, "--target", "perfbench", "relcd",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
        return prepare is None or subprocess.run(
            prepare, stdout=sys.stderr, timeout=RUN_SLACK_S).returncode == 0


def run_pids(sid):
    """Live processes whose session id is `sid`: perfbench, relcd, workers."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    pids.append(int(entry))
            except OSError:
                pass
    return pids


def stop_run(sid):
    for _ in range(50):
        pids = run_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--suite-only-cache", action="store_true")
    a = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    state_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.join(state_dir, "build")
    work_dir = os.path.join(state_dir, f"run-{os.getpid()}")
    binary = os.path.join(build_dir, "perfbench")
    cache_flags = ["--suite-only-cache"] if a.suite_only_cache else []
    prepare = None
    if (a.workload == "warm-certify" or a.trace) and not a.self_test:
        prepare = [binary, "--prepare", "--state-dir", state_dir,
                   "--work-dir", work_dir] + cache_flags
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    if not build(bench_dir, build_dir, prepare):
        shutil.rmtree(work_dir, ignore_errors=True)
        log("build or warm-cache preparation failed")
        return 1

    cmd = [binary,
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--relcd", os.path.join(build_dir, "relcd"),
           "--state-dir", state_dir, "--work-dir", work_dir]
    if a.self_test:
        cmd.append("--self-test")
    cmd += cache_flags
    # Set-up time counts from here: the benchmark process's start.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    timeout = a.seconds + RUN_SLACK_S
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_run(proc.pid)
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        log(f"run exceeded {timeout} s; stopped")
        return 1
    # Nothing the run started may outlive it.
    stop_run(proc.pid)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
