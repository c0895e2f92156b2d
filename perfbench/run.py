#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ against this source tree,
runs one workload, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload camera_intra --seed 1 --seconds 50 --trace 0

Run it from the repository root.  The first run configures and compiles
into .bench_build/perfbench (about a minute on 4 cores); later runs only
check that the build is current.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones (README.md lists both).  Before the result it prints
rsf_perfbench's notes ("# ..." lines) and a "host: {...}" line with the host and
build metadata.  The exit code is 0 when every delivery checked out, 1 when
any failed, and 2 when no result could be produced.
"""
import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "rsf_perfbench")
WORKLOADS = ("camera_intra", "camera_xproc", "imu_xproc", "fanout_intra")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings rsf_perfbench up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ROS-SF source tree at {ROOT}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "rsf_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                if step is steps[0] and len(steps) == 2 and os.path.exists(cache):
                    os.remove(cache)  # configure again next time
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build failed (full log: {log_path})")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark compiles: identifies the
    program when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "msgs", "tools", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_binary(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_seq is not None:
        cmd += ["--corrupt-seq", str(args.corrupt_seq)]
    # Own session, so a hung run's subscriber process dies with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.pid, proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-seq", type=int, default=None,
                        help=argparse.SUPPRESS)  # test hook
    args = parser.parse_args()

    build()
    pid, code, lines = run_binary(args)
    if code not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(line + "\n" for line in lines))
        fail(f"rsf_perfbench exited with code {code} and no result")
    result = json.loads(lines[-1])
    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        else:
            print(line)

    # Teardown hygiene: the publisher's shm segments must be gone once it
    # has exited (the subscriber process only maps them).
    leftovers = glob.glob(f"/dev/shm/rsf.{pid}.*")
    if leftovers:
        print(f"# teardown: {len(leftovers)} shm segment(s) left: "
              f"{' '.join(sorted(leftovers))}")
        result["failed"] += len(leftovers)
        result["correct"] = False

    host = {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "rsf_env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith("RSF_")},
        **meta,
    }
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
