#!/usr/bin/env python3
"""Build and run the serving-spine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls only re-check the build.  Build output goes to stderr.  The
benchmark's last stdout line is its JSON result; the line before it records
the host.  Exits non-zero without a result when the sources are missing, the
build fails, or the run fails.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(code, message):
    sys.stderr.write("perfbench/run.py: %s\n" % message)
    sys.exit(code)


def source_id():
    """The git sha when the tree is a git checkout, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no repflow sources under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            fail(3, "cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    make = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr, env=env)
    if make.returncode != 0:
        fail(3, "build failed")
    return os.path.join(build_dir, "perfbench")


def main(argv):
    binary = build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=source_id())
    try:
        run = subprocess.run([binary] + argv, capture_output=True, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(run.returncode, "benchmark exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if "--selftest" in argv:
        sys.stdout.write(run.stdout)
        return 0
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(5, "benchmark printed no result")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
