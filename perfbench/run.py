#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <rack_exam|udp_mesh|lossy_mesh> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first call configures and builds
the simulator library and the perfbench driver (Release) under
$CARGO_TARGET_DIR (default .bench_build), in a directory named after the
source tree's path, so two trees never share a build; later calls only
re-check the build. Build output goes to stderr, so the driver's JSON
summary stays the last line of stdout. Exits non-zero, without a summary,
if the sources are missing or the build fails.

The parts of the host fingerprint that can change after the build (the
git sha of the tree, the CPU model) are read here on every run and handed
to the driver in PERFBENCH_GIT_SHA and PERFBENCH_CPU.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cached_source_dir(build_dir):
    """The source directory a configured build dir was made from, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"simulator sources not found under {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, target_dir, f"perfbench-{tree}")
    binary = os.path.join(build_dir, "perfbench")
    cached = cached_source_dir(build_dir)
    if cached is None or os.path.realpath(cached) != os.path.realpath(HERE):
        shutil.rmtree(build_dir, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return binary


def git_sha():
    """Short sha of the tree's HEAD; only when the tree is itself a git
    checkout (never a repository that merely encloses it)."""
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
        capture_output=True,
        text=True,
    )
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    binary = build()
    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha() or "unmeasured"
    env["PERFBENCH_CPU"] = cpu_model() or "unmeasured"
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
