#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr. The last
line of stdout is the benchmark's JSON result; the exit code is the
benchmark's (non-zero on a failed correctness check). --self-test runs
the unit tests of the benchmark's statistics helpers instead.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"  # the repository's default (tier-1) build
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (REPO / root / "perfbench").resolve()


def build(target):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {REPO / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file() or not (out / "Makefile").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail(f"building {target} failed")
    return out / target


def provenance_commit():
    """The git commit when there is one, plus a hash of the src/ tree
    (checkouts without git history still get a stable identity)."""
    commit = "none"
    if (REPO / ".git").exists():
        res = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("need --workload, --seed and --seconds")

    exe = build("perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", provenance_commit(), "--build-type", BUILD_TYPE]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
