#!/usr/bin/env python3
"""Build and run the record -> replay -> kappa benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the program's sources
under src/ plus the perfbench program) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later calls only
rebuild what changed. The program's last line on standard output is the
result as one JSON object; build output goes to standard error.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "testbed" / "experiment.hpp").is_file():
        fail(f"program sources not found under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build(bench_dir, build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), *sys.argv[1:], "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
