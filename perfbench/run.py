#!/usr/bin/env python3
"""Build and run the wormsim host-speed benchmark (see README.md).

    python3 perfbench/run.py --workload fig3_light --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test         # the benchmark's own tests
    python3 perfbench/run.py --update-expected   # rewrite expected_digests.json

Builds perfbench/ (which compiles the library from src/) in Release mode
under $CARGO_TARGET_DIR (default .bench_build) of the checkout, then runs
perfbench_run. Build output goes to stderr; the last stdout line of a run
is its JSON result. A point that fails a correctness check is reported
through the result's "correct" (false) and "failed" fields, with exit
code 0; the build failing, a bad option or a refused (Debug or sanitizer)
build exits non-zero without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_checked(cmd, timeout, **kwargs):
    """Run cmd to completion (killing it on timeout); return its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out: {' '.join(map(str, cmd))}",
              file=sys.stderr)
        return 1


def build(target):
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        return None
    return out / target


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--update-expected", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.self_test or a.update_expected):
        p.error("--workload is required")

    target = "perfbench_tests" if a.self_test else "perfbench_run"
    binary = build(target)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return run_checked([str(binary)], RUN_TIMEOUT_S, cwd=build_dir())

    out = build_dir() / "out"
    cmd = [str(binary), "--out", str(out),
           "--expected", str(HERE / "expected_digests.json")]
    if a.update_expected:
        res = subprocess.run(cmd + ["--emit-digests"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S * 4)
        if res.returncode != 0:
            return res.returncode
        body = "".join(l + "\n" for l in res.stdout.splitlines()
                       if not l.startswith("#"))
        (HERE / "expected_digests.json").write_text(body)
        return 0
    cmd += ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace]
    return run_checked(cmd, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
