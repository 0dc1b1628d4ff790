#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one measurement.

Usage, from the root of a checkout:

    python3 bench_e2e/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --self-test

Every flag except --self-test is passed to the bench_e2e binary (see
bench_e2e/cpp/main.cc). The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, as a CMake Release build of
bench_e2e/CMakeLists.txt, which compiles the library from ../src. Result
files (one JSON document per run, plus the Chrome trace and registry
snapshot of traced runs) are written to <build>/results. The last line of
standard output is the run's result object; build logs go to stderr.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build() -> Path:
    """Configures (once) and builds the bench_e2e target; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "bench_e2e"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    binary = out / "bench_e2e"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def revision() -> str:
    """The git revision when the checkout is a repository, and always a
    digest of the sources the binary was built from."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*")
                           if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    rev = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                rev = git.stdout.strip() + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def main(argv) -> int:
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    if "--self-test" in argv:
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        import selftest  # pylint: disable=import-outside-toplevel
        return selftest.main(binary, ROOT)
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *argv, "--out", str(results), "--revision", revision()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
