#!/usr/bin/env python3
"""Build and run the P-AutoClass host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 3   # every workload

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the repository's library targets plus the
pac_perfbench program, Release) into .bench_build/; later calls only check
that the build is current.  Build output goes to stderr, so the last line of
stdout is the program's JSON result.  Extra flags (--smoke,
--corrupt-reference) pass through to the program; see perfbench/README.md.
"""
import argparse
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "pac_perfbench"
WORKLOADS = ["search_gauss_1t", "search_gauss_4t", "search_mixed_ooc_r4",
             "serve_mixed"]
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no P-AutoClass sources next to perfbench/; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "pac_perfbench", "-j", "4"], check=True, stdout=sys.stderr)


def run_one(workload, args, extra):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    sys.stdout.flush()
    if args.workload != "all":
        return run_one(args.workload, args, extra)
    return max(run_one(w, args, extra) for w in WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
