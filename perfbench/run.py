#!/usr/bin/env python3
"""Build and run the colop repository benchmark.

    python3 perfbench/run.py --workload compile|execute|predict|profile \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the colop libraries, colopt and the benchmark program from
source into .bench_build/perfbench (Release); later calls only rebuild
what changed.  Build output goes to stderr.  The program's last stdout line
is the JSON result; its exit code is the benchmark's.  Extra arguments
(e.g. --inject-mismatch) are passed through to the program.
"""
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "3",
                    "--target", "colop_perfbench", "colopt"],
                   stdout=sys.stderr, check=True)


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    args = [str(BUILD / "colop_perfbench"), *argv,
            "--colopt", str(BUILD / "colop" / "tools" / "colopt")]
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        workload = argv[argv.index("--workload") + 1] if "--workload" in argv else "x"
        seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "x"
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
