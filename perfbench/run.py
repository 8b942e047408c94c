#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The benchmark is compiled from source
into perfbench/_build (its own CMake package, perfbench/CMakeLists.txt);
inputs, sockets and traces go to perfbench/_out. The last line of stdout is
the JSON result of the run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "_build")
OUT = os.path.join("perfbench", "_out")  # relative: keeps socket paths short
WORKLOADS = ("campaign-c880", "service-mix", "spice-delay-line")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full source tree")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "cwsp_tool", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "cwsp_tools", "cwsp_tool"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    os.chdir(ROOT)
    try:
        binary, tool = build()
    except (subprocess.CalledProcessError, OSError) as error:
        fail(f"build failed: {error}")
    os.makedirs(OUT, exist_ok=True)

    common = ["--out", OUT, "--tool", tool]
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"] + common).returncode)

    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--trace", str(args.trace)]
    inputs = os.path.join(OUT, f"inputs-{args.seed}")
    try:
        # Inputs are generated in their own process: never timed, and the
        # measured process starts cold.
        subprocess.run([binary, "--generate"] + run_args + common,
                       check=True, timeout=RUN_TIMEOUT_S)
        result = subprocess.run(
            [binary, "--seconds", str(args.seconds)] + run_args + common,
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as error:
        fail(f"input generation failed: {error}")
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        fail(f"benchmark exited with {result.returncode}")


if __name__ == "__main__":
    main()
