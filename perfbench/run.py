#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload heavy-rbr --seed 7 --seconds 40 --trace 0

Run from the root of a source tree. It builds `perfbench` (the PEAK
library from src/ plus perfbench.cpp and layers.cpp) into .bench_build/,
runs one workload, checks the result against BENCHMARK.json with
check_result.py, adds the run's provenance, and prints as the last line of
stdout one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to stderr. The full record of every run,
provenance included, is appended to .bench_build/results.jsonl.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the source tree as it was

import check_result  # noqa: E402

RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configure once, then build incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise RuntimeError("PEAK sources (src/) not found next to "
                           f"{os.path.basename(HERE)}/")
    cmake_dir = os.path.join(out, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                    "--target", "perfbench"], stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def source_commit():
    """The git commit of the source tree (marked when src/ or perfbench/
    differ from it), else a digest of those sources."""
    root = os.path.dirname(HERE)
    git = ["git", "-C", root]
    try:
        top = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(root):
            dirty = subprocess.run(
                git + ["status", "--porcelain", "--", "src", "perfbench"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return lines[1] + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2

    out = build_dir()
    binary = build(out)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        print(f"perfbench exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print("perfbench printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    result["provenance"]["seed"] = args.seed
    result["provenance"]["commit"] = source_commit()

    trace = args.trace == "1"
    problems = check_result.check(spec, result, trace)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    for failure in result.get("failures", []):
        print(f"failed: {failure}", file=sys.stderr)
    with open(os.path.join(out, "results.jsonl"), "a") as f:
        f.write(json.dumps(result, sort_keys=True) + "\n")

    print(json.dumps({"provenance": result["provenance"],
                      "tune_samples": result["tune_samples"]}))
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        sys.exit(1)
