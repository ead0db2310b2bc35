#!/usr/bin/env python3
"""End-to-end benchmark of the GMorph reproduction.

Usage, from the repository root:

    python3 perfbench/run.py --workload <search-b1|infer-b1|serve-b6> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the gmorph libraries it compiles from src/) into
.bench_build/ on first use, runs one workload in a fresh directory under
.bench_build/runs/ with every inherited GMORPH_* variable removed, and
prints the program's report. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the Perfetto trace of the traced pass is kept at
.bench_build/traces/<workload>-seed<n>.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("search-b1", "infer-b1", "serve-b6")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; output goes to a log."""
    source = root / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another checkout
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(source), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return build_dir / "perfbench"


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"gmorph sources not found under {root / 'src'}")
    bench_root = root / ".bench_build"
    binary = build(root, bench_root / "perfbench")

    runs = bench_root / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMORPH_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", code=3)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        print("\n".join(lines), file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{args.workload} exited with {proc.returncode} and no result", code=4)

    if args.trace:
        trace = workdir / "trace.json"
        try:
            with open(trace) as f:
                json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            shutil.rmtree(workdir, ignore_errors=True)
            fail(f"trace is not valid JSON: {err}", code=4)
        kept = bench_root / "traces" / f"{args.workload}-seed{args.seed}.json"
        kept.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(trace), str(kept))
        lines.insert(-1, f"trace written to {kept.relative_to(root)}")
    shutil.rmtree(workdir, ignore_errors=True)

    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
