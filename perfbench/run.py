#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary (perfbench/CMakeLists.txt, on top of the
repository's core library) from the source tree it sits in, runs one
workload and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload sweep-scheme --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. A per-layer metric of a layer the workload
never calls reads 0. Set-up time (setup_s) is the time the benchmark
process spends from its first static initialiser to the end of its set-up,
as it reports it; the value is the median over the timed run and
SETUP_SAMPLES - 1 extra processes that stop there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-scheme", "campaign-full", "install-lint")
SETUP_SAMPLES = 25
RUN_TIMEOUT_S = 170
READY = "perfbench-setup-s "


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no source tree at {ROOT} (src/CMakeLists.txt is missing)", 2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", "sofia_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "sofia_perfbench")


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(binary, args, echo):
    """Run the benchmark binary; returns (exit code, setup seconds, lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    setup_s = None
    lines = []
    for line in proc.stdout.splitlines():
        if line.startswith(READY):
            setup_s = float(line[len(READY):])
            continue
        lines.append(line)
        if echo and not line.startswith('{"correct"'):
            print(line, flush=True)
    return proc.returncode, setup_s, lines


def run_workload(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """One benchmark run; returns the result object and the names of the
    metrics the binary printed, or exits on failure."""
    workdir = os.path.join(build_dir(), "work")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--workdir", workdir] + list(extra)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, setup_s, _ = spawn(binary, args + ["--setup-only"], echo=False)
            if code != 0 or setup_s is None:
                fail(f"set-up probe of {workload} failed (exit {code})")
            setups.append(setup_s)
    code, setup_s, lines = spawn(binary, args, echo)
    if code != 0:
        fail(f"{workload} exited with code {code}")
    if not lines:
        fail(f"{workload} printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result")
    if not trace:
        if setup_s is None:
            fail(f"{workload} never reported the end of its set-up")
        setups.append(setup_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        if echo:
            print(f"  setup_s samples (s): {' '.join(f'{s:.6f}' for s in setups)}")
    declared = declared_metrics(trace)
    printed = set(result["metrics"])
    if printed - set(declared):
        fail(f"{workload}: metrics not in BENCHMARK.json: {sorted(printed - set(declared))}")
    for name, unit in declared.items():
        if name not in printed:
            if not trace:
                fail(f"{workload} did not print {name}")
            result["metrics"][name] = {"value": 0, "unit": unit}
    return result, printed


def self_test(binary):
    """Minimal-size run of every workload: every named metric is printed
    (each per-layer one by at least one workload), and a deliberately wrong
    expected output is counted as a failure."""
    problems = []
    layers_printed = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            r, printed = run_workload(binary, workload, 1, 0, trace, ["--smoke"], echo=False)
            if trace:
                layers_printed |= printed
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{workload} trace={int(trace)}: {r['failed']} failed")
        r, _ = run_workload(binary, workload, 1, 0, False,
                            ["--smoke", "--inject-wrong-expected"], echo=False)
        if r["correct"] or r["failed"] < 1:
            problems.append(f"{workload}: wrong expected output was not counted")
        print(f"self-test {workload}: attempted {r['attempted']}, "
              f"failed {r['failed']} with a wrong expected output")
    never = sorted(set(declared_metrics(True)) - layers_printed)
    if never:
        problems.append(f"per-layer metrics no workload prints: {never}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    result, _ = run_workload(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
