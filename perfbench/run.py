#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form configures and builds `perfbench` from the library sources
under src/ into .bench_build/ (once; later runs rebuild only what
changed), runs the one workload in a process of its own, and relays its
output; the last stdout line is the result JSON. Build output goes to
stderr. The exit code is non-zero when the build fails or a check fails.

--smoke runs every workload of BENCHMARK.json on tiny inputs, with and
without tracing, twice with one seed, and checks that each named metric
is present with its unit, that nothing failed, and that the digest
(modeled metrics, counts, fingerprints) repeats byte for byte. It applies
no threshold to host times.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args):
    """Run one workload; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return None
    return result


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            digests = []
            for attempt in range(2):
                code, lines = run_binary(["--workload", name, "--seed", "1", "--seconds", "1",
                                          "--trace", trace, "--smoke"])
                result = parse_result(lines)
                where = "%s --trace %s (run %d)" % (name, trace, attempt + 1)
                if code != 0 or result is None:
                    problems.append("%s: exit %d, result %s" % (where, code,
                                                                "ok" if result else "missing"))
                    continue
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s: correct=%s failed=%s" % (where, result["correct"],
                                                                  result["failed"]))
                metrics = result["metrics"]
                names = [m["name"] for m in expected]
                if sorted(metrics) != sorted(names):
                    problems.append("%s: metric names differ from BENCHMARK.json" % where)
                for m in expected:
                    got = metrics.get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        problems.append("%s: %s missing or not in %s" % (where, m["name"],
                                                                         m["unit"]))
                if trace == "1" and metrics.get("fail_ratio", {}).get("value") != 0:
                    problems.append("%s: fail_ratio is not 0" % where)
                digests.append([l for l in lines if l.startswith("digest ")])
            if len(digests) == 2 and digests[0] != digests[1]:
                problems.append("%s --trace %s: digest differs between two runs of seed 1"
                                % (name, trace))
        print("smoke %-20s %s" % (name, "checked"))
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if a.smoke:
        return smoke()
    code, lines = run_binary(["--workload", a.workload, "--seed", a.seed, "--seconds",
                              a.seconds, "--trace", a.trace])
    result = parse_result(lines)
    # A run that failed without a result prints nothing that could pass
    # for one.
    for line in lines if result is not None else [l for l in lines if not l.startswith("{")]:
        print(line)
    sys.stdout.flush()
    if result is None:
        print("perfbench: no result from %s" % a.workload, file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
