#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload kv-read-domains --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench/perfbench.exe with dune into .bench_build/, runs it,
and prints its output; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when the
run completed and every correctness check passed.

--self-test runs a tiny smoke of every workload (traced and untraced,
checking every metric named in BENCHMARK.json is printed with its unit)
and three planted faults that the correctness gate must catch.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
SOURCES = ["dune-project", "lib", "bin", "perfbench"]
# BENCHMARK.json lists the workloads that are steady enough to gate on;
# kv-read-sim runs on request and in the self-test (see README.md).
ALL_WORKLOADS = ["kv-read-sim", "kv-read-domains", "kv-rmw-sync-repl"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for p in ["dune-project", os.path.join("lib", "server", "server.ml"),
              os.path.join("perfbench", "dune")]:
        if not os.path.exists(p):
            die("run from the root of a source checkout (%s is missing)" % p)
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        b = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        die("build failed")


def stamp_args():
    """The source revision: git's when this is a clone, plus a digest of
    every source file the benchmark builds from (a plain checkout has no
    git metadata)."""
    rev = "none"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", ".py", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return ["--rev", rev, "--src-digest", h.hexdigest()[:16]]


def run_exe(args):
    """Run the benchmark binary; returns (exit code, stdout lines, result)."""
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = p.stdout.decode(errors="replace").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and set(result) != {"correct", "attempted", "failed", "metrics"}:
        result = None
    return p.returncode, lines, result


def bench(a):
    build()
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    trace_out = os.path.join(BUILD_DIR, "traces", "%s-seed%d.json" % (a.workload, a.seed))
    code, lines, result = run_exe(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", str(a.trace), "--trace-out", trace_out] + stamp_args())
    if code != 0 or result is None:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        die("benchmark run failed (exit %d)" % code, 1)
    print("\n".join(lines))
    return 0 if result["correct"] else 3


def self_test():
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in ALL_WORKLOADS:
        for trace in (0, 1):
            out = os.path.join(BUILD_DIR, "selftest-%s.json" % w)
            code, _, r = run_exe(["--workload", w, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--tiny", "--trace-out", out])
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or r is None:
                problems.append("%s: no result (exit %d)" % (tag, code))
                continue
            if not r["correct"]:
                problems.append("%s: correctness gate failed on a clean run" % tag)
            want = {m["name"]: m["unit"] for m in names[trace]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if want != got:
                problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
                                "unit mismatches %s" % (
                                    tag, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                                    sorted(k for k in want if k in got and want[k] != got[k])))
            print("smoke %-32s ok=%s attempted=%d" % (tag, r["correct"], r["attempted"]))
    for workload, fault in [("kv-read-sim", "corrupt-read"), ("kv-read-domains", "corrupt-read"),
                            ("kv-rmw-sync-repl", "drop-delta")]:
        code, _, r = run_exe(["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", "0", "--tiny", "--fault", fault])
        caught = r is not None and not r["correct"] and r["failed"] > 0
        print("fault %-16s on %-18s caught=%s" % (fault, workload, caught))
        if not caught:
            problems.append("planted fault %s on %s was not caught" % (fault, workload))
    for p in problems:
        print("SELF-TEST FAILURE: " + p)
    print("self-test: %s" % ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        die("--workload is required")
    return bench(a)


if __name__ == "__main__":
    sys.exit(main())
