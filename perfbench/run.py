#!/usr/bin/env python3
"""Builds and runs the rproxy open-loop benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload capability_reads --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20        # every workload
    python3 perfbench/run.py --selftest                # machinery tests

Run from the root of a source checkout.  The benchmark is built from
../src in Release mode into $CARGO_TARGET_DIR (default .bench_build), its
journals live under that directory too, and nothing outside the checkout
is read or written.  Rates, SLOs and the server's worker count are fixed
per workload in the benchmark (src/runner.cpp, options_for).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list.  Exit status is 0 only
when every correctness gate passed; a run whose generator fell behind is
flagged "valid": false on the line before.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# End-to-end figures every untraced run reports but BENCHMARK.json does not
# gate: on a shared VM their run-to-run spread exceeds any usable bound.
REPORTED_UNITS = {"light_p50_ms": "ms", "p50_ms": "ms", "p99_ms": "ms",
                  "max_rate_ops": "ops/s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rproxy sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(exe, bench, workload, seed, seconds, trace, scale=None):
    tmp = os.path.join(build_dir(), "run-tmp")
    # Journals of an earlier run that was killed before it cleaned up.
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-dir", tmp]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload}: no output (exit {done.returncode})")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    units.update(REPORTED_UNITS)
    # Every figure the run measured, gated by BENCHMARK.json or not.
    print(json.dumps({"workload": workload, "valid": raw.get("valid", False),
                      "ops_attempted": raw["attempted"],
                      "ops_failed": raw["failed"],
                      "reported": {k: {"value": v, "unit": units.get(k, "")}
                                   for k, v in raw["metrics"].items()},
                      "detail": raw.get("detail", {})}))
    metrics = {}
    for m in listed:
        name = m["name"]
        if name not in raw["metrics"]:
            if not trace:
                fail(f"{workload}: metric {name} missing")
            value = 0.0  # a layer this workload does not exercise
        else:
            value = raw["metrics"][name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    correct = bool(raw["correct"]) and done.returncode == 0
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true",
                   help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    p.add_argument("--smoke", action="store_true",
                   help="small populations, short run, one set-up")
    a = p.parse_args()

    if a.selftest:
        exe = build("perfbench_selftest")
        sys.exit(subprocess.run([exe], cwd=ROOT).returncode)

    bench = load_benchmark()
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if a.all else [a.workload]
    for w in workloads:
        if w not in names:
            fail(f"unknown workload '{w}'")
    exe = build("perfbench")
    ok = True
    for w in workloads:
        result = run_one(exe, bench, w, a.seed,
                         2 if a.smoke else seconds, a.trace,
                         scale=0.05 if a.smoke else None)
        if a.all:
            result = {"workload": w, **result}
        print(json.dumps(result))
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
