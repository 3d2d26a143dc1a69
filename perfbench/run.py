#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

The benchmark program is built from source into .bench_build/ at the
root of the checkout. A run prints a readable report, then, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Every simulation is checked against its validator, the
invariant checkers, its other repetitions and, for the recorded seeds,
the reference digests in reference.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

WORKLOADS = ["ycsb-a.tlr", "ycsb-a.base.dir", "ycsb-a.tlr.observed",
             "paper-grid"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the benchmark binary up to date."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no simulator source ({needed}) at {ROOT}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace, quick=False):
    """Run one workload in its own process, in a working directory of
    its own; return its document and the process's peak RSS in MB."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=workload + "-", dir=WORK_DIR)
    try:
        out_path = os.path.join(work, "out.json")
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work] + (["--quick"] if quick else [])
        with open(out_path, "w") as out:
            proc = subprocess.Popen(cmd, stdout=out)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            fail(f"{workload}: benchmark program exited {proc.returncode}")
        with open(out_path) as f:
            doc = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return doc, usage.ru_maxrss / 1024.0


def first_difference(ref, got):
    if ref["cycles"] != got["cycles"]:
        return f"cycles {ref['cycles']} != {got['cycles']}"
    for name, want in sorted(ref["counters"].items()):
        have = got["counters"].get(name, 0)
        if have != want:
            return f"{name} {want} != {have}"
    return None


def check_reference(workload, seed, doc, quick):
    """Compare each configuration's digest with the recorded one.
    Returns (failed simulations, problems)."""
    if quick or not os.path.exists(REFERENCE):
        return 0, []
    with open(REFERENCE) as f:
        ref = json.load(f).get(workload, {}).get(str(seed))
    if ref is None:
        return 0, []
    failed, problems = 0, []
    for key, cfg in doc["configs"].items():
        if key not in ref:
            diff = "no reference digest (benchmark inputs changed?)"
        else:
            diff = first_difference(ref[key], cfg)
        if diff:
            failed += cfg["reps"]
            problems.append(f"{key}: reference mismatch: {diff}")
    return failed, problems


def measure(workload, seed, seconds, trace, quick=False):
    """One benchmark run: the contract result plus report details."""
    doc, rss_mb = run_binary(workload, seed, seconds, trace, quick)
    ref_failed, ref_problems = check_reference(workload, seed, doc, quick)
    metrics = doc["metrics"]
    if not trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    failed = doc["failed"] + ref_failed
    attempted = doc["attempted"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, doc, doc["problems"] + ref_problems


def report(workload, seed, result, doc, problems):
    host = doc["host"]
    print(f"perfbench workload={workload} seed={seed}")
    print(f"host: nproc={host['nproc']} build={host['build_type']} "
          f"compiler={host['compiler']} git={host['git_sha']}")
    share = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_share':<28} {share:<14.6g} ratio "
          f"({result['failed']} of {result['attempted']} simulations)")
    summary = [(k, m) for k, m in doc["summary"].items() if m["value"]]
    for name, m in list(result["metrics"].items()) + summary:
        print(f"  {name:<28} {m['value']:<14.6g} {m['unit']}")
    for p in problems:
        print(f"  FAILED {p}")


def self_test():
    """Quick mode: every workload, both modes, tiny inputs. Checks that
    every metric BENCHMARK.json names is emitted with its unit, that
    every simulation passes, and the bypass properties."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(errors)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, doc, problems = measure(workload, DEFAULT_SEED, 1, trace,
                                            quick=True)
            errors += [f"{workload} trace={trace}: {p}" for p in problems]
            if not result["correct"]:
                errors.append(f"{workload} trace={trace}: not correct")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in want.items():
                if name not in got:
                    errors.append(f"{workload}: {name} not emitted")
                elif got[name]["unit"] != unit:
                    errors.append(f"{workload}: {name} unit "
                                  f"{got[name]['unit']} != {unit}")
            extra = sorted(set(got) - set(want))
            if extra:
                errors.append(f"{workload}: unlisted metrics {extra}")
            errors += bypass_errors(workload, {**got, **doc["summary"]})
        state = "ok" if len(errors) == before else "FAILED"
        print(f"self-test: {workload} {state}", file=sys.stderr)
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if errors else "pass",
                      "errors": len(errors)}))
    return 1 if errors else 0


def bypass_errors(workload, metrics):
    """The mechanism each workload must leave untouched: speculation on
    ycsb-a.base.dir, the trace sink and observers everywhere but
    ycsb-a.tlr.observed."""
    errors = []
    observed = workload == "ycsb-a.tlr.observed"
    for name, m in metrics.items():
        bypassed = (name.startswith("spec.") and
                    workload == "ycsb-a.base.dir") or \
            (name.startswith(("obs.", "trace.records", "trace_sink_armed"))
             and not observed)
        if bypassed and m["value"] != 0:
            errors.append(f"{workload}: {name} = {m['value']}, want 0")
    armed = metrics.get("trace_sink_armed")
    if observed and armed is not None and armed["value"] != 1:
        errors.append(f"{workload}: trace sink not armed")
    return errors


def record_reference():
    """Record the digests of the default and the held-out seed."""
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            doc, _ = run_binary(workload, seed, 0, 0)
            if doc["failed"]:
                fail(f"{workload} seed {seed}: {doc['problems']}")
            ref[workload][str(seed)] = {
                key: {"cycles": c["cycles"], "counters": c["counters"]}
                for key, c in doc["configs"].items()}
    # One configuration per line, so a changed digest diffs readably.
    blocks = []
    for workload, seeds in ref.items():
        seed_blocks = []
        for seed, configs in seeds.items():
            rows = ",\n".join(
                f"   {json.dumps(key)}: "
                f"{json.dumps(digest, separators=(',', ':'))}"
                for key, digest in configs.items())
            seed_blocks.append(f"  {json.dumps(seed)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(workload)}: {{\n"
                      + ",\n".join(seed_blocks) + "\n }")
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        ap.error("--workload is required")
    result, doc, problems = measure(args.workload, args.seed, args.seconds,
                                    args.trace)
    report(args.workload, args.seed, result, doc, problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
