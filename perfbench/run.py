#!/usr/bin/env python3
"""End-to-end benchmark of the anonpath library.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload sim_long --seed 1 --seconds 10 --trace 0

builds perfbench_driver (Release) from source on first use, runs the
workload in its own process for about --seconds seconds, checks its
outputs, prints every metric by name with its unit, and prints one JSON
object as the last line of stdout. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. Other modes:

    python3 perfbench/run.py --workload all --seed 1        # gated workloads
    python3 perfbench/run.py ... --out results.jsonl         # record the run
    python3 perfbench/run.py --compare base.jsonl new.jsonl  # medians + verdict
    python3 perfbench/run.py --profile                       # machine profile

See perfbench/README.md for the workloads and what each metric predicts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DRIVER_TIMEOUT_S = 170
PROFILE_KEYS = ("nproc", "build_type", "compiler", "cpu_model", "l3_cache")
# Every workload the driver runs; BENCHMARK.json gates the steadiest of them
# (see README.md, "Workloads").
DRIVER_WORKLOADS = ("sim_long", "study_grid", "disclosure_1e6", "plan_regular")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build_driver():
    """Configures (Release) and builds the driver; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"library sources missing: no {needed} at the repository root")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench_driver")


def read_first(path, default="unknown"):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return default


def machine_profile(driver):
    """What a result is only comparable under: cores, build, compiler, CPU."""
    proc = subprocess.run([driver, "--profile"], capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        fail("driver --profile failed")
    build = json.loads(proc.stdout)
    cpu_model = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build["build_type"],
        "compiler": build["compiler"],
        "cpu_model": cpu_model,
        "l3_cache": read_first(
            "/sys/devices/system/cpu/cpu0/cache/index3/size"),
    }


def check_profile(profile):
    if profile["build_type"] != "Release":
        fail(f"refusing to benchmark a {profile['build_type']} build; "
             "timings are only meaningful for Release", code=1)


def run_driver(driver, spec, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result object."""
    trace_dir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {DRIVER_TIMEOUT_S} s", code=1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result (exit {proc.returncode})", code=1)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            fail(f"{workload} reported undeclared metric {name} [{m['unit']}]",
                 code=1)
    for name, unit in declared.items():
        if name not in metrics:
            if not trace and result["correct"]:
                fail(f"{workload} did not report {name}", code=1)
            # A layer this workload never enters spent no time there.
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = dict(sorted(metrics.items()))
    if proc.returncode != 0:
        result["correct"] = False
    return result


def print_summary(workload, profile, result):
    print(f"# {workload}: nproc={profile['nproc']} "
          f"build={profile['build_type']} compiler={profile['compiler']} "
          f"cpu={profile['cpu_model']} l3={profile['l3_cache']}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} error_rate = {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} checks failed)")


def run(args):
    spec = load_spec()
    gated = [w["name"] for w in spec["workloads"]]
    targets = gated if args.workload == "all" else [args.workload]
    for w in targets:
        if w not in DRIVER_WORKLOADS:
            fail(f"unknown workload {w}; choose one of "
                 f"{', '.join(DRIVER_WORKLOADS)}")
    driver = build_driver()
    profile = machine_profile(driver)
    check_profile(profile)
    results = {}
    for w in targets:
        result = run_driver(driver, spec, w, args.seed, args.seconds,
                            args.trace)
        print_summary(w, profile, result)
        results[w] = result
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({
                    "workload": w, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "profile": profile, "result": result}) + "\n")
    last = results[targets[0]] if len(targets) == 1 else results
    # A printed result, failed checks included, is a completed run; the
    # result object carries correctness.
    print(json.dumps(last))
    return 0


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    if not records:
        fail(f"{path} holds no results")
    profiles = {json.dumps(r["profile"], sort_keys=True) for r in records}
    if len(profiles) != 1:
        fail(f"{path} mixes results from different machine profiles")
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, base, new):
    """Compares two samples of one metric against its bound."""
    better_is_lower = metric["better"] == "lower"
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    bound = metric.get("bound")
    if bound is None or bmed == 0:
        return "n/a"
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed or 1))
    change = (nmed - bmed) / abs(bmed)
    worse = change if better_is_lower else -change
    if better_is_lower:
        always_better = max(new) < min(base)
    else:
        always_better = min(new) > max(base)
    if spread > bound:
        return "better" if always_better else "unresolved"
    if worse > bound:
        return "worse"
    if -worse > bound or (always_better and abs(nmed - bmed) > bq3 - bq1):
        return "better"
    return "same"


def compare(base_path, new_path):
    spec = load_spec()
    base, new = load_records(base_path), load_records(new_path)
    bprof, nprof = base[0]["profile"], new[0]["profile"]
    for key in PROFILE_KEYS:
        if bprof.get(key) != nprof.get(key):
            fail(f"profiles differ in {key}: {bprof.get(key)!r} vs "
                 f"{nprof.get(key)!r}; results are not comparable", code=1)
    check_profile(bprof)
    metrics = ([dict(m, layer=False) for m in spec["end_to_end"]] +
               [dict(m, layer=True) for m in spec["per_layer"]])
    print(f"{'workload':<15} {'metric':<34} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32}  verdict")
    for w in DRIVER_WORKLOADS:
        for m in metrics:
            def sample(records):
                return [r["result"]["metrics"][m["name"]]["value"]
                        for r in records
                        if r["workload"] == w and r["result"]["correct"]
                        and m["name"] in r["result"]["metrics"]]
            b, n = sample(base), sample(new)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:<15} {m['name']:<34} {fmt.format(*bq):>32} "
                  f"{fmt.format(*nq):>32}  {verdict(m, b, n)} "
                  f"(n={len(b)}/{len(n)})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.profile:
        profile = machine_profile(build_driver())
        print(json.dumps(profile))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
