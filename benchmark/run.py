#!/usr/bin/env python3
"""ustbench runner: build, run, repeat and compare (benchmark/README.md).

One run:
    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--scale smoke]
  builds ustbench under .bench_build/, runs one workload in one process and
  prints, as the last line of stdout, {"correct", "attempted", "failed",
  "metrics"} with the BENCHMARK.json end_to_end metrics (--trace 0) or
  per_layer metrics (--trace 1). A measurement ustbench reports invalid
  (its open-loop sender fell behind schedule) does not count; it is kept in
  the result's "invalid_attempts" and run again, at most MAX_ATTEMPTS times
  in all. A traced run also writes the Chrome trace and its per-layer
  self-time table (benchmark/layers.py) under .bench_build/results/.

Repeats:
    python3 benchmark/run.py --repeat N [--seed 1] [--trace 0|1]
                             [--scale smoke] [--out FILE]
  runs every workload N times at one seed, one process per run, alternating
  the workload order between repeats, and writes a result file with the
  hardware identity, every run (with its invalid attempts), and per-metric
  median and quartiles. Seed 1 is the baseline seed; seed 2 is held out for
  later claims.

Compare:
    python3 benchmark/run.py compare A.json B.json
  applies the BENCHMARK.json bounds per (workload, end-to-end metric) to two
  result files of the same hardware identity, one row per workload, with
  each side's count of invalid attempts.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ustbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170  # one measurement, its repeats included
MAX_ATTEMPTS = 3  # ustbench processes per measurement
# End-to-end metrics of untraced runs that are summarized and compared but
# have no bound: p99_ms moves with the host's stalls far more than any
# bound BENCHMARK.json admits (README.md, "How the bounds were set").
REPORTED = [{"name": "p99_ms", "unit": "ms", "better": "lower"}]

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import layers  # noqa: E402  (sibling module)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build():
    """Configure and build ustbench (incremental); returns the binary path."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ustbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "ustbench")


def hardware_identity():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
        files = os.path.join(BUILD_DIR, "CMakeFiles")
        for entry in sorted(os.listdir(files)):
            path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
            if os.path.exists(path):
                fields = {}
                with open(path) as f:
                    for line in f:
                        for key in ("CMAKE_CXX_COMPILER_ID",
                                    "CMAKE_CXX_COMPILER_VERSION"):
                            if line.startswith("set(%s " % key):
                                fields[key] = line.split('"')[1]
                compiler = "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                                      fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "git_sha": git_sha}


# -------------------------------------------------------------------- run

def run_once(binary, workload, seed, seconds, trace, scale):
    """One measurement: a ustbench process, started again while it reports
    an invalid measurement (its open-loop sender fell behind schedule, so
    the run does not count), up to MAX_ATTEMPTS processes and while the time
    limit leaves room for another. Every invalid attempt is kept in the
    result's "invalid_attempts". Returns the result dict (None if a process
    printed none); a traced run also writes the trace and its layer table."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, "%s-seed%d%s" % (
        workload, seed, "-traced" if trace else ""))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--scale=" + scale]
    if trace:
        cmd.append("--trace=" + stem + ".trace.json")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    invalid = []
    while True:
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=deadline - started)
        except subprocess.TimeoutExpired:
            log("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return None
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            log("run.py: %s exited %d without a result" % (
                workload, proc.returncode))
            return None
        took = time.monotonic() - started
        if (result["correct"] and not result["valid"] and
                len(invalid) + 1 < MAX_ATTEMPTS and
                time.monotonic() + 1.2 * took < deadline):
            log("run.py: %s: invalid measurement, running it again" % workload)
            invalid.append(result)
            continue
        break
    result["exit_code"] = proc.returncode
    result["invalid_attempts"] = invalid
    with open(stem + ".metrics.json", "w") as f:
        json.dump(result, f, indent=1)
    if trace and proc.returncode == 0:
        with open(stem + ".trace.json") as f:
            table = layers.layer_table(
                json.load(f),
                result["metrics"].get("client.trace_overhead", {}).get("value"))
        with open(stem + ".layers.json", "w") as f:
            json.dump(table, f, indent=1)
        log(layers.format_table(table))
    return result


def describe_failure(result):
    if not result["valid"]:
        return "invalid measurement: the open-loop sender fell behind schedule"
    return "failed checks: %s" % result["failed_checks"]


def result_line(spec, result, trace):
    """The last stdout line: only the metrics BENCHMARK.json names."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise KeyError("metrics missing from the run: " + ", ".join(missing))
    return {"correct": bool(result["correct"]) and result["exit_code"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {n: result["metrics"][n] for n in names}}


# ---------------------------------------------------------------- summary

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarize(runs):
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            entry = out.setdefault(run["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})
            entry["values"].append(m["value"])
    for metrics in out.values():
        for entry in metrics.values():
            q1, med, q3 = quartiles(entry["values"])
            entry.update(q1=q1, median=med, q3=q3,
                         spread=spread(entry["values"]))
    return out


def repeat(args, spec):
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for r in range(args.repeat):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            started = time.time()
            result = run_once(binary, workload, args.seed, args.seconds,
                              args.trace == 1, args.scale)
            if result is None or result["exit_code"] != 0:
                log("run.py: %s seed %d: %s" % (
                    workload, args.seed,
                    describe_failure(result) if result else "no result"))
                return 1
            result["repeat"] = r
            result["wall_s"] = time.time() - started
            runs.append(result)
            log("run.py: repeat %d %s: %.1f s, %d invalid attempts" % (
                r, workload, result["wall_s"], len(result["invalid_attempts"])))
    report = {"identity": hardware_identity(),
              "config": {"repeat": args.repeat, "seed": args.seed,
                         "seconds": args.seconds, "scale": args.scale,
                         "trace": args.trace},
              "runs": runs, "summary": summarize(runs)}
    out = args.out or os.path.join(
        RESULTS_DIR, "repeat-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    names = [m["name"] for m in (spec["per_layer"] if args.trace
                                 else spec["end_to_end"] + REPORTED)]
    for workload, metrics in report["summary"].items():
        print(workload)
        for name in names:
            if name in metrics:
                e = metrics[name]
                print("  %-28s median %12.6g %-6s q1 %12.6g q3 %12.6g spread %6.2f%%"
                      % (name, e["median"], e["unit"], e["q1"], e["q3"],
                         100 * e["spread"]))
    log("run.py: wrote " + out)
    return 0


# ---------------------------------------------------------------- compare

def compare_results(spec, a, b):
    """Rows of (workload, [(metric, verdict, a_median, b_median, change)]).

    change is the relative worsening of B against A (negative = better).
    A metric is "unresolved" when either side's spread exceeds its bound,
    unless every B run reads better than every A run. REPORTED metrics have
    no bound and read "reported".
    """
    rows = []
    for workload in sorted(set(a["summary"]) & set(b["summary"])):
        cells = []
        for metric in spec["end_to_end"] + REPORTED:
            name, bound = metric["name"], metric.get("bound")
            lower = metric["better"] == "lower"
            ea = a["summary"][workload].get(name)
            eb = b["summary"][workload].get(name)
            if ea is None or eb is None:
                cells.append((name, "missing", None, None, None))
                continue
            ma, mb = ea["median"], eb["median"]
            change = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
            all_better = (max(eb["values"]) < min(ea["values"]) if lower
                          else min(eb["values"]) > max(ea["values"]))
            if bound is None:
                verdict = "reported"
            elif max(ea["spread"], eb["spread"]) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
            elif -change > max(ea["spread"], eb["spread"]) and all_better:
                verdict = "better"
            else:
                verdict = "ok"
            cells.append((name, verdict, ma, mb, change))
        rows.append((workload, cells))
    return rows


def invalid_attempts(report, workload):
    """Measurements of `workload` that were discarded as invalid and run
    again: the retries behind the runs `report` counts."""
    return sum(len(r.get("invalid_attempts", [])) for r in report["runs"]
               if r["workload"] == workload)


def compare(paths, spec):
    with open(paths[0]) as f:
        a = json.load(f)
    with open(paths[1]) as f:
        b = json.load(f)
    ida = {k: v for k, v in a["identity"].items() if k != "git_sha"}
    idb = {k: v for k, v in b["identity"].items() if k != "git_sha"}
    if ida != idb:
        log("run.py: refusing to compare results from different hardware:")
        log("  A: %s\n  B: %s" % (ida, idb))
        return 2
    regressed = False
    for workload, cells in compare_results(spec, a, b):
        parts = []
        for name, verdict, ma, mb, change in cells:
            if ma is None:
                parts.append("%s=%s" % (name, verdict))
                continue
            parts.append("%s %s (%.4g -> %.4g, %+.1f%% worse)" % (
                name, verdict, ma, mb, 100 * change))
            regressed |= verdict == "regressed"
        parts.append("invalid attempts %d -> %d" % (
            invalid_attempts(a, workload), invalid_attempts(b, workload)))
        print("%-12s %s" % (workload, "; ".join(parts)))
    return 1 if regressed else 0


# ------------------------------------------------------------------- main

def main(argv):
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1:], spec)
    parser = argparse.ArgumentParser(description="ustbench runner")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: run_seconds "
                             "of BENCHMARK.json, 2 at --scale smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out", help="result file of --repeat")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2 if args.scale == "smoke" else spec["run_seconds"]
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    if args.repeat is not None:
        return repeat(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))
    binary = build()
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1, args.scale)
    if result is None:
        return 1
    print(json.dumps(result_line(spec, result, args.trace == 1)))
    if result["exit_code"] != 0:
        log("run.py: " + describe_failure(result))
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError, KeyError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
