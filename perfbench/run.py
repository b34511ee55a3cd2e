#!/usr/bin/env python3
"""The sgcl benchmark: builds the program from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload train_mol --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest          # stall shows in serving p99
  python3 perfbench/run.py --record-host       # store this host's context
  python3 perfbench/run.py --write-reference   # re-record reference losses

Workloads: train_mol, train_stream_w2, serve_embed (see perfbench/README.md).
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when the
build fails or a correctness check fails.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("train_mol", "train_stream_w2", "serve_embed")
HOST_FILE = os.path.join(BENCH_DIR, "host_context.json")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")
RUN_TIMEOUT_S = 170
# Stated slack of trace.blocking_coverage_pct around 100% (README.md); a
# traced run outside it fails.
COVERAGE_SLACK_PCT = {"train_mol": 15, "train_stream_w2": 15, "serve_embed": 20}
# Spans each workload's traced run must show in the trace_report table.
TRAIN_STAGES = ("graph/FromGraphPtrs", "core/ComputeConstants",
                "core/ComputeLoss", "nn/EncodeNodes", "tensor/Backward",
                "data/Fetch")
EXPECTED_STAGES = {
    "train_mol": TRAIN_STAGES,
    "train_stream_w2": TRAIN_STAGES,
    "serve_embed": ("nn/EmbedBatch", "graph/FromGraphPtrs"),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build step failed: " + " ".join(cmd))
            return False
    return True


def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler_version():
    files_dir = os.path.join(BUILD_DIR, "CMakeFiles")
    try:
        for entry in sorted(os.listdir(files_dir)):
            path = os.path.join(files_dir, entry, "CMakeCXXCompiler.cmake")
            if os.path.exists(path):
                with open(path) as f:
                    text = f.read()
                cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
                ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
                return "%s %s" % (cid.group(1) if cid else "?",
                                  ver.group(1) if ver else "?")
    except OSError:
        pass
    return "?"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "?"


def host_context(load1):
    return {
        "nproc": os.cpu_count() or 0,
        "sgcl_num_threads": os.environ.get("SGCL_NUM_THREADS", ""),
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler_version(),
        "cpu_model": cpu_model(),
        "loadavg_1m": load1,
    }


def warn_on_host_drift(context):
    try:
        with open(HOST_FILE) as f:
            recorded = json.load(f)
    except (OSError, ValueError):
        log("warning: no recorded host context (%s)" % HOST_FILE)
        return
    for key, value in recorded.items():
        if context.get(key) != value:
            log("warning: host %s is %r, recorded %r: figures may not compare"
                % (key, context.get(key), value))
    if context["loadavg_1m"] > 0.5 * max(1, context["nproc"]):
        log("warning: load average %.2f at start on %d cores"
            % (context["loadavg_1m"], context["nproc"]))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs sgcl_perfbench; returns its parsed last stdout line or None."""
    cmd = [os.path.join(BUILD_DIR, "sgcl_perfbench")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("error: benchmark run timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("error: sgcl_perfbench exited with %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def trace_report(path, workload, checks):
    """Prints trace_report's per-span self-time table for the traced run
    and checks that the workload's layer spans are in it."""
    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "trace_report"), path, "--top=1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print("per-span self time (tools/trace_report):")
    print(proc.stdout.rstrip())
    stages = set(re.findall(r"^(\S+/\S+)\s+\d+\s", proc.stdout, re.M))
    missing = [s for s in EXPECTED_STAGES[workload] if s not in stages]
    checks.append({
        "name": "trace_report_layers",
        "ok": proc.returncode == 0 and not missing,
        "detail": "missing spans: %s" % ", ".join(missing) if missing
                  else "trace_report reads the chrome trace"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-host", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    load1 = os.getloadavg()[0]
    if not build():
        return 1
    context = host_context(load1)
    print("host: " + json.dumps(context, sort_keys=True))
    if args.record_host:
        with open(HOST_FILE, "w") as f:
            json.dump({k: v for k, v in context.items() if k != "loadavg_1m"},
                      f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    if args.write_reference:
        return subprocess.run([os.path.join(BUILD_DIR, "sgcl_perfbench"),
                               "--write-reference=" + REFERENCE_FILE]).returncode
    warn_on_host_drift(context)

    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    trace_path = os.path.join(BUILD_ROOT, "trace-%s.json" % args.workload)
    common = ["--seed=%d" % args.seed, "--work-dir=" + work_dir]
    try:
        if args.selftest:
            result = run_binary(["--selftest=stall"] + common)
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            result = run_binary(
                ["--workload=" + args.workload,
                 "--seconds=%g" % args.seconds,
                 "--trace=%d" % args.trace,
                 "--reference=" + REFERENCE_FILE,
                 "--trace-out=" + trace_path] + common)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        return 1

    checks = result["checks"]
    if not args.selftest:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        want = {m["name"]: m
                for m in spec["per_layer" if args.trace else "end_to_end"]}
        got = result["metrics"]
        if set(got) != set(want) or any(
                got[n]["unit"] != want[n]["unit"] for n in got):
            checks.append({"name": "metric_set", "ok": False,
                           "detail": "metrics or units differ from "
                                     "BENCHMARK.json"})
        for name, value in got.items():
            better = want.get(name, {}).get("better", "?")
            print("%-34s %14.4f %-12s (%s is better)"
                  % (name, value["value"], value["unit"], better))
        if args.trace:
            trace_report(trace_path, args.workload, checks)
            coverage = got["trace.blocking_coverage_pct"]["value"]
            slack = COVERAGE_SLACK_PCT[args.workload]
            checks.append({
                "name": "blocking_coverage",
                "ok": abs(coverage - 100) <= slack,
                "detail": "blocking path covers %.1f%% of the traced run's time "
                          "(stated 100 +- %d%%)" % (coverage, slack)})
    for note in result["notes"]:
        print("note: " + note)
    for check in checks:
        print("check %-26s %s  %s" % (check["name"],
                                      "ok  " if check["ok"] else "FAIL",
                                      check["detail"]))
    correct = all(c["ok"] for c in checks)
    attempted = result["attempted"]
    failed = result["failed"]
    print("fail_ratio = %.6f (failed %d of %d attempted)"
          % (failed / max(1, attempted), failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
