#!/usr/bin/env python3
"""A faster run must never read as a regression in bench_diff.

    faster_run_test.py <bench_diff> <result.json>...

bench_diff reads every row's real_time as a time, where lower is better.
For each google-benchmark JSON a tool emitted, this script writes the
same run at twice the speed: time rows halve, and throughput rows (names
ending in "_per_s") double. It then requires `bench_diff <result>
<faster>` to exit 0. A tool that stores a throughput in real_time fails
here, because its faster run reads as slower.
"""
import json
import os
import subprocess
import sys


def faster_copy(path):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["benchmarks"]:
        scale = 2.0 if row["name"].endswith("_per_s") else 0.5
        for field in ("real_time", "cpu_time"):
            row[field] *= scale
    out = os.path.basename(path) + ".faster.json"
    with open(out, "w") as f:
        json.dump(doc, f)
    return out


def main():
    bench_diff, results = sys.argv[1], sys.argv[2:]
    failed = False
    for path in results:
        faster = faster_copy(path)
        diff = subprocess.run(
            [bench_diff, path, faster, "--threshold-pct=5"],
            capture_output=True, text=True)
        sys.stdout.write(diff.stdout)
        sys.stderr.write(diff.stderr)
        if diff.returncode != 0:
            print(f"FAIL: a 2x faster run of {path} reads as a regression "
                  f"(bench_diff exited {diff.returncode})")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
