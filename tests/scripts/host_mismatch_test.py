#!/usr/bin/env python3
"""bench_diff warns, but does not fail, when the hosts differ.

    host_mismatch_test.py <bench_diff> <result.json>

Writes a copy of the result file that differs only in context.num_cpus,
then requires `bench_diff <result> <copy>` to exit 0 with one stderr
warning line naming both CPU counts, and the file diffed against itself
to print no warning.
"""
import json
import subprocess
import sys


def main():
    bench_diff, path = sys.argv[1], sys.argv[2]
    with open(path) as f:
        doc = json.load(f)
    cpus = doc["context"]["num_cpus"]
    doc["context"]["num_cpus"] = cpus + 3
    other = "host_mismatch_copy.json"
    with open(other, "w") as f:
        json.dump(doc, f)

    diff = subprocess.run([bench_diff, path, other, "--threshold-pct=10"],
                          capture_output=True, text=True)
    sys.stdout.write(diff.stdout)
    sys.stderr.write(diff.stderr)
    expected = f"num_cpus {cpus} vs {cpus + 3}"
    warnings = [line for line in diff.stderr.splitlines()
                if line.startswith("warning:")]
    if diff.returncode != 0:
        print(f"FAIL: bench_diff exited {diff.returncode} on a host mismatch")
        return 1
    if len(warnings) != 1 or expected not in warnings[0]:
        print(f"FAIL: expected one warning naming '{expected}'")
        return 1

    same = subprocess.run([bench_diff, path, path], capture_output=True,
                          text=True)
    if same.returncode != 0 or "warning:" in same.stderr:
        print("FAIL: a file diffed against itself must not warn")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
