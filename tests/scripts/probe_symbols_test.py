#!/usr/bin/env python3
"""Every symbol the benchmark's layer probes wrap is defined in libsgcl.

    probe_symbols_test.py <nm> <perfbench/CMakeLists.txt> <libsgcl.a>

perfbench links its binary with `ld --wrap=<symbol>` for each mangled
name in PERFBENCH_WRAPPED. A wrap whose symbol no longer exists (a
changed signature changes the mangled name) links cleanly and silently
unhooks the probe, so the traced run loses that layer. This test reads
the list from the CMake file, without editing it, and fails naming every
listed symbol that `nm` does not find defined in the library.
"""
import re
import subprocess
import sys


def wrapped_symbols(cmake_path):
    with open(cmake_path) as f:
        text = f.read()
    block = re.search(r"set\(PERFBENCH_WRAPPED\s+(.*?)\)", text, re.S)
    if block is None:
        sys.exit(f"no set(PERFBENCH_WRAPPED ...) in {cmake_path}")
    return block.group(1).split()


def defined_symbols(nm, library):
    out = subprocess.run([nm, "--defined-only", library], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in "TtWw":
            names.add(fields[2])
    return names


def main():
    nm, cmake_path, library = sys.argv[1:4]
    wrapped = wrapped_symbols(cmake_path)
    if not wrapped:
        sys.exit("PERFBENCH_WRAPPED is empty")
    defined = defined_symbols(nm, library)
    missing = [s for s in wrapped if s not in defined]
    for s in missing:
        print(f"probe symbol not defined in {library}: {s}", file=sys.stderr)
    if missing:
        sys.exit(1)
    print(f"all {len(wrapped)} probe symbols are defined")


if __name__ == "__main__":
    main()
