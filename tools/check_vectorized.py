#!/usr/bin/env python3
"""Fail unless every `// row loop` in the listed sources is vectorized.

    python3 tools/check_vectorized.py <build-dir>

Recompiles each source in SOURCES with the exact command CMake recorded in
<build-dir>/compile_commands.json, plus gcc's -fopt-info-vec-optimized-missed
report, and checks every source line tagged `// row loop`: each must be
reported "loop vectorized" and must carry no "couldn't vectorize loop" report
(the FD row kernel is a template, so one line stands for every velocity and
stress stencil instantiated on it). Guards against a refactor silently
de-vectorizing the FD kernels, the sponge pass or the health scan.
"""

import json
import os
import re
import shlex
import subprocess
import sys

SOURCES = [
    os.path.join("src", "core", "kernels.cpp"),
    os.path.join("src", "core", "sponge.cpp"),
    os.path.join("src", "health", "monitor.cpp"),
]
MARKER = "// row loop"


def compile_command(commands, source):
    for entry in commands:
        if entry["file"].endswith(source):
            return entry
    sys.exit("check_vectorized: no compile command for " + source)


def check(entry, source):
    args = shlex.split(entry["command"])
    out = args.index("-o")
    args[out + 1] = os.devnull
    args.append("-fopt-info-vec-optimized-missed")
    report = subprocess.run(args, cwd=entry["directory"], capture_output=True,
                            text=True)
    if report.returncode != 0:
        sys.stderr.write(report.stderr)
        sys.exit("check_vectorized: compiling %s failed" % source)

    with open(entry["file"]) as f:
        lines = [n for n, text in enumerate(f, 1) if MARKER in text]
    if not lines:
        sys.exit("check_vectorized: no `%s` lines in %s" % (MARKER, source))

    failed = False
    name = re.escape(os.path.basename(source))
    for line in lines:
        at = re.compile(r"%s:%d:\d+: (.*)" % (name, line))
        notes = [m.group(1) for m in map(at.search, report.stderr.splitlines())
                 if m]
        vectorized = sum("loop vectorized" in n for n in notes)
        missed = [n for n in notes if "couldn't vectorize loop" in n]
        status = "ok" if vectorized and not missed else "NOT VECTORIZED"
        print("%s:%d: %d vectorized, %d missed -- %s"
              % (source, line, vectorized, len(missed), status))
        failed |= status != "ok"
    return failed


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(sys.argv[1], "compile_commands.json")) as f:
        commands = json.load(f)
    failed = False
    for source in SOURCES:
        failed |= check(compile_command(commands, source), source)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
