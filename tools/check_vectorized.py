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

Where AWP_SIMD_CLONES (src/util/hot.hpp) is non-empty for a source's compile
command, its row loops are built twice, for SSE2 and for AVX2. There the
report is made without epilogue vectorization, so each clone of each loop
reports once, and a line also fails unless it has as many "32 byte vectors"
reports (the AVX2 clones) as narrower ones (the SSE2 clones).
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


def has_avx2_clones(args, directory):
    """True when AWP_SIMD_CLONES (util/hot.hpp) is non-empty under `args`."""
    out = args.index("-o")
    macros = subprocess.run(args[:out] + args[out + 2:] + ["-dM", "-E"],
                            cwd=directory, capture_output=True, text=True)
    if macros.returncode != 0:
        sys.stderr.write(macros.stderr)
        sys.exit("check_vectorized: preprocessing failed")
    found = re.search(r"^#define AWP_SIMD_CLONES(.*)$", macros.stdout, re.M)
    if not found:
        sys.exit("check_vectorized: AWP_SIMD_CLONES is not defined")
    return bool(found.group(1).strip())


def check(entry, source):
    args = shlex.split(entry["command"])
    clones = has_avx2_clones(args, entry["directory"])
    out = args.index("-o")
    args[out + 1] = os.devnull
    args.append("-fopt-info-vec-optimized-missed")
    if clones:
        args += ["--param", "vect-epilogues-nomask=0"]
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
        vectorized = [n for n in notes if "loop vectorized" in n]
        missed = [n for n in notes if "couldn't vectorize loop" in n]
        status = "ok" if vectorized and not missed else "NOT VECTORIZED"
        detail = ""
        if clones:
            avx2 = sum("using 32 byte vectors" in n for n in vectorized)
            detail = " (%d AVX2)" % avx2
            if status == "ok" and 2 * avx2 != len(vectorized):
                status = "AVX2 CLONE NOT VECTORIZED"
        print("%s:%d: %d vectorized%s, %d missed -- %s"
              % (source, line, len(vectorized), detail, len(missed), status))
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
