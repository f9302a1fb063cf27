#!/usr/bin/env python3
"""Build the SALO benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and compiles the
library and the salo_perfbench executable (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is salo_perfbench's JSON result. A traced run (--trace 1) also writes its
Chrome trace-event JSON next to the build. The exit code is salo_perfbench's
(0 ok, 1 a correctness check failed, 2 bad arguments), or 3 if the build
fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(out_dir, "salo_perfbench")] + args
    if option(args, "--trace") == "1":
        trace = "trace-%s-seed%s.json" % (option(args, "--workload"), option(args, "--seed"))
        cmd += ["--trace-file", os.path.join(out_dir, trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
