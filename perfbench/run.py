#!/usr/bin/env python3
"""Build the serving benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload vgg11-t8 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; the first call configures and compiles, later calls
are incremental no-ops. With --trace 1 the Chrome trace-event file is
written to perfbench/out/. The benchmark binary prints one JSON object
as the last line of standard output and exits non-zero when a build
step or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    args = list(argv)
    if "--trace-out" not in args:
        try:
            trace = args[args.index("--trace") + 1]
            workload = args[args.index("--workload") + 1]
            seed = args[args.index("--seed") + 1]
        except (ValueError, IndexError):
            trace = "0"
        if trace == "1":
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            args += ["--trace-out",
                     os.path.join(out_dir, "trace-%s-%s.json" % (workload, seed))]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
