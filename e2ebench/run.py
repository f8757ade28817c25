#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload <video_resv|rt_invoke|city_churn> \
        [--seed N] [--seconds S] [--trace 0|1] [--scale F]

Run from the repository root. The benchmark program and the library
modules under src/ are compiled (optimized) into $CARGO_TARGET_DIR/e2ebench,
or .bench_build/e2ebench when that variable is unset; an up-to-date build
is reused. Build output goes to stderr, so stdout carries only the
benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is the benchmark's:
0 only when every correctness check passed. Traced runs (--trace 1) also
write their spans to <build dir>/spans/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("video_resv", "rt_invoke", "city_churn")
DEFAULT_SEED = 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(bdir, "e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        p.error("--seed and --seconds must be non-negative, --scale positive")

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    spans = os.path.join(bdir, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", repr(args.scale), "--spans-dir", spans]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
