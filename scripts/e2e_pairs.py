#!/usr/bin/env python3
"""Compares two e2ebench binaries over interleaved pairs of runs.

    scripts/e2e_pairs.py PARENT_BIN CHANGE_BIN WORKLOAD N \\
        [--seconds S] [--seed-base B] [--trace]

Pair i runs both binaries on seed B + i, parent first on even i and change
first on odd i, so slow drift on a shared host hits both sides alike. Each
run's last stdout line is the benchmark's JSON object, and its
"sim_digest <hex>" line is the hash of the simulated run; nothing else of
the output is read, and nothing under e2ebench/ is touched.

For every end-to-end metric in BENCHMARK.json (name, direction, bound) the
report gives each side's median and q1-q3 over the N runs, the change's
wins (ties count for neither side) and a verdict:

  gain       the change wins at least 9/10 of the pairs and the medians
             differ by more than the parent's q3 - q1, in the better
             direction;
  worse      the change's median is worse than the parent's by more than
             the metric's bound;
  unresolved the parent's own spread (q3 - q1) is wider than the bound,
             so a move within the bound cannot be told from noise;
  same       none of the above.

A last row compares the two sides' sim_digest seed by seed: "identical on
N/N seeds", or the seeds whose digests differ. A change meant to keep the
simulation byte-identical must read N/N.

With --trace both sides run traced (--trace 1) and the report also covers
the per-layer metrics of BENCHMARK.json, without verdicts. Traced
runs are slower; use them to see where a saving lands, not to claim it.
The exit code is 0 when every run passed its own correctness checks and
every pair's sim_digest matched, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_metrics(trace):
    """(name, better, bound) for each metric the report covers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["end_to_end"] + (spec.get("per_layer", []) if trace else [])
    return [(m["name"], m.get("better", "lower"), m.get("bound")) for m in listed]


def run_once(binary, workload, seed, seconds, trace, spans_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--spans-dir", spans_dir]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"e2e_pairs: no output from {' '.join(cmd)}")
    report = json.loads(lines[-1])
    digests = [ln.split()[1] for ln in lines if ln.split()[:1] == ["sim_digest"]]
    if len(digests) != 1:
        sys.exit(f"e2e_pairs: expected one sim_digest line from {' '.join(cmd)}")
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    return report.get("correct", False), digests[0], metrics


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gap = sign * (cm - pm)  # > 0: the change's median is better
    if wins >= 0.9 * len(parent) and gap > p3 - p1:
        return wins, "gain"
    if bound is not None:
        if pm != 0 and -gap > bound * abs(pm):
            return wins, "worse"
        if pm != 0 and p3 - p1 > bound * abs(pm):
            return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_bin")
    ap.add_argument("change_bin")
    ap.add_argument("workload")
    ap.add_argument("n", type=int)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per run (default 20, the benchmark's run length)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("N must be at least 1")

    runs = {"parent": [], "change": []}
    digests = {"parent": [], "change": []}
    all_correct = True
    with tempfile.TemporaryDirectory() as spans_dir:
        for i in range(args.n):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                binary = args.parent_bin if side == "parent" else args.change_bin
                ok, digest, metrics = run_once(binary, args.workload, seed, args.seconds,
                                               args.trace, spans_dir)
                all_correct &= ok
                digests[side].append(digest)
                runs[side].append(metrics)
            p, c = runs["parent"][-1], runs["change"][-1]
            if "run_s" in p:
                print(f"pair {i + 1:>2} seed {seed}: run_s parent {p['run_s']:.4f} "
                      f"change {c['run_s']:.4f}", file=sys.stderr)

    metrics = benchmark_metrics(args.trace)
    print(f"{args.workload}: {args.n} interleaved pairs, seeds {args.seed_base}.."
          f"{args.seed_base + args.n - 1}, --seconds {args.seconds:g}"
          f"{', traced' if args.trace else ''}")
    print(f"  {'metric':<32} {'parent median [q1-q3]':>34} {'change median [q1-q3]':>34} "
          f"{'Δmedian':>8} {'wins':>6}  verdict")
    for name, better, bound in metrics:
        if name not in runs["parent"][0] or name not in runs["change"][0]:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rel = f"{(cm / pm - 1):+.1%}" if pm else "-"
        wins, v = verdict(parent, change, better, bound)
        if args.trace:
            v = ""  # per-layer rows are a record; the claim rests on untraced runs
        print(f"  {name:<32} {pm:>12.6g} [{p1:.6g}-{p3:.6g}]".ljust(69)
              + f" {cm:>12.6g} [{c1:.6g}-{c3:.6g}]".ljust(35)
              + f" {rel:>8} {wins:>2}/{args.n:<3}  {v}")
    differ = [args.seed_base + i
              for i, (p, c) in enumerate(zip(digests["parent"], digests["change"])) if p != c]
    if differ:
        print(f"  sim_digest differs on seeds {', '.join(map(str, differ))} "
              f"({len(differ)}/{args.n})")
    else:
        print(f"  sim_digest identical on {args.n}/{args.n} seeds")
    if not all_correct:
        print("  some runs FAILED their correctness checks")
    return 0 if all_correct and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
