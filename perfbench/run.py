#!/usr/bin/env python3
"""Build and run the CauSumX benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds `perfbench/` (a Cargo
package of its own) in release mode into $CARGO_TARGET_DIR, default
`.bench_build`; later calls reuse that build. A single workload runs in one
child process whose output is passed through unchanged: metric lines, notes,
and a last line of JSON with `correct`, `attempted`, `failed` and `metrics`.

`--workload all` is the one command for a person: it runs every workload
twice, untraced and then traced, each in its own process, prints every
metric (the traced runs include `trace.overhead_ms`, traced minus untraced
median latency), and exits non-zero when any answer check failed. Traced runs
also write their spans under `perfbench/out/`.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["so-adhoc", "synth-wide", "serve-mixed"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Build the benchmark binary; exit with the build's status on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 2)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, workload, args, trace):
    """Run one workload in its own process and return its exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)

    if args.workload != "all":
        return run_one(binary, args.workload, args, args.trace)

    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} ({'traced' if trace else 'untraced'})", flush=True)
            if run_one(binary, workload, args, trace) != 0:
                failed.append(f"{workload} (trace {trace})")
    print("failed workloads: " + (", ".join(failed) if failed else "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
