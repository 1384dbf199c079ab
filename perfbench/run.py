#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
compiler library and the perfbench binary from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. The benchmark's own tests add --tiny (small inputs),
--setup-reps <n> and --programs-dir <dir>; no other argument is accepted.

Prints the binary's metric table and, as the last line, its JSON result.
Exits non-zero without printing a result if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_batch", "guest_exec", "serve_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = build_dir() / "perfbench"
    log = sys.stderr
    # Keep the compiler's temporary files inside the checkout, too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out)],
                       check=True, stdout=log, stderr=log, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log, env=env)
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-reps", type=int)
    ap.add_argument("--programs-dir", default=str(HERE / "programs"))
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--programs-dir", args.programs_dir,
           "--trace-dir", str(build_dir() / "traces")]
    if args.tiny:
        cmd.append("--tiny")
    if args.setup_reps is not None:
        cmd += ["--setup-reps", str(args.setup_reps)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if run.returncode != 0 or set(result) != RESULT_KEYS:
            raise ValueError("unexpected result line")
    except (IndexError, ValueError) as err:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode}): {err}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
