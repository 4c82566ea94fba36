#!/usr/bin/env python3
"""Build and run one snbench workload from the root of a source checkout.

    python3 snbench/run.py --workload W --seed N --seconds S --trace 0|1
                           [--record FILE]

Builds the benchmark and the `snlb` CLI with dune, then runs the
workload. The last line of stdout is the result: one JSON object with
the keys correct, attempted, failed and metrics. With --record FILE the
result is also appended to FILE as one JSON line, together with the
workload, seed, trace flag and the host (nproc, OCaml version, commit,
dirty flag); snbench/compare.py reads such files. A result that is not
correct is recorded too, so that a comparison can flag it, and the exit
code is then not 0.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["search-n9", "serve-mix", "evolve-n10", "prove"]
EXE = os.path.join("_build", "default", "snbench", "snbench.exe")
SNLB = os.path.join("_build", "default", "bin", "snlb_cli.exe")


def build():
    """Build both executables; dune's output goes to stderr."""
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./snbench/snbench.exe", "./bin/snlb_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE) and os.path.exists(SNLB)


def output_of(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host():
    """What a result set must record to be comparable with another."""
    status = output_of(["git", "status", "--porcelain"])
    return {
        "nproc": os.cpu_count(),
        "ocaml": output_of(["ocamlfind", "ocamlopt", "-version"])
        or output_of(["ocamlopt", "-version"]),
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "unknown",
        "dirty": None if status is None else status != "",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the result with host info to this JSONL file")
    args = ap.parse_args()

    if not build():
        print("snbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--snlb", SNLB],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if args.record and isinstance(result, dict):
        entry = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "seconds": args.seconds, "host": host(), "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(entry) + "\n")
    if result is None:
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
