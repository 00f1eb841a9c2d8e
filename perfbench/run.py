#!/usr/bin/env python3
"""Build the pps compiler and daemon from source, then run one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-calls --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json; what each metric
means, which layer it belongs to and which legacy BENCH_*.json number it
replaces is in perfbench/metrics.json. The build goes to $CARGO_TARGET_DIR
(default .bench_build); spans, counter records and the daemon log go to
.bench_out. The last line of standard output is the result object. The exit
code is 0 only when the run completed and every check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The sources the benchmark builds and the files it reads.
REQUIRED = [
    "BENCHMARK.json",
    "Cargo.toml",
    "Cargo.lock",
    "crates/serve/Cargo.toml",
    "tests/golden/fig4_scale1.txt",
    "perfbench/ledger/Cargo.toml",
]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Builds the shipped daemon (the repository's workspace) and the ledger (its own)."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pps-serve", "--bin", "pps-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "ledger", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_ledger(cmd, env):
    """Runs the ledger in its own process group, so a timeout stops the daemon it spawned too."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def check_result(line, spec, trace):
    """The result must carry exactly the declared metrics, with their units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}, unit {wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        fail(f"not a pps checkout (missing {', '.join(missing)})", code=2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", code=2)

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    build(env)

    cmd = [
        os.path.join(target, "release", "pps-ledger"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target, "release", "pps-serve"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    code, out = run_ledger(cmd, env)
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"no result line (exit code {code})")
    check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
