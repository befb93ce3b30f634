#!/usr/bin/env python3
"""The repo's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary (and the repo's libraries it links) from source
in .bench_build/ under the checkout root, runs one workload in its own
process, and prints the binary's output. The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
listed in BENCHMARK.json.

Besides the checks inside one run, the runner keeps a ledger of exact
values per binary and seed, and fails a run that disagrees with an earlier
one of the same binary and seed:
  * a traced run must reproduce the untraced run's arithmetic bit for bit;
  * train-cr1000 (sharded backward) and online-cr1000 (serial trainer with
    snapshot cuts) train the same stream, so their test AUC, log-loss and
    summed training loss must be identical.

Exit codes: 0 ok; 1 a check failed or the binary failed; 2 bad usage or
not inside a checkout of the repo.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("train-cr1000", "serve-cr10", "online-cr1000")
HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "perfbench-work")
LEDGER_DIR = os.path.join(BUILD_ROOT, "perfbench-ledger")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Exact values train-cr1000 and online-cr1000 must share.
SHARED_TRAINING = ("train.test_auc", "train.test_logloss", "train.loss_sum")


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        die(f"no repo checkout around {HERE} (CMakeLists.txt and src/ "
            "missing); nothing to build", code=2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            die(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            die(f"build step {step[:2]} exited {done.returncode}")


def commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def binary_digest():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def ledger_check(args, exact):
    """Compares `exact` with earlier runs of this binary and seed, records
    it, and returns a list of mismatch descriptions."""
    path = os.path.join(LEDGER_DIR, binary_digest(),
                        f"seed{args.seed}-s{args.seconds}.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    mine = f"{args.workload}/trace{args.trace}"
    problems = []
    for other, values in ledger.items():
        if other == mine:
            continue
        workload = other.split("/")[0]
        if workload == args.workload:
            keys = set(values) & set(exact)
        elif {workload, args.workload} == {"train-cr1000", "online-cr1000"}:
            keys = set(SHARED_TRAINING) & set(values) & set(exact)
        else:
            continue
        for key in sorted(keys):
            if values[key] != exact[key]:
                problems.append(f"{key} = {exact[key]} here but "
                                f"{values[key]} in {other}")
    ledger[mine] = exact
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1", code=2)

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--commit", commit()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        die(f"perfbench exited {done.returncode} without a result")
    try:
        result = json.loads(lines[-1])
        report = json.loads(next(l for l in lines if l.startswith("report "))
                            [len("report "):])
    except (ValueError, StopIteration) as error:
        die(f"unreadable perfbench output: {error}")

    problems = ledger_check(args, report["exact"])
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"check ledger FAILED: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
