#!/usr/bin/env python3
"""Benchmark smoke: one short traced run of every gated workload.

For each workload named in BENCHMARK.json's `workloads`, runs the
benchmark's own command with `--seed 1 --seconds 5 --trace 1` and fails
unless the last stdout line reports `"correct":true` and the stderr
`perfbench-detail` line reports `"problems":[]`. A traced run checks
every output, the conservation of inputs, and a single-threaded layer
replay against the session, so this can fail on any host.

Run from the repository root: python3 .github/scripts/perfbench_smoke.py
"""

import json
import subprocess
import sys

RUN_FLAGS = ["--seed", "1", "--seconds", "5", "--trace", "1"]
DETAIL = "perfbench-detail "


def failures(returncode, stdout, stderr):
    """The reasons a run failed; empty when it passed."""
    found = []
    if returncode != 0:
        found.append(f"exit status {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return found + ["no JSON result on the last stdout line"]
    if result.get("correct") is not True:
        found.append('result line lacks "correct":true')
    details = [line[len(DETAIL):] for line in stderr.splitlines() if line.startswith(DETAIL)]
    if len(details) != 1:
        return found + [f"{len(details)} perfbench-detail lines on stderr, expected 1"]
    try:
        problems = json.loads(details[0]).get("problems")
    except ValueError:
        return found + ["perfbench-detail line is not JSON"]
    if problems != []:
        found.append(f"problems: {problems}")
    return found


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failed = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        command = bench["command"] + ["--workload", name] + RUN_FLAGS
        run = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(run.stderr)
        found = failures(run.returncode, run.stdout, run.stderr)
        for reason in found:
            print(f"perfbench smoke: {name}: {reason}", file=sys.stderr)
        if found:
            failed += 1
        else:
            print(f"perfbench smoke: {name}: correct, no problems", file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
