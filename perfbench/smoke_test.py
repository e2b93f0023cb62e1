#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length, in
both trace modes, must emit every metric BENCHMARK.json names with its
unit and a correct result; malformed command lines must fail closed.

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run(["--workload", workload, "--seed", "1", "--seconds",
                        "1", "--trace", str(trace)])
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                errors.append(f"{label}: exit {proc.returncode}\n"
                              f"{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"{label}: correct={result['correct']} "
                              f"failed={result['failed']}")
            if result["attempted"] < 1:
                errors.append(f"{label}: attempted={result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                errors.append(
                    f"{label}: missing {sorted(set(expected[trace]) - set(metrics))}"
                    f" unexpected {sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    errors.append(f"{label}: {name} unit {m.get('unit')} != {unit}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{label}: {name} value {value!r}")
                elif trace == 0 and value == 0:
                    errors.append(f"{label}: end-to-end {name} is 0")
            print(f"ok  {label}", flush=True)

    good = ["--workload", "p2p_small", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    nproc = len(os.sched_getaffinity(0))
    bad_lines = [
        good + ["--bogus", "1"],
        good + ["--ops=-5"],
        ["--workload", "leafspine_512", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--engine-thread=8"],
        ["--workload", "leafspine_512", "--seed", "1", "--seconds", "1",
         "--trace", "0", f"--engine-threads={nproc + 1}"],
        ["--workload", "leafspine_512", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--engine-threads=0"],
        good[:2] + ["--seed", "abc"] + good[4:],
        good[:2] + ["--seed", "-1"] + good[4:],
        good[:4] + ["--seconds", "0"] + good[6:],
        good[:4] + ["--seconds", "61"] + good[6:],
        good[:4] + ["--seconds", "1.5"] + good[6:],
        good[:6] + ["--trace", "2"],
        good[:6],
        ["--workload", "nope"] + good[2:],
        good + ["--seed", "2"],
        good + ["stray"],
        good + ["--engine-threads", "1"],
    ]
    for args in bad_lines:
        proc = run(args)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            errors.append(f"accepted bad command line {args}: "
                          f"exit {proc.returncode}")
        elif "perfbench:" not in proc.stderr:
            errors.append(f"no message for bad command line {args}")
    print(f"ok  {len(bad_lines)} malformed command lines rejected", flush=True)

    for e in errors:
        print("FAIL", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
