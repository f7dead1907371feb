#!/usr/bin/env python3
"""Self-test of the repository benchmark (see README.md next to this file).

Runs every workload of BENCHMARK.json smoke-sized and checks that

* with ``--trace 0`` exactly the end-to-end metrics of BENCHMARK.json are
  printed, each with its unit, and with ``--trace 1`` exactly the per-layer
  metrics;
* the run's own output checks hold: exit code 0, ``"correct": true`` and no
  failed operation;
* a deliberately corrupted output (``--corrupt-output``: one link dropped
  before fingerprinting) fails the checks: a non-zero exit code and
  ``"correct": false``.

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, trace, *extra):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--smoke", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, stderr = run(spec, workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                check(False, f"{label}: no result line (exit {code}): {stderr[-500:]}")
                continue
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{label}: checks hold (exit {code}, failed {result['failed']})")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = result["metrics"]
            check(set(printed) == set(declared),
                  f"{label}: prints exactly the {section} metrics "
                  f"(missing {sorted(set(declared) - set(printed))}, "
                  f"extra {sorted(set(printed) - set(declared))})")
            for name, unit in declared.items():
                got = printed.get(name)
                check(got is not None and got["unit"] == unit
                      and isinstance(got["value"], (int, float)),
                      f"{label}: {name} printed in {unit}")
        code, result, _ = run(spec, workload, "0", "--corrupt-output")
        check(code != 0 and result is not None and result["correct"] is False,
              f"{workload}: a dropped link fails the output check (exit {code})")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
