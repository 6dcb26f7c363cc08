"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs a tiny traced and untraced run
and checks that the last output line is the result object and that it names
every end-to-end (untraced) or per-layer (traced) metric with its unit.  It
then checks that the benchmark refuses to run, with a nonzero exit code and no
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_result(text: str, expected: dict) -> list[str]:
    problems = []
    try:
        result = json.loads(text.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for wl in spec["workloads"]:
        for trace, expected in groups.items():
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"] if done.returncode else []
            problems += check_result(done.stdout, expected)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {wl['name']} --trace {trace}" +
                  "".join(f"\n     {p}" for p in problems))

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "0",
               "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        refused = done.returncode != 0 and '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the program (exit {done.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
