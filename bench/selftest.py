"""Self-test of the benchmark; not part of the repository's test suite.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload at the tiny size, untraced and traced, and checks
that the last output line is the result object, that every metric named in
BENCHMARK.json is printed with its unit, that every run matched the stored
reference, and that the traced busy times add up to the traced wall time.
It then checks that the benchmark refuses to run in a directory that holds
only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    r = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny")
    where = f"{workload} --trace {trace}"
    if r.returncode != 0:
        return [f"{where}: exit {r.returncode}\n{r.stderr}"]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: outputs incorrect\n{r.stderr}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} printed as {got!r}")
    if not trace and metrics.get("success_frac", {}).get("value") != 1.0:
        problems.append(f"{where}: failed_frac is not 0")
    return problems


def check_refuses_without_program() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = run(tmp, "--workload", "replay-stream", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    if r.returncode == 0 or r.stdout.strip():
        return ["bench/run.py ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program()
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, w["name"], trace)
            print(f"selftest: {w['name']} --trace {trace} done", flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
