"""Smoke test for the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks, for each workload, that the untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and zero failures, that the traced
run prints every per-layer metric with its unit, and that a wrong verdict
injected into the oracle makes the run report a failed op.  Last, it checks
that the benchmark refuses to run where there are no geomfo sources.
Exits 1 on the first problem, 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace, *extra):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def expect_metrics(workload, res, text, specs):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        fail(f"{workload}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, unit in want.items():
        if not any(name in line.split() and unit in line.split() for line in text):
            fail(f"{workload}: no printed line names {name} with unit {unit}")


def main() -> int:
    for w in (wl["name"] for wl in SPEC["workloads"]):
        res, text = result(w, 0)
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            fail(f"{w}: untraced run not correct: {res}")
        if not any(line.split()[1:3] == ["failed_frac", "0.0000"] for line in text
                   if len(line.split()) > 2):
            fail(f"{w}: failed_frac 0 not printed")
        expect_metrics(w, res, [line for line in text if not line.startswith("record ")],
                       SPEC["end_to_end"])

        res, text = result(w, 1)
        if not res["correct"]:
            fail(f"{w}: traced run not correct: {res}")
        expect_metrics(w, res, text, SPEC["per_layer"])

        res, _ = result(w, 0, "--inject-fault")
        if res["correct"] or res["failed"] < 1:
            fail(f"{w}: injected oracle fault not detected: {res}")
        print(f"ok {w}")

    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name)
    proc = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"run without geomfo sources exited {proc.returncode} printing {proc.stdout!r}")
    print("ok refuses to run without geomfo sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
