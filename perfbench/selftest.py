"""Self-test of the benchmark on tiny budgets (about two minutes).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Checks that:
  * BENCHMARK.json lists exactly the workloads and metrics run.py produces;
  * for every workload, ``--trace 0`` prints every end-to-end metric and
    ``--trace 1`` every per-layer metric, with its unit, and both are correct
    with no failed run;
  * two traced runs give identical per-layer counts, and the rbf layer is
    idle on the shade-cc workload;
  * a deliberately broken FE accounting identity makes runs fail
    (failed_share > 0) and the result incorrect;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 1 and lists the failures if any check does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int, *extra: str) -> dict:
    code, out = bench(workload, trace, *extra)
    check(code == 0, f"{workload} --trace {trace} {' '.join(extra)} exits 0")
    lines = out.strip().splitlines() or ["{}"]
    print("\n".join("    " + line for line in lines[:-1]))
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result has exactly the four keys")
    check(result.get("attempted", 0) >= 1, f"{workload}: attempted >= 1")
    return result


def has_metrics(result: dict, expected: list[tuple[str, str]], what: str):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == dict(expected), f"{what}: every metric printed with its unit")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          f"{what}: every value is a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads match run.WORKLOADS")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
          "per_layer matches run.PER_LAYER")

    for workload in run.WORKLOADS:
        print(workload)
        plain = result_of(workload, 0)
        has_metrics(plain, run.END_TO_END, f"{workload} --trace 0")
        check(plain["correct"] and plain["failed"] == 0, f"{workload}: correct, no failed run")
        first = result_of(workload, 1)
        has_metrics(first, run.PER_LAYER, f"{workload} --trace 1")
        check(first["correct"] and first["failed"] == 0, f"{workload}: traced run correct")
        second = result_of(workload, 1)
        same = all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
                   for n in run.EXACT)
        check(same, f"{workload}: two traced runs give identical counts")
        if workload.startswith("shadecc"):
            idle = all(m["value"] == 0 for n, m in first["metrics"].items()
                       if n.startswith("rbf."))
            check(idle, f"{workload}: every rbf.* metric is 0")

    for workload in ("sacc-sep-100d", "shadecc-rot-1000d"):
        print(f"{workload} with a broken FE accounting identity")
        broken = result_of(workload, 0, "--fault", "accounting")
        check(broken["failed"] > 0 and broken["metrics"]["ok_share"]["value"] < 1.0,
              f"{workload}: failed_share > 0")
        check(not broken["correct"], f"{workload}: result marked incorrect")

    print("directory holding only BENCHMARK.json and perfbench/")
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench("sacc-sep-100d", 0, cwd=bare)
        check(code != 0 and '"correct"' not in out, "exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failed check(s)" if failures else "\nall checks passed")
    for what in failures:
        print(f"  FAIL {what}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
