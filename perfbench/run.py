"""coopevo benchmark: seeded cooperative-coevolution workloads, end-to-end
metrics from untraced repeats and per-layer metrics from traced ones.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sacc-sep-100d --seed 1 --seconds 30 --trace 0

Each repeat is a fresh child process (perfbench/child.py) that runs one
experiment through the public harness API; repeats run one at a time, a
closed loop with one client. Repeats continue until the next one would end
after ``--seconds``, with at least MIN_REPEATS of them. ``--trace 1``
alternates untraced and traced repeats and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

# Repeat budgets are scaled down from full-length experiments so that one
# run holds several repeats; see README.md for why each workload exists.
# ``tiny`` overrides make the self-test fast.
WORKLOADS = {
    "sacc-sep-100d": {
        "config": dict(functions=("f01",), dim=100, algorithm="sacc", s_sep=20,
                       budget=2000, runs=2),
        "tiny": dict(budget=701),
    },
    "sacc-rot-1000d": {
        "config": dict(functions=("f14",), dim=1000, algorithm="sacc", budget=7001, runs=1),
        "tiny": dict(dim=200, budget=2201),
    },
    "shadecc-rot-1000d": {
        "config": dict(functions=("f14",), dim=1000, algorithm="shade-cc", budget=10000,
                       runs=1),
        "tiny": dict(dim=200, budget=2500),
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("log10_final_f", "log10"),
    ("ok_share", "ratio"),
]

# Printed with --trace 1. layers.layer_metrics computes all but
# trace.overhead_share, which compares traced with untraced repeats.
PER_LAYER = [
    ("shade.trialgen.trials", "count"),
    ("shade.trialgen.self_s", "s"),
    ("shade.select.self_s", "s"),
    ("shade.success_ratio", "ratio"),
    ("surrogate_cc.init_s", "s"),
    ("surrogate_cc.generations", "count"),
    ("surrogate_cc.step.ms_p50", "ms"),
    ("surrogate_cc.step.ms_p99", "ms"),
    ("surrogate_cc.step.self_s", "s"),
    ("surrogate_cc.screen_precision", "ratio"),
    ("surrogate_cc.fallback_generations", "count"),
    ("rbf.train.calls", "count"),
    ("rbf.train.self_s", "s"),
    ("rbf.train.ms_p50", "ms"),
    ("rbf.train.ms_p99", "ms"),
    ("rbf.train.regularized", "count"),
    ("rbf.train.failed", "count"),
    ("rbf.predict.calls", "count"),
    ("rbf.predict.rows", "count"),
    ("rbf.predict.self_s", "s"),
    ("rbf.archive.calls", "count"),
    ("rbf.archive.self_s", "s"),
    ("benchmarks.evaluate.calls", "count"),
    ("benchmarks.evaluate.self_s", "s"),
    ("benchmarks.evaluate.us_p50", "us"),
    ("benchmarks.evaluate.us_p99", "us"),
    ("benchmarks.build_ms", "ms"),
    ("decomposition.embed.calls", "count"),
    ("decomposition.embed.self_s", "s"),
    ("decomposition.decompose_ms", "ms"),
    ("runtime.fe_used", "count"),
    ("runtime.reeval_share", "ratio"),
    ("runtime.context_updates", "count"),
    ("shade_cc.init_s", "s"),
    ("shade_cc.generations", "count"),
    ("shade_cc.run.self_s", "s"),
    ("harness.write_s", "s"),
    ("harness.bytes_written", "bytes"),
    ("trace.overhead_share", "ratio"),
]

# Metrics that must repeat exactly between traced repeats of one seed.
EXACT = [
    name for name, unit in PER_LAYER
    if unit == "count" or name in ("shade.success_ratio", "surrogate_cc.screen_precision",
                                   "runtime.reeval_share", "harness.bytes_written")
]

MIN_REPEATS = 3            # untraced repeats per run; a traced run has as many of each kind
RUN_LIMIT_S = 170.0        # the whole run must end within this
F_FLOOR = 1e-300
LOG10_MAX = math.log10(sys.float_info.max)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result in this checkout."""


def workload_config(name: str, seed: int, tiny: bool) -> dict:
    spec = WORKLOADS[name]
    config = dict(spec["config"])
    if tiny:
        config.update(spec["tiny"])
    config.update(seed=seed, suite_seed=seed)
    return config


def run_child(config: dict, traced: bool, fault: str | None, timeout: float) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(dir=SCRATCH)
    job = {"root": str(ROOT), "config": {**config, "out": out}, "traced": traced,
           "fault": fault}
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat did not finish within {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    reply["setup_s"] = reply.pop("ready") - spawned
    reply["traced"] = traced
    return reply


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def collect(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            fault: str | None = None) -> list[dict]:
    """Run repeats until the next one would end after ``seconds``."""
    config = workload_config(workload, seed, tiny)
    modes = [False, True] if trace else [False]
    replies: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(replies) >= MIN_REPEATS * len(modes):
            per_repeat = elapsed / len(replies)
            if elapsed + per_repeat > seconds:
                return replies
        traced = modes[len(replies) % len(modes)]
        replies.append(run_child(config, traced, fault, timeout=RUN_LIMIT_S - elapsed))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(replies: list[dict], trace: bool, runs_per_repeat: int) -> tuple[dict, dict]:
    """Metrics plus the failure counts and problems of one run's repeats."""
    plain = [r for r in replies if not r["traced"]]
    traced = [r for r in replies if r["traced"]]
    issues: list[str] = []
    attempted = failed = 0
    for reply in replies:
        attempted += runs_per_repeat
        if reply["error"] is not None:
            failed += runs_per_repeat
            issues.append(f"experiment raised:\n{reply['error']}")
        for run in reply["runs"]:
            if run["problems"]:
                failed += 1
                issues.extend(f"seed {run['seed']}: {p}" for p in run["problems"])

    # every repeat of a seed, traced or not, must give the same trajectory
    reference: dict[tuple, dict] = {}
    for reply in replies:
        for run in reply["runs"]:
            key = (run["function"], run["seed"])
            ref = reference.setdefault(key, run)
            for field in ("final_f", "rows_digest", "generations", "fe_used"):
                if run[field] != ref[field]:
                    issues.append(f"seed {run['seed']}: {field} differs between repeats "
                                  f"({ref[field]!r} vs {run[field]!r})")

    samples: dict[str, list[float]] = {}
    if not trace:
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in plain]
        # a non-finite final_f, or none at all, reads as the largest float
        logs = [
            math.log10(max(run["final_f"], F_FLOOR)) if math.isfinite(run["final_f"])
            else LOG10_MAX for run in reference.values()
        ]
        samples["log10_final_f"] = [statistics.median(logs) if logs else LOG10_MAX]
        samples["ok_share"] = [1.0 - failed / attempted]
    else:
        layer_runs = [r["layers"] for r in traced if "layers" in r]
        if len(layer_runs) == len(traced):
            issues.extend(check_fidelity(layer_runs, plain))
            for name, _ in PER_LAYER[:-1]:
                samples[name] = [lr[name] for lr in layer_runs]
            samples["trace.overhead_share"] = [
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0
            ]
    verdict = {"attempted": attempted, "failed": failed, "issues": issues}
    return samples, verdict


def check_fidelity(layer_runs: list[dict], plain: list[dict]) -> list[str]:
    """Traced repeats must count exactly what untraced repeats did."""
    issues = []
    first = layer_runs[0]
    for lr in layer_runs[1:]:
        for name in EXACT:
            if lr[name] != first[name]:
                issues.append(f"traced repeats disagree on {name}: {first[name]} vs {lr[name]}")
    runs = [run for reply in plain[:1] for run in reply["runs"]]
    fe_used = sum(run["fe_used"] for run in runs)
    generations = sum(run["generations"] for run in runs)
    counted = {
        "runtime.fe_used": first["runtime.fe_used"],
        # every objective call inside a run is charged to the budget
        "benchmarks.evaluate.calls": first["benchmarks.evaluate.calls"] - first["build_evals"],
        "generations": first["surrogate_cc.generations"] + first["shade_cc.generations"],
    }
    expected = {"runtime.fe_used": fe_used, "benchmarks.evaluate.calls": fe_used,
                "generations": generations}
    for name, value in counted.items():
        if value != expected[name]:
            issues.append(f"traced {name} is {value}, untraced run gives {expected[name]}")
    return issues


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test budgets (seconds, not a measurement)")
    parser.add_argument("--fault", choices=("accounting",),
                        help="inject a known defect (self-test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "coopevo" / "__init__.py").is_file():
        print(f"perfbench: no coopevo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        replies = collect(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, args.fault)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    config = workload_config(args.workload, args.seed, args.tiny)
    samples, verdict = summarize(replies, bool(args.trace),
                                 config["runs"] * len(config["functions"]))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if set(samples) != set(units):
        print(f"perfbench: metrics {sorted(set(units) ^ set(samples))} missing or unexpected",
              file=sys.stderr)
        return 2

    env = replies[0]["env"] | {"git_sha": git_sha()}
    kinds = "traced and untraced " if args.trace else ""
    print(f"perfbench {args.workload} seed {args.seed}: {len(replies)} {kinds}repeats, "
          f"config {json.dumps(config)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    metrics = {}
    for name, unit in units.items():
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        spread = f"  p25 {q1:.6g}  p75 {q3:.6g}  n={len(samples[name])}" \
            if len(samples[name]) > 1 else ""
        print(f"  {name:36s} {med:14.6g} {unit:6s}{spread}")
    if not args.trace:
        share = 1.0 - samples["ok_share"][0]
        print(f"  {'failed_share':36s} {share:14.6g} ratio   "
              f"({verdict['failed']} of {verdict['attempted']} runs)")
    for issue in verdict["issues"]:
        print(f"  problem: {issue}")
    result = {
        "correct": not verdict["issues"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
