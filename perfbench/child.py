"""One benchmark repeat, run by run.py in a fresh process.

Usage: python3 perfbench/child.py '<job json>'

The job names the checkout root, the experiment config, whether to trace,
the output directory and an optional injected fault (self-test only). The
child pins BLAS to one thread before numpy loads, builds the problem
(set-up), runs ``harness.run_experiment`` once, checks every run's outputs
and prints one JSON line. Exit code 3 means the checkout cannot be
benchmarked at all (no importable coopevo, or BLAS threads not pinned).
"""

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# numpy is imported only inside main(), after this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

REL_TOL = 1e-9


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def blas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": blas_runtime_threads(),
        "cpu_count": os.cpu_count(),
    }


def inject_accounting_fault(runtime):
    """Self-test fault: every 97th evaluation is not charged to the budget,
    so the run spends more evaluations than its budget allows."""
    spend = runtime.FeBudget.spend
    calls = [0]

    def leaky_spend(self):
        calls[0] += 1
        if calls[0] % 97:
            spend(self)

    runtime.FeBudget.spend = leaky_spend


def check_record(rec, fn, decomp, config, initialization_cost) -> list[str]:
    """Problems with one run's outputs; empty when every check holds."""
    if config.algorithm == "sacc":
        spent = initialization_cost(decomp, config.run_params()) + rec.loop_real_evals
    else:
        spent = 1 + rec.reeval_evals + rec.loop_real_evals
    problems = []
    if spent != config.budget:
        problems.append(f"FE accounting gives {spent}, budget is {config.budget}")
    if rec.rows[-1].fe_used != config.budget:
        problems.append(f"last trace row has fe_used {rec.rows[-1].fe_used}")
    f = rec.final_f
    if not math.isfinite(f):
        problems.append(f"final_f {f!r} is not finite")
        return problems
    fresh = fn(rec.final_x)
    if abs(fresh - f) > REL_TOL * abs(fresh):
        problems.append(f"final_f {f!r} but fn(final_x) = {fresh!r}")
    if not f <= rec.rows[-1].f_best:
        problems.append(f"final_f {f!r} above last trace value {rec.rows[-1].f_best!r}")
    if not f < rec.rows[0].f_best:
        problems.append(f"final_f {f!r} not below start value {rec.rows[0].f_best!r}")
    return problems


def rows_digest(rec) -> str:
    text = ";".join(f"{r.generation},{r.sub_id},{r.fe_used},{r.f_best!r}" for r in rec.rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job: dict) -> dict:
    root = Path(job["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import coopevo
    except ImportError as exc:
        raise SetupError(f"cannot import coopevo from {src}: {exc}") from exc
    if Path(coopevo.__file__).resolve().parent != (src / "coopevo").resolve():
        raise SetupError(f"coopevo imported from {coopevo.__file__}, not from {src}")
    import numpy as np
    import scipy
    from coopevo import harness, runtime
    from coopevo.surrogate_cc import initialization_cost

    config = harness.ExperimentConfig(**job["config"])
    problems = {fid: harness.build_problem(config, fid) for fid in config.functions}
    ready = time.perf_counter()

    env = environment(np, scipy)
    if set(env["blas_threads"].values()) - {1}:
        raise SetupError(f"BLAS not pinned to one thread: {env['blas_threads']}")
    if job.get("fault") == "accounting":
        inject_accounting_fault(runtime)

    tracer = None
    if job["traced"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import layers
        import spans

        tracer = spans.Tracer()
        layers.install(tracer)

    out = Path(config.out)
    error = None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        result = harness.run_experiment(config)
    except Exception:
        result = None
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.restore()

    reply = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "env": env,
        "error": error,
        "runs": [],
    }
    if result is None:
        return reply
    for fid, records in result.records.items():
        fn, decomp = problems[fid]
        for rec in records:
            reply["runs"].append({
                "function": fid,
                "seed": rec.seed,
                "final_f": rec.final_f,
                "problems": check_record(rec, fn, decomp, config, initialization_cost),
                "generations": len(rec.rows) - 1,
                "fe_used": rec.rows[-1].fe_used,
                "rows_digest": rows_digest(rec),
            })
    if tracer is not None:
        records = [rec for recs in result.records.values() for rec in recs]
        reply["layers"] = layers.layer_metrics(tracer, records, bytes_under(out))
    return reply


if __name__ == "__main__":
    try:
        reply = main(json.loads(sys.argv[1]))
    except SetupError as exc:
        print(f"perfbench child: {exc}", file=sys.stderr)
        sys.exit(3)
    print(json.dumps(reply))
