"""Per-layer instrumentation for the traced run.

The layers are the coopevo modules. ``install`` wraps their public
functions and methods with ``spans.Tracer`` spans; ``layer_metrics`` turns
the spans, the run records and the written output into the per-layer
metrics that run.py lists in PER_LAYER.
"""

from __future__ import annotations

from coopevo import benchmarks, decomposition, harness, rbf, runtime, shade, shade_cc, surrogate_cc

TRIALGEN = ("shade.sample_params", "shade.pbest_fraction", "shade.mutate_crossover")
SELECT = ("shade.two_step_select", "shade.select_best", "shade.worst_replacement")
ARCHIVE = ("rbf.archive.push", "rbf.archive.rebase")
WRITE = ("harness.write_csv", "harness.export_convergence")


def install(t):
    """Wrap every traced coopevo name in ``t``, a ``spans.Tracer``."""

    def screened(result, args):
        _, evaluated, successes, _ = result
        t.count("screened", len(evaluated))
        t.count("screen_hits", len(set(evaluated) & set(successes.tolist())))

    def train_error(exc):
        if isinstance(exc, rbf.TrainingError):
            t.count("train_failed")

    t.patch_function(shade.sample_params, "shade.sample_params")
    t.patch_function(shade.pbest_fraction, "shade.pbest_fraction")
    t.patch_function(shade.mutate_crossover, "shade.mutate_crossover")
    t.patch_function(shade.two_step_select, "shade.two_step_select", on_return=screened)
    t.patch_function(shade.select_best, "shade.select_best")
    t.patch_function(shade.worst_replacement, "shade.worst_replacement")
    t.patch_method(shade.ParameterMemory, "update", "shade.memory_update",
                   on_return=lambda r, a: t.count("successes", len(a[1])))

    t.patch_function(rbf.train_surrogate, "rbf.train", keep_durations=True,
                     on_return=lambda r, a: t.count("regularized", int(r.regularized)),
                     on_error=train_error)
    t.patch_method(rbf.RbfModel, "predict_batch", "rbf.predict",
                   on_return=lambda r, a: t.count("predict_rows", len(r)))
    t.patch_method(rbf.TrainingArchive, "push", "rbf.archive.push")
    t.patch_method(rbf.TrainingArchive, "rebase", "rbf.archive.rebase")

    t.patch_method(benchmarks.BenchmarkFunction, "evaluate", "benchmarks.evaluate",
                   keep_durations=True)
    # building a function evaluates it once at its optimum, uncharged; count
    # those calls so the traced calls can be checked against the FE budget
    t.patch_function(benchmarks.get_function, "benchmarks.get_function",
                     on_enter=lambda a: t.count("build_evals", -t.calls("benchmarks.evaluate")),
                     on_return=lambda r, a: t.count("build_evals", t.calls("benchmarks.evaluate")))
    t.patch_function(decomposition.ideal_decompose, "decomposition.ideal_decompose")
    t.patch_function(decomposition.embed, "decomposition.embed")

    t.patch_method(surrogate_cc.SurrogateCC, "__init__", "surrogate_cc.init")
    t.patch_method(surrogate_cc.SurrogateCC, "step", "surrogate_cc.step", keep_durations=True,
                   on_return=lambda r, a: t.count("fallback", int(r.fallback)))
    t.patch_method(surrogate_cc.SurrogateCC, "run", "surrogate_cc.run")
    t.patch_method(shade_cc.ShadeCC, "__init__", "shade_cc.init")
    t.patch_method(shade_cc.ShadeCC, "run", "shade_cc.run",
                   on_return=lambda r, a: t.count("shade_cc_generations", a[0].generation))

    t.patch_method(runtime.RunRecord, "write_csv", "harness.write_csv")
    t.patch_function(harness.export_convergence, "harness.export_convergence")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t, records, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced repeat, without trace.overhead_share,
    plus ``build_evals``, which run.py uses for its fidelity check."""
    c = t.counts.get
    trials = t.calls("shade.mutate_crossover")
    fe_used = sum(rec.rows[-1].fe_used for rec in records)
    return {
        "shade.trialgen.trials": trials,
        "shade.trialgen.self_s": t.self_s(*TRIALGEN),
        "shade.select.self_s": t.self_s(*SELECT),
        "shade.success_ratio": _ratio(c("successes", 0), trials),
        "surrogate_cc.init_s": t.total_s("surrogate_cc.init"),
        "surrogate_cc.generations": t.calls("surrogate_cc.step"),
        "surrogate_cc.step.ms_p50": t.percentile("surrogate_cc.step", 50, 1e3),
        "surrogate_cc.step.ms_p99": t.percentile("surrogate_cc.step", 99, 1e3),
        "surrogate_cc.step.self_s": t.self_s("surrogate_cc.step"),
        "surrogate_cc.screen_precision": _ratio(c("screen_hits", 0), c("screened", 0)),
        "surrogate_cc.fallback_generations": c("fallback", 0),
        "rbf.train.calls": t.calls("rbf.train"),
        "rbf.train.self_s": t.self_s("rbf.train"),
        "rbf.train.ms_p50": t.percentile("rbf.train", 50, 1e3),
        "rbf.train.ms_p99": t.percentile("rbf.train", 99, 1e3),
        "rbf.train.regularized": c("regularized", 0),
        "rbf.train.failed": c("train_failed", 0),
        "rbf.predict.calls": t.calls("rbf.predict"),
        "rbf.predict.rows": c("predict_rows", 0),
        "rbf.predict.self_s": t.self_s("rbf.predict"),
        "rbf.archive.calls": t.calls(*ARCHIVE),
        "rbf.archive.self_s": t.self_s(*ARCHIVE),
        "benchmarks.evaluate.calls": t.calls("benchmarks.evaluate"),
        "benchmarks.evaluate.self_s": t.self_s("benchmarks.evaluate"),
        "benchmarks.evaluate.us_p50": t.percentile("benchmarks.evaluate", 50, 1e6),
        "benchmarks.evaluate.us_p99": t.percentile("benchmarks.evaluate", 99, 1e6),
        "benchmarks.build_ms": t.total_s("benchmarks.get_function") * 1e3,
        "decomposition.embed.calls": t.calls("decomposition.embed"),
        "decomposition.embed.self_s": t.self_s("decomposition.embed"),
        "decomposition.decompose_ms": t.total_s("decomposition.ideal_decompose") * 1e3,
        "runtime.fe_used": fe_used,
        "runtime.reeval_share": _ratio(sum(rec.reeval_evals for rec in records), fe_used),
        "runtime.context_updates": sum(rec.context_updates for rec in records),
        "shade_cc.init_s": t.total_s("shade_cc.init"),
        "shade_cc.generations": c("shade_cc_generations", 0),
        "shade_cc.run.self_s": t.self_s("shade_cc.run"),
        "harness.write_s": t.total_s(*WRITE),
        "harness.bytes_written": bytes_written,
        "build_evals": c("build_evals", 0),
    }
