"""Experiment runner: multi-seed trials, summary statistics, effect sizes,
budget-to-match analysis, and convergence-curve export.

Every experiment writes a self-describing output directory:

    <out>/<function>/<algorithm>/
        manifest.json        config echo + code version + seeds
        run_<seed>.csv       per-generation trace of one run
        summary.csv          best/median/worst/mean/std of final values
        convergence.csv      fe, mean_fv, std_fv across runs

Every CSV file goes through ``runtime.write_table``, the one CSV writer;
floats are written with ``repr`` so they parse back bit-equal.

``ExperimentConfig`` declares each setting once (type, default, help); the
CLI flags and config-file keys are its fields.

Runs with the same config are bit-reproducible under a fixed BLAS thread
configuration (the thread count can reorder floating-point sums), so any
file here can be regenerated from the manifest and that configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import FUNCTION_IDS, BenchmarkFunction, check_dim, check_integer, get_function
from .decomposition import Decomposition, ideal_decompose
from .runtime import RunParams, RunRecord, write_table
from .shade_cc import ShadeCC
from .surrogate_cc import SurrogateCC

OPTIMIZERS = {cls.algorithm: cls for cls in (SurrogateCC, ShadeCC)}
ALGORITHMS = tuple(OPTIMIZERS)

OUTDIR_ENV = "COOPEVO_OUTDIR"


def _setting(text: str, default=dataclasses.MISSING, low: int | None = None):
    """A config field carrying its one-line CLI help and, for an integer
    setting, its least value here (``None``: the setting is bounded by
    ``RunParams`` or ``check_dim``, or not at all)."""
    return dataclasses.field(default=default, metadata={"help": text, "low": low})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, checked when the config is built."""

    functions: tuple[str, ...] = _setting("suite function id, e.g. f01 (repeatable)")
    dim: int = _setting("problem dimension (multiple of 20)")
    algorithm: str = _setting("'sacc' = surrogate-assisted CC, 'shade-cc' = full-evaluation CC")
    budget: int = _setting("maximum real evaluations per run")
    runs: int = _setting("independent runs per function", 25, low=1)
    seed: int = _setting("base seed; runs use seed..seed+runs-1", 1, low=0)
    s_sep: int = _setting("sub-problem size for separable variables", 20, low=1)
    p: int = _setting("population size per sub-problem", RunParams.p)
    q: int = _setting("trials re-evaluated per generation, sacc", RunParams.q)
    d_factor: int = _setting("surrogate archive rows per sub-problem variable", RunParams.d_factor)
    memory_size: int = _setting("success-history memory entries", RunParams.memory_size)
    visit_len: int = _setting("generations per sub-problem visit, shade-cc", RunParams.visit_len)
    suite_seed: int = _setting("seed for benchmark shift/rotation synthesis", 1, low=0)
    out: str = _setting(f"output directory; {OUTDIR_ENV} overrides it", "results")

    def __post_init__(self):
        # a config file can carry any JSON type; an integer is stored as an
        # int, so a numpy integer passed in still echoes into the manifest
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                check_integer(f.name, value, f.metadata["low"])
                object.__setattr__(self, f.name, int(value))
            if f.type == "str" and not isinstance(value, str):
                raise ValueError(f"{f.name} must be a string, got {value!r}")
        object.__setattr__(self, "out", os.environ.get(OUTDIR_ENV, self.out))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        check_dim(self.dim)
        if not isinstance(self.functions, (list, tuple)):
            raise ValueError(f"functions must be a list of ids, got {self.functions!r}")
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ValueError("at least one function id required")
        unknown = [fid for fid in self.functions if fid not in FUNCTION_IDS]
        if unknown:
            raise ValueError(f"unknown function ids {unknown}")
        repeated = sorted({fid for fid in self.functions if self.functions.count(fid) > 1})
        if repeated:
            raise ValueError(f"duplicate function ids {repeated}")
        # RunParams validates the optimizer parameters
        self.run_params()

    def run_params(self) -> RunParams:
        shared = [f.name for f in dataclasses.fields(RunParams) if f.name != "max_fe"]
        return RunParams(max_fe=self.budget, **{name: getattr(self, name) for name in shared})


@dataclass(frozen=True)
class SummaryRow:
    function_id: str
    algorithm: str
    budget: int
    runs: int
    best: float
    median: float
    worst: float
    mean: float
    std: float

    def __post_init__(self):
        if not (self.best <= self.median <= self.worst):
            raise ValueError("summary ordering violated")

    @staticmethod
    def from_finals(function_id: str, algorithm: str, budget: int, finals) -> "SummaryRow":
        finals = np.asarray(finals, dtype=float)
        return SummaryRow(
            function_id=function_id,
            algorithm=algorithm,
            budget=budget,
            runs=int(finals.size),
            best=float(finals.min()),
            # equal to np.median, which imports numpy.ma at its first call
            median=float(statistics.median(finals.tolist())),
            worst=float(finals.max()),
            mean=float(finals.mean()),
            std=float(finals.std(ddof=0)),
        )


def build_problem(config: ExperimentConfig, fid: str) -> tuple[BenchmarkFunction, Decomposition]:
    fn = get_function(fid, config.dim, config.suite_seed)
    decomp = ideal_decompose(fn, config.s_sep)
    return fn, decomp


def mean_curve(records: list[RunRecord]) -> np.ndarray:
    """Cross-run mean/std of the traced fitness on the shared FE grid.

    Runs of one config follow an identical evaluation schedule, so rows
    align one-to-one; runs whose ``fe_used`` columns differ, in length or
    in value, raise a ``ValueError``. Returns an array of (fe, mean_fv, std_fv) rows.
    """
    if not records:
        raise ValueError("no traces to aggregate")
    fes = [[row.fe_used for row in rec.rows] for rec in records]
    if any(fe != fes[0] for fe in fes):
        raise ValueError("fe_used columns differ; runs are not aligned")
    values = np.array([[row.f_best for row in rec.rows] for rec in records])
    return np.column_stack([np.array(fes[0], dtype=float), values.mean(axis=0),
                            values.std(axis=0, ddof=0)])


CONVERGENCE_HEADER = ["fe", "mean_fv", "std_fv"]
SUMMARY_HEADER = ["function", "algorithm", "budget", "runs", "best", "median", "worst", "mean", "std"]


def export_convergence(records: list[RunRecord], path: str | Path) -> Path:
    """Write the cross-run mean curve as CSV with a fixed schema."""
    rows = (
        (int(fe), repr(float(mean_fv)), repr(float(std_fv)))
        for fe, mean_fv, std_fv in mean_curve(records)
    )
    return write_table(path, CONVERGENCE_HEADER, rows)


def read_convergence(path: str | Path) -> np.ndarray:
    """The (fe, mean_fv, std_fv) rows of a convergence CSV; a bad header or
    row is a ValueError naming the file and line, and a file without rows
    one naming the file."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"empty convergence file {path}")
        if header != CONVERGENCE_HEADER:
            raise ValueError(f"unexpected convergence header {header}")
        rows = []
        for row in reader:
            try:
                fe, mean_fv, std_fv = map(float, row)
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: bad row {row}: {exc}") from None
            rows.append((fe, mean_fv, std_fv))
    if not rows:
        raise ValueError(f"no rows in convergence file {path}")
    return np.asarray(rows)


def cohens_d(mean_a: float, std_a: float, mean_b: float, std_b: float) -> tuple[float, str]:
    """Standardized mean difference with the pooled equal-n denominator:

        d = (mean_a - mean_b) / sqrt((std_a^2 + std_b^2) / 2)

    The magnitude label uses the bands |d| < 0.2 similar, [0.2, 0.3) small,
    [0.3, 0.8) medium, and [0.8, inf) large. A zero pooled spread yields
    d = 0 for equal means and a signed infinity otherwise. A NaN input, a
    negative or infinite spread, or a NaN d (say, from two infinite means
    of one sign) is a ValueError: no label fits it.
    """
    args = {"mean_a": mean_a, "std_a": std_a, "mean_b": mean_b, "std_b": std_b}
    for name, value in args.items():
        if math.isnan(value):
            raise ValueError(f"{name} is NaN")
        if name.startswith("std") and not 0 <= value < math.inf:
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    pooled = math.sqrt((std_a * std_a + std_b * std_b) / 2.0)
    if pooled == 0.0:
        if mean_a == mean_b:
            return 0.0, "similar"
        return math.copysign(math.inf, mean_a - mean_b), "large"
    d = (mean_a - mean_b) / pooled
    return d, effect_label(d)


def effect_label(d: float) -> str:
    """The magnitude band of ``d`` (see ``cohens_d``); NaN is a ValueError."""
    if math.isnan(d):
        raise ValueError("effect size d is NaN")
    mag = abs(d)
    if mag >= 0.8:
        return "large"
    if mag >= 0.3:
        return "medium"
    if mag >= 0.2:
        return "small"
    return "similar"


def fes_to_match(target: float, curve: np.ndarray) -> int | None:
    """Smallest evaluation count at which the mean curve reaches ``target``
    (mean FV <= target); None when the curve never gets there. An empty
    curve or a NaN target, which no value can reach, is a ValueError."""
    if curve.size == 0:
        raise ValueError("empty convergence curve")
    if math.isnan(target):
        raise ValueError("target must not be NaN")
    hits = np.flatnonzero(curve[:, 1] <= target)
    if hits.size == 0:
        return None
    return int(curve[hits[0], 0])


COHENS_D_FORMULA = "(mean_a - mean_b) / sqrt((std_a^2 + std_b^2) / 2)"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: dict[str, list[RunRecord]]      # function id -> per-seed records

    def summary_for(self, fid: str) -> SummaryRow:
        """The summary of function ``fid``'s final values."""
        finals = [rec.final_f for rec in self.records[fid]]
        return SummaryRow.from_finals(fid, self.config.algorithm, self.config.budget, finals)

    def out_dir(self, fid: str) -> Path:
        """Where ``run_experiment`` writes the outputs of function ``fid``."""
        return Path(self.config.out) / fid / self.config.algorithm


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Execute ``config.runs`` independent seeded trials per function.

    Seeds are ``seed .. seed + runs - 1``. With ``write=True`` (default) the
    traces, summaries, convergence curves and a reconstruction manifest are
    written under the output directory. Every function's problem is built
    and its minimum budget checked before the first run, so a bad setting
    for a later function writes nothing.
    """
    result = ExperimentResult(config, {})
    optimizer = OPTIMIZERS[config.algorithm]
    params = config.run_params()
    problems = {fid: build_problem(config, fid) for fid in config.functions}
    for fid, (_, decomp) in problems.items():
        need = optimizer.min_budget(decomp, params)
        if config.budget < need:
            raise ValueError(f"{fid}: budget {config.budget} below initialization cost {need}")

    seeds = list(range(config.seed, config.seed + config.runs))
    for fid, (fn, decomp) in problems.items():
        records = [optimizer(fn, decomp, params, seed).run() for seed in seeds]
        result.records[fid] = records

        if write:
            summary, out = result.summary_for(fid), result.out_dir(fid)
            for rec in records:
                rec.write_csv(out / f"run_{rec.seed}.csv")
            export_convergence(records, out / "convergence.csv")
            floats = (summary.best, summary.median, summary.worst, summary.mean, summary.std)
            row = (fid, config.algorithm, config.budget, summary.runs, *map(repr, floats))
            write_table(out / "summary.csv", SUMMARY_HEADER, [row])
            manifest = {
                "config": dataclasses.asdict(config),
                "function": fn.manifest(),
                "decomposition": decomp.to_dict(),
                "seeds": seeds,
                "code_version": __version__,
                "cohens_d_formula": COHENS_D_FORMULA,
                "summary": dataclasses.asdict(summary),
            }
            with open(out / "manifest.json", "w") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)

    return result


def compare_algorithms(config: ExperimentConfig) -> dict:
    """Run both optimizers under one config and quantify the gap per
    function with the standardized mean difference."""
    result = {}
    for algorithm in ALGORITHMS:
        cfg = dataclasses.replace(config, algorithm=algorithm)
        result[algorithm] = run_experiment(cfg)
    rows = []
    for fid in config.functions:
        a, b = (result[algorithm].summary_for(fid) for algorithm in ALGORITHMS)
        d, label = cohens_d(a.mean, a.std, b.mean, b.std)
        rows.append(
            {
                "function": fid,
                "sacc_mean": a.mean,
                "sacc_std": a.std,
                "shade_cc_mean": b.mean,
                "shade_cc_std": b.std,
                "cohens_d": d,
                "label": label,
            }
        )
    return {"results": result, "comparison": rows}
