"""Shared run-time pieces: evaluation budget, context vector, run records
and the cooperative run loop both optimizers are built on. Each
sub-problem's SHADE search state is ``shade.SubState``; the run seeds one
per sub-problem.

The context carries its own group terms (``ContextState.terms``), and the
run keeps, per sub-problem, the positions of the groups its variables fall
in. A charged row differs from the context only inside those groups, so
``evaluate_rows`` writes each row of a batch into one working copy of the
context and builds one ``KnownTerms`` (``fn.known(context.terms,
groups)``, which checks the terms and positions), both once per batch, and
passes it to ``BenchmarkFunction.evaluate`` for every row. ``evaluate``
checks only that it is a ``KnownTerms`` of that function, recomputes only
those groups, each by the call a full evaluation makes for it, and so
returns the value a full evaluation gives, bit for bit; ``adopt``
refreshes the terms the same way, uncharged, with one ``KnownTerms`` per
adoption. The terms belong to the benchmark, which stands in for the
expensive model: the optimizers never see them, and every row is still
charged one evaluation. Each row is also still one ``fn.evaluate`` call,
because that is how perfbench's traced run counts charged evaluations
(see ROADMAP item 1)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benchmarks import BenchmarkFunction, check_integer
from .decomposition import Decomposition, SubProblem, embed
from .shade import ParameterMemory, SubState


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and then ``rows`` as CSV to ``path``, creating its
    parent directory. The one CSV writer of every run output; values are
    written as given, so callers format floats (``repr``) themselves."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


class BudgetExhausted(RuntimeError):
    """Raised when a real evaluation is requested with no budget left."""


class AuditFailure(RuntimeError):
    """Raised in audit mode when book-kept values drift from re-evaluation."""


class FeBudget:
    """Strict counter of real fitness evaluations."""

    def __init__(self, max_fe: int):
        check_integer("max_fe", max_fe)
        if max_fe < 1:
            raise ValueError("max_fe must be >= 1")
        self.max_fe = int(max_fe)
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.max_fe

    def spend(self):
        if self.exhausted:
            raise BudgetExhausted(f"all {self.max_fe} evaluations used")
        self.used += 1


@dataclass
class ContextState:
    """Best complete solution found so far (``x``), its real fitness
    (``f``) and its group terms (``terms``, bit for bit ``fn.terms(x)``)."""

    x: np.ndarray
    f: float
    terms: np.ndarray


@dataclass(frozen=True)
class RunParams:
    """Parameter surface shared by both optimizers.

    ``q``, ``d_factor`` only matter to the surrogate-assisted algorithm;
    ``visit_len`` only to the plain one.
    """

    max_fe: int
    p: int = 100
    q: int = 10
    d_factor: int = 5
    memory_size: int = 10
    visit_len: int = 100

    def __post_init__(self):
        for f in fields(self):
            check_integer(f.name, getattr(self, f.name))
        if self.p < 4:
            raise ValueError("population size must be >= 4")
        if not 1 <= self.q <= self.p:
            raise ValueError("q must be in 1..p")
        if self.d_factor < 1:
            raise ValueError("d_factor must be >= 1")
        if self.memory_size < 1:
            raise ValueError("memory_size must be >= 1")
        if self.visit_len < 1:
            raise ValueError("visit_len must be >= 1")
        if self.max_fe < 1:
            raise ValueError("max_fe must be >= 1")


@dataclass(frozen=True)
class GenRow:
    """One per-generation trace entry."""

    generation: int
    sub_id: int
    fe_used: int
    f_best: float


@dataclass
class RunRecord:
    """Everything needed to audit one optimization run."""

    seed: int
    rows: list[GenRow] = field(default_factory=list)
    final_x: np.ndarray | None = None
    final_f: float = float("nan")
    loop_trials: int = 0
    loop_real_evals: int = 0
    reeval_evals: int = 0
    fallback_generations: int = 0
    context_updates: int = 0
    max_audit_rel_err: float = 0.0
    max_crosscheck_err: float = 0.0

    HEADER = ("generation", "sub_id", "fe_used", "f_best")

    def add_row(self, generation: int, sub_id: int, fe_used: int, f_best: float):
        self.rows.append(GenRow(generation, sub_id, fe_used, f_best))

    def write_csv(self, path: str | Path):
        write_table(
            path,
            self.HEADER,
            ((row.generation, row.sub_id, row.fe_used, repr(row.f_best)) for row in self.rows),
        )


class CooperativeRun:
    """Scaffolding of one seeded cooperative-coevolution run.

    Owns everything both optimizers share: the dimension and budget checks,
    the evaluation budget, the seed streams (``rng`` for the run,
    ``sub_rngs[g]`` per sub-problem), the charged random context vector, the
    seeding of each sub-problem's ``SubState`` (``new_sub``), the one charged
    row evaluator ``evaluate_rows``, the round-robin ``cursor``, the
    ``generation`` count and the run record. Subclasses set ``algorithm``
    and add their evaluation policy.
    """

    algorithm: str

    def __init__(
        self,
        fn: BenchmarkFunction,
        decomposition: Decomposition,
        params: RunParams,
        seed: int,
    ):
        if decomposition.n != fn.n:
            raise ValueError("decomposition does not match function dimension")
        need = self.min_budget(decomposition, params)
        if params.max_fe < need:
            raise ValueError(f"budget {params.max_fe} below initialization cost {need}")
        self.fn = fn
        self.decomposition = decomposition
        self.params = params
        self.seed = seed
        self.budget = FeBudget(params.max_fe)

        streams = np.random.SeedSequence(seed).spawn(decomposition.k + 1)
        self.rng = np.random.default_rng(streams[0])
        self.sub_rngs = [np.random.default_rng(s) for s in streams[1:]]

        x0 = self.rng.uniform(fn.lower, fn.upper)
        self.budget.spend()
        self.context = ContextState(x0, fn(x0), fn.terms(x0))
        # book-keeping for the objective, not seen by the optimizers: per
        # sub-problem, the positions of the groups its rows change
        self.touched = [fn.groups_of(sub.indices) for sub in decomposition.subproblems]

        self.cursor = 0
        self.generation = 0
        self.record = RunRecord(seed=seed)

    @staticmethod
    def min_budget(decomposition: Decomposition, params: RunParams) -> int:
        """Real evaluations spent before the first generation: the charged
        ``x0``. An optimizer whose set-up costs more overrides this."""
        return 1

    def new_sub(self, g: int, n: int) -> SubState:
        """Seed sub-problem ``g`` from ``sub_rngs[g]``: a ``p``-row inferior
        archive, then ``n`` uniform population rows, all scored ``-inf``."""
        sub, rng = self.decomposition.subproblems[g], self.sub_rngs[g]
        inferior = rng.uniform(sub.lower, sub.upper, (self.params.p, sub.s))
        pop = rng.uniform(sub.lower, sub.upper, (n, sub.s))
        return SubState(
            sub, pop, np.full(n, -np.inf), ParameterMemory(self.params.memory_size), inferior, rng
        )

    def add_row(self, sub_id: int, f_best: float):
        """Trace the current generation, budget use and best value."""
        self.record.add_row(self.generation, sub_id, self.budget.used, f_best)

    def close_generation(self, sub_id: int, real_evals: int, f_best: float):
        """Count one finished generation of ``p`` trials and trace it."""
        self.generation += 1
        self.record.loop_trials += self.params.p
        self.record.loop_real_evals += real_evals
        self.add_row(sub_id, f_best)

    def evaluate_rows(self, sub: SubProblem, rows: np.ndarray) -> np.ndarray:
        """Real fitness of each row of ``rows`` embedded into the context, in
        row order, one budgeted evaluation each. Stops at the first row the
        budget cannot pay for, so the result may be a shorter prefix.

        This is the one place that charges the objective after ``x0``: both
        optimizers score every sub-solution through it. ``rows`` must be 2-D
        with ``sub.s`` columns. Each row is written into one working copy of
        the context and scored by one ``fn.evaluate`` call that reuses the
        context's terms and recomputes only the groups ``sub`` touches,
        which is bit-identical to ``fn(embed(context.x, sub, row))``. The
        copy and the ``KnownTerms`` those calls share are made once per
        batch, so the terms and group positions are checked once per batch,
        not once per row. One call per row is also how perfbench's traced
        run counts charged evaluations."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != sub.s:
            raise ValueError(f"expected rows of length {sub.s}, got shape {rows.shape}")
        known = self.fn.known(self.context.terms, self.touched[sub.sid])
        x, idx = self.context.x.copy(), sub.indices
        f = []
        for row in rows[: self.budget.max_fe - self.budget.used]:
            x[idx] = row
            self.budget.spend()
            f.append(self.fn.evaluate(x, known=known))
        return np.array(f, dtype=float)

    def adopt(self, sub: SubProblem, x_g: np.ndarray, f: float):
        """Replace the context by ``x_g`` embedded into it, with real fitness
        ``f`` and the terms of the groups ``sub`` touches recomputed."""
        x = embed(self.context.x, sub, x_g)
        known = self.fn.known(self.context.terms, self.touched[sub.sid])
        self.context = ContextState(x, f, self.fn.terms(x, known))
        self.record.context_updates += 1

    def finish(self) -> RunRecord:
        """Store the final context in the record and return it."""
        self.record.final_x = self.context.x.copy()
        self.record.final_f = self.context.f
        return self.record
