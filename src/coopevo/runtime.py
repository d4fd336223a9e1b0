"""Shared run-time pieces: evaluation budget, context vector, run records
and the cooperative run loop both optimizers are built on. Each
sub-problem's SHADE search state is ``shade.SubState``; the run seeds one
per sub-problem. A run takes its sub-problems as any sequence of index
sequences, checks once that they partition the function's variables and
keeps them as ``subproblems``, a tuple of read-only 1-D integer arrays. It
addresses a sub-problem by its position ``g`` there, and keeps every
per-sub-problem table (``sub_rngs``, ``touched``, the optimizers' ``subs``)
in that order.

The context carries its own group terms (``ContextState.terms``), and the
run keeps, per sub-problem, the positions of the groups its variables fall
in, so a charged row recomputes only those groups and ``adopt`` refreshes
only those terms, uncharged. How that stays bit-identical to a full
evaluation is described once, in ``benchmarks`` (``known`` and
``KnownTerms``). The terms belong to the benchmark, which stands in for the
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

from .benchmarks import BenchmarkFunction, check_integer, check_partition, float_array
from .decomposition import embed
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


class FeBudget:
    """Strict counter of real fitness evaluations."""

    def __init__(self, max_fe: int):
        check_integer("max_fe", max_fe, 1)
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
        check_integer("p", self.p, 4)
        for f in fields(self):
            check_integer(f.name, getattr(self, f.name), 1, self.p if f.name == "q" else None)


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
    loop_real_evals: int = 0
    reeval_evals: int = 0
    fallback_generations: int = 0
    context_updates: int = 0
    max_context_gap: float = 0.0

    HEADER = ("generation", "sub_id", "fe_used", "f_best")

    def write_csv(self, path: str | Path):
        write_table(
            path,
            self.HEADER,
            ((row.generation, row.sub_id, row.fe_used, repr(row.f_best)) for row in self.rows),
        )


class CooperativeRun:
    """Scaffolding of one seeded cooperative-coevolution run.

    Owns everything both optimizers share: the seed, partition and budget
    checks, the sub-problems' index arrays (``subproblems``), the
    evaluation budget, the seed streams (``rng`` for the run,
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
        subproblems: Sequence[Sequence[int]],
        params: RunParams,
        seed: int,
    ):
        check_integer("seed", seed, 0)
        self.subproblems = check_partition(subproblems, fn.n)
        need = self.min_budget(self.subproblems, params)
        if params.max_fe < need:
            raise ValueError(f"budget {params.max_fe} below initialization cost {need}")
        self.fn = fn
        self.params = params
        self.seed = int(seed)
        self.budget = FeBudget(params.max_fe)

        streams = np.random.SeedSequence(self.seed).spawn(len(self.subproblems) + 1)
        self.rng = np.random.default_rng(streams[0])
        self.sub_rngs = [np.random.default_rng(s) for s in streams[1:]]

        x0 = self.rng.uniform(fn.lower, fn.upper)
        self.budget.spend()
        self.context = ContextState(x0, fn(x0), fn.terms(x0))
        # book-keeping for the objective, not seen by the optimizers: per
        # sub-problem, the positions of the groups its rows change
        self.touched = [fn.groups_of(indices) for indices in self.subproblems]

        self.cursor = 0
        self.generation = 0
        self.record = RunRecord(seed=self.seed)

    @staticmethod
    def min_budget(subproblems: Sequence[Sequence[int]], params: RunParams) -> int:
        """Real evaluations spent before the first generation: the charged
        ``x0``. An optimizer whose set-up costs more overrides this."""
        return 1

    def new_sub(self, g: int, n: int) -> SubState:
        """Seed sub-problem ``g`` from ``sub_rngs[g]``, in the function's box
        at its indices: a ``p``-row inferior archive, then ``n`` uniform
        population rows, all scored ``-inf``."""
        indices, rng = self.subproblems[g], self.sub_rngs[g]
        lower, upper = self.fn.lower[indices], self.fn.upper[indices]
        inferior = rng.uniform(lower, upper, (self.params.p, indices.size))
        pop = rng.uniform(lower, upper, (n, indices.size))
        memory = ParameterMemory(self.params.memory_size)
        return SubState(lower, upper, pop, np.full(n, -np.inf), memory, inferior, rng)

    def add_row(self, sub_id: int, f_best: float):
        """Trace the current generation, budget use and best value."""
        self.record.rows.append(GenRow(self.generation, sub_id, self.budget.used, f_best))

    def close_generation(self, sub_id: int, real_evals: int, f_best: float):
        """Count one finished generation and trace it."""
        self.generation += 1
        self.record.loop_real_evals += real_evals
        self.add_row(sub_id, f_best)

    def evaluate_rows(self, g: int, rows: np.ndarray) -> np.ndarray:
        """Real fitness of each row of ``rows`` embedded into the context, in
        row order, one budgeted evaluation each. Stops at the first row the
        budget cannot pay for, so the result may be a shorter prefix.

        This is the one place that charges the objective after ``x0``: both
        optimizers score every sub-solution through it. ``rows`` must be 2-D,
        one column per variable of sub-problem ``g``. Each row is written
        into one working copy of the context and scored by one
        ``fn.evaluate`` call that recomputes only the groups ``g`` touches,
        which is bit-identical to ``fn(embed(context.x, idx, row))`` with
        ``idx = subproblems[g]``. The copy and the
        ``KnownTerms`` those calls share are made once per batch."""
        idx = self.subproblems[g]
        rows = float_array("rows", rows, (None, idx.size))
        known = self.fn.known(self.context.terms, self.touched[g])
        x = self.context.x.copy()
        f = []
        for row in rows[: self.budget.max_fe - self.budget.used]:
            x[idx] = row
            self.budget.spend()
            f.append(self.fn.evaluate(x, known=known))
        return np.array(f, dtype=float)

    def adopt(self, g: int, x_g: np.ndarray, f: float):
        """Replace the context by ``x_g`` embedded at sub-problem ``g``'s
        indices, with fitness ``f`` and the terms of the groups ``g``
        touches recomputed.

        The sum of the new terms is ``fn(x)`` bit for bit, so the record's
        ``max_context_gap`` keeps the largest relative gap between it and
        ``f`` without another objective call. It stays at rounding level
        unless ``f`` is book-kept from gains that interacting sub-problems
        made stale."""
        x = embed(self.context.x, self.subproblems[g], x_g)
        known = self.fn.known(self.context.terms, self.touched[g])
        self.context = ContextState(x, f, self.fn.terms(x, known))
        self.record.context_updates += 1
        total = sum(self.context.terms.tolist())
        gap = abs(total - f) / max(1.0, abs(total))
        self.record.max_context_gap = max(self.record.max_context_gap, gap)

    def finish(self) -> RunRecord:
        """Store the final context in the record and return it."""
        self.record.final_x = self.context.x.copy()
        self.record.final_f = self.context.f
        return self.record
