"""Cooperative coevolution with surrogate-filtered sub-solution evaluation.

One optimization run keeps a context vector (the best complete solution), a
per-sub-problem population of real-evaluated sub-solutions, and a
per-sub-problem surrogate trained on an archive of the newest real samples.
Sub-problems are visited round-robin for a single generation each: the
surrogate scores all parent/trial pairs, only the few most promising trials
are re-evaluated against the simulation model, and those real samples feed
the population, the surrogate archive and, when the best member carries a
positive improvement, the context vector itself.

All stored values are fitness improvements relative to the current context;
whenever the context improves by ``delta``, the affected sub-problem's
stored improvements are shifted down by ``delta`` so they stay comparable.

This module holds only that evaluation policy (surrogate screening and the
training archives); seeding, budget, context and run record come from
``runtime.CooperativeRun``, and the population, trial generation and SHADE
adaptation from ``shade.SubState``, exactly as in the full-evaluation
baseline. Every charged evaluation, the initial pool and the
screened trials alike, goes through the one charged row evaluator,
``CooperativeRun.evaluate_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .benchmarks import BenchmarkFunction
from .rbf import TrainingArchive, TrainingError, train_surrogate
from .runtime import BudgetExhausted, CooperativeRun, RunParams, RunRecord
from .shade import select_best, two_step_select, worst_replacement


@dataclass
class GenReport:
    """What one generation did beyond the run record (for tests and
    instrumentation). The record holds the rest: the generation,
    sub-problem and best value are ``record.rows[-1]``, its real
    evaluations ``rows[-1].fe_used - rows[-2].fe_used`` (fewer than ``q``,
    or ``p`` in a fallback generation, only when the budget ran out), and
    it updated the context when ``record.context_updates`` rose."""

    success_idx: np.ndarray
    fallback: bool


def initialization_cost(subproblems: Sequence[Sequence[int]], params: RunParams) -> int:
    """Real evaluations consumed before the first generation."""
    return 1 + sum(max(params.d_factor * len(idx), params.p) for idx in subproblems)


class SurrogateCC(CooperativeRun):
    """One seeded run of the surrogate-assisted optimizer on ``fn``, split
    into ``subproblems``, any index lists that partition its variables."""

    algorithm = "sacc"
    min_budget = staticmethod(initialization_cost)

    def __init__(
        self,
        fn: BenchmarkFunction,
        subproblems: Sequence[Sequence[int]],
        params: RunParams,
        seed: int,
    ):
        super().__init__(fn, subproblems, params, seed)

        self.subs = []
        self.archives: list[TrainingArchive] = []
        for g, indices in enumerate(self.subproblems):
            d = params.d_factor * indices.size
            st = self.new_sub(g, max(d, params.p))
            vals = self.context.f - self.evaluate_rows(g, st.pop)
            archive = TrainingArchive(d, st.lower, st.upper)
            archive.push(st.pop[-d:], vals[-d:])
            best = select_best(vals, params.p)
            st.pop, st.pop_vals = st.pop[best], vals[best]
            self.subs.append(st)
            self.archives.append(archive)
        self.add_row(-1, self.context.f)

    def step(self, predictor: Callable[[np.ndarray], np.ndarray] | None = None) -> GenReport:
        """Run a single generation on the sub-problem under the cursor.

        ``predictor`` replaces the trained surrogate for this generation
        (a testing seam); it must map an (m, s) batch to m scores without
        touching the evaluation budget.
        """
        if self.budget.exhausted:
            raise BudgetExhausted("no budget left for another generation")

        g = self.cursor
        st, archive = self.subs[g], self.archives[g]
        p, q = self.params.p, self.params.q

        fallback = False
        if predictor is None:
            try:
                model = train_surrogate(archive)
                predictor = model.predict_batch
            except TrainingError:
                fallback = True

        trials, f_used, cr_used = st.trials()

        if fallback:
            # no usable surrogate: evaluate every trial against the real
            # model this generation so the search can continue
            parent_scores = st.pop_vals.copy()
            model_scores = np.full(p, -np.inf)
            q = p
            self.record.fallback_generations += 1
        else:
            parent_scores = predictor(st.pop)
            model_scores = predictor(trials)
        trial_scores, evaluated, successes, _ = two_step_select(
            parent_scores,
            model_scores,
            q,
            lambda idx: self.context.f - self.evaluate_rows(g, trials[idx]),
        )
        st.adapt(
            successes, f_used, cr_used, trial_scores[successes] - parent_scores[successes]
        )

        # the budget check above leaves at least one of the q >= 1 rows paid for
        batch = evaluated[-archive.capacity:]
        archive.push(trials[batch], trial_scores[batch])
        worst_replacement(st.pop, st.pop_vals, trials[evaluated], trial_scores[evaluated])

        best = int(np.argmax(st.pop_vals))
        gain = float(st.pop_vals[best])
        if gain > 0.0:
            self.adopt(g, st.pop[best], self.context.f - gain)
            archive.rebase(gain)
            st.pop_vals -= gain

        self.cursor = (self.cursor + 1) % len(self.subproblems)
        self.close_generation(g, evaluated.size, self.context.f)
        return GenReport(successes, fallback)

    def run(self) -> RunRecord:
        """Step until the evaluation budget is exhausted."""
        while not self.budget.exhausted:
            self.step()
        return self.finish()
