"""Cooperative coevolution baseline with exhaustively real evaluation.

Same decomposition and the same adaptive differential evolution machinery
as the surrogate-assisted optimizer, but every trial vector is scored by
embedding it into the context vector and calling the simulation model. A
selected sub-problem is optimized for a fixed number of consecutive
generations per visit, and its population is re-evaluated against the
current context whenever the visit starts; both costs are charged to the
evaluation budget.

This module holds only that evaluation policy (full evaluation, per-visit
re-evaluation and the end-of-visit harvest); seeding, budget, context and
run record come from ``runtime.CooperativeRun``, and the population, trial
generation and SHADE adaptation from ``shade.SubState``, exactly as in the
surrogate-assisted optimizer. Re-evaluation and trial scoring both go
through the one budgeted row evaluator, ``CooperativeRun.evaluate_rows``,
which charges one evaluation per row (see ``runtime``). A member's stored
value is its negated fitness, so larger is better as in the
surrogate-assisted optimizer. No freshness mask is kept: a stale value is, after its visit's
harvest, at most the negated context fitness, which only rises, so it never
wins the strict harvest, and a refresh the budget cuts short (its unpaid
members read ``-inf``) also ends the generation loop. A visit whose refresh
uses up the budget closes no generation; it adds one trace row after its
harvest, so the trace always ends at the last charged evaluation.
"""

from __future__ import annotations

import numpy as np

from .benchmarks import BenchmarkFunction
from .decomposition import Decomposition
from .runtime import CooperativeRun, RunParams, RunRecord


class ShadeCC(CooperativeRun):
    """One seeded run of the traditional cooperative coevolution baseline."""

    algorithm = "shade-cc"

    def __init__(
        self,
        fn: BenchmarkFunction,
        decomposition: Decomposition,
        params: RunParams,
        seed: int,
    ):
        super().__init__(fn, decomposition, params, seed)
        self.subs = [self.new_sub(g, params.p) for g in range(decomposition.k)]
        self.add_row(-1, self.context.f)

    def _visit(self, g: int):
        st = self.subs[g]

        # stored values were taken under an older context; refresh them
        refreshed = self.evaluate_rows(g, st.pop)
        st.pop_vals[:] = -np.inf
        st.pop_vals[: refreshed.size] = -refreshed
        self.record.reeval_evals += refreshed.size

        generation = self.generation
        for _ in range(self.params.visit_len):
            if self.budget.exhausted:
                break
            trials, f_used, cr_used = st.trials()
            v = -self.evaluate_rows(g, trials)
            parents = st.pop_vals[: v.size]

            # one-to-one greedy selection; ties replace the parent but are
            # not successes, and beaten parents enter the archive in order
            won = np.flatnonzero(v > parents)
            kept = np.flatnonzero(v >= parents)
            st.adapt(won, f_used, cr_used, v[won] - parents[won])
            st.pop[kept] = trials[kept]
            st.pop_vals[kept] = v[kept]

            f_best = min(self.context.f, -float(st.pop_vals.max()))
            self.close_generation(g, v.size, f_best)

        # harvest: embed the best member if it beats the context
        b = int(np.argmax(st.pop_vals))
        if -st.pop_vals[b] < self.context.f:
            self.adopt(g, st.pop[b], -float(st.pop_vals[b]))
        if self.generation == generation:
            # the refresh used up the budget: trace where the run ends
            self.add_row(g, self.context.f)

    def run(self) -> RunRecord:
        while not self.budget.exhausted:
            self._visit(self.cursor)
            self.cursor = (self.cursor + 1) % self.decomposition.k
        return self.finish()
