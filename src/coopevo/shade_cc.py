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
run record come from ``runtime.CooperativeRun`` and the trial vectors from
``shade.generate_trials``, exactly as in the surrogate-assisted optimizer.
Re-evaluation and trial scoring both go through the one budgeted row
evaluator, ``CooperativeRun.evaluate_rows``, where a batched objective call
would plug in. No freshness mask is kept: a stale value is, after its
visit's harvest, at least the context fitness, which only improves, so it
never wins the strict harvest, and a refresh the budget cuts short (its
unpaid members read ``inf``) also ends the generation loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkFunction
from .decomposition import Decomposition, SubProblem
from .runtime import CooperativeRun, RunParams, RunRecord
from .shade import InferiorArchive, ParameterMemory, generate_trials


@dataclass
class CcSubState:
    sub: SubProblem
    pop: np.ndarray            # (p, s)
    f_vals: np.ndarray         # (p,) embedded fitness, smaller is better
    memory: ParameterMemory
    inferior: InferiorArchive
    rng: np.random.Generator


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
        p = params.p
        self.subs: list[CcSubState] = []
        for sub, rng in zip(decomposition.subproblems, self.sub_rngs):
            inferior = InferiorArchive(rng.uniform(sub.lower, sub.upper, (p, sub.s)))
            pop = rng.uniform(sub.lower, sub.upper, (p, sub.s))
            self.subs.append(
                CcSubState(
                    sub=sub,
                    pop=pop,
                    f_vals=np.full(p, np.inf),
                    memory=ParameterMemory(params.memory_size),
                    inferior=inferior,
                    rng=rng,
                )
            )
        self.add_row(-1, self.context.f)

    def _visit(self, g: int):
        st = self.subs[g]
        sub, rng = st.sub, st.rng

        # stored values were taken under an older context; refresh them
        refreshed = self.evaluate_rows(sub, st.pop)
        st.f_vals[:] = np.inf
        st.f_vals[: refreshed.size] = refreshed
        self.record.reeval_evals += refreshed.size

        for _ in range(self.params.visit_len):
            if self.budget.exhausted:
                break
            trials, f_used, cr_used = generate_trials(
                st.pop, -st.f_vals, st.inferior, st.memory, sub.lower, sub.upper, rng
            )
            f_trials = self.evaluate_rows(sub, trials)
            parents = st.f_vals[: f_trials.size]

            # one-to-one greedy selection; ties replace the parent but are
            # not successes, and beaten parents enter the archive in order
            won = np.flatnonzero(f_trials < parents)
            kept = np.flatnonzero(f_trials <= parents)
            st.inferior.replace_random(st.pop[won], rng)
            st.memory.update(f_used[won], cr_used[won], parents[won] - f_trials[won])
            st.pop[kept] = trials[kept]
            st.f_vals[kept] = f_trials[kept]

            f_best = min(self.context.f, float(st.f_vals.min()))
            self.close_generation(g, f_trials.size, f_best)

        # harvest: embed the best member if it beats the context
        b = int(np.argmin(st.f_vals))
        if st.f_vals[b] < self.context.f:
            self.adopt(sub, st.pop[b], float(st.f_vals[b]))

    def run(self) -> RunRecord:
        while not self.budget.exhausted:
            self._visit(self.cursor)
            self.cursor = (self.cursor + 1) % self.decomposition.k
        return self.finish()
