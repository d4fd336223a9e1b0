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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkFunction
from .decomposition import Decomposition, SubProblem
from .runtime import CooperativeRun, RunParams, RunRecord, real_fitness
from .shade import InferiorArchive, ParameterMemory, generate_trials


@dataclass
class CcSubState:
    sub: SubProblem
    pop: np.ndarray            # (p, s)
    f_vals: np.ndarray         # (p,) embedded fitness, smaller is better
    fresh: np.ndarray          # (p,) bool: evaluated under current context
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
                    fresh=np.zeros(p, dtype=bool),
                    memory=ParameterMemory(params.memory_size),
                    inferior=inferior,
                    rng=rng,
                )
            )
        self.add_row(-1, self.context.f)

    def _visit(self, g: int):
        st = self.subs[g]
        sub, rng = st.sub, st.rng
        p = self.params.p

        # stored values were taken under an older context; refresh them
        st.fresh[:] = False
        for i in range(p):
            if self.budget.exhausted:
                break
            st.f_vals[i] = real_fitness(self.fn, self.budget, self.context, sub, st.pop[i])
            st.fresh[i] = True
            self.record.reeval_evals += 1

        for _ in range(self.params.visit_len):
            if self.budget.exhausted or not st.fresh.all():
                break
            trials, f_used, cr_used = generate_trials(
                st.pop, -st.f_vals, st.inferior, st.memory, sub.lower, sub.upper, rng
            )

            evaluated: list[tuple[int, float]] = []
            for i in range(p):
                if self.budget.exhausted:
                    break
                f_u = real_fitness(self.fn, self.budget, self.context, sub, trials[i])
                evaluated.append((i, f_u))

            sf, scr, deltas = [], [], []
            for i, f_u in evaluated:
                if f_u <= st.f_vals[i]:
                    if f_u < st.f_vals[i]:
                        st.inferior.replace_random(st.pop[i], rng)
                        sf.append(f_used[i])
                        scr.append(cr_used[i])
                        deltas.append(st.f_vals[i] - f_u)
                    st.pop[i] = trials[i]
                    st.f_vals[i] = f_u
            st.memory.update(np.array(sf), np.array(scr), np.array(deltas))

            f_best = min(self.context.f, float(st.f_vals[st.fresh].min()))
            self.close_generation(g, len(evaluated), f_best)

        # harvest: embed the best fresh member if it beats the context
        if st.fresh.any():
            masked = np.where(st.fresh, st.f_vals, np.inf)
            b = int(np.argmin(masked))
            if masked[b] < self.context.f:
                self.adopt(sub, st.pop[b], float(masked[b]))

    def run(self) -> RunRecord:
        while not self.budget.exhausted:
            self._visit(self.cursor)
            self.cursor = (self.cursor + 1) % self.decomposition.k
        return self.finish()
