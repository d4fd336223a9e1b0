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

This module holds only that evaluation policy (surrogate screening, the
training archives and the audit); seeding, budget, context and run record
come from ``runtime.CooperativeRun``, and the population, trial generation
and SHADE adaptation from ``shade.SubState``, exactly as in the
full-evaluation baseline. Every charged evaluation, the initial pool and the
screened trials alike, goes through the one charged row evaluator,
``CooperativeRun.evaluate_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .benchmarks import BenchmarkFunction
from .decomposition import Decomposition, embed
from .rbf import TrainingArchive, TrainingError, train_surrogate
from .runtime import AuditFailure, BudgetExhausted, CooperativeRun, RunParams, RunRecord
from .shade import select_best, two_step_select, worst_replacement

AUDIT_RTOL = 1e-9


@dataclass
class GenReport:
    """What one generation did (mostly for tests and instrumentation)."""

    generation: int
    sub_id: int
    trials: int
    real_evals: int
    success_idx: np.ndarray
    context_updated: bool
    truncated: bool
    fallback: bool
    f_best: float


def initialization_cost(decomposition: Decomposition, params: RunParams) -> int:
    """Real evaluations consumed before the first generation."""
    return 1 + sum(
        max(params.d_factor * sub.s, params.p) for sub in decomposition.subproblems
    )


class SurrogateCC(CooperativeRun):
    """One seeded run of the surrogate-assisted optimizer.

    ``audit=True`` re-evaluates the context after every context update (not
    charged to the budget) and verifies the kept context terms (bit for
    bit), the book-kept context fitness and a spot-checked stored
    improvement of an uninvolved sub-problem.
    """

    algorithm = "sacc"
    min_budget = staticmethod(initialization_cost)

    def __init__(
        self,
        fn: BenchmarkFunction,
        decomposition: Decomposition,
        params: RunParams,
        seed: int,
        audit: bool = False,
    ):
        super().__init__(fn, decomposition, params, seed)
        self.audit = audit

        self.subs = []
        self.archives: list[TrainingArchive] = []
        for g, sub in enumerate(decomposition.subproblems):
            d = params.d_factor * sub.s
            st = self.new_sub(g, max(d, params.p))
            vals = self.context.f - self.evaluate_rows(sub, st.pop)
            archive = TrainingArchive(d, sub.lower, sub.upper)
            archive.fill(st.pop[-d:], vals[-d:])
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
        sub = st.sub
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
        trial_scores, evaluated, successes, truncated = two_step_select(
            parent_scores,
            model_scores,
            q,
            lambda idx: self.context.f - self.evaluate_rows(sub, trials[idx]),
        )
        st.adapt(
            successes, f_used, cr_used, trial_scores[successes] - parent_scores[successes]
        )

        # the budget check above leaves at least one of the q >= 1 rows paid for
        batch = evaluated[-archive.capacity:]
        archive.push(trials[batch], trial_scores[batch])
        worst_replacement(st.pop, st.pop_vals, trials[evaluated], trial_scores[evaluated])

        context_updated = False
        best = int(np.argmax(st.pop_vals))
        gain = float(st.pop_vals[best])
        if gain > 0.0:
            self.adopt(sub, st.pop[best], self.context.f - gain)
            archive.rebase(gain)
            st.pop_vals -= gain
            context_updated = True
            if self.audit:
                self._run_audit(g)

        self.cursor = (self.cursor + 1) % self.decomposition.k
        self.close_generation(g, evaluated.size, self.context.f)
        return GenReport(
            generation=self.generation,
            sub_id=g,
            trials=p,
            real_evals=evaluated.size,
            success_idx=successes,
            context_updated=context_updated,
            truncated=truncated,
            fallback=fallback,
            f_best=self.context.f,
        )

    def _run_audit(self, g: int):
        # uncharged re-evaluations; failures indicate book-keeping drift
        fresh_terms = self.fn.terms(self.context.x)
        if not np.array_equal(fresh_terms, self.context.terms, equal_nan=True):
            bad = np.flatnonzero(fresh_terms != self.context.terms).tolist()
            raise AuditFailure(f"kept context terms of groups {bad} differ from re-evaluation")
        fresh = sum(fresh_terms.tolist())  # fn(context.x), bit for bit
        rel = abs(fresh - self.context.f) / max(1.0, abs(fresh))
        self.record.max_audit_rel_err = max(self.record.max_audit_rel_err, rel)
        if rel > AUDIT_RTOL:
            raise AuditFailure(
                f"context fitness drift {rel:.3e} (kept {self.context.f!r}, "
                f"re-evaluated {fresh!r})"
            )
        if self.decomposition.k > 1:
            h = (g + 1) % self.decomposition.k
            other = self.subs[h]
            stored = float(other.pop_vals[0])
            fresh_imp = self.context.f - self.fn(
                embed(self.context.x, other.sub, other.pop[0])
            )
            err = abs(fresh_imp - stored) / max(1.0, abs(stored))
            self.record.max_crosscheck_err = max(self.record.max_crosscheck_err, err)
            if err > AUDIT_RTOL:
                raise AuditFailure(
                    f"stored improvement of sub-problem {h} drifted by {err:.3e}"
                )

    def run(self) -> RunRecord:
        """Step until the evaluation budget is exhausted."""
        while not self.budget.exhausted:
            self.step()
        return self.finish()
