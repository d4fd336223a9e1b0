"""Uncharged re-evaluation checks of a ``SurrogateCC`` run's book-keeping.

``Audit(opt).step()`` runs one generation of ``opt`` and, when it updated
the context, re-evaluates against the objective directly: the kept context
terms (bit for bit), the book-kept context fitness and the first stored
improvement of the next sub-problem in the round. The re-evaluations are
not charged and draw no random numbers, so an audited run stays
bit-identical to an unaudited one. ``run()`` steps until the budget is
exhausted, as ``SurrogateCC.run`` does.

The run's own ``RunRecord.max_context_gap`` covers the context fitness in
every run; only these checks see a corrupted kept term, which enters
``context.f`` through the charged rows, or a stale stored improvement of
another sub-problem.
"""

import numpy as np

from coopevo.decomposition import embed
from coopevo.runtime import RunRecord
from coopevo.surrogate_cc import GenReport, SurrogateCC

AUDIT_RTOL = 1e-9


class AuditFailure(RuntimeError):
    """Raised when book-kept values drift from re-evaluation."""


class Audit:
    """Audited stepping of one ``SurrogateCC`` run, with the largest context
    fitness drift (``max_rel_err``) and stored-improvement drift
    (``max_crosscheck_err``) seen so far."""

    def __init__(self, opt: SurrogateCC):
        self.opt = opt
        self.max_rel_err = 0.0
        self.max_crosscheck_err = 0.0

    def step(self) -> GenReport:
        g, updates = self.opt.cursor, self.opt.record.context_updates
        report = self.opt.step()
        if self.opt.record.context_updates > updates:
            self._check(g)
        return report

    def run(self) -> RunRecord:
        while not self.opt.budget.exhausted:
            self.step()
        return self.opt.finish()

    def _check(self, g: int):
        """The three checks after sub-problem ``g`` updated the context."""
        opt = self.opt
        fresh_terms = opt.fn.terms(opt.context.x)
        if not np.array_equal(fresh_terms, opt.context.terms, equal_nan=True):
            bad = np.flatnonzero(fresh_terms != opt.context.terms).tolist()
            raise AuditFailure(f"kept context terms of groups {bad} differ from re-evaluation")
        fresh = sum(fresh_terms.tolist())  # fn(context.x), bit for bit
        rel = abs(fresh - opt.context.f) / max(1.0, abs(fresh))
        self.max_rel_err = max(self.max_rel_err, rel)
        if rel > AUDIT_RTOL:
            raise AuditFailure(
                f"context fitness drift {rel:.3e} (kept {opt.context.f!r}, "
                f"re-evaluated {fresh!r})"
            )
        if len(opt.subproblems) > 1:
            h = (g + 1) % len(opt.subproblems)
            other, idx = opt.subs[h], opt.subproblems[h]
            stored = float(other.pop_vals[0])
            fresh_imp = opt.context.f - opt.fn(embed(opt.context.x, idx, other.pop[0]))
            err = abs(fresh_imp - stored) / max(1.0, abs(stored))
            self.max_crosscheck_err = max(self.max_crosscheck_err, err)
            if err > AUDIT_RTOL:
                raise AuditFailure(
                    f"stored improvement of sub-problem {h} drifted by {err:.3e}"
                )
