"""Uncharged re-evaluation checks of a ``SurrogateCC`` run's book-keeping.

``Audit(opt).step()`` runs one generation of ``opt`` and, when it updated
the context, re-evaluates against the objective directly: the kept context
terms (bit for bit), the book-kept context fitness, and every stored
improvement of the next sub-problem in the round, its population's and its
training archive's labels alike. The re-evaluations are not charged and
draw no random numbers, so an audited run stays bit-identical to an
unaudited one. ``run()`` steps until the budget is exhausted, as
``SurrogateCC.run`` does.

A stored improvement is ``context.f - f(row)``, the difference of two
values near f, so its rounding scales with f and not with the improvement.
Its error is therefore taken relative to max(1, |f(x0)|), the context's
largest |f| (its fitness when the audit starts), and a population's
stored improvements must stay within ``STORED_RTOL`` of it. At 40-d the 15
suite functions whose sub-problems do not interact read at most about
1e-14, and the split ackley groups of f03, f06 and f11 read 1e-10 and more.

An archive row that coincided with a stored one was nudged by up to 1e-9
of the bound range in each coordinate (``rbf.TrainingArchive``) and keeps
the label of the point it coincided with, so the archive labels are held
to ``LABEL_RTOL`` of the same scale. At 40-d the nudged labels read at most
about 2e-9, and an archive that missed one rebase 5e-5 and more.

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
STORED_RTOL = 1e-12
LABEL_RTOL = 1e-7


class AuditFailure(RuntimeError):
    """Raised when book-kept values drift from re-evaluation."""


class Audit:
    """Audited stepping of one ``SurrogateCC`` run, with the largest context
    fitness drift (``max_rel_err``) and stored-improvement drift
    (``max_crosscheck_err``) seen so far."""

    def __init__(self, opt: SurrogateCC):
        self.opt = opt
        self.scale = max(1.0, abs(opt.context.f))
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
            self._check_stored((g + 1) % len(opt.subproblems))

    def _check_stored(self, h: int):
        """Every stored improvement of sub-problem ``h``, its population's
        and its training archive's, against re-evaluation."""
        st, archive = self.opt.subs[h], self.opt.archives[h]
        err = self._drift(h, st.pop, st.pop_vals)
        self.max_crosscheck_err = max(self.max_crosscheck_err, err)
        if err > STORED_RTOL:
            raise AuditFailure(f"stored improvement of sub-problem {h} drifted by {err:.3e}")
        err = self._drift(h, archive.points, archive.values)
        if err > LABEL_RTOL:
            raise AuditFailure(f"archive label of sub-problem {h} drifted by {err:.3e}")

    def _drift(self, h: int, rows: np.ndarray, stored: np.ndarray) -> float:
        """The largest error of the improvements ``stored`` for ``rows`` of
        sub-problem ``h``, relative to ``scale``."""
        opt, idx = self.opt, self.opt.subproblems[h]
        fresh = [opt.context.f - opt.fn(embed(opt.context.x, idx, row)) for row in rows]
        return float(np.max(np.abs(np.subtract(fresh, stored)))) / self.scale
