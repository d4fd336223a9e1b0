"""Success-history adaptive differential evolution (SHADE).

This module holds SHADE whole, shared by both optimizers in this package:
the operators (control-parameter sampling from a success-history memory,
the current-to-pbest/1 mutation with binomial crossover, memory updates via
improvement-weighted means) and ``SubState``, the search state of one
sub-problem with its always-full inferior archive of donor rows. All scores
passed in follow a larger-is-better convention, so the same code serves
raw-fitness and improvement-based callers.

The operators are defined per member but need no sequential draw order, so
they work on the whole population at once: one generation of trials is one
call each of ``sample_params``, ``pbest_fraction`` and ``mutate_crossover``,
and every random draw covers all members (see ``SubState.trials``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import check_integer

PBEST_MAX_FRAC = 0.2


class ParameterMemory:
    """Ring buffer of (mean F, mean CR) pairs, all initialized to 0.5.

    One entry is overwritten per generation that produced at least one
    success; generations without successes leave the memory untouched.
    """

    def __init__(self, size: int):
        check_integer("memory size", size, 1)
        self.f = np.full(size, 0.5)
        self.cr = np.full(size, 0.5)
        self.index = 0

    @property
    def size(self) -> int:
        return self.f.size

    def update(self, sf: np.ndarray, scr: np.ndarray, deltas: np.ndarray):
        """Write the improvement-weighted means of the successful parameters
        into the current slot and advance it. No-op when there were no
        successes."""
        if len(sf) == 0:
            return
        sf = np.asarray(sf, dtype=float)
        scr = np.asarray(scr, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        total = deltas.sum()
        if total > 0:
            w = deltas / total
        else:
            w = np.full(sf.size, 1.0 / sf.size)
        self.f[self.index] = weighted_lehmer_mean(sf, w)
        self.cr[self.index] = float(np.dot(w, scr))
        self.index = (self.index + 1) % self.size


def weighted_lehmer_mean(x: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(w, x * x) / np.dot(w, x))


def pbest_fraction(p: int, rng: np.random.Generator) -> np.ndarray:
    """Elite fraction of each of the ``p`` members, uniform on [2/p, 0.2].

    The lower end guarantees at least two candidates; for tiny populations
    where 2/p exceeds 0.2 the interval collapses to that single point.
    """
    lo = 2.0 / p
    return rng.uniform(lo, max(PBEST_MAX_FRAC, lo), p)


def sample_params(
    memory: ParameterMemory, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` (F, CR) pairs, each from a random memory entry.

    F ~ Cauchy(mean, 0.1), resampled while non-positive and clipped to 1;
    CR ~ Normal(mean, 0.1) clipped into [0, 1]. Draw order: the ``n``
    memory slots, the ``n`` Cauchy deviates, the ``n`` normal deviates, then
    one Cauchy deviate per still non-positive F, round after round.
    """
    slot = rng.integers(memory.size, size=n)
    loc = memory.f[slot]
    f = rng.standard_cauchy(n) * 0.1 + loc
    cr = rng.normal(memory.cr[slot], 0.1, n)
    redo = np.flatnonzero(f <= 0.0)
    while redo.size:
        f[redo] = rng.standard_cauchy(redo.size) * 0.1 + loc[redo]
        redo = redo[f[redo] <= 0.0]
    return np.minimum(f, 1.0), np.clip(cr, 0.0, 1.0)


def mutate_crossover(
    pop: np.ndarray,
    scores: np.ndarray,
    archive_slots: np.ndarray,
    f: np.ndarray,
    cr: np.ndarray,
    pbest_frac: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """current-to-pbest/1/bin trial vectors, one row per member.

    For member i with control parameters ``f[i]``, ``cr[i]`` and
    ``pbest_frac[i]``: v = x_i + F (x_pbest - x_i) + F (x_r1 - x~_r2), with
    x_pbest uniform among the ceil(pbest_frac * p) best-scoring members, r1
    a population member other than i, and x~_r2 drawn from population +
    archive excluding i and r1. Binomial crossover with a forced coordinate
    follows, then out-of-bounds components are pulled to the midpoint
    between the bound and the parent.

    Draw order (one rng, each draw covering all p members at once): pbest
    picks, r1 (drawn from the p - 1 others by shifting draws >= i up by
    one), r2, redraws of r2 for the members whose r2 hit i or r1 (repeated
    until none does), forced coordinates, the (p, s) crossover uniforms.
    """
    p, s = pop.shape
    member = np.arange(p)

    n_best = np.ceil(pbest_frac * p).astype(np.intp)
    order = np.argsort(-scores, kind="stable")
    pbest = pop[order[rng.integers(n_best)]]

    r1 = rng.integers(p - 1, size=p)
    r1 += r1 >= member
    pool = np.concatenate([pop, archive_slots])
    r2 = rng.integers(len(pool), size=p)
    redo = np.flatnonzero((r2 == member) | (r2 == r1))
    while redo.size:
        r2[redo] = rng.integers(len(pool), size=redo.size)
        redo = redo[(r2[redo] == member[redo]) | (r2[redo] == r1[redo])]

    f = f[:, None]
    v = pop + f * (pbest - pop) + f * (pop[r1] - pool[r2])

    j_rand = rng.integers(s, size=p)
    mask = rng.random((p, s)) <= cr[:, None]
    mask[member, j_rand] = True
    u = np.where(mask, v, pop)

    u = np.where(u < lower, 0.5 * (lower + pop), u)
    u = np.where(u > upper, 0.5 * (upper + pop), u)
    return u


def select_best(values: np.ndarray, q: int) -> np.ndarray:
    """Indices of the q largest values; ties resolved to the lower index."""
    order = np.argsort(-values, kind="stable")
    return order[:q]


def two_step_select(
    parent_scores: np.ndarray,
    trial_scores: np.ndarray,
    q: int,
    real_eval,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Surrogate-screened selection.

    All pairs are first compared through their model scores; the ``q``
    trials with the best model scores are then re-scored by ``real_eval``
    and their entries overwritten, so the success decision for those pairs
    follows the real value. ``real_eval(idx)`` takes the picked index array
    in selection order and returns their real scores in that order; once
    the evaluation budget is gone it returns a shorter prefix, which
    truncates the re-scoring pass. In ``SurrogateCC`` it is a call of
    ``CooperativeRun.evaluate_rows``, the one charged evaluation path.

    Returns (final trial scores, re-evaluated indices in selection order,
    success indices, truncated flag). Index ``i`` is a success when its
    final trial score strictly beats the parent's model score.
    """
    scores = np.array(trial_scores, dtype=float, copy=True)
    picked = select_best(scores, q)
    real = real_eval(picked)
    evaluated = picked[: real.size]
    scores[evaluated] = real
    successes = np.flatnonzero(scores > parent_scores)
    return scores, evaluated, successes, real.size < picked.size


def worst_replacement(
    pop: np.ndarray,
    scores: np.ndarray,
    new_points: np.ndarray,
    new_scores: np.ndarray,
):
    """Greedy population update: each candidate in turn evicts the current
    worst member if strictly better (ties keep the incumbent). Mutates
    ``pop``/``scores`` in place."""
    for x, val in zip(new_points, new_scores):
        w = int(np.argmin(scores))
        if scores[w] < val:
            pop[w] = x
            scores[w] = val


@dataclass
class SubState:
    """SHADE search state of one sub-problem, the same in both optimizers.

    It sees the sub-problem only as a box: ``lower`` and ``upper`` are the
    function's bounds at the sub-problem's indices, and trials are kept
    inside them; which variables those are is the run's business.
    ``pop_vals`` scores the members, larger is better: improvements over the
    context in ``sacc``, negated fitness in ``shade-cc``. ``inferior`` is the
    fixed-size pool of beaten parents that donates difference vectors; it is
    seeded full with random sub-solutions, so donors never run out.
    """

    lower: np.ndarray          # (s,) box of the sub-problem's variables
    upper: np.ndarray
    pop: np.ndarray            # (p, s) sub-solutions
    pop_vals: np.ndarray       # (p,) their scores, larger is better
    memory: ParameterMemory
    inferior: np.ndarray       # (a, s) inferior archive, always full
    rng: np.random.Generator

    def trials(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One trial vector per member, in member order, and the (F, CR)
        each was made with.

        One batched pass from the one ``rng``: all (F, CR) pairs
        (``sample_params``), then all elite fractions (``pbest_fraction``),
        then all trial vectors (``mutate_crossover``). SHADE defines its
        operators per member but needs no sequential draw order, so the
        members share each draw.
        """
        p = self.pop.shape[0]
        f, cr = sample_params(self.memory, p, self.rng)
        frac = pbest_fraction(p, self.rng)
        trials = mutate_crossover(
            self.pop, self.pop_vals, self.inferior, f, cr, frac,
            self.lower, self.upper, self.rng,
        )
        return trials, f, cr

    def adapt(self, won: np.ndarray, f_used: np.ndarray, cr_used: np.ndarray, gains: np.ndarray):
        """SHADE's success update: the beaten parents ``pop[won]`` enter the
        inferior archive and the winning (F, CR) pairs, weighted by
        ``gains``, the memory. Call before the winners replace them.

        Each beaten parent overwrites one uniformly drawn archive slot. The
        slots come from one draw for the whole batch and the rows are
        written in order, so a slot drawn twice keeps the later row.
        """
        beaten = self.pop[won]
        for slot, x in zip(self.rng.integers(len(self.inferior), size=len(beaten)), beaten):
            self.inferior[slot] = x
        self.memory.update(f_used[won], cr_used[won], gains)
