"""Success-history adaptive differential evolution operators.

These are the building blocks shared by both optimizers in this package:
control-parameter sampling from a success-history memory, the
current-to-pbest/1 mutation with binomial crossover, memory updates via
improvement-weighted means, and the always-full inferior archive that
donates difference vectors. All scores passed in follow a larger-is-better
convention, so the same code serves raw-fitness and improvement-based
callers.
"""

from __future__ import annotations

import math

import numpy as np

PBEST_MAX_FRAC = 0.2


class ParameterMemory:
    """Ring buffer of (mean F, mean CR) pairs, all initialized to 0.5.

    One entry is overwritten per generation that produced at least one
    success; generations without successes leave the memory untouched.
    """

    def __init__(self, size: int = 10):
        if size < 1:
            raise ValueError("memory size must be >= 1")
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


class InferiorArchive:
    """Fixed-size pool of replaced/beaten sub-solutions.

    Kept full from the start (seeded with random sub-solutions) so donors for
    the mutation difference term are always available without special-casing
    a growing archive.
    """

    def __init__(self, slots: np.ndarray):
        self.slots = np.array(slots, dtype=float)
        if self.slots.ndim != 2 or self.slots.shape[0] < 1:
            raise ValueError("archive needs a (p, s) slot matrix")

    def __len__(self) -> int:
        return self.slots.shape[0]

    def replace_random(self, x: np.ndarray, rng: np.random.Generator):
        self.slots[rng.integers(len(self))] = x


def pbest_fraction(p: int, rng: np.random.Generator) -> float:
    """Per-trial elite fraction, uniform on [2/p, 0.2].

    The lower end guarantees at least two candidates; for tiny populations
    where 2/p exceeds 0.2 the interval collapses to that single point.
    """
    lo = 2.0 / p
    return float(rng.uniform(lo, max(PBEST_MAX_FRAC, lo)))


def sample_params(memory: ParameterMemory, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (F, CR) pair from a random memory entry.

    F ~ Cauchy(mean, 0.1), resampled while non-positive and clipped to 1;
    CR ~ Normal(mean, 0.1) clipped into [0, 1].
    """
    r = int(rng.integers(memory.size))
    f = rng.standard_cauchy() * 0.1 + memory.f[r]
    while f <= 0.0:
        f = rng.standard_cauchy() * 0.1 + memory.f[r]
    f = min(f, 1.0)
    cr = rng.normal(memory.cr[r], 0.1)
    cr = 0.0 if cr < 0.0 else (1.0 if cr > 1.0 else cr)
    return float(f), float(cr)


def mutate_crossover(
    pop: np.ndarray,
    scores: np.ndarray,
    archive_slots: np.ndarray,
    i: int,
    f: float,
    cr: float,
    pbest_frac: float,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """current-to-pbest/1/bin trial vector for member ``i``.

    v = x_i + F (x_pbest - x_i) + F (x_r1 - x~_r2), with x_pbest uniform
    among the ceil(pbest_frac * p) best-scoring members, r1 a population
    member other than i, and x~_r2 drawn from population + archive excluding
    i and r1. Binomial crossover with a forced coordinate follows, then
    out-of-bounds components are pulled to the midpoint between the bound
    and the parent.

    Draw order (one rng): pbest pick, r1, r2, forced coordinate, crossover
    uniforms.
    """
    p, s = pop.shape
    x_i = pop[i]

    n_best = math.ceil(pbest_frac * p)
    order = np.argsort(-scores, kind="stable")
    pbest = pop[order[int(rng.integers(n_best))]]

    r1 = int(rng.integers(p))
    while r1 == i:
        r1 = int(rng.integers(p))
    pool = p + archive_slots.shape[0]
    r2 = int(rng.integers(pool))
    while r2 == i or r2 == r1:
        r2 = int(rng.integers(pool))
    donor = pop[r2] if r2 < p else archive_slots[r2 - p]

    v = x_i + f * (pbest - x_i) + f * (pop[r1] - donor)

    j_rand = int(rng.integers(s))
    mask = rng.random(s) <= cr
    mask[j_rand] = True
    u = np.where(mask, v, x_i)

    u = np.where(u < lower, 0.5 * (lower + x_i), u)
    u = np.where(u > upper, 0.5 * (upper + x_i), u)
    return u


def generate_trials(
    pop: np.ndarray,
    scores: np.ndarray,
    inferior: InferiorArchive,
    memory: ParameterMemory,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trial vector per population member, in member order.

    Each member draws its (F, CR) pair, then its elite fraction, then its
    trial vector, all from the one ``rng``. Returns (trials, F, CR) with the
    control parameters each trial was made with.
    """
    p = pop.shape[0]
    trials = np.empty_like(pop)
    f_used = np.empty(p)
    cr_used = np.empty(p)
    for i in range(p):
        f_i, cr_i = sample_params(memory, rng)
        frac = pbest_fraction(p, rng)
        trials[i] = mutate_crossover(
            pop, scores, inferior.slots, i, f_i, cr_i, frac, lower, upper, rng
        )
        f_used[i] = f_i
        cr_used[i] = cr_i
    return trials, f_used, cr_used


def select_best(values: np.ndarray, q: int) -> np.ndarray:
    """Indices of the q largest values; ties resolved to the lower index."""
    order = np.argsort(-values, kind="stable")
    return order[:q]


def two_step_select(
    parent_scores: np.ndarray,
    trial_scores: np.ndarray,
    q: int,
    real_eval,
) -> tuple[np.ndarray, list[int], np.ndarray, bool]:
    """Surrogate-screened selection.

    All pairs are first compared through their model scores; the ``q``
    trials with the best model scores are then re-scored by ``real_eval``
    and their entries overwritten, so the success decision for those pairs
    follows the real value. ``real_eval(i)`` returns the real score of
    trial ``i`` or None once the evaluation budget is gone, which truncates
    the re-scoring pass.

    Returns (final trial scores, re-evaluated indices in selection order,
    success indices, truncated flag). Index ``i`` is a success when its
    final trial score strictly beats the parent's model score.
    """
    scores = np.array(trial_scores, dtype=float, copy=True)
    evaluated: list[int] = []
    truncated = False
    for idx in select_best(scores, q):
        value = real_eval(int(idx))
        if value is None:
            truncated = True
            break
        scores[idx] = value
        evaluated.append(int(idx))
    successes = np.flatnonzero(scores > parent_scores)
    return scores, evaluated, successes, truncated


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
