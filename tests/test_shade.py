import re

import numpy as np
import pytest

from coopevo.shade import (
    ParameterMemory,
    SubState,
    mutate_crossover,
    pbest_fraction,
    sample_params,
    select_best,
    two_step_select,
    weighted_lehmer_mean,
    worst_replacement,
)


class ScriptedRng:
    """Replays predetermined draws so operator outputs can be hand-checked.

    Every call pops as many scripted values as it returns and logs
    ``(method, count)`` in ``calls``; a scripted integer must be one the
    real generator could return for that call.
    """

    def __init__(self, integers=(), randoms=(), cauchy=(), normal=()):
        self._integers = list(integers)
        self._randoms = list(randoms)
        self._cauchy = list(cauchy)
        self._normal = list(normal)
        self.calls = []

    def _take(self, queue, name, size):
        n = int(np.prod(size))
        self.calls.append((name, n))
        return np.array([queue.pop(0) for _ in range(n)]).reshape(size)

    def integers(self, high, size=None):
        high = np.asarray(high)
        out = self._take(self._integers, "integers", high.shape if size is None else size)
        assert np.all((out >= 0) & (out < high))
        return out.astype(np.intp)

    def random(self, size):
        return self._take(self._randoms, "random", size)

    def standard_cauchy(self, size):
        return self._take(self._cauchy, "standard_cauchy", size)

    def normal(self, loc, scale, size):
        return loc + scale * self._take(self._normal, "normal", size)


def count_draws(rng, name):
    return [n for method, n in rng.calls if method == name]


@pytest.mark.parametrize("size", [True, 2.5, 0, np.float64(3.0)])
def test_memory_rejects_a_size_that_is_not_a_positive_integer(size):
    # True would make a one-entry memory; 2.5 failed inside np.full
    message = re.escape(f"memory size must be an integer >= 1, got {size!r}")
    with pytest.raises(ValueError, match=message):
        ParameterMemory(size)


def test_memory_accepts_a_numpy_integer_size():
    assert ParameterMemory(np.int64(3)).size == 3


# --- control parameter sampling -------------------------------------------

def test_f_clipped_to_one():
    mem = ParameterMemory(4)
    # cauchy deviate 12.0 -> F = 0.5 + 1.2 = 1.7 -> clipped to 1
    rng = ScriptedRng(integers=[0, 1], cauchy=[12.0, 1.0], normal=[0.0, 0.0])
    f, cr = sample_params(mem, 2, rng)
    assert f.tolist() == [1.0, 0.6]
    assert cr.tolist() == [0.5, 0.5]


def test_cr_clipped_to_zero():
    mem = ParameterMemory(4)
    # normal deviate -7 -> CR = 0.5 - 0.7 = -0.2 -> clipped to 0; +7 -> 1
    rng = ScriptedRng(integers=[2, 3], cauchy=[1.0, 1.0], normal=[-7.0, 7.0])
    f, cr = sample_params(mem, 2, rng)
    assert cr.tolist() == [0.0, 1.0]


def test_nonpositive_f_resampled():
    mem = ParameterMemory(2)
    # member 0: -9 and -5 give F <= 0, 0.8 is kept; member 1 keeps its first
    # draw; member 2 redraws once
    rng = ScriptedRng(integers=[1, 0, 1], cauchy=[-9.0, 1.0, -6.0, -5.0, 0.8, 0.8],
                      normal=[0.0, 0.0, 0.0])
    f, _ = sample_params(mem, 3, rng)
    assert f == pytest.approx([0.5 + 0.08, 0.5 + 0.1, 0.5 + 0.08])
    # only the still non-positive members are redrawn, round after round
    assert count_draws(rng, "standard_cauchy") == [3, 2, 1]


def test_sampler_monte_carlo_median():
    mem = ParameterMemory(10)  # everything at 0.5
    rng = np.random.default_rng(42)
    fs, crs = sample_params(mem, 100_000, rng)
    assert abs(np.median(fs) - 0.5) <= 0.05
    assert np.all(fs > 0.0) and np.all(fs <= 1.0)
    assert np.all(crs >= 0.0) and np.all(crs <= 1.0)


def test_pbest_fraction_range():
    rng = np.random.default_rng(3)
    frac = pbest_fraction(100, rng)
    assert frac.shape == (100,)
    assert np.all((frac >= 0.02) & (frac <= 0.2))
    # 2/p above 0.2 collapses the interval to 2/p
    assert np.all(pbest_fraction(5, rng) == 0.4)


# --- mutation and crossover -------------------------------------------------

BOX_LO = np.full(3, -100.0)
BOX_HI = np.full(3, 100.0)


def small_pop():
    pop = np.array([[0.0] * 3, [1.0] * 3, [2.0] * 3, [3.0] * 3])
    scores = np.array([4.0, 3.0, 2.0, 1.0])  # member 0 is best
    return pop, scores


# Draws for small_pop with one archive slot (pool index 4): every member
# picks pbest = member 0 among the 2 best; raw r1 draws [0, 1, 2, 0] are
# shifted up at or above i, giving r1 = [1, 2, 3, 0]; r2 = archive slot 0.
SMALL_POP_DRAWS = [0, 0, 0, 0,   # pbest picks
                   0, 1, 2, 0,   # r1
                   4, 4, 4, 4]   # r2
SMALL_POP_R1 = [1, 2, 3, 0]


def full(value, n=4):
    return np.full(n, value)


def test_zero_f_zero_cr_returns_parent_exactly():
    pop, scores = small_pop()
    slots = np.array([[10.0] * 3])
    rng = ScriptedRng(integers=SMALL_POP_DRAWS + [1, 1, 1, 1], randoms=[0.9] * 12)
    u = mutate_crossover(pop, scores, slots, full(0.0), full(0.0), full(0.5),
                         BOX_LO, BOX_HI, rng)
    assert np.array_equal(u, pop)


def test_cr_one_returns_full_mutant():
    pop, scores = small_pop()
    slots = np.array([[10.0] * 3])
    # pbest=member 0, r1=SMALL_POP_R1, r2=archive slot 0, every coordinate crosses
    rng = ScriptedRng(integers=SMALL_POP_DRAWS + [1, 1, 1, 1], randoms=[0.3] * 12)
    u = mutate_crossover(pop, scores, slots, full(0.5), full(1.0), full(0.5),
                         BOX_LO, BOX_HI, rng)
    v = pop + 0.5 * (pop[0] - pop) + 0.5 * (pop[SMALL_POP_R1] - np.array([10.0] * 3))
    assert np.array_equal(u, v)
    assert np.array_equal(u[1], pop[1] + 0.5 * (pop[0] - pop[1]) + 0.5 * (pop[2] - slots[0]))


def test_hand_computed_trial_vector():
    # fixed draws, straight-line arithmetic of the mutation/crossover rules
    pop, scores = small_pop()
    slots = np.array([[10.0] * 3])
    rng = ScriptedRng(
        integers=[0, 0, 0, 0,   # pbest picks among the 2 best
                  0, 1, 2, 0,   # r1: member 1 draws 1, at or above i=1 -> 2
                  4, 4, 4, 4,   # r2 -> archive slot 0
                  0, 2, 0, 0],  # forced coordinates; member 1's is 2
        randoms=[0.0] * 3 + [0.5, 0.9, 0.99] + [0.0] * 6,
    )
    u = mutate_crossover(pop, scores, slots, full(0.5), full(0.6), full(0.5),
                         BOX_LO, BOX_HI, rng)
    # v = x1 + F (x0 - x1) + F (x2 - slot0) = 1 - 0.5 - 4 = -3.5 per coordinate
    expect = np.array([-3.5, 1.0, -3.5])
    assert np.max(np.abs(u[1] - expect)) <= 1e-15


def test_out_of_bounds_pulled_to_midpoint():
    pop = np.array([[0.0], [8.0], [4.0], [6.0]])
    scores = np.array([1.0, 4.0, 3.0, 2.0])
    slots = np.array([[-9.0]])
    lo, hi = np.array([-10.0]), np.array([10.0])
    # pbest=member 1 (score 4), member 0's r1 draw 2 -> 3, r2=archive
    # -> v = 0 + 1*(8-0) + 1*(6+9) = 23
    rng = ScriptedRng(integers=[0, 0, 0, 0, 2, 0, 0, 0, 4, 4, 4, 4, 0, 0, 0, 0],
                      randoms=[0.0] * 4)
    u = mutate_crossover(pop, scores, slots, full(1.0), full(1.0), full(0.25), lo, hi, rng)
    assert u[0, 0] == pytest.approx((10.0 + 0.0) / 2)


def test_trial_differs_from_parent_in_forced_coordinate():
    # with CR = 0 only the forced coordinate can change; member values with
    # pairwise-distinct sums keep the difference terms from cancelling
    pop = np.array([[0.0] * 3, [1.0] * 3, [3.0] * 3, [7.0] * 3])
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    slots = np.array([[15.0] * 3])
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = mutate_crossover(pop, scores, slots, full(0.7), full(0.0), full(0.5),
                             BOX_LO, BOX_HI, rng)
        assert np.all(np.sum(u != pop, axis=1) == 1)


def test_pbest_ranked_by_score_not_position():
    # scores rank member 1 above member 0; with pbest_frac covering the two
    # best, pick index 1 must resolve to the second-best by score
    pop = np.array([[0.0], [1.0], [5.0], [9.0]])
    scores = np.array([7.0, 8.0, 2.0, 1.0])  # best order: 1, 0, 2, 3
    slots = np.array([[50.0]])
    lo, hi = np.array([-100.0]), np.array([100.0])
    # member 0: r1 draw 1 -> 2, r2 = 3; the others take r1 = 0 and the archive
    rest = [1, 0, 0, 0, 3, 4, 4, 4, 0, 0, 0, 0]
    rng = ScriptedRng(integers=[1, 0, 0, 0] + rest, randoms=[0.0] * 4)
    u = mutate_crossover(pop, scores, slots, full(1.0), full(1.0), full(0.5), lo, hi, rng)
    # v = x0 + (pbest - x0) + (x2 - x3) with pbest = x0 (second best by score)
    assert u[0, 0] == pytest.approx(0.0 + (0.0 - 0.0) + (5.0 - 9.0))
    # same draws but pick index 0 -> pbest = x1 (the top scorer)
    rng = ScriptedRng(integers=[0, 0, 0, 0] + rest, randoms=[0.0] * 4)
    u = mutate_crossover(pop, scores, slots, full(1.0), full(1.0), full(0.5), lo, hi, rng)
    assert u[0, 0] == pytest.approx(0.0 + (1.0 - 0.0) + (5.0 - 9.0))


def test_colliding_r2_redrawn_for_colliding_members_only():
    pop = np.array([[0.0], [1.0], [3.0], [7.0]])
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    slots = np.array([[15.0], [31.0]])  # pool indices 4 and 5
    lo, hi = np.array([-1000.0]), np.array([1000.0])
    rng = ScriptedRng(
        integers=[0, 0, 0, 0,   # pbest = member 0
                  0, 0, 0, 0,   # r1 = [1, 0, 0, 0]
                  0, 4, 0, 5,   # r2: member 0 hits i, member 2 hits r1
                  1, 5,         # redraw members 0 and 2: member 0 hits r1
                  2,            # redraw member 0 only
                  0, 0, 0, 0],  # forced coordinates
        randoms=[0.0] * 4,
    )
    u = mutate_crossover(pop, scores, slots, full(1.0), full(1.0), full(0.5), lo, hi, rng)
    assert count_draws(rng, "integers") == [4, 4, 4, 2, 1, 4]
    # u_i = pbest + x_r1 - x~_r2 with r2 = [2, 4, 5, 5]
    assert u[:, 0].tolist() == [0.0 + 1.0 - 3.0, 0.0 + 0.0 - 15.0,
                                0.0 + 0.0 - 31.0, 0.0 + 0.0 - 31.0]


def test_batched_trials_match_per_member_reference():
    # random valid draws replayed through the batched operator and through
    # the per-member rules written out one member at a time
    gen = np.random.default_rng(11)
    p, s, a = 12, 5, 6
    lo, hi = np.full(s, -1.0), np.full(s, 1.0)
    for _ in range(20):
        pop = gen.uniform(lo, hi, (p, s))
        slots = gen.uniform(lo, hi, (a, s))
        scores = gen.normal(size=p)
        f, cr = gen.uniform(0.01, 1.0, p), gen.uniform(0.0, 1.0, p)
        frac = gen.uniform(2.0 / p, 0.2, p)
        n_best = np.ceil(frac * p).astype(int)
        picks = [int(gen.integers(n)) for n in n_best]
        r1 = [int(gen.choice([j for j in range(p) if j != i])) for i in range(p)]
        r2 = [int(gen.choice([j for j in range(p + a) if j not in (i, r1[i])]))
              for i in range(p)]
        j_rand = gen.integers(s, size=p).tolist()
        uniforms = gen.random((p, s))
        raw_r1 = [r - (r > i) for i, r in enumerate(r1)]
        rng = ScriptedRng(integers=picks + raw_r1 + r2 + j_rand,
                          randoms=uniforms.ravel().tolist())
        u = mutate_crossover(pop, scores, slots, f, cr, frac, lo, hi, rng)

        order = np.argsort(-scores, kind="stable")
        pool = np.vstack([pop, slots])
        for i in range(p):
            x = pop[i]
            v = x + f[i] * (pop[order[picks[i]]] - x) + f[i] * (pop[r1[i]] - pool[r2[i]])
            mask = uniforms[i] <= cr[i]
            mask[j_rand[i]] = True
            w = np.where(mask, v, x)
            w = np.where(w < lo, 0.5 * (lo + x), w)
            w = np.where(w > hi, 0.5 * (hi + x), w)
            assert np.array_equal(u[i], w)


def sub_state(pop, inferior, rng, memory=None, lo=None, hi=None):
    """A SubState over ``pop`` with bounds ``lo``/``hi`` (default: +-5)."""
    s = pop.shape[1]
    lo = np.full(s, -5.0) if lo is None else lo
    hi = np.full(s, 5.0) if hi is None else hi
    memory = ParameterMemory(4) if memory is None else memory
    return SubState(lo, hi, pop, np.full(len(pop), -np.inf), memory, inferior, rng)


def test_substate_trials_follow_operator_draw_order():
    # SubState.trials is sample_params -> pbest_fraction -> mutate_crossover
    # on its one rng: a twin generator running the three operators by hand
    # gives bit-equal trials and parameters and ends in the same state
    p, s = 12, 5
    lo, hi = np.full(s, -5.0), np.full(s, 5.0)
    setup = np.random.default_rng(11)
    mem = ParameterMemory(6)
    mem.f[:] = setup.uniform(0.01, 1.0, 6)
    mem.cr[:] = setup.uniform(0.0, 1.0, 6)
    pop = setup.uniform(lo, hi, (p, s))
    inferior = setup.uniform(lo, hi, (p + 3, s))
    st = sub_state(pop.copy(), inferior.copy(), np.random.default_rng(5), mem, lo, hi)
    st.pop_vals = setup.normal(size=p)
    twin = np.random.default_rng(5)
    for _ in range(3):
        trials, f, cr = st.trials()
        f_ref, cr_ref = sample_params(mem, p, twin)
        frac = pbest_fraction(p, twin)
        ref = mutate_crossover(pop, st.pop_vals, inferior, f_ref, cr_ref, frac, lo, hi, twin)
        assert np.array_equal(trials, ref)
        assert np.array_equal(f, f_ref) and np.array_equal(cr, cr_ref)
        assert st.rng.bit_generator.state == twin.bit_generator.state


def test_generated_trials_stay_valid_over_many_generations():
    p, s = 30, 7
    lo, hi = np.full(s, -5.0), np.full(s, 5.0)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mem = ParameterMemory(5)
        mem.f[:] = rng.uniform(0.01, 1.0, 5)
        mem.cr[:] = rng.uniform(0.0, 1.0, 5)
        pop = rng.uniform(lo, hi, (p, s))
        st = sub_state(pop, rng.uniform(lo, hi, (p, s)), rng, mem, lo, hi)
        for _ in range(5):
            st.pop_vals = rng.normal(size=p)
            trials, f, cr = st.trials()
            assert trials.shape == (p, s)
            assert np.all((trials >= lo) & (trials <= hi))
            assert np.all((f > 0.0) & (f <= 1.0))
            assert np.all((cr >= 0.0) & (cr <= 1.0))
            assert np.all(np.any(trials != st.pop, axis=1))
            st.pop = trials


# --- selection helpers ------------------------------------------------------

def test_select_best_breaks_ties_by_lower_index():
    vals = np.array([1.0, 3.0, 3.0, 0.5])
    assert select_best(vals, 2).tolist() == [1, 2]
    vals = np.array([2.0, 2.0, 2.0])
    assert select_best(vals, 3).tolist() == [0, 1, 2]


def real_scores(table):
    """A ``real_eval`` that looks each picked index up in ``table``."""
    return lambda idx: np.array([table[i] for i in idx])


def test_two_step_select_no_successes_without_improvement():
    parent = np.array([5.0, 5.0, 5.0])
    trial = np.array([1.0, 2.0, 3.0])
    reals = {2: 0.5, 1: 0.25}
    scores, evaluated, successes, truncated = two_step_select(
        parent, trial, 2, real_scores(reals)
    )
    assert evaluated.tolist() == [2, 1]
    assert successes.size == 0
    assert not truncated


def test_two_step_select_full_reevaluation_degenerate():
    parent = np.array([1.0, 2.0, 3.0])
    trial = np.array([0.0, 0.0, 0.0])
    reals = {0: 2.0, 1: 1.0, 2: 4.0}
    scores, evaluated, successes, _ = two_step_select(parent, trial, 3, real_scores(reals))
    assert sorted(evaluated.tolist()) == [0, 1, 2]
    assert successes.tolist() == [0, 2]
    assert scores.tolist() == [2.0, 1.0, 4.0]


def test_two_step_select_success_follows_real_value():
    # the model loves trial 0 (score 9), but reality disagrees; trial 1 looks
    # mediocre to the model and is never re-evaluated, so its surrogate score
    # decides
    parent = np.array([1.0, 1.0])
    trial = np.array([9.0, 2.0])
    scores, evaluated, successes, _ = two_step_select(
        parent, trial, 1, lambda idx: np.full(idx.size, -5.0)
    )
    assert evaluated.tolist() == [0]
    assert scores[0] == -5.0
    assert successes.tolist() == [1]  # 0 fails on the real value, 1 wins on the model


def test_two_step_select_truncates_on_budget():
    parent = np.zeros(3)
    trial = np.array([3.0, 2.0, 1.0])

    def real_eval(idx):
        assert idx.tolist() == [0, 1, 2]
        return np.array([10.0])  # one evaluation left

    scores, evaluated, successes, truncated = two_step_select(parent, trial, 3, real_eval)
    assert evaluated.tolist() == [0]
    assert truncated
    assert scores.tolist() == [10.0, 2.0, 1.0]


# --- memory and archive updates ---------------------------------------------

def test_single_success_written_verbatim():
    mem = ParameterMemory(3)
    mem.update(np.array([0.6]), np.array([0.4]), np.array([1.0]))
    assert mem.f[0] == pytest.approx(0.6)
    assert mem.cr[0] == pytest.approx(0.4)
    assert mem.index == 1


def test_weighted_lehmer_mean_hand_value():
    # equal weights, F = {0.2, 0.8}: (0.04 + 0.64) / (0.2 + 0.8) = 0.68
    assert weighted_lehmer_mean(np.array([0.2, 0.8]), np.array([0.5, 0.5])) == pytest.approx(0.68)
    mem = ParameterMemory(3)
    mem.update(np.array([0.2, 0.8]), np.array([0.5, 0.5]), np.array([2.0, 2.0]))
    assert mem.f[0] == pytest.approx(0.68)


def test_no_success_leaves_memory_untouched():
    mem = ParameterMemory(5)
    before_f, before_cr, before_i = mem.f.copy(), mem.cr.copy(), mem.index
    mem.update(np.array([]), np.array([]), np.array([]))
    assert np.array_equal(mem.f, before_f)
    assert np.array_equal(mem.cr, before_cr)
    assert mem.index == before_i


def test_memory_index_wraps():
    mem = ParameterMemory(2)
    for k in range(5):
        mem.update(np.array([0.3]), np.array([0.3]), np.array([1.0]))
    assert mem.index == 1
    assert np.all(mem.f > 0.0) and np.all(mem.f <= 1.0)
    assert np.all((mem.cr >= 0.0) & (mem.cr <= 1.0))


def adapt_first(st, k):
    """``st.adapt`` with the first ``k`` members as the winners."""
    n = len(st.pop)
    st.adapt(np.arange(k), np.full(n, 0.5), np.full(n, 0.5), np.ones(k))


def test_inferior_archive_fixed_size():
    st = sub_state(np.ones((6, 2)), np.zeros((4, 2)), np.random.default_rng(0))
    for k in range(10):
        adapt_first(st, k % 6)
        assert len(st.inferior) == 4


def test_inferior_archive_writes_batch_in_order():
    rng = ScriptedRng(integers=[2, 0, 2])
    st = sub_state(np.array([[1.0], [2.0], [3.0]]), np.zeros((4, 1)), rng)
    adapt_first(st, 3)
    assert count_draws(rng, "integers") == [3]  # one draw for the batch
    assert st.inferior[:, 0].tolist() == [2.0, 0.0, 3.0, 0.0]  # slot 2 keeps the later row


# --- population update -------------------------------------------------------

def test_worst_replacement_rule_application():
    pop = np.array([[1.0], [2.0], [3.0]])
    scores = np.array([3.0, 2.0, 1.0])
    worst_replacement(pop, scores, np.array([[9.0], [8.0]]), np.array([4.0, 0.0]))
    assert sorted(scores.tolist()) == [2.0, 3.0, 4.0]  # 1 evicted, 0 rejected
    assert 9.0 in pop


def test_worst_replacement_tie_keeps_incumbent():
    pop = np.array([[1.0], [2.0]])
    scores = np.array([5.0, 1.0])
    worst_replacement(pop, scores, np.array([[7.0]]), np.array([1.0]))
    assert pop.tolist() == [[1.0], [2.0]]


def test_worst_replacement_min_never_decreases():
    rng = np.random.default_rng(9)
    pop = rng.normal(size=(6, 2))
    scores = rng.normal(size=6)
    low = scores.min()
    for _ in range(200):
        batch = rng.normal(size=(3, 2))
        vals = rng.normal(size=3)
        worst_replacement(pop, scores, batch, vals)
        assert scores.min() >= low
        low = scores.min()
