import numpy as np
import pytest

from coopevo.benchmarks import FUNCTION_IDS, get_function
from coopevo.decomposition import embed, ideal_decompose
from coopevo.runtime import CooperativeRun, RunParams

BATCH_SIZES = (1, 2, 100)


def check_rows(run, sub, rng):
    """Score fresh rows of every batch size through ``evaluate_rows`` and
    compare each value bit for bit with a full evaluation of the embedded
    point. Returns the last batch and its values."""
    for b in BATCH_SIZES:
        rows = rng.uniform(sub.lower, sub.upper, (b, sub.s))
        used = run.budget.used
        got = run.evaluate_rows(sub, rows)
        want = [run.fn(embed(run.context.x, sub, r)) for r in rows]
        assert got.tolist() == want, (run.fn.fid, sub.sid, b)
        assert run.budget.used == used + b
    return rows, got


@pytest.mark.parametrize("dim", [40, 1000])
@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_evaluate_rows_is_bit_equal_to_full_evaluation(fid, dim):
    fn = get_function(fid, dim, 1)
    # a chunk size that leaves a shorter last separable chunk
    decomp = ideal_decompose(fn.structure, dim // 10 + 3, fn.lower, fn.upper)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10**6), seed=1)
    rng = np.random.default_rng(dim)
    # first pass: each sub-problem after the adopts of the ones before it;
    # second pass: every sub-problem after every adopt
    for _ in range(2):
        for sub in decomp.subproblems:
            rows, values = check_rows(run, sub, rng)
            best = int(np.argmin(values))
            run.adopt(sub, rows[best], float(values[best]))
            assert run.context.f == fn(run.context.x)
            assert run.context.terms.tolist() == fn.terms(run.context.x).tolist()


def test_rotated_sub_problems_touch_only_their_own_group():
    fn = get_function("f09", 40, 1)  # a separable block and ten rotated groups
    decomp = ideal_decompose(fn.structure, 7, fn.lower, fn.upper)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    groups = fn.structure.groups
    for sub, touched in zip(decomp.subproblems, run.touched):
        (pos,) = touched
        assert set(sub.indices.tolist()) <= set(groups[pos])
    # every sub-problem of a one-group function touches that group
    fn = get_function("f01", 40, 1)
    decomp = ideal_decompose(fn.structure, 7, fn.lower, fn.upper)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    assert run.touched == [(0,)] * decomp.k


def test_evaluate_rows_stops_at_the_budget():
    fn = get_function("f14", 40, 1)
    decomp = ideal_decompose(fn.structure, 2, fn.lower, fn.upper)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=4), seed=1)
    sub = decomp.subproblems[3]
    rows = np.random.default_rng(0).uniform(sub.lower, sub.upper, (5, sub.s))
    values = run.evaluate_rows(sub, rows)
    assert values.tolist() == [fn(embed(run.context.x, sub, r)) for r in rows[:3]]
    assert run.budget.exhausted
    assert run.evaluate_rows(sub, rows).size == 0
