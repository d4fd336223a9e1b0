import re

import numpy as np
import pytest

from coopevo.benchmarks import FUNCTION_IDS, BenchmarkFunction, get_function
from coopevo.decomposition import embed, ideal_decompose
from coopevo.runtime import BudgetExhausted, CooperativeRun, FeBudget, RunParams

BATCH_SIZES = (1, 2, 100)


def check_rows(run, sub, rng):
    """Score fresh rows of every batch size through ``evaluate_rows`` and
    compare each value bit for bit with an evaluation of the embedded point:
    a full one for the first row of each batch, and for the others one from
    the context's terms as the full path computes them (not the run's kept
    terms), which ``test_benchmarks`` checks against the per-group formula.
    Returns the last batch and its values."""
    fn, x = run.fn, run.context.x
    known = fn.known(fn.terms(x), fn.groups_of(sub.indices))
    for b in BATCH_SIZES:
        rows = rng.uniform(sub.lower, sub.upper, (b, sub.s))
        used = run.budget.used
        got = run.evaluate_rows(sub, rows)
        want = [fn(embed(x, sub, rows[0]))]
        want += [fn.evaluate(embed(x, sub, r), known=known) for r in rows[1:]]
        assert got.tolist() == want, (fn.fid, sub.sid, b)
        assert run.budget.used == used + b
    return rows, got


@pytest.mark.parametrize("dim", [40, 1000])
@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_evaluate_rows_is_bit_equal_to_full_evaluation(fid, dim):
    fn = get_function(fid, dim, 1)
    # a chunk size that leaves a shorter last separable chunk
    decomp = ideal_decompose(fn, dim // 10 + 3)
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
    decomp = ideal_decompose(fn, 7)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    for sub, touched in zip(decomp.subproblems, run.touched):
        (pos,) = touched
        assert set(sub.indices.tolist()) <= set(fn.groups[pos].indices)
    # every sub-problem of a one-group function touches that group
    fn = get_function("f01", 40, 1)
    decomp = ideal_decompose(fn, 7)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    assert run.touched == [(0,)] * decomp.k


def test_evaluate_rows_stops_at_the_budget():
    fn = get_function("f14", 40, 1)
    decomp = ideal_decompose(fn, 2)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=4), seed=1)
    sub = decomp.subproblems[3]
    rows = np.random.default_rng(0).uniform(sub.lower, sub.upper, (5, sub.s))
    values = run.evaluate_rows(sub, rows)
    assert values.tolist() == [fn(embed(run.context.x, sub, r)) for r in rows[:3]]
    assert run.budget.exhausted
    assert run.evaluate_rows(sub, rows).size == 0


def small_run(max_fe=10**6):
    fn = get_function("f09", 40, 1)  # a separable block and ten rotated groups
    decomp = ideal_decompose(fn, 7)
    return CooperativeRun(fn, decomp, RunParams(max_fe=max_fe), seed=1)


def test_evaluate_rows_leaves_the_context_untouched():
    run = small_run()
    x, terms = run.context.x.copy(), run.context.terms.copy()
    rng = np.random.default_rng(0)
    for sub in run.decomposition.subproblems:
        run.evaluate_rows(sub, rng.uniform(sub.lower, sub.upper, (3, sub.s)))
        assert run.context.x.tolist() == x.tolist()
        assert run.context.terms.tolist() == terms.tolist()


@pytest.mark.parametrize("shape", [(7,), (2, 6), (2, 8), (0,), (1, 1, 7)])
def test_evaluate_rows_rejects_rows_of_the_wrong_shape(shape):
    run = small_run()
    sub = run.decomposition.subproblems[0]
    assert sub.s == 7
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        run.evaluate_rows(sub, np.zeros(shape))
    assert run.budget.used == 1


@pytest.mark.parametrize("b, max_fe", [(1, 10**6), (2, 10**6), (100, 10**6), (100, 40)])
def test_evaluate_rows_makes_one_evaluate_call_with_known_terms_per_row(b, max_fe, monkeypatch):
    # perfbench's traced run counts charged evaluations as evaluate calls
    run = small_run(max_fe)
    calls = []
    evaluate = BenchmarkFunction.evaluate

    def counted(self, x, known=None):
        calls.append(known)
        return evaluate(self, x, known=known)

    monkeypatch.setattr(BenchmarkFunction, "evaluate", counted)
    sub = run.decomposition.subproblems[2]
    rows = np.random.default_rng(b).uniform(sub.lower, sub.upper, (b, sub.s))
    values = run.evaluate_rows(sub, rows)
    charged = min(b, max_fe - 1)
    assert values.size == charged
    assert run.budget.used == 1 + charged
    assert len(calls) == charged
    # the rows of one batch share one KnownTerms, built from the context
    known = calls[0]
    assert all(k is known for k in calls)
    assert known.fn is run.fn
    assert known.kept == tuple(run.context.terms.tolist())
    assert known.groups == run.touched[2]


@pytest.mark.parametrize(
    "name, value",
    [("p", 20.5), ("memory_size", 2.0), ("d_factor", 1.5), ("q", True), ("visit_len", True),
     ("max_fe", 5000.0)],
)
def test_run_params_reject_values_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        RunParams(**{"max_fe": 5000, "p": 20, name: value})


def test_run_params_accept_numpy_integers():
    params = RunParams(max_fe=np.int64(5000), p=np.int32(20), q=np.int64(4))
    assert (params.max_fe, params.p, params.q) == (5000, 20, 4)


@pytest.mark.parametrize("max_fe", [2.5, 3.0, True, "3"])
def test_budget_rejects_a_max_fe_that_is_not_an_integer(max_fe):
    # unchecked, 2.5 would truncate to 2 evaluations and True allow one
    with pytest.raises(ValueError, match=re.escape(f"max_fe must be an integer, got {max_fe!r}")):
        FeBudget(max_fe)


def test_budget_accepts_a_numpy_integer():
    budget = FeBudget(np.int64(2))
    budget.spend()
    budget.spend()
    assert budget.exhausted and budget.max_fe == 2
    with pytest.raises(BudgetExhausted):
        budget.spend()
