import re

import numpy as np
import pytest

from coopevo.benchmarks import FUNCTION_IDS, BenchmarkFunction, get_function, make_separable
from coopevo.decomposition import embed, ideal_decompose
from coopevo.runtime import BudgetExhausted, CooperativeRun, FeBudget, RunParams
from coopevo.shade_cc import ShadeCC
from coopevo.surrogate_cc import SurrogateCC

BATCH_SIZES = (1, 2, 100)


def check_rows(run, g, rng):
    """Score fresh rows of every batch size of sub-problem ``g`` through
    ``evaluate_rows`` and compare each value bit for bit with an evaluation
    of the embedded point: a full one for the first row of each batch, and
    for the others one from
    the context's terms as the full path computes them (not the run's kept
    terms), which ``test_benchmarks`` checks against the per-group formula.
    Returns the last batch and its values."""
    fn, x, idx = run.fn, run.context.x, run.subproblems[g]
    known = fn.known(fn.terms(x), fn.groups_of(idx))
    for b in BATCH_SIZES:
        rows = rng.uniform(fn.lower[idx], fn.upper[idx], (b, idx.size))
        used = run.budget.used
        got = run.evaluate_rows(g, rows)
        want = [fn(embed(x, idx, rows[0]))]
        want += [fn.evaluate(embed(x, idx, r), known=known) for r in rows[1:]]
        assert got.tolist() == want, (fn.fid, g, b)
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
        for g in range(len(decomp)):
            rows, values = check_rows(run, g, rng)
            best = int(np.argmin(values))
            run.adopt(g, rows[best], float(values[best]))
            assert run.context.f == fn(run.context.x)
            assert run.context.terms.tolist() == fn.terms(run.context.x).tolist()


def test_rotated_sub_problems_touch_only_their_own_group():
    fn = get_function("f09", 40, 1)  # a separable block and ten rotated groups
    decomp = ideal_decompose(fn, 7)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    for idx, touched in zip(run.subproblems, run.touched):
        (pos,) = touched
        assert set(idx.tolist()) <= set(fn.groups[pos].indices)
    # every sub-problem of a one-group function touches that group
    fn = get_function("f01", 40, 1)
    decomp = ideal_decompose(fn, 7)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=10), seed=1)
    assert run.touched == [(0,)] * len(decomp)


def test_evaluate_rows_stops_at_the_budget():
    fn = get_function("f14", 40, 1)
    decomp = ideal_decompose(fn, 2)
    run = CooperativeRun(fn, decomp, RunParams(max_fe=4), seed=1)
    idx = run.subproblems[3]
    lower, upper = fn.lower[idx], fn.upper[idx]
    rows = np.random.default_rng(0).uniform(lower, upper, (5, idx.size))
    values = run.evaluate_rows(3, rows)
    assert values.tolist() == [fn(embed(run.context.x, idx, r)) for r in rows[:3]]
    assert run.budget.exhausted
    assert run.evaluate_rows(3, rows).size == 0


def small_run(max_fe=10**6):
    fn = get_function("f09", 40, 1)  # a separable block and ten rotated groups
    decomp = ideal_decompose(fn, 7)
    return CooperativeRun(fn, decomp, RunParams(max_fe=max_fe), seed=1)


@pytest.mark.parametrize("optimizer", [ShadeCC, SurrogateCC])
def test_optimizers_take_only_a_seed_that_is_an_integer_ge_0(optimizer):
    # unchecked, True ran and was recorded as the seed, and 2.5 and -1 failed
    # inside numpy's SeedSequence
    fn = make_separable("sphere", 20, seed=1)
    decomp, params = ideal_decompose(fn, 5), RunParams(max_fe=300, p=20)
    for seed in (True, 2.5, -1):
        message = re.escape(f"seed must be an integer >= 0, got {seed!r}")
        with pytest.raises(ValueError, match=message):
            optimizer(fn, decomp, params, seed)
    run = optimizer(fn, decomp, params, np.int64(3))
    assert type(run.seed) is int and run.seed == 3
    record = run.run()
    assert type(record.seed) is int and record.seed == 3
    assert record.final_f == optimizer(fn, decomp, params, 3).run().final_f


@pytest.mark.parametrize("optimizer", [ShadeCC, SurrogateCC])
def test_a_decomposition_built_for_another_box_searches_the_functions_box(optimizer):
    # a sub-problem is its indices, so f02's decomposition (+-5 box) run on
    # f01 (+-100 box) searches f01's box, with every evaluation accounted for
    fn, params = get_function("f01", 20, 1), RunParams(max_fe=2000, p=20, visit_len=3)
    decomp = ideal_decompose(get_function("f02", 20, 1), 5)
    run = optimizer(fn, decomp, params, seed=1)
    record = run.run()
    charged = run.min_budget(decomp, params) + record.loop_real_evals + record.reeval_evals
    assert run.budget.used == record.rows[-1].fe_used == charged == params.max_fe
    for st, idx in zip(run.subs, run.subproblems, strict=True):
        assert st.lower.tolist() == fn.lower[idx].tolist() == [-100.0] * idx.size
        assert st.upper.tolist() == fn.upper[idx].tolist() == [100.0] * idx.size
    kinds = {"population": [st.pop for st in run.subs],
             "inferior archive": [st.inferior for st in run.subs]}
    if optimizer is SurrogateCC:
        kinds["training archive"] = [archive.points for archive in run.archives]
    for kind, parts in kinds.items():
        x = np.concatenate(parts)
        assert np.all((x >= -100.0) & (x <= 100.0)), kind
        assert np.any(np.abs(x) > 5.0), kind


def test_evaluate_rows_leaves_the_context_untouched():
    run = small_run()
    x, terms = run.context.x.copy(), run.context.terms.copy()
    rng = np.random.default_rng(0)
    for g, idx in enumerate(run.subproblems):
        lower, upper = run.fn.lower[idx], run.fn.upper[idx]
        run.evaluate_rows(g, rng.uniform(lower, upper, (3, idx.size)))
        assert run.context.x.tolist() == x.tolist()
        assert run.context.terms.tolist() == terms.tolist()


@pytest.mark.parametrize("shape", [(7,), (2, 6), (2, 8), (0,), (1, 1, 7)])
def test_evaluate_rows_rejects_rows_of_the_wrong_shape(shape):
    run = small_run()
    assert run.subproblems[0].size == 7
    with pytest.raises(ValueError, match=re.escape(f"rows must have shape (any, 7), got {shape}")):
        run.evaluate_rows(0, np.zeros(shape))
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
    idx = run.subproblems[2]
    lower, upper = run.fn.lower[idx], run.fn.upper[idx]
    rows = np.random.default_rng(b).uniform(lower, upper, (b, idx.size))
    values = run.evaluate_rows(2, rows)
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
    span = {"p": ">= 4", "q": "in 1..20"}.get(name, ">= 1")
    message = re.escape(f"{name} must be an integer {span}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        RunParams(**{"max_fe": 5000, "p": 20, name: value})


def test_run_params_accept_numpy_integers():
    params = RunParams(max_fe=np.int64(5000), p=np.int32(20), q=np.int64(4))
    assert (params.max_fe, params.p, params.q) == (5000, 20, 4)


@pytest.mark.parametrize("max_fe", [2.5, 3.0, True, "3"])
def test_budget_rejects_a_max_fe_that_is_not_an_integer(max_fe):
    # unchecked, 2.5 would truncate to 2 evaluations and True allow one
    message = re.escape(f"max_fe must be an integer >= 1, got {max_fe!r}")
    with pytest.raises(ValueError, match=message):
        FeBudget(max_fe)


def test_budget_accepts_a_numpy_integer():
    budget = FeBudget(np.int64(2))
    budget.spend()
    budget.spend()
    assert budget.exhausted and budget.max_fe == 2
    with pytest.raises(BudgetExhausted):
        budget.spend()
