import numpy as np
import pytest

from coopevo.benchmarks import FUNCTION_IDS, BenchmarkFunction, get_function, make_separable
from coopevo.decomposition import ideal_decompose
from coopevo.runtime import CooperativeRun, GenRow, RunParams
from coopevo.shade import SubState
from coopevo.shade_cc import ShadeCC
from coopevo.surrogate_cc import SurrogateCC


def make_cc(dim=10, s_sep=5, seed=1, **kw):
    fn = make_separable("sphere", dim, seed)
    decomp = ideal_decompose(fn, s_sep)
    defaults = dict(max_fe=3000, p=20, visit_len=5)
    defaults.update(kw)
    return fn, decomp, ShadeCC(fn, decomp, RunParams(**defaults), seed=seed)


def test_initialization_costs_one_evaluation():
    _, _, cc = make_cc()
    assert cc.budget.used == 1  # only the initial context vector


def test_fe_delta_per_generation_is_population_size():
    _, _, cc = make_cc(p=20, visit_len=3, max_fe=1 + 20 + 3 * 20 + 5)
    record = cc.run()
    gens = [row for row in record.rows if row.generation > 0]
    # first visit: 20 reevaluations then 20 per generation
    assert gens[0].fe_used == 1 + 20 + 20
    assert gens[1].fe_used == 1 + 20 + 40
    assert gens[2].fe_used == 1 + 20 + 60


def test_reevaluation_charged_on_every_visit():
    _, _, cc = make_cc(p=10, visit_len=2, max_fe=1 + 3 * (10 + 2 * 10))
    record = cc.run()
    assert record.reeval_evals == 3 * 10
    assert record.loop_real_evals == 3 * 2 * 10


def test_trace_deterministic_per_seed():
    _, _, a = make_cc(seed=9)
    _, _, b = make_cc(seed=9)
    ra, rb = a.run(), b.run()
    assert ra.rows == rb.rows
    assert ra.final_f == rb.final_f


def test_trace_non_increasing():
    _, _, cc = make_cc(max_fe=5000)
    record = cc.run()
    values = [row.f_best for row in record.rows]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_context_updated_after_visit():
    fn, _, cc = make_cc(seed=3)
    record = cc.run()
    assert record.context_updates > 0
    # the kept context fitness is the real value of the kept vector
    assert abs(fn(cc.context.x) - cc.context.f) <= 1e-9 * max(1.0, abs(cc.context.f))


def test_budget_exhaustion_truncates_cleanly():
    _, _, cc = make_cc(p=10, visit_len=100, max_fe=1 + 10 + 10 * 3 + 4)
    record = cc.run()
    assert cc.budget.used == cc.budget.max_fe
    assert record.final_f == cc.context.f


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_budget_ends_inside_revisit_refresh(seed):
    # the budget runs out ``off`` evaluations into the second round's first
    # refresh: that visit charges only what it refreshed, closes no
    # generation and traces one row at the end of the budget
    p, visit_len = 10, 3
    k = len(make_cc()[1])
    for off in range(p):
        max_fe = 1 + k * (p + visit_len * p) + off
        fn, _, cc = make_cc(seed=seed, p=p, visit_len=visit_len, max_fe=max_fe)
        record = cc.run()
        assert 1 + record.reeval_evals + record.loop_real_evals == max_fe
        assert record.reeval_evals == k * p + off
        assert abs(fn(cc.context.x) - cc.context.f) <= 1e-9 * max(1.0, abs(cc.context.f))
        assert cc.generation == k * visit_len
        gens = [row for row in record.rows if row.generation > 0]
        assert len(gens) == k * visit_len + (off > 0)
        last_closed = gens[k * visit_len - 1]
        assert last_closed.sub_id == k - 1
        assert last_closed.fe_used == max_fe - off
        if off:
            assert record.rows[-1] == GenRow(k * visit_len, 0, max_fe, record.final_f)


@pytest.mark.parametrize("cls", [SurrogateCC, ShadeCC], ids=lambda cls: cls.algorithm)
def test_trace_ends_at_the_last_charged_evaluation(cls):
    # every small budget on four sub-problems of five, wherever it runs out:
    # in sacc's initial pool, in a generation, or in a shade-cc refresh
    fn = get_function("f01", 20, 1)
    decomp = ideal_decompose(fn, 5)
    params = dict(p=4, q=2, visit_len=3)
    start = cls.min_budget(decomp, RunParams(max_fe=1, **params))
    for max_fe in range(start, start + 80):
        opt = cls(fn, decomp, RunParams(max_fe=max_fe, **params), seed=1)
        record = opt.run()
        assert opt.budget.used == max_fe
        assert (record.rows[-1].fe_used, record.rows[-1].f_best) == (max_fe, record.final_f)
        fes = [row.fe_used for row in record.rows]
        assert fes == sorted(fes), max_fe


@pytest.mark.parametrize("fid", ["f01", "f05", "f10", "f14", "f17"])
def test_context_keeps_exact_terms_over_a_whole_run(fid):
    # check the context's kept terms at the end of a run; shade-cc adopts a
    # real fitness, so both checks are exact
    fn = get_function(fid, 40, 1)
    decomp = ideal_decompose(fn, 7)
    cc = ShadeCC(fn, decomp, RunParams(max_fe=3000, p=20, visit_len=3), seed=2)
    record = cc.run()
    assert record.context_updates > 0
    assert cc.context.terms.tolist() == fn.terms(cc.context.x).tolist()
    assert cc.context.f == fn(cc.context.x)


def test_context_gap_is_zero_on_the_whole_suite():
    # the harvest adopts a value evaluated under the current context, so
    # the book-kept context fitness is the sum of its terms on every
    # function, the split ackley groups of f03, f06 and f11 included
    for fid in FUNCTION_IDS:
        fn = get_function(fid, 40, 1)
        decomp = ideal_decompose(fn, 5)
        record = ShadeCC(fn, decomp, RunParams(max_fe=1501, p=20, visit_len=3), seed=3).run()
        assert record.context_updates > 0, fid
        assert record.max_context_gap == 0.0, fid


def test_improves_on_single_block_problem():
    # one 10-d block: every visit optimizes the whole problem, so a few
    # thousand evaluations must improve the random start substantially
    _, _, cc = make_cc(dim=10, s_sep=10, max_fe=5000, visit_len=10)
    record = cc.run()
    assert record.final_f < record.rows[0].f_best * 1e-2


def test_shares_operator_code_with_surrogate_optimizer():
    # parity guard: both optimizers keep their per-sub-problem search in the
    # one shared state, and neither module binds the SHADE operators itself,
    # so the comparison isolates the evaluation policy; nor does the run
    # scaffolding, so SHADE's draw order is stated only in shade.py
    import coopevo.runtime as runtime
    import coopevo.shade_cc as shade_cc
    import coopevo.surrogate_cc as surrogate_cc

    fn, decomp, cc = make_cc()
    sacc = SurrogateCC(fn, decomp, RunParams(max_fe=3000, p=20), seed=1)
    for opt in (cc, sacc):
        assert isinstance(opt, CooperativeRun)
        assert len(opt.subs) == len(decomp)
        assert all(type(st) is SubState for st in opt.subs)
    trial_ops = ("sample_params", "pbest_fraction", "mutate_crossover")
    for module, names in (
        (shade_cc, trial_ops + ("ParameterMemory",)),
        (surrogate_cc, trial_ops + ("ParameterMemory",)),
        (runtime, trial_ops),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__} binds {name}"


@pytest.mark.parametrize("cls", [SurrogateCC, ShadeCC], ids=lambda cls: cls.algorithm)
def test_shared_start_and_dimension_check(cls):
    fn, decomp, cc = make_cc(seed=5)
    opt = cls(fn, decomp, RunParams(max_fe=3000, p=20), seed=5)
    # the same seed draws the same charged starting context in both optimizers
    assert np.array_equal(opt.context.x, cc.context.x)
    assert opt.context.f == cc.context.f

    wider = make_separable("sphere", 20, 5)
    with pytest.raises(ValueError, match="groups do not cover 0..n-1"):
        cls(wider, decomp, RunParams(max_fe=3000, p=20), seed=5)


# budgets that end inside a generation (51 and 41 are the sacc set-up costs
# at d_factor 5 and 1 on the 10-d sphere, 401 on f14 at 40-d); sacc at
# d_factor 1 falls back to real evaluation of every trial in every
# generation. The sphere is one separable group and each sub-problem of f14
# owns one of its 20 rotated groups; either way a row recomputes only the
# groups its sub-problem touches from the context's terms.
CHARGE_CASES = {
    "sacc": (SurrogateCC, dict(p=20, q=4), 51 + 4 * 3 + 2, None),
    "sacc-fallback": (SurrogateCC, dict(p=20, q=4, d_factor=1), 41 + 67, None),
    "shade-cc": (ShadeCC, dict(p=20, visit_len=5), 1 + 2 * (20 + 5 * 20) + 20 + 7, None),
    "sacc-rotated": (SurrogateCC, dict(p=20, q=4), 401 + 4 * 3 + 2, "f14"),
    "shade-cc-rotated": (ShadeCC, dict(p=20, visit_len=5), 1 + 2 * (20 + 5 * 20) + 20 + 7, "f14"),
}


@pytest.mark.parametrize("case", sorted(CHARGE_CASES))
def test_every_charge_after_x0_goes_through_evaluate_rows(case, monkeypatch):
    # the charged x0 is the one evaluation outside the row evaluator
    cls, kw, max_fe, fid = CHARGE_CASES[case]
    rows = []
    evaluate_rows = CooperativeRun.evaluate_rows

    def counted(self, g, batch):
        values = evaluate_rows(self, g, batch)
        rows.append(values.size)
        return values

    monkeypatch.setattr(CooperativeRun, "evaluate_rows", counted)
    if fid is None:
        fn, s_sep = make_separable("sphere", 10, 1), 5
    else:
        fn, s_sep = get_function(fid, 40, 1), 2
    # every objective call is charged, one per row: perfbench counts charged
    # evaluations as evaluate calls
    calls = []
    evaluate = BenchmarkFunction.evaluate

    def counted_evaluate(self, *args, **kwargs):
        calls.append(kwargs.get("known") is not None)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(BenchmarkFunction, "evaluate", counted_evaluate)
    decomp = ideal_decompose(fn, s_sep)
    opt = cls(fn, decomp, RunParams(max_fe=max_fe, **kw), seed=1)
    record = opt.run()
    assert opt.budget.used == max_fe == 1 + sum(rows)
    assert len(calls) == opt.budget.used
    # every row after x0 reuses the context's terms
    assert sum(calls) == max_fe - 1
    if case == "sacc-fallback":
        assert record.fallback_generations == opt.generation > 0
    else:
        assert record.fallback_generations == 0
