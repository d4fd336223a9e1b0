import numpy as np
import pytest

from coopevo.benchmarks import get_function, make_separable
from coopevo.decomposition import embed, ideal_decompose
from coopevo.runtime import AuditFailure, BudgetExhausted, ContextState, FeBudget, RunParams
from coopevo.surrogate_cc import SurrogateCC, initialization_cost


def small_problem(base="sphere", dim=10, s_sep=5, seed=1):
    fn = make_separable(base, dim, seed)
    decomp = ideal_decompose(fn, s_sep)
    return fn, decomp


def make_opt(base="sphere", dim=10, s_sep=5, seed=1, audit=False, **kw):
    fn, decomp = small_problem(base, dim, s_sep, seed)
    defaults = dict(max_fe=5000, p=20, q=4, d_factor=5, memory_size=10)
    defaults.update(kw)
    params = RunParams(**defaults)
    return fn, decomp, SurrogateCC(fn, decomp, params, seed=seed, audit=audit)


# --- the charged row evaluator -----------------------------------------------

def set_context(opt, x, max_fe):
    """Give ``opt`` the context ``x`` and a fresh budget of ``max_fe``
    evaluations, for probing ``evaluate_rows`` directly."""
    opt.context = ContextState(x, opt.fn(x), opt.fn.terms(x))
    opt.budget = FeBudget(max_fe)


def test_improvement_of_own_component_is_zero():
    fn, decomp, opt = make_opt()
    x = np.random.default_rng(0).uniform(fn.lower, fn.upper)
    set_context(opt, x, 10)
    sub = decomp.subproblems[1]
    improvement = opt.context.f - opt.evaluate_rows(sub, x[sub.indices][None, :])
    assert improvement.tolist() == [0.0]
    assert opt.budget.used == 1


def test_improvement_sign_means_strictly_better():
    fn, decomp, opt = make_opt()
    rng = np.random.default_rng(1)
    x = rng.uniform(fn.lower, fn.upper)
    set_context(opt, x, 100)
    sub = decomp.subproblems[0]
    rows = rng.uniform(sub.lower, sub.upper, (20, sub.s))
    improvement = opt.context.f - opt.evaluate_rows(sub, rows)
    better = [fn(embed(x, sub, x_g)) < opt.context.f for x_g in rows]
    assert (improvement > 0).tolist() == better
    assert opt.budget.used == 20


def test_improvement_independent_of_other_components():
    # additively separable: the same sub-solution gets the same improvement
    # whatever the rest of the context looks like, as long as the context's
    # own block is fixed
    fn, decomp, opt = make_opt(base="rastrigin")
    sub = decomp.subproblems[0]
    rng = np.random.default_rng(2)
    x_g = rng.uniform(sub.lower, sub.upper)
    own = rng.uniform(sub.lower, sub.upper)

    values = []
    for _ in range(5):
        ctx_x = rng.uniform(fn.lower, fn.upper)
        ctx_x[sub.indices] = own
        set_context(opt, ctx_x, 5)
        values.append(float(opt.context.f - opt.evaluate_rows(sub, x_g[None, :])[0]))
    assert np.all(np.abs(np.diff(values)) <= 1e-9 * max(1.0, abs(values[0])))


def test_improvement_budget_exhaustion():
    # three evaluations left for five rows: the first three are charged and
    # returned in row order, then nothing more is charged
    fn, decomp, opt = make_opt()
    rng = np.random.default_rng(3)
    x = rng.uniform(fn.lower, fn.upper)
    set_context(opt, x, 3)
    sub = decomp.subproblems[0]
    rows = rng.uniform(sub.lower, sub.upper, (5, sub.s))
    values = opt.evaluate_rows(sub, rows)
    assert values.tolist() == [fn(embed(x, sub, x_g)) for x_g in rows[:3]]
    assert opt.budget.used == opt.budget.max_fe == 3
    assert opt.evaluate_rows(sub, rows).size == 0
    assert opt.budget.used == 3
    with pytest.raises(BudgetExhausted):
        opt.budget.spend()
    assert opt.budget.used == 3


# --- initialization ----------------------------------------------------------

def test_initialization_cost_exact():
    # two blocks of 20 variables: d = 100, p = 100 -> 1 + 2 * 100 evaluations
    fn, decomp = small_problem(dim=40, s_sep=20)
    params = RunParams(max_fe=500, p=100, q=10, d_factor=5)
    assert initialization_cost(decomp, params) == 201
    opt = SurrogateCC(fn, decomp, params, seed=1)
    assert opt.budget.used == 201


def test_initialization_cost_with_small_archive():
    # s=5 -> d=25 < p: the pool still holds p samples per sub-problem
    fn, decomp = small_problem(dim=10, s_sep=5)
    params = RunParams(max_fe=500, p=40, q=4, d_factor=5)
    assert initialization_cost(decomp, params) == 1 + 2 * 40
    opt = SurrogateCC(fn, decomp, params, seed=1)
    assert opt.budget.used == 81
    for st, archive in zip(opt.subs, opt.archives):
        assert len(archive) == 25
        assert st.pop.shape == (40, 5)


def test_archive_size_is_five_times_dimension():
    fn, decomp = small_problem(dim=40, s_sep=20)
    opt = SurrogateCC(fn, decomp, RunParams(max_fe=500, p=100), seed=1)
    assert all(len(archive) == 100 for archive in opt.archives)


def test_initialization_rejects_insufficient_budget():
    fn, decomp = small_problem(dim=40, s_sep=20)
    with pytest.raises(ValueError):
        SurrogateCC(fn, decomp, RunParams(max_fe=200, p=100), seed=1)


def test_initial_state_deterministic_per_seed():
    _, _, a = make_opt(seed=7)
    _, _, b = make_opt(seed=7)
    for sa, sb in zip(a.subs, b.subs):
        assert np.array_equal(sa.pop, sb.pop)
        assert np.array_equal(sa.pop_vals, sb.pop_vals)
        assert np.array_equal(sa.inferior, sb.inferior)
    for ra, rb in zip(a.archives, b.archives):
        assert np.array_equal(ra.points, rb.points)
    assert np.array_equal(a.context.x, b.context.x)
    assert a.context.f == b.context.f


def test_population_entries_are_real_evaluated():
    fn, decomp, opt = make_opt()
    for st in opt.subs:
        for x_g, val in zip(st.pop, st.pop_vals):
            expect = opt.context.f - fn(embed(opt.context.x, st.sub, x_g))
            assert val == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_memory_initialized_to_half():
    _, _, opt = make_opt()
    for st in opt.subs:
        assert np.all(st.memory.f == 0.5)
        assert np.all(st.memory.cr == 0.5)


# --- single generation -------------------------------------------------------

def test_step_consumes_exactly_q_evaluations():
    _, _, opt = make_opt(q=4)
    used = opt.budget.used
    report = opt.step()
    assert opt.budget.used - used == 4
    assert report.real_evals == 4
    assert report.trials == 20
    assert not report.truncated and not report.fallback


def test_step_round_robin_cursor():
    _, _, opt = make_opt()
    assert opt.step().sub_id == 0
    assert opt.step().sub_id == 1
    assert opt.step().sub_id == 0


def test_context_update_rebases_contributor_to_zero():
    _, _, opt = make_opt(seed=3)
    for _ in range(10):
        g = opt.cursor
        report = opt.step()
        if report.context_updated:
            st = opt.subs[g]
            assert st.pop_vals.max() == 0.0
            break
    else:
        pytest.fail("no context update in 10 generations")


def test_context_fitness_matches_fresh_evaluation():
    fn, _, opt = make_opt(base="rastrigin", seed=5)
    updates = 0
    for _ in range(40):
        report = opt.step()
        if report.context_updated:
            updates += 1
            fresh = fn(opt.context.x)
            assert abs(fresh - opt.context.f) <= 1e-9 * max(1.0, abs(fresh))
    assert updates > 0


def test_context_fitness_never_increases():
    _, _, opt = make_opt(base="elliptic", seed=2)
    previous = opt.context.f
    for _ in range(30):
        opt.step()
        assert opt.context.f <= previous
        previous = opt.context.f


def test_context_updates_increment_only_on_update():
    _, _, opt = make_opt(seed=4)
    for _ in range(20):
        before = opt.record.context_updates
        report = opt.step()
        assert opt.record.context_updates == before + int(report.context_updated)


def test_audit_mode_runs_clean():
    _, _, opt = make_opt(base="rastrigin", seed=6, audit=True)
    for _ in range(30):
        opt.step()
    assert opt.record.context_updates > 0
    assert opt.record.max_audit_rel_err <= 1e-9
    assert opt.record.max_crosscheck_err <= 1e-9


def rotated_opt(audit=True):
    fn = get_function("f14", 40, 1)  # twenty rotated groups of two
    decomp = ideal_decompose(fn, 2)
    params = RunParams(max_fe=2000, p=20, q=4, d_factor=5, memory_size=10)
    return fn, decomp, SurrogateCC(fn, decomp, params, seed=1, audit=audit)


def test_audit_mode_runs_clean_on_rotated_groups():
    # rows of f14 reuse the context's kept terms, which the audit checks
    _, decomp, opt = rotated_opt()
    for _ in range(2 * decomp.k):
        opt.step()
    assert opt.record.context_updates > decomp.k // 2
    assert opt.record.max_audit_rel_err <= 1e-9
    assert opt.record.max_crosscheck_err <= 1e-9


def test_audit_catches_a_corrupted_kept_term():
    fn, decomp, opt = rotated_opt()
    # the group of the sub-problem visited last in the round: no adopt before
    # that visit recomputes it
    (pos,) = fn.groups_of(decomp.subproblems[-1].indices)
    opt.context.terms[pos] += 1e-6
    with pytest.raises(AuditFailure, match=rf"kept context terms of groups \[{pos}\]"):
        for _ in range(decomp.k - 1):
            opt.step()


def test_step_with_stub_predictor_skips_training():
    _, _, opt = make_opt()
    calls = []

    def stub(batch):
        calls.append(batch.copy())
        return np.zeros(len(batch))

    report = opt.step(predictor=stub)
    assert len(calls) == 2  # parents, then trials
    assert calls[0].shape == (20, 5)
    assert calls[1].shape == (20, 5)
    assert report.real_evals == 4


# --- full runs ----------------------------------------------------------------

def test_run_stops_exactly_at_budget():
    _, _, opt = make_opt(max_fe=500)
    record = opt.run()
    assert opt.budget.used == 500
    assert record.final_f == opt.context.f


def test_run_budget_equal_to_initialization():
    fn, decomp = small_problem(dim=40, s_sep=20)
    params = RunParams(max_fe=201, p=100)
    record = SurrogateCC(fn, decomp, params, seed=1).run()
    assert len(record.rows) == 1  # only the initial point
    assert record.rows[0].fe_used == 201


def test_trace_f_values_non_increasing():
    _, _, opt = make_opt(base="elliptic", max_fe=2000)
    record = opt.run()
    values = [row.f_best for row in record.rows]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_trace_deterministic_per_seed():
    _, _, a = make_opt(seed=11, max_fe=1000)
    _, _, b = make_opt(seed=11, max_fe=1000)
    ra, rb = a.run(), b.run()
    assert ra.rows == rb.rows
    assert ra.final_f == rb.final_f
    _, _, c = make_opt(seed=12, max_fe=1000)
    assert c.run().rows != ra.rows


def test_partial_final_generation_truncates_cleanly():
    # budget that ends mid-reevaluation: the last generation evaluates what
    # it can, state stays consistent, run terminates
    fn, decomp = small_problem()
    probe = RunParams(max_fe=10_000, p=20, q=4)
    init = initialization_cost(decomp, probe)
    params = RunParams(max_fe=init + 4 * 3 + 2, p=20, q=4)
    opt = SurrogateCC(fn, decomp, params, seed=1)
    record = opt.run()
    assert opt.budget.used == opt.budget.max_fe
    assert record.loop_real_evals == 4 * 3 + 2
    last = record.rows[-1]
    assert last.fe_used == params.max_fe
    for st, archive in zip(opt.subs, opt.archives):
        assert st.pop.shape == (20, 5)
        assert len(archive) == 25


def test_fallback_generations_evaluate_every_trial():
    # d_factor=1 keeps only s samples per archive, one fewer than an RBF
    # fit needs, so every generation falls back to real evaluation
    _, decomp = small_problem()
    init = initialization_cost(decomp, RunParams(max_fe=1, p=20, d_factor=1))
    _, _, opt = make_opt(max_fe=init + 67, p=20, q=4, d_factor=1)
    reports = []
    while not opt.budget.exhausted:
        reports.append(opt.step())
    assert all(r.fallback for r in reports)
    assert [r.real_evals for r in reports] == [20, 20, 20, 7]
    assert [r.truncated for r in reports] == [False, False, False, True]
    assert opt.record.fallback_generations == len(reports) == opt.generation
    assert opt.budget.used == init + sum(r.real_evals for r in reports)


def test_fe_conservation_property_random_configs():
    rng = np.random.default_rng(99)
    for _ in range(8):
        dim = int(rng.choice([6, 10, 12]))
        s_sep = int(rng.choice([2, 3, 5]))
        p = int(rng.choice([8, 12]))
        q = int(rng.integers(1, p + 1))
        fn = make_separable("sphere", dim, int(rng.integers(1, 100)))
        decomp = ideal_decompose(fn, s_sep)
        params = RunParams(max_fe=1, p=p, q=q, d_factor=5)
        init = initialization_cost(decomp, params)
        budget = init + int(rng.integers(0, 12)) * q
        params = RunParams(max_fe=budget, p=p, q=q, d_factor=5)
        opt = SurrogateCC(fn, decomp, params, seed=int(rng.integers(1000)))
        record = opt.run()
        generations = len(record.rows) - 1
        assert record.fallback_generations == 0
        assert opt.budget.used == init + q * generations == budget


def test_sphere_sanity_regression():
    # pinned after the first implementation run: a 100-d separable sphere
    # drops by far more than three orders of magnitude in 2e4 evaluations
    fn = make_separable("sphere", 100, seed=1)
    decomp = ideal_decompose(fn, 20)
    record = SurrogateCC(fn, decomp, RunParams(max_fe=20000), seed=1).run()
    initial = record.rows[0].f_best
    assert record.final_f < initial * 1e-3
