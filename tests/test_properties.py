"""Run invariants as properties: both optimizers, on 20-d suite functions
whose sub-problems do not interact, with every run parameter drawn.

Decompositions are drawn as plain index lists: ``ideal_decompose``'s for
the 15 functions the differential-grouping oracle in
``test_decomposition`` calls non-interacting, and random partitions for
f01 and f02, whose terms are sums over single variables, so that every
partition of them is non-interacting. f03, f06 and f11 are left out: their
split ackley group makes ``sacc``'s stored improvements go stale (ROADMAP
item 12), and the ``final_f`` property fails on them.

The examples are derandomized and no example database is written, so
every run of the suite draws the same ones.
"""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit import AUDIT_RTOL
from coopevo.benchmarks import FUNCTION_IDS, get_function
from coopevo.decomposition import Decomposition, ideal_decompose
from coopevo.runtime import RunParams
from coopevo.shade_cc import ShadeCC
from coopevo.surrogate_cc import SurrogateCC, initialization_cost

DIM = 20
NON_INTERACTING = tuple(fid for fid in FUNCTION_IDS if fid not in ("f03", "f06", "f11"))
ANY_PARTITION = ("f01", "f02")


@functools.lru_cache(maxsize=None)
def suite_function(fid):
    return get_function(fid, DIM, 1)


@st.composite
def index_lists(draw, fid):
    """A partition of 0..DIM-1 as plain lists of ints."""
    if fid in ANY_PARTITION:
        order = draw(st.permutations(range(DIM)))
        cuts = sorted(draw(st.sets(st.integers(1, DIM - 1), max_size=6)))
        return [order[a:b] for a, b in zip([0, *cuts], [*cuts, DIM])]
    s_sep = draw(st.integers(1, DIM))
    return [idx.tolist() for idx in ideal_decompose(suite_function(fid), s_sep).subproblems]


@st.composite
def runs(draw, optimizer):
    """(fn, index lists, params, seed) for one run of ``optimizer``."""
    fid = draw(st.sampled_from(NON_INTERACTING))
    lists = draw(index_lists(fid))
    p = draw(st.integers(4, 24))
    params = RunParams(max_fe=1, p=p, q=draw(st.integers(1, p)),
                       d_factor=draw(st.integers(1, 5)), visit_len=draw(st.integers(1, 6)))
    need = optimizer.min_budget(Decomposition(lists), params)
    params = replace(params, max_fe=need + draw(st.integers(0, 150)))
    return suite_function(fid), lists, params, draw(st.integers(0, 2**32 - 1))


def check_invariants(optimizer, fn, lists, params, seed):
    decomp = Decomposition(lists)
    run = optimizer(fn, decomp, params, seed)
    record = run.run()
    fe = [row.fe_used for row in record.rows]
    f_best = [row.f_best for row in record.rows]

    assert run.budget.used == params.max_fe == fe[-1]
    assert all(a <= b for a, b in zip(fe, fe[1:]))
    assert all(a >= b for a, b in zip(f_best, f_best[1:]))
    assert f_best[-1] == record.final_f
    assert run.context.terms.tolist() == fn.terms(run.context.x).tolist()
    fresh = fn(record.final_x)
    assert abs(record.final_f - fresh) <= AUDIT_RTOL * max(1.0, abs(fresh))
    assert record.max_context_gap < AUDIT_RTOL
    if optimizer is SurrogateCC:
        # the initial pool, as README's formula counts it, then the first row
        formula = 1 + sum(max(params.d_factor * len(idx), params.p) for idx in lists)
        assert fe[0] == initialization_cost(decomp, params) == formula


@pytest.mark.parametrize("optimizer", [ShadeCC, SurrogateCC], ids=["shade-cc", "sacc"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_run_invariants_hold(optimizer, data):
    check_invariants(optimizer, *data.draw(runs(optimizer)))
