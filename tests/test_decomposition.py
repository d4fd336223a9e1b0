import hashlib
import json
import math
import re

import numpy as np
import pytest

from coopevo.benchmarks import get_function, make_separable, make_suite
from coopevo.decomposition import embed, ideal_decompose, to_dict
from coopevo.runtime import CooperativeRun, RunParams
from coopevo.shade_cc import ShadeCC
from coopevo.surrogate_cc import SurrogateCC


def test_separable_chunking_reference_scale():
    fn = get_function("f01", 1000, seed=1)
    decomp = ideal_decompose(fn, 20)
    assert len(decomp) == 50
    assert all(len(idx) == 20 for idx in decomp)


def test_partially_separable_counts():
    fn = get_function("f10", 1000, seed=1)
    decomp = ideal_decompose(fn, 100)
    # 500 separable variables in blocks of 100, plus ten rotated groups
    assert len(decomp) == 15
    sizes = sorted(len(idx) for idx in decomp)
    assert sizes == [50] * 10 + [100] * 5


def test_whole_problem_single_chunk():
    fn = make_separable("sphere", 10, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert decomp == [list(range(10))]


def test_trailing_chunk_may_be_smaller():
    fn = make_separable("sphere", 25, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert [len(idx) for idx in decomp] == [10, 10, 5]


def test_partition_is_disjoint_and_exhaustive():
    fn = get_function("f09", 100, seed=2)
    decomp = ideal_decompose(fn, 7)
    seen = [i for idx in decomp for i in idx]
    assert sorted(seen) == list(range(100))


def run_on(subproblems, n=3):
    """A run of an ``n``-d sphere on ``subproblems``, which its constructor
    checks once."""
    return CooperativeRun(make_separable("sphere", n, seed=1), subproblems,
                          RunParams(max_fe=10), seed=1)


def test_decomposition_validates_partition():
    cases = [
        ([[0, 1], [1, 2]], "groups are not disjoint"),
        ([[0, 0, 1], [2]], "index 0 repeated in one group"),
        ([[0, 1, 2], []], "empty group"),
        # float indices would otherwise fail later, in embed
        ([np.array([0.0, 1.0]), [2]], "group entry must be an integer, got 0.0"),
        ([[0, True], [2]], "group entry must be an integer, got True"),
    ]
    for subproblems, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            run_on(subproblems)


def test_decomposition_derives_n_from_its_subproblems():
    # n was an argument: True was accepted and written as "n": true, and a
    # numpy integer made the manifest entry fail in json.dumps
    subs = [np.array(idx, dtype=np.int64) for idx in [[2, 0], [1]]]
    run = run_on(subs)
    assert [idx.tolist() for idx in run.subproblems] == [[2, 0], [1]]
    entry = to_dict(subs)
    assert type(entry["n"]) is int and entry["n"] == 3
    assert json.loads(json.dumps(entry))["n"] == 3
    # a decomposition of another dimension is not a partition of the
    # function's variables
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        run_on((subs[0],))
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        run_on(())
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        run_on(subs, n=4)


def test_subproblem_ids_are_positions():
    # a run looks each sub-problem's book-keeping up by its position, so no
    # id is stored that could disagree with it: the manifest writes the
    # position, whatever order the index lists come in
    assert len(run_on([[1], [0]], n=2).subproblems) == 2
    assert [sub["id"] for sub in to_dict([[1], [0]])["subproblems"]] == [0, 1]
    assert [sub["indices"] for sub in to_dict([[1], [0]])["subproblems"]] == [[1], [0]]
    assert to_dict([[0, 1], [2, 3]])["subproblems"][1] == {"id": 1, "s": 2, "indices": [2, 3]}


def test_run_keeps_read_only_copies_of_the_index_lists():
    # the run's one partition check holds for the whole run: the caller's
    # lists can change afterwards, and the run's arrays cannot be written
    fn = make_separable("sphere", 4, seed=1)
    for optimizer in (SurrogateCC, ShadeCC):
        lists = [[0, 1], [2, 3]]
        params = RunParams(max_fe=optimizer.min_budget(lists, RunParams(max_fe=1, p=20)) + 200,
                           p=20)
        run = optimizer(fn, lists, params, seed=1)
        lists[0][0] = 2
        assert [idx.tolist() for idx in run.subproblems] == [[0, 1], [2, 3]]
        for idx in run.subproblems:
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 3
        record = run.run()
        assert record.rows[-1].fe_used == params.max_fe
        assert record.final_f == pytest.approx(fn(record.final_x), rel=1e-12)


def test_ideal_decompose_rejects_bad_args():
    fn = make_separable("sphere", 10, seed=1)
    with pytest.raises(ValueError):
        ideal_decompose(fn, 0)
    # index lists compare by value; a tuple of index arrays raised on ==
    assert ideal_decompose(fn, np.int64(4)) == ideal_decompose(fn, 4)


@pytest.mark.parametrize("s_sep", [2.5, True, np.float64(3.0)], ids=["float", "bool", "np-float"])
def test_ideal_decompose_rejects_non_integer_s_sep(s_sep):
    # 2.5 would fail inside range() with a TypeError, True would give
    # chunks of one variable
    fn = make_separable("sphere", 10, seed=1)
    message = re.escape(f"s_sep must be an integer >= 1, got {s_sep!r}")
    with pytest.raises(ValueError, match=message):
        ideal_decompose(fn, s_sep)


@pytest.mark.parametrize(
    "dim, s_sep, digest",
    [
        (40, 7, "bacb40a77fb238e9da1d61da8f13d0c8b88af34f5233fc72fca7b8b93a134b66"),
        (1000, 20, "442400c7fcde5c88f4d6c73a899223784668b08bc4b270f8dfb687d7ad06b5fc"),
    ],
)
def test_suite_decomposition_is_pinned(dim, s_sep, digest):
    # every sub-problem of all 18 functions, separable tails shorter than
    # s_sep included; the output set runs only four of them
    dumped = json.dumps([to_dict(ideal_decompose(fn, s_sep)) for fn in make_suite(dim, 1)])
    assert hashlib.sha256(dumped.encode()).hexdigest() == digest


def test_embed_identity_case():
    context = np.array([10.0, 20.0, 30.0, 40.0])
    out = embed(context, np.array([1, 3]), context[[1, 3]])
    assert np.array_equal(out, context)


def test_embed_by_definition():
    # context (a, b, c, d), positions {1, 3} replaced by (p, q)
    context = np.array([1.0, 2.0, 3.0, 4.0])
    out = embed(context, np.array([1, 3]), np.array([-7.0, -9.0]))
    assert np.array_equal(out, np.array([1.0, -7.0, 3.0, -9.0]))
    assert np.array_equal(context, np.array([1.0, 2.0, 3.0, 4.0]))  # untouched


def test_embed_extract_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(4, 30)
        k = rng.integers(1, n + 1)
        idx = rng.choice(n, size=k, replace=False)
        context = rng.normal(size=n)
        x_g = rng.normal(size=k)
        assert np.array_equal(embed(context, idx, x_g)[idx], x_g)


def test_subproblem_stores_an_index_list_as_a_1d_integer_array():
    (idx,) = run_on(([0, 1],), n=2).subproblems
    assert isinstance(idx, np.ndarray)
    assert idx.dtype.kind == "i" and idx.tolist() == [0, 1]
    assert embed(np.zeros(2), idx, [3.0, 4.0]).tolist() == [3.0, 4.0]
    # a 2-D array's entries are rows, and a number is no sequence
    for indices, message in ((np.array([[0, 1]]), "group entry must be an integer, got [0, 1]"),
                             (0, "group must be a sequence of integers, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_on((indices,), n=2)


def test_embed_rejects_length_mismatch():
    with pytest.raises(ValueError, match=re.escape("x_g must have shape (2,), got (3,)")):
        embed(np.zeros(4), np.array([0, 1]), np.zeros(3))


def test_embedded_delta_depends_only_on_own_block():
    # on a separable function the fitness change from swapping in x_g is the
    # same whatever the components outside the block are, as long as the
    # block's own context slice stays fixed
    fn = make_separable("rastrigin", 12, seed=5)
    decomp = ideal_decompose(fn, 4)
    idx = decomp[1]
    rng = np.random.default_rng(8)
    lower, upper = fn.lower[idx], fn.upper[idx]
    x_g = rng.uniform(lower, upper)
    own_slice = rng.uniform(lower, upper)

    deltas = []
    for _ in range(5):
        context = rng.uniform(fn.lower, fn.upper)
        context[idx] = own_slice
        deltas.append(fn(embed(context, idx, x_g)) - fn(context))
    assert np.all(np.abs(np.diff(deltas)) <= 1e-9 * max(1.0, abs(deltas[0])))


def test_serializable_for_run_record():
    fn = get_function("f04", 40, seed=1)
    decomp = ideal_decompose(fn, 10)
    d = to_dict(decomp)
    assert d["n"] == 40
    assert len(d["subproblems"]) == len(decomp)
    assert all(isinstance(s["indices"], list) for s in d["subproblems"])


# unit roundoff of IEEE double precision
MU = 2.0 ** -53


def interacting_pairs(fn, decomp, seed):
    """The pairs (i, j) of sub-problems that interact by the differential-
    grouping test, and the largest and smallest ratio of the test's
    difference to its threshold over the non-interacting and interacting
    pairs.

    One seeded point ``x`` in the box, and one seeded replacement of each
    sub-problem's slice. For a pair, f1 is ``fn(x)``, f2 and f3 move ``i``
    and ``j`` alone, f4 moves both, and the pair interacts when
    ``|(f2 - f1) - (f4 - f3)|`` exceeds DG2's rounding bound
    ``gamma_k * (|f1| + |f2| + |f3| + |f4|)``, with ``k = sqrt(n) + 2`` and
    ``gamma_k = k mu / (1 - k mu)``. Uncharged: no run is involved."""
    k = math.sqrt(fn.n) + 2
    gamma = k * MU / (1 - k * MU)
    rng = np.random.default_rng(seed)
    x = rng.uniform(fn.lower, fn.upper)
    f1 = fn(x)
    moved = [embed(x, idx, rng.uniform(fn.lower[idx], fn.upper[idx]))
             for idx in decomp]
    f_moved = [fn(y) for y in moved]
    pairs, ratios = [], {False: [0.0], True: [math.inf]}
    for i in range(len(decomp)):
        for j in range(i + 1, len(decomp)):
            idx = decomp[j]
            f2, f3 = f_moved[i], f_moved[j]
            f4 = fn(embed(moved[i], idx, moved[j][idx]))
            ratio = abs((f2 - f1) - (f4 - f3)) / (gamma * (abs(f1) + abs(f2) + abs(f3) + abs(f4)))
            ratios[ratio > 1.0].append(ratio)
            if ratio > 1.0:
                pairs.append((i, j))
    return pairs, max(ratios[False]), min(ratios[True])


def test_differential_grouping_finds_interaction_only_in_split_ackley_groups():
    # the premise of sacc's context-relative book-keeping: no two
    # sub-problems of ideal_decompose interact. It fails where a separable
    # ackley group, one term, is chunked across sub-problems: every pair of
    # f03's and f06's chunks and of f11's four (ROADMAP items 12 and 14)
    found, worst_non, least = {}, 0.0, math.inf
    for fn in make_suite(40, 1):
        pairs, non, inter = interacting_pairs(fn, ideal_decompose(fn, 5), seed=1)
        worst_non, least = max(worst_non, non), min(least, inter)
        if pairs:
            found[fn.fid] = len(pairs)
    print(f"[differential grouping] interacting pairs {found}; difference over bound: "
          f"at most {worst_non:.3f} without interaction, at least {least:.0f} with it")
    assert found == {"f03": 28, "f06": 28, "f11": 6}
