import hashlib
import json
import math
import re

import numpy as np
import pytest

from coopevo.benchmarks import get_function, make_separable, make_suite
from coopevo.decomposition import Decomposition, embed, ideal_decompose


def test_separable_chunking_reference_scale():
    fn = get_function("f01", 1000, seed=1)
    decomp = ideal_decompose(fn, 20)
    assert decomp.k == 50
    assert all(idx.size == 20 for idx in decomp.subproblems)


def test_partially_separable_counts():
    fn = get_function("f10", 1000, seed=1)
    decomp = ideal_decompose(fn, 100)
    # 500 separable variables in blocks of 100, plus ten rotated groups
    assert decomp.k == 15
    sizes = sorted(idx.size for idx in decomp.subproblems)
    assert sizes == [50] * 10 + [100] * 5


def test_whole_problem_single_chunk():
    fn = make_separable("sphere", 10, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert decomp.k == 1
    assert np.array_equal(decomp.subproblems[0], np.arange(10))


def test_trailing_chunk_may_be_smaller():
    fn = make_separable("sphere", 25, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert [idx.size for idx in decomp.subproblems] == [10, 10, 5]


def test_partition_is_disjoint_and_exhaustive():
    fn = get_function("f09", 100, seed=2)
    decomp = ideal_decompose(fn, 7)
    seen = np.concatenate(decomp.subproblems)
    assert sorted(seen.tolist()) == list(range(100))


def test_decomposition_validates_partition():
    with pytest.raises(ValueError):
        Decomposition((np.array([0, 1]), np.array([1, 2])))
    # float indices would otherwise fail later, in embed
    with pytest.raises(ValueError, match=re.escape("group entry must be an integer, got 0.0")):
        Decomposition((np.array([0.0, 1.0]),))


def test_decomposition_derives_n_from_its_subproblems():
    # n was an argument: True was accepted and written as "n": true, and a
    # numpy integer made to_dict() fail in json.dumps
    subs = [np.array(idx, dtype=np.int64) for idx in [[2, 0], [1]]]
    decomp = Decomposition(tuple(subs))
    assert type(decomp.n) is int and decomp.n == 3
    assert json.loads(json.dumps(decomp.to_dict()))["n"] == 3
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        Decomposition((subs[0],))
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        Decomposition(())


def test_subproblem_ids_are_positions():
    # a run looks each sub-problem's book-keeping up by its position, so no
    # id is stored that could disagree with it: the manifest writes the
    # position, whatever order the index arrays come in
    decomp = Decomposition(([1], [0]))
    assert decomp.k == 2
    assert [sub["id"] for sub in decomp.to_dict()["subproblems"]] == [0, 1]
    assert [sub["indices"] for sub in decomp.to_dict()["subproblems"]] == [[1], [0]]
    assert Decomposition([[0, 1], [2, 3]]).to_dict()["subproblems"][1] == {
        "id": 1, "s": 2, "indices": [2, 3]}


def test_ideal_decompose_rejects_bad_args():
    fn = make_separable("sphere", 10, seed=1)
    with pytest.raises(ValueError):
        ideal_decompose(fn, 0)
    assert ideal_decompose(fn, np.int64(4)).to_dict() == ideal_decompose(fn, 4).to_dict()


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
    dumped = json.dumps([ideal_decompose(fn, s_sep).to_dict() for fn in make_suite(dim, 1)])
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
    decomp = Decomposition(([0, 1],))
    (idx,) = decomp.subproblems
    assert isinstance(idx, np.ndarray)
    assert idx.dtype.kind == "i" and idx.tolist() == [0, 1]
    assert decomp.n == 2
    assert embed(np.zeros(2), idx, [3.0, 4.0]).tolist() == [3.0, 4.0]
    for indices, shape in ((np.array([[0, 1]]), "(1, 2)"), (0, "()")):
        message = re.escape(f"indices must have shape (any,), got {shape}")
        with pytest.raises(ValueError, match=message):
            Decomposition((indices,))


def test_embed_rejects_length_mismatch():
    with pytest.raises(ValueError, match=re.escape("x_g must have shape (2,), got (3,)")):
        embed(np.zeros(4), np.array([0, 1]), np.zeros(3))


def test_embedded_delta_depends_only_on_own_block():
    # on a separable function the fitness change from swapping in x_g is the
    # same whatever the components outside the block are, as long as the
    # block's own context slice stays fixed
    fn = make_separable("rastrigin", 12, seed=5)
    decomp = ideal_decompose(fn, 4)
    idx = decomp.subproblems[1]
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
    d = decomp.to_dict()
    assert d["n"] == 40
    assert len(d["subproblems"]) == decomp.k
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
             for idx in decomp.subproblems]
    f_moved = [fn(y) for y in moved]
    pairs, ratios = [], {False: [0.0], True: [math.inf]}
    for i in range(decomp.k):
        for j in range(i + 1, decomp.k):
            idx = decomp.subproblems[j]
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
