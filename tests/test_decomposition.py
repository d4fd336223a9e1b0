import hashlib
import json
import re

import numpy as np
import pytest

from coopevo.benchmarks import get_function, make_separable, make_suite
from coopevo.decomposition import Decomposition, SubProblem, embed, ideal_decompose


def test_separable_chunking_reference_scale():
    fn = get_function("f01", 1000, seed=1)
    decomp = ideal_decompose(fn, 20)
    assert decomp.k == 50
    assert all(sub.s == 20 for sub in decomp.subproblems)


def test_partially_separable_counts():
    fn = get_function("f10", 1000, seed=1)
    decomp = ideal_decompose(fn, 100)
    # 500 separable variables in blocks of 100, plus ten rotated groups
    assert decomp.k == 15
    sizes = sorted(sub.s for sub in decomp.subproblems)
    assert sizes == [50] * 10 + [100] * 5


def test_whole_problem_single_chunk():
    fn = make_separable("sphere", 10, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert decomp.k == 1
    assert np.array_equal(decomp.subproblems[0].indices, np.arange(10))


def test_trailing_chunk_may_be_smaller():
    fn = make_separable("sphere", 25, seed=1)
    decomp = ideal_decompose(fn, 10)
    assert [sub.s for sub in decomp.subproblems] == [10, 10, 5]


def test_partition_is_disjoint_and_exhaustive():
    fn = get_function("f09", 100, seed=2)
    decomp = ideal_decompose(fn, 7)
    seen = np.concatenate([sub.indices for sub in decomp.subproblems])
    assert sorted(seen.tolist()) == list(range(100))


def test_decomposition_validates_partition():
    sub_a = SubProblem(0, np.array([0, 1]))
    sub_b = SubProblem(1, np.array([1, 2]))
    with pytest.raises(ValueError):
        Decomposition((sub_a, sub_b))
    # float indices would otherwise fail later, in embed
    floats = SubProblem(0, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match=re.escape("group entry must be an integer, got 0.0")):
        Decomposition((floats,))


def test_decomposition_derives_n_from_its_subproblems():
    # n was an argument: True was accepted and written as "n": true, and a
    # numpy integer made to_dict() fail in json.dumps
    subs = [SubProblem(g, np.array(idx, dtype=np.int64)) for g, idx in enumerate([[2, 0], [1]])]
    decomp = Decomposition(tuple(subs))
    assert type(decomp.n) is int and decomp.n == 3
    assert json.loads(json.dumps(decomp.to_dict()))["n"] == 3
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        Decomposition((subs[0],))
    with pytest.raises(ValueError, match="do not cover 0..n-1"):
        Decomposition(())


def test_decomposition_requires_ids_in_order():
    # a run looks each sub-problem's book-keeping up by its id
    sub_a = SubProblem(1, np.array([0]))
    sub_b = SubProblem(0, np.array([1]))
    with pytest.raises(ValueError, match="ids must be 0..k-1 in order"):
        Decomposition((sub_a, sub_b))
    assert Decomposition((sub_b, sub_a)).k == 2


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
    sub = SubProblem(0, np.array([1, 3]))
    context = np.array([10.0, 20.0, 30.0, 40.0])
    out = embed(context, sub, context[[1, 3]])
    assert np.array_equal(out, context)


def test_embed_by_definition():
    # context (a, b, c, d), positions {1, 3} replaced by (p, q)
    sub = SubProblem(0, np.array([1, 3]))
    context = np.array([1.0, 2.0, 3.0, 4.0])
    out = embed(context, sub, np.array([-7.0, -9.0]))
    assert np.array_equal(out, np.array([1.0, -7.0, 3.0, -9.0]))
    assert np.array_equal(context, np.array([1.0, 2.0, 3.0, 4.0]))  # untouched


def test_embed_extract_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(4, 30)
        k = rng.integers(1, n + 1)
        idx = rng.choice(n, size=k, replace=False)
        sub = SubProblem(0, idx)
        context = rng.normal(size=n)
        x_g = rng.normal(size=k)
        assert np.array_equal(embed(context, sub, x_g)[sub.indices], x_g)


def test_subproblem_stores_an_index_list_as_a_1d_integer_array():
    sub = SubProblem(0, [0, 1])
    assert sub.indices.dtype.kind == "i" and sub.indices.tolist() == [0, 1]
    assert Decomposition((sub,)).n == 2
    assert embed(np.zeros(2), sub, [3.0, 4.0]).tolist() == [3.0, 4.0]
    for indices, shape in ((np.array([[0, 1]]), "(1, 2)"), (0, "()")):
        with pytest.raises(ValueError, match=re.escape(f"indices must have shape (any,), got {shape}")):
            SubProblem(0, indices)


def test_embed_rejects_length_mismatch():
    sub = SubProblem(0, np.array([0, 1]))
    with pytest.raises(ValueError, match=re.escape("x_g must have shape (2,), got (3,)")):
        embed(np.zeros(4), sub, np.zeros(3))


def test_embedded_delta_depends_only_on_own_block():
    # on a separable function the fitness change from swapping in x_g is the
    # same whatever the components outside the block are, as long as the
    # block's own context slice stays fixed
    fn = make_separable("rastrigin", 12, seed=5)
    decomp = ideal_decompose(fn, 4)
    sub = decomp.subproblems[1]
    rng = np.random.default_rng(8)
    lower, upper = fn.lower[sub.indices], fn.upper[sub.indices]
    x_g = rng.uniform(lower, upper)
    own_slice = rng.uniform(lower, upper)

    deltas = []
    for _ in range(5):
        context = rng.uniform(fn.lower, fn.upper)
        context[sub.indices] = own_slice
        deltas.append(fn(embed(context, sub, x_g)) - fn(context))
    assert np.all(np.abs(np.diff(deltas)) <= 1e-9 * max(1.0, abs(deltas[0])))


def test_serializable_for_run_record():
    fn = get_function("f04", 40, seed=1)
    decomp = ideal_decompose(fn, 10)
    d = decomp.to_dict()
    assert d["n"] == 40
    assert len(d["subproblems"]) == decomp.k
    assert all(isinstance(s["indices"], list) for s in d["subproblems"])
