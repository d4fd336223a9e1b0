import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from coopevo.benchmarks import (
    BASE_BOUNDS,
    BASES,
    FUNCTION_IDS,
    NONSEPARABLE,
    SEPARABLE,
    BenchmarkFunction,
    Group,
    check_integer,
    elliptic,
    float_array,
    get_function,
    make_separable,
    make_suite,
    suite_manifest,
)
from coopevo.benchmarks import _dot


def small_suite():
    return make_suite(40, seed=1)


def test_elliptic_two_dim_hand_value():
    # coefficients 10^(6*i/(s-1)): x = (1, 1) with zero shift -> 1 + 1e6
    fn = BenchmarkFunction(
        fid="elliptic-2d", shift=np.zeros(2), groups=(Group((0, 1), "elliptic"),), seed=0
    )
    assert fn(np.array([1.0, 1.0])) == pytest.approx(1.0 + 1e6, abs=1e-9)


def test_ackley_optimum_at_origin():
    fn = BenchmarkFunction(
        fid="ackley-3d", shift=np.zeros(3), groups=(Group((0, 1, 2), "ackley"),), seed=0
    )
    assert abs(fn(np.zeros(3))) <= 1e-9


def test_optimum_at_shift_for_all_suite_members():
    for fn in small_suite():
        assert abs(fn(fn.shift)) <= 1e-9, fn.fid


def test_terms_zero_at_shift_for_every_group():
    for fn in small_suite():
        terms = fn.terms(fn.shift)
        assert terms.shape == (len(fn.groups),)
        for g in range(len(fn.groups)):
            assert abs(terms[g]) <= 1e-9


def test_shift_strictly_inside_bounds():
    for fn in small_suite():
        assert np.all(fn.shift > fn.lower)
        assert np.all(fn.shift < fn.upper)


def test_rotations_orthogonal():
    for fn in small_suite():
        for rot in (g.rotation for g in fn.groups if g.rotation is not None):
            err = np.max(np.abs(rot.T @ rot - np.eye(rot.shape[0])))
            assert err <= 1e-10


def test_additivity_partial_sums_match_evaluate():
    rng = np.random.default_rng(7)
    for fn in small_suite():
        for _ in range(25):
            x = rng.uniform(fn.lower, fn.upper)
            assert fn(x) == sum(fn.terms(x).tolist())


def test_terms_independent_of_other_groups():
    rng = np.random.default_rng(11)
    fn = small_suite()[9]  # ten rotated groups plus a separable block
    x = rng.uniform(fn.lower, fn.upper)
    for g in range(len(fn.groups)):
        base_val = fn.terms(x)[g]
        inside = set(fn.groups[g].indices)
        y = x.copy()
        for j in range(fn.n):
            if j not in inside:
                y[j] = rng.uniform(fn.lower[j], fn.upper[j])
        assert fn.terms(y)[g] == base_val  # bitwise: untouched inputs


def _loop_elliptic(z):
    s = len(z)
    total = 0.0
    for i, zi in enumerate(z):
        c = 10.0 ** (6.0 * i / (s - 1)) if s > 1 else 1.0
        total += c * zi * zi
    return total


def _loop_rastrigin(z):
    total = 0.0
    for zi in z:
        total += zi * zi - 10.0 * math.cos(2.0 * math.pi * zi) + 10.0
    return total


def test_elliptic_of_one_variable_is_its_square():
    # a group of one variable gets the coefficient 1.0 (the 20-d f04, f09
    # and f14 have such groups), in 1-D and in stacked form
    z = np.random.default_rng(5).uniform(-100.0, 100.0, 1000)
    assert elliptic(z[:, None]).tolist() == (z * z).tolist()
    assert [elliptic(z[i:i + 1]) for i in range(z.size)] == (z * z).tolist()
    for fid in ("f04", "f09", "f14"):
        fn = get_function(fid, 20, seed=1)
        assert any(g.base == "elliptic" and len(g.indices) == 1 for g in fn.groups), fid


def test_terms_against_straight_line_oracle():
    # reimplement the group formula with plain loops and compare
    rng = np.random.default_rng(13)
    suite = small_suite()
    for fn, loop in ((suite[0], _loop_elliptic), (suite[9], _loop_rastrigin)):
        x = rng.uniform(fn.lower, fn.upper)
        terms = fn.terms(x)
        for group, got in zip(fn.groups, terms):
            idx = np.asarray(group.indices)
            z = x[idx] - fn.shift[idx]
            if group.rotation is not None:
                z = group.rotation @ z
            expect = group.weight * loop(z)
            assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_make_suite_structure_counts_at_reference_scale():
    suite = make_suite(1000, seed=1)
    assert len(suite) == 18

    def group_sizes(fn, rotated):
        return [len(g.indices) for g in fn.groups if (g.rotation is not None) == rotated]

    # fully separable members
    for fn in suite[:3]:
        assert group_sizes(fn, True) == []
        assert sum(group_sizes(fn, False)) == 1000
    # one rotated block of 50, 950 separable
    fn4 = suite[3]
    assert group_sizes(fn4, True) == [50]
    assert sum(group_sizes(fn4, False)) == 950
    # ten rotated blocks
    assert group_sizes(suite[9], True) == [50] * 10
    # twenty rotated blocks, nothing separable
    for fn in suite[13:]:
        assert group_sizes(fn, True) == [50] * 20
        assert group_sizes(fn, False) == []


def test_make_suite_scales_group_size_with_dimension():
    suite = make_suite(100, seed=1)
    fn14 = suite[13]
    sizes = [len(g.indices) for g in fn14.groups]
    assert sizes == [5] * 20


def test_make_suite_deterministic_per_seed():
    a = make_suite(40, seed=3)
    b = make_suite(40, seed=3)
    c = make_suite(40, seed=4)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.shift, fb.shift)
        for ga, gb in zip(fa.groups, fb.groups):
            assert np.array_equal(ga.rotation, gb.rotation)
    assert not np.array_equal(a[0].shift, c[0].shift)


def test_make_suite_rejects_bad_dimension():
    with pytest.raises(ValueError):
        make_suite(30, seed=1)
    with pytest.raises(ValueError):
        get_function("f01", 15, seed=1)
    with pytest.raises(ValueError):
        get_function("f99", 40, seed=1)


@pytest.mark.parametrize(
    "value, low, high, span",
    [(2.5, None, None, ""), (True, None, None, ""), (np.True_, None, None, ""),
     ("3", 0, None, " >= 0"), (0, 1, None, " >= 1"), (-1, 0, 9, " in 0..9"),
     (np.int64(10), 0, 9, " in 0..9"), (3.0, 0, 9, " in 0..9")],
)
def test_check_integer_names_the_value_and_its_range(value, low, high, span):
    message = f"x must be an integer{span}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_integer("x", value, low, high)


@pytest.mark.parametrize("value", [0, 9, np.int64(5), np.uint8(9), np.int32(0)])
def test_check_integer_accepts_integers_in_range(value):
    check_integer("x", value)
    check_integer("x", value, 0)
    check_integer("x", value, 0, 9)


@pytest.mark.parametrize(
    "value, shape, want",
    [
        (np.zeros(3), (4,), "(4,)"),
        (np.zeros((2, 3)), (3,), "(3,)"),
        (0.0, (None,), "(any,)"),
        (np.zeros((2, 2)), (None,), "(any,)"),
        ([[1.0, 2.0]], (None, 3), "(any, 3)"),
        (np.zeros((2, 3, 4)), (2, None), "(2, any)"),
        (np.zeros((2, 3)), (3, 2), "(3, 2)"),
    ],
)
def test_float_array_names_the_value_and_both_shapes(value, shape, want):
    message = f"v must have shape {want}, got {np.shape(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        float_array("v", value, shape)


def test_float_array_returns_a_float_array_of_the_given_shape():
    x = np.arange(6.0).reshape(2, 3)
    assert float_array("x", x, (2, 3)) is x  # a float array passes through
    assert float_array("x", x, (None, 3)) is x
    got = float_array("x", [[1, 2, 3]], (None, 3))
    assert got.dtype == float and got.tolist() == [[1.0, 2.0, 3.0]]
    assert float_array("x", np.empty((0, 3)), (None, 3)).shape == (0, 3)
    assert float_array("x", 2, ()).shape == ()


@pytest.mark.parametrize("dim", [40.0, 2.5, True, "40"])
def test_builders_reject_a_dim_that_is_not_an_integer(dim):
    # unchecked, 40.0 and 2.5 would fail inside numpy with an AxisError
    message = f"^{re.escape(f'dim must be an integer, got {dim!r}')}$"
    with pytest.raises(ValueError, match=message):
        get_function("f01", dim, 1)
    with pytest.raises(ValueError, match=message):
        make_suite(dim, 1)
    message = f"^{re.escape(f'dim must be an integer >= 1, got {dim!r}')}$"
    with pytest.raises(ValueError, match=message):
        make_separable("sphere", dim, 1)


@pytest.mark.parametrize("dim", [0, -3])
def test_make_separable_rejects_a_dim_below_1(dim):
    # unchecked, 0 failed with "groups do not cover 0..n-1" and -3 with
    # "rotated groups exceed dimension"
    with pytest.raises(ValueError, match=f"^dim must be an integer >= 1, got {dim}$"):
        make_separable("sphere", dim, 1)


@pytest.mark.parametrize("seed", [True, 1.0])
def test_builders_reject_a_seed_that_is_not_an_integer(seed):
    # unchecked, a bool seed would reach the manifest as "seed": true
    message = re.escape(f"seed must be an integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        get_function("f01", 40, seed)
    with pytest.raises(ValueError, match=message):
        make_separable("sphere", 10, seed)


def test_builders_accept_numpy_integers():
    fn = get_function("f09", np.int64(40), np.int64(1))
    ref = get_function("f09", 40, 1)
    assert fn.manifest() == ref.manifest()
    assert type(fn.manifest()["seed"]) is int
    assert fn.shift.tolist() == ref.shift.tolist()


ROT90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _two_group_kwargs(base="elliptic", rotation=ROT90, **override):
    kw = dict(
        fid="two-group-4d",
        shift=np.zeros(4),
        groups=(Group((0, 1), "sphere"), Group((2, 3), base, 2.0, rotation)),
        seed=0,
    )
    kw.update(override)
    return kw


@pytest.mark.parametrize("seed", [True, 2.5])
def test_constructor_rejects_a_seed_that_is_not_an_integer(seed):
    # unchecked, the manifest would record the seed as given
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        BenchmarkFunction(**_two_group_kwargs(seed=seed))


def test_function_keeps_its_own_read_only_shift_and_bounds():
    # the shift was the caller's array: zeroing it moved f04's optimum away
    # from fn.shift (fn(fn.shift) read 2.59e15)
    ref = get_function("f04", 40, seed=1)
    shift = ref.shift.copy()
    fn = BenchmarkFunction(ref.fid, shift, ref.groups, ref.seed)
    assert fn.shift is not shift
    shift[:] = 0.0
    assert fn(ref.shift) == 0.0 and fn(fn.shift) == 0.0
    assert fn.shift.tolist() == ref.shift.tolist()
    for name in ("shift", "lower", "upper"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(fn, name)[0] = 1.0
    assert fn.manifest() == ref.manifest()


def test_function_keeps_its_own_read_only_rotations():
    # the rotations were the caller's arrays: writing the identity into
    # f04's moved fn(fn.shift + 1) from 1.558e12 to 1.000e12
    ref = get_function("f04", 40, seed=1)
    groups = tuple(g if g.rotation is None else replace(g, rotation=g.rotation.copy())
                   for g in ref.groups)
    fn = BenchmarkFunction(ref.fid, ref.shift, groups, ref.seed)
    x = ref.shift + 1.0
    value = fn(x)
    assert value == ref(x)
    rotated = [k for k, g in enumerate(groups) if g.rotation is not None]
    assert rotated
    for k in rotated:
        assert fn.groups[k].rotation is not groups[k].rotation
        assert fn.groups[k].rotation is fn._terms[k].rot  # what the terms evaluate with
        groups[k].rotation[:] = np.eye(len(groups[k].indices))
    assert fn(x) == value
    for k in rotated:
        assert fn.groups[k].rotation.tolist() == ref.groups[k].rotation.tolist()
        with pytest.raises(ValueError, match="read-only"):
            fn.groups[k].rotation[0, 0] = 1.0
    assert fn(x) == value
    assert fn.manifest() == ref.manifest()


def test_constructor_stores_a_numpy_integer_seed_as_int():
    fn = BenchmarkFunction(**_two_group_kwargs(seed=np.int64(3)))
    assert type(fn.seed) is int and fn.seed == 3
    assert fn.manifest()["seed"] == 3


@pytest.mark.parametrize(
    "override, message",
    [
        (dict(base="nope"), "unknown base 'nope'"),
        (dict(rotation=np.eye(3)), re.escape("rotation must have shape (2, 2), got (3, 3)")),
        (dict(rotation=2.0 * np.eye(2)), "not orthogonal"),
        (dict(rotation=np.array([[0.0, 1.0], [-1.0, np.nan]])),
         re.escape("rotation not orthogonal (err=nan)")),
        (dict(shift=np.zeros(1)), re.escape("shift must have shape (4,), got (1,)")),
        (dict(shift=np.zeros((4, 4))), re.escape("shift must have shape (4,), got (4, 4)")),
        (dict(shift=np.full(4, 100.0)), "shift must lie strictly inside bounds"),
        (dict(groups=(Group((0, 1), "sphere"), Group((3, 4), "sphere"))),
         "groups do not cover"),
    ],
    ids=["unknown-base", "rotation-shape", "non-orthogonal", "nan-rotation", "shift-too-short",
         "shift-matrix", "shift-on-bound", "groups-not-a-partition"],
)
def test_constructor_rejects_inconsistent_definition(override, message):
    fn = BenchmarkFunction(**_two_group_kwargs())
    # sphere(1, 2) + 2 * elliptic(R @ (3, 4)) with R @ (3, 4) = (4, -3)
    assert fn(np.array([1.0, 2.0, 3.0, 4.0])) == 5.0 + 2.0 * (16.0 + 1e6 * 9.0)
    with pytest.raises(ValueError, match=message):
        BenchmarkFunction(**_two_group_kwargs(**override))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_a_weight_that_is_not_finite(weight):
    # unchecked, a nan or inf weight on f04's rotated group built, and
    # f(shift) was nan
    fn = get_function("f04", 40, seed=1)
    groups = tuple(g if g.rotation is None else Group(g.indices, g.base, weight, g.rotation)
                   for g in fn.groups)
    assert groups[1].weight is weight  # the rotated group comes second
    message = re.escape(f"group 1 weight must be finite, got {weight!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        BenchmarkFunction(fn.fid, fn.shift, groups, fn.seed)


def test_manifest_writes_each_weight_as_a_float():
    # before, True was written as true and "2" as "2"
    groups = (Group((0, 1), "sphere", True), Group((2, 3), "elliptic", "2", ROT90))
    fn = BenchmarkFunction("weights-4d", np.zeros(4), groups, 0)
    weights = [g["weight"] for g in fn.manifest()["groups"]]
    assert weights == [1.0, 2.0] and all(type(w) is float for w in weights)
    assert fn(np.array([1.0, 2.0, 3.0, 4.0])) == 5.0 + 2.0 * (16.0 + 1e6 * 9.0)


def test_structure_rejects_repeated_index_in_one_group():
    # (0, 0, 1) would count x[0] twice and ignore x[2] of a 3-d function
    with pytest.raises(ValueError, match="index 0 repeated in one group"):
        BenchmarkFunction("repeat-3d", np.zeros(3), (Group((0, 0, 1), "sphere"),), 0)
    groups = (Group((0, 1), "sphere"), Group((2, 3, 4, 3), "elliptic", 1.0, np.eye(4)))
    with pytest.raises(ValueError, match="index 3 repeated in one group"):
        BenchmarkFunction("repeat-6d", np.zeros(6), groups, 0)


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_structure_rejects_non_integer_entry(entry):
    message = re.escape(f"group entry must be an integer, got {entry!r}")
    with pytest.raises(ValueError, match=message):
        BenchmarkFunction("entry-2d", np.zeros(2), (Group((0, entry), "sphere"),), 0)


def test_functions_compare_by_identity():
    # equal definitions built twice are two functions; comparing them must
    # not compare their arrays
    fn = get_function("f01", 40, seed=1)
    other = get_function("f01", 40, seed=1)
    assert fn == fn
    assert {fn, fn} == {fn}
    assert fn != other
    assert len({fn, other}) == 2


# The per-group formula written out one group at a time: each base on one
# 1-D vector with ``np.dot`` and libm, ``rot @ z`` for the rotation, and a
# sequential sum of the weighted terms in group order.
def _ref_elliptic(z):
    s = z.size
    if s == 1:
        return float(z[0] * z[0])
    coef = 10.0 ** (6.0 * np.arange(s) / (s - 1))
    return float(np.dot(coef, z * z))


def _ref_ackley(z):
    s = z.size
    term1 = -20.0 * math.exp(-0.2 * math.sqrt(np.dot(z, z) / s))
    term2 = -math.exp(np.sum(np.cos(2.0 * np.pi * z)) / s)
    return float(term1 + term2 + 20.0 + math.e)


def _ref_rosenbrock(z):
    y = z + 1.0
    return float(np.sum(100.0 * (y[:-1] ** 2 - y[1:]) ** 2 + (y[:-1] - 1.0) ** 2))


REFERENCE_BASES = {
    "sphere": lambda z: float(np.dot(z, z)),
    "elliptic": _ref_elliptic,
    "rastrigin": lambda z: float(np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0)),
    "ackley": _ref_ackley,
    "schwefel12": lambda z: float(np.dot(np.cumsum(z), np.cumsum(z))),
    "rosenbrock": _ref_rosenbrock,
}


def _reference_terms(fn, x):
    terms = []
    for group in fn.groups:
        idx = np.asarray(group.indices, dtype=int)
        z = x[idx] - fn.shift[idx]
        if group.rotation is not None:
            z = group.rotation @ z
        terms.append(group.weight * REFERENCE_BASES[group.base](z))
    return terms


@pytest.mark.parametrize("dim", [20, 40, 1000])
def test_evaluation_is_bit_identical_to_per_group_formula(dim):
    rng = np.random.default_rng(dim)
    functions = [get_function(fid, dim, seed=1) for fid in FUNCTION_IDS]
    if dim == 40:
        functions.append(BenchmarkFunction(**_two_group_kwargs()))
    for fn in functions:
        points = [rng.uniform(fn.lower, fn.upper) for _ in range(3)]
        points.append(fn.shift + 1e-3 * rng.standard_normal(fn.n))
        for x in points:
            terms = _reference_terms(fn, x)
            value = fn(x)
            assert type(value) is float
            assert value == sum(terms), fn.fid
            assert fn.terms(x).tolist() == terms, fn.fid
        # the partial path, one recomputed group at a time, against the
        # same oracle
        x = points[0]
        kept = fn.terms(x)
        for pos, group in enumerate(fn.groups):
            grp = list(group.indices)
            y = x.copy()
            y[grp] = rng.uniform(fn.lower[grp], fn.upper[grp])
            got = fn.terms(y, fn.known(kept, (pos,))).tolist()
            assert got == _reference_terms(fn, y), (fn.fid, pos)


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_base_is_row_stable(name):
    # a row's value never depends on the rows stacked with it
    base = BASES[name]
    lo, hi = BASE_BOUNDS[name]
    rng = np.random.default_rng(sorted(BASES).index(name))
    for k in (1, 2, 7, 20):
        for m in (1, 2, 50):
            Z = rng.uniform(lo, hi, (k, m))
            values = base(Z)
            assert values.shape == (k,)
            for i in range(k):
                assert base(Z[i:i + 1])[0] == values[i]
                single = base(Z[i])
                assert np.shape(single) == ()
                assert single == base(Z[i][None])[0]
            assert float(base(Z[0])) == REFERENCE_BASES[name](Z[0])


def test_one_dim_dot_equals_the_stacked_row():
    # a 1-D dot is np.dot, the same BLAS dot the stacked matmul makes per row
    rng = np.random.default_rng(0)
    for m in range(1, 201):
        a = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-6.0, 6.0, m)
        b = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-6.0, 6.0, m)
        assert _dot(a, b) == _dot(a[None], b)[0], m
        assert _dot(a, a) == _dot(a[None], a[None])[0], m


def test_evaluate_rejects_wrong_length():
    fn = small_suite()[0]
    with pytest.raises(ValueError, match=re.escape("x must have shape (40,), got (41,)")):
        fn(np.zeros(fn.n + 1))
    with pytest.raises(ValueError, match=re.escape("x must have shape (40,), got (39,)")):
        fn.terms(np.zeros(fn.n - 1))


def test_known_terms_reject_wrong_length_like_the_full_path():
    fn = small_suite()[13]  # twenty rotated groups
    x = fn.shift.copy()
    known = fn.known(fn.terms(x), fn.groups_of([0]))
    for bad in (np.zeros(fn.n + 1), np.zeros(fn.n - 1), np.zeros((1, fn.n))):
        message = re.escape(f"x must have shape (40,), got {bad.shape}")
        with pytest.raises(ValueError, match=message) as full:
            fn.evaluate(bad)
        with pytest.raises(ValueError, match=message) as delta:
            fn.evaluate(bad, known=known)
        assert str(delta.value) == str(full.value)
    with pytest.raises(ValueError, match=re.escape("terms must have shape (20,), got (19,)")):
        fn.known(fn.terms(x)[:-1], known.groups)


def test_groups_of_lists_sorted_owner_positions():
    for fn in small_suite():
        groups = [g.indices for g in fn.groups]
        for pos, grp in enumerate(groups):
            assert fn.groups_of(grp) == (pos,)
        last, first = groups[-1][0], groups[0][-1]
        assert fn.groups_of([last, first]) == tuple(sorted({0, len(groups) - 1}))
        assert fn.groups_of(np.arange(fn.n)) == tuple(range(len(groups)))


def test_groups_of_equals_the_unique_owner_positions():
    # groups_of builds a set rather than call np.unique; both give the
    # sorted distinct positions, repeated and unordered indices included
    rng = np.random.default_rng(5)
    for fn in small_suite():
        owner = np.empty(fn.n, dtype=int)
        for pos, g in enumerate(fn.groups):
            owner[list(g.indices)] = pos
        for size in (0, 1, 2, 7, 40, 80):
            indices = rng.integers(0, fn.n, size)
            assert fn.groups_of(indices) == tuple(np.unique(owner[indices]).tolist())


@pytest.mark.parametrize("bad", [-1, 40, 1.7, True, np.True_, np.float64(3.0)])
def test_groups_of_rejects_entries_that_are_not_variable_indices(bad):
    # a negative entry would wrap to the owner of variable 39, a float or
    # bool one would truncate to the owner of variable 1 or 3
    fn = get_function("f09", 40, seed=1)
    message = re.escape(f"variable index must be an integer in 0..39, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        fn.groups_of([2, bad])
    with pytest.raises(ValueError, match="variable index"):
        fn.groups_of(np.array([bad]))
    assert fn.groups_of([0, np.int64(39)]) == fn.groups_of(np.array([0, 39]))


@pytest.mark.parametrize("bad", [-1, True, 11, 1.5])
def test_known_terms_reject_positions_that_are_not_group_positions(bad):
    # -1 would recompute the last group and True group 1; 11 and 1.5 would
    # fail on indexing with an error that names no position
    fn = get_function("f09", 40, seed=1)  # eleven groups
    x = fn.shift.copy()
    kept = fn.terms(x)
    message = re.escape(f"group position must be an integer in 0..10, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        fn.known(kept, (0, bad))
    with pytest.raises(ValueError, match=message):
        fn.known(kept, np.array([bad]))
    assert fn.terms(x, fn.known(kept, (np.int64(10),))).tolist() == kept.tolist()


def test_terms_take_only_known_terms_of_the_same_function():
    # the kept terms and positions are checked once, by ``known``; per call
    # only the type and the owner are
    fn = get_function("f09", 40, seed=1)
    twin = get_function("f09", 40, seed=1)  # equal definition, another object
    x = fn.shift.copy()
    kept, groups = fn.terms(x), (0,)
    for call in (fn.terms, fn.evaluate):
        with pytest.raises(ValueError, match="known must be None or a KnownTerms, got tuple"):
            call(x, (kept, groups))
        with pytest.raises(ValueError, match="known was made by another function, not this f09"):
            call(x, twin.known(kept, groups))
    assert fn.terms(x, fn.known(kept, groups)).tolist() == kept.tolist()
    assert twin.evaluate(x, twin.known(kept, groups)) == fn(x)


@pytest.mark.parametrize("dim", [40, 1000])
def test_known_terms_recompute_only_the_listed_groups(dim):
    rng = np.random.default_rng(dim + 1)
    for fid in FUNCTION_IDS:
        fn = get_function(fid, dim, seed=1)
        x = rng.uniform(fn.lower, fn.upper)
        kept = fn.terms(x)
        for pos, group in enumerate(fn.groups):
            grp = list(group.indices)
            y = x.copy()
            y[grp] = rng.uniform(fn.lower[grp], fn.upper[grp])
            known = fn.known(kept, (pos,))
            assert fn.terms(y, known).tolist() == fn.terms(y).tolist(), fid
            assert fn.evaluate(y, known=known) == fn(y), fid
        if len(kept) > 1:
            # a change that spans the first and the last group
            y = x.copy()
            for group in (fn.groups[0], fn.groups[-1]):
                grp = list(group.indices)
                y[grp] = rng.uniform(fn.lower[grp], fn.upper[grp])
            changed = fn.groups_of(np.flatnonzero(y != x))
            assert changed == (0, len(kept) - 1)
            assert fn.evaluate(y, known=fn.known(kept, changed)) == fn(y), fid
        # a kept term is taken as given, not recomputed, and the argument
        # is not written
        wrong = kept + 1.0
        got = fn.terms(x, fn.known(wrong, (len(kept) - 1,)))
        assert got[:-1].tolist() == wrong[:-1].tolist()
        assert got[-1] == kept[-1]
        assert wrong.tolist() == (kept + 1.0).tolist()


def test_weighted_single_group_functions():
    # the single rotated block carries a 1e6 weight
    fn = get_function("f04", 40, seed=1)
    g = next(i for i, group in enumerate(fn.groups) if group.rotation is not None)
    assert fn.groups[g].weight == 1e6
    x = np.random.default_rng(5).uniform(fn.lower, fn.upper)
    assert fn.terms(x)[g] > 0


def test_make_separable_helper():
    fn = make_separable("sphere", 7, seed=2)
    assert fn.n == 7
    assert [g.rotation for g in fn.groups] == [None]
    assert abs(fn(fn.shift)) <= 1e-12
    with pytest.raises(ValueError, match="unknown base 'nope'"):
        make_separable("nope", 5, seed=1)


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: make_suite(40, 1),
         "ef91b290a18e9924a1367970b25722e4cc6cd614e1eb8e313cf4f32de82a954f"),
        (lambda: [make_separable("sphere", 7, 2)],
         "7dfe7f3e83623cdb183c3aab20a900f66e28dd0c0076da41e2a00317ca7a111d"),
        (lambda: [make_separable("elliptic", 60, 3)],
         "bd8bf76abe51ce813382c70180de9a0c6d7eb94e44549428f0c53ccfc85b3d24"),
    ],
    ids=["suite-40", "sphere-7", "elliptic-60"],
)
def test_shifts_are_pinned(build, digest):
    # the shift is drawn by the seeded generator alone, after the
    # permutation and the rotations, so these bytes are the same on every host
    h = hashlib.sha256()
    for fn in build():
        h.update(fn.shift.astype("<f8").tobytes())
    assert h.hexdigest() == digest


def test_suite_manifest_is_valid_json():
    suite = small_suite()
    manifest = json.loads(suite_manifest(suite))
    assert len(manifest) == 18
    entry = manifest[3]
    assert entry["id"] == "f04"
    assert {g["kind"] for g in entry["groups"]} == {SEPARABLE, NONSEPARABLE}
    sizes = sorted(g["size"] for g in entry["groups"])
    assert sizes == [2, 38]
    assert entry["seed"] == 1


@pytest.mark.parametrize(
    "dim, digest",
    [
        (40, "a8dfd7b2653ca7ae787a3d6ff1c3e48afabad85fd9954661d13da54664cd2a39"),
        (1000, "1c987da557e7c1ff38e1752cf326dd4569c05d240412af87532896a0ac91633d"),
    ],
    ids=["40", "1000"],
)
def test_suite_definition_is_pinned(dim, digest):
    # the groups, kinds, bases, weights and bounds of all 18 functions; the
    # manifest holds no LAPACK output, so the digest is the same everywhere
    manifest = suite_manifest(make_suite(dim, seed=1))
    assert hashlib.sha256(manifest.encode()).hexdigest() == digest
