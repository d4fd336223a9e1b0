import importlib.machinery
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from coopevo import rbf
from coopevo.rbf import (
    DUPLICATE_TOL,
    INTERP_RTOL,
    TrainingArchive,
    TrainingError,
    train_surrogate,
)


def filled_archive(points, values, lower=None, upper=None):
    points = np.asarray(points, dtype=float)
    s = points.shape[1]
    lower = np.full(s, -10.0) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(s, 10.0) if upper is None else np.asarray(upper, dtype=float)
    arch = TrainingArchive(len(points), lower, upper)
    arch.push(points, np.asarray(values, dtype=float))
    return arch


def test_linear_target_reproduced_exactly():
    # the polynomial tail alone can carry an affine target
    arch = filled_archive([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0],
                          lower=[0.0], upper=[2.0])
    model = train_surrogate(arch)
    assert model.predict_batch(np.array([[1.5]]))[0] == pytest.approx(1.5, abs=1e-8)


def test_interpolates_quadratic_labels():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10, 10, (6, 2))
    vals = np.sum(pts ** 2, axis=1)
    arch = filled_archive(pts, vals)
    model = train_surrogate(arch)
    pred = model.predict_batch(pts)
    assert np.max(np.abs(pred - vals)) <= 1e-6 * max(1.0, np.max(np.abs(vals)))
    assert not model.regularized


def test_solution_satisfies_interpolation_system():
    # independently rebuild the bordered system and check the residual of
    # the returned coefficients
    rng = np.random.default_rng(1)
    pts = rng.uniform(-10, 10, (12, 3))
    vals = np.sin(pts[:, 0]) + pts[:, 1] * pts[:, 2]
    arch = filled_archive(pts, vals)
    model = train_surrogate(arch)

    z = (arch.points - arch.lower) / (arch.upper - arch.lower)
    d = len(arch)
    phi = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            phi[i, j] = np.linalg.norm(z[i] - z[j]) ** 3
    q = np.hstack([z, np.ones((d, 1))])
    gamma = np.concatenate([model.beta, [model.alpha]])
    top = phi @ model.omega + q @ gamma - arch.values
    bottom = q.T @ model.omega
    scale = max(1.0, np.max(np.abs(arch.values)))
    assert np.max(np.abs(top)) <= 1e-6 * scale
    assert np.max(np.abs(bottom)) <= 1e-6 * scale


def test_predict_at_training_samples_returns_labels():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-10, 10, (25, 5))
    vals = rng.normal(size=25) * 100.0
    model = train_surrogate(filled_archive(pts, vals))
    for x, v in zip(pts, vals):
        assert model.predict_batch(x[None, :])[0] == pytest.approx(v, rel=1e-6, abs=1e-8)


def test_affine_exactness_off_sample():
    rng = np.random.default_rng(3)
    beta = np.array([2.0, -3.0, 0.5])
    pts = rng.uniform(-10, 10, (15, 3))
    vals = pts @ beta + 7.0
    model = train_surrogate(filled_archive(pts, vals))
    probes = rng.uniform(-10, 10, (100, 3))
    expect = probes @ beta + 7.0
    assert np.max(np.abs(model.predict_batch(probes) - expect)) <= 1e-8


def test_predict_matches_straight_line_summation():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-10, 10, (10, 2))
    vals = np.cos(pts[:, 0]) * pts[:, 1]
    model = train_surrogate(filled_archive(pts, vals))
    x = rng.uniform(-10, 10, 2)

    z = (x - model.lower) / (model.upper - model.lower)
    total = 0.0
    for w, center in zip(model.omega, model.centers):
        total += w * np.linalg.norm(z - center) ** 3
    total += float(np.dot(model.beta, z)) + model.alpha
    assert model.predict_batch(x[None, :])[0] == pytest.approx(total, abs=1e-12)


def test_duplicate_injection_triggers_fallback_path():
    # bypass the insert-time dedupe to force equal rows in the radial block
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 2.0]])
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    arch = filled_archive(pts, vals)
    arch.points[1] = arch.points[0]
    arch.values[1] = arch.values[0] + 5.0  # same input, conflicting label
    model = train_surrogate(arch)
    assert model.regularized


def test_rank_deficient_tail_falls_back_to_least_squares():
    # all samples on one line in 2-d: the tail block loses rank; the
    # minimum-norm fallback must still deliver a finite regularized model
    t = np.linspace(0.0, 1.0, 8)
    pts = np.column_stack([t, t])
    arch = filled_archive(pts, t)
    model = train_surrogate(arch)
    assert model.regularized
    pred = model.predict_batch(np.array([[0.5, 0.5], [3.0, -2.0]]))
    assert np.all(np.isfinite(pred))
    # on the sampled line the data is affine, so it is still matched well
    assert model.predict_batch(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.5, abs=1e-6)


def test_training_needs_enough_samples():
    arch = filled_archive([[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
    with pytest.raises(TrainingError):
        train_surrogate(arch)


def test_predict_rejects_dimension_mismatch():
    model = train_surrogate(
        filled_archive([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0], lower=[0.0], upper=[2.0])
    )
    with pytest.raises(ValueError, match=re.escape("xs must have shape (any, 1), got (1, 2)")):
        model.predict_batch(np.zeros((1, 2)))
    with pytest.raises(ValueError, match=re.escape("xs must have shape (any, 1), got (1,)")):
        model.predict_batch(np.zeros(1))


def test_interpolation_property_over_random_archives():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = int(rng.integers(1, 8))
        d = 5 * s
        pts = rng.uniform(-10, 10, (d, s))
        vals = rng.normal(size=d) * rng.uniform(0.1, 1e4)
        model = train_surrogate(filled_archive(pts, vals))
        pred = model.predict_batch(pts)
        assert np.max(np.abs(pred - vals)) <= 1e-6 * max(1.0, np.max(np.abs(vals)))


def test_push_evicts_oldest_first():
    arch = filled_archive(np.arange(5, dtype=float)[:, None] / 10.0, np.arange(5.0),
                          lower=[-10.0], upper=[10.0])
    arch.push(np.array([[5.0], [6.0]]), np.array([50.0, 60.0]))
    assert arch.values.tolist() == [2.0, 3.0, 4.0, 50.0, 60.0]
    assert len(arch) == 5


def test_push_full_replacement():
    arch = filled_archive([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0],
                          lower=[-10.0], upper=[10.0])
    arch.push(np.array([[7.0], [8.0], [9.0]]), np.array([70.0, 80.0, 90.0]))
    assert arch.values.tolist() == [70.0, 80.0, 90.0]


def test_push_rejects_oversized_batch():
    arch = filled_archive([[0.0], [1.0]], [0.0, 1.0], lower=[-10.0], upper=[10.0])
    with pytest.raises(ValueError):
        arch.push(np.zeros((3, 1)), np.zeros(3))


def test_push_into_partial_archive_evicts_only_the_overflow():
    arch = TrainingArchive(10, [-10.0], [10.0])
    arch.push(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
    arch.push(np.array([[4.0], [5.0]]), np.array([4.0, 5.0]))
    assert arch.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]  # room for all five
    arch.push(np.arange(6.0, 12.0)[:, None], np.arange(6.0, 12.0))
    assert arch.values.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]


def test_push_into_empty_archive_rejects_unequal_lengths():
    arch = TrainingArchive(5, np.full(2, -10.0), np.full(2, 10.0))
    with pytest.raises(ValueError, match=re.escape("values must have shape (5,), got (3,)")):
        arch.push(np.zeros((5, 2)), np.zeros(3))
    assert len(arch) == 0  # nothing written


def test_push_rejects_unequal_lengths():
    arch = filled_archive(np.arange(5.0)[:, None], np.arange(5.0))
    with pytest.raises(ValueError, match=re.escape("values must have shape (2,), got (1,)")):
        arch.push(np.array([[7.0], [8.0]]), np.array([70.0]))
    assert arch.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]  # nothing evicted


@pytest.mark.parametrize(
    "points",
    [np.array([0.7, 0.8, 0.9]), np.full((3, 2), 0.5), np.full((4, 1), 0.5)],
    ids=["one-dimensional", "width-2", "width-1"],
)
def test_push_rejects_points_of_the_wrong_shape(points):
    # a (4, 1) block would broadcast each value across its row
    arch = filled_archive(np.arange(12.0).reshape(4, 3) / 20.0, np.arange(4.0),
                          lower=np.zeros(3), upper=np.ones(3))
    before = arch.points.copy()
    message = re.escape(f"points must have shape (any, 3), got {points.shape}")
    with pytest.raises(ValueError, match=message):
        arch.push(points, np.arange(float(len(points))))
    assert np.array_equal(arch.points, before)  # nothing evicted
    assert arch.values.tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "lower, upper, message",
    [
        ([0.0, 0.0], [1.0], "upper must have shape (2,), got (1,)"),
        ([0.0, 0.0], [1.0, 0.0], "every upper bound must exceed its lower bound"),
        ([0.0], [-1.0], "every upper bound must exceed its lower bound"),
        # unchecked, an infinite bound scaled every point to 0
        ([0.0], [np.inf], "every upper bound must be finite"),
        ([-np.inf], [0.0], "every lower bound must be finite"),
    ],
    ids=["shape", "equal", "inverted", "infinite-upper", "infinite-lower"],
)
def test_archive_rejects_bad_bounds(lower, upper, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainingArchive(6, np.array(lower), np.array(upper))


def test_archive_rejects_bounds_that_are_not_one_dimensional():
    # unchecked, (2, 2) bounds would read as s = 4 and fail later, in training
    box = np.zeros((2, 2))
    with pytest.raises(ValueError, match=re.escape("lower must have shape (any,), got (2, 2)")):
        TrainingArchive(6, box, box + 1.0)
    with pytest.raises(ValueError, match=re.escape("lower must have shape (any,), got ()")):
        TrainingArchive(6, 0.0, 1.0)


@pytest.mark.parametrize("capacity", [2.5, True, 0, -3, "6"])
def test_archive_rejects_a_capacity_that_is_not_a_positive_integer(capacity):
    message = re.escape(f"capacity must be an integer >= 1, got {capacity!r}")
    with pytest.raises(ValueError, match=message):
        TrainingArchive(capacity, [0.0], [1.0])


def test_archive_accepts_a_numpy_integer_capacity():
    arch = TrainingArchive(np.int64(3), [0.0], [1.0])
    arch.push(np.array([[0.1], [0.2], [0.3]]), np.arange(3.0))
    arch.push(np.array([[0.4]]), np.array([3.0]))
    assert arch.values.tolist() == [1.0, 2.0, 3.0]


def test_arrays_read_before_a_push_or_rebase_keep_their_rows():
    arch = filled_archive([[0.0], [1.0], [2.0]], [5.0, 3.0, -1.0],
                          lower=[-10.0], upper=[10.0])
    points, values = arch.points, arch.values
    arch.push(np.array([[7.0]]), np.array([70.0]))
    assert points.ravel().tolist() == [0.0, 1.0, 2.0]
    assert values.tolist() == [5.0, 3.0, -1.0]
    values = arch.values
    arch.rebase(3.0)
    assert values.tolist() == [3.0, -1.0, 70.0]
    assert arch.values.tolist() == [0.0, -4.0, 67.0]


def test_duplicate_push_gets_perturbed():
    arch = filled_archive([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [0.0, 1.0, 2.0])
    arch.push(np.array([[1.0, 1.0]]), np.array([5.0]))
    stored = arch.points[-1]
    gap = np.abs(stored - np.array([1.0, 1.0]))
    assert np.all(gap > 0)                      # moved off the duplicate
    assert np.max(gap) <= 2e-8 * 20.0           # but only by ~1e-9 of the range
    gaps = np.max(np.abs(arch.points[:-1] - stored), axis=1)
    assert np.min(gaps) >= 1e-12


def test_rebase_shifts_all_improvements():
    arch = filled_archive([[0.0], [1.0], [2.0]], [5.0, 3.0, -1.0],
                          lower=[-10.0], upper=[10.0])
    arch.rebase(3.0)
    assert arch.values.tolist() == [2.0, 0.0, -4.0]


def test_rebase_preserves_ranking():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=10)
    arch = filled_archive(rng.uniform(-10, 10, (10, 2)), vals)
    before = np.argsort(arch.values).tolist()
    arch.rebase(1.234)
    assert np.argsort(arch.values).tolist() == before


class ListArchive:
    """Straight-line reference for TrainingArchive on Python lists: a row
    that lies within DUPLICATE_TOL of a stored row is nudged before it is
    appended, and a push drops the oldest rows that overflow the capacity."""

    def __init__(self, capacity, lower, upper):
        self.capacity, self.lower, self.upper = capacity, lower, upper
        self.rows, self.values, self.tick = [], [], 0

    def insert(self, x, value):
        if self.rows and min(np.max(np.abs(r - x)) for r in self.rows) < DUPLICATE_TOL:
            span = self.upper - self.lower
            center = 0.5 * (self.lower + self.upper)
            direction = np.where(center >= x, 1.0, -1.0)
            jitter = np.random.default_rng(self.tick).uniform(0.5, 1.0, x.size)
            x = np.clip(x + 1e-9 * span * direction * jitter, self.lower, self.upper)
        self.rows.append(x)
        self.values.append(value)
        self.tick += 1

    def push(self, points, values):
        over = max(len(self.rows) + len(points) - self.capacity, 0)
        del self.rows[:over]
        del self.values[:over]
        for x, v in zip(points, values):
            self.insert(x, v)

    def rebase(self, delta):
        self.values = [v - delta for v in self.values]


def test_archive_matches_straight_line_reference_with_planted_duplicates():
    rng = np.random.default_rng(8)
    cap, s = 12, 3
    lower, upper = np.full(s, -5.0), np.full(s, 5.0)
    arch = TrainingArchive(cap, lower, upper)
    ref = ListArchive(cap, lower, upper)
    init = rng.uniform(lower, upper, (cap, s))
    init[5] = init[2]                  # duplicate inside the first push
    init[7] = upper                    # a row on the bound
    init[8] = upper
    arch.push(init, np.arange(cap, dtype=float))
    for x, v in zip(init, np.arange(cap, dtype=float)):
        ref.insert(x, v)
    nudged = 0
    for _ in range(300):
        if rng.random() < 0.2:
            delta = float(rng.uniform(0.1, 2.0))
            arch.rebase(delta)
            ref.rebase(delta)
        else:
            b = int(rng.integers(1, cap + 1))
            batch = rng.uniform(lower, upper, (b, s))
            for k in range(b):
                kind = rng.integers(5)
                if kind == 1:      # a stored row, possibly one evicted by this push
                    batch[k] = ref.rows[int(rng.integers(cap))]
                elif kind == 2 and k > 0:  # an earlier row of the same batch
                    batch[k] = batch[int(rng.integers(k))]
                elif kind == 3:    # within DUPLICATE_TOL of a stored row
                    batch[k] = ref.rows[-1] + 1e-13
                elif kind == 4:    # a stored row's coordinate 0, the rest apart
                    batch[k, 0] = ref.rows[int(rng.integers(cap))][0]
            vals = rng.normal(size=b)
            arch.push(batch, vals)
            ref.push(batch, vals)
            nudged += sum(not np.array_equal(x, r) for x, r in zip(batch, ref.rows[-b:]))
        assert len(arch) == cap
        assert np.array_equal(arch.points, np.array(ref.rows))
        assert np.array_equal(arch.values, np.array(ref.values))
    assert nudged > 50  # the planted duplicates did reach the nudge


def test_rebase_rejects_nonpositive_delta():
    # unchecked, nan made every stored value NaN and inf made them -inf
    arch = filled_archive([[0.0]], [1.0], lower=[-1.0], upper=[1.0])
    for delta in (0.0, -1.0, np.nan, np.inf):
        message = re.escape(f"rebase delta must be a finite number above 0, got {delta!r}")
        with pytest.raises(ValueError, match=message):
            arch.rebase(delta)
    assert arch.values.tolist() == [1.0]


def test_push_without_close_pair_stores_rows_as_given():
    rng = np.random.default_rng(9)
    arch = filled_archive(rng.uniform(-10, 10, (20, 4)), rng.normal(size=20))
    batch = rng.uniform(-10, 10, (7, 4))
    arch.push(batch, np.arange(7.0))
    assert arch.points[-7:].tobytes() == batch.tobytes()
    assert arch.values[-7:].tolist() == list(range(7))


def test_late_duplicate_in_batch_is_nudged_like_the_reference():
    # the first two pushes have no close pair and are written as
    # whole batches; the second push's only duplicate pairs its last row
    # with its first, so its nudge is seeded by the tick count of the
    # batches before it
    rng = np.random.default_rng(10)
    cap, s = 12, 3
    lower, upper = np.full(s, -5.0), np.full(s, 5.0)
    arch = TrainingArchive(cap, lower, upper)
    ref = ListArchive(cap, lower, upper)
    init = rng.uniform(lower, upper, (cap, s))
    arch.push(init, np.arange(cap, dtype=float))
    ref.push(init, np.arange(cap, dtype=float))
    clean = rng.uniform(lower, upper, (5, s))
    late = rng.uniform(lower, upper, (6, s))
    late[-1] = late[0]
    for batch in (clean, late):
        arch.push(batch, np.arange(len(batch), dtype=float))
        ref.push(batch, np.arange(len(batch), dtype=float))
    assert not np.array_equal(arch.points[-1], late[-1])  # nudged
    assert np.array_equal(arch.points[-6:-1], late[:-1])  # nothing else
    assert arch.points.tobytes() == np.array(ref.rows).tobytes()


def test_non_finite_row_takes_the_row_by_row_insert():
    # cdist's Chebyshev gap skips a NaN coordinate; the row-by-row check
    # does not, and it nudges the finite coordinates of such a row
    arch = filled_archive([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
                          [0.0, 1.0, 2.0])
    arch.push(np.array([[4.0, np.nan, 5.0]]), np.array([3.0]))
    stored = arch.points[-1]
    assert np.isnan(stored[1])
    assert stored[0] != 4.0 and stored[2] != 5.0
    assert np.max(np.abs(stored[[0, 2]] - [4.0, 5.0])) <= 1e-9 * 20.0


def reference_train(archive):
    """Straight-line training: full cdist kernel, C-order bordered system,
    the same ridge and least-squares fallbacks as train_surrogate, each
    solve on one BLAS thread as there. Returns the solution, the
    regularized flag and the path that produced it."""
    d, s = len(archive), archive.s
    centers = (archive.points - archive.lower) / (archive.upper - archive.lower)
    labels = archive.values.copy()
    phi = cdist(centers, centers) ** 3
    q = np.hstack([centers, np.ones((d, 1))])
    a = np.zeros((d + s + 1, d + s + 1))
    a[:d, :d] = phi
    a[:d, d:] = q
    a[d:, :d] = q.T
    rhs = np.concatenate([labels, np.zeros(s + 1)])
    try:
        sol = rbf._one_blas_thread(np.linalg.solve, a, rhs)
        if np.all(np.isfinite(sol)):
            residual = phi @ sol[:d] + q @ sol[d:] - labels
            tol = INTERP_RTOL * max(1.0, float(np.max(np.abs(labels))))
            if np.max(np.abs(residual)) <= tol:
                return sol, False, "solve"
    except np.linalg.LinAlgError:
        pass
    lam = 1e-10 * float(phi.mean())
    if lam <= 0.0:
        lam = 1e-12
    a[:d, :d] += lam * np.eye(d)
    try:
        sol = rbf._one_blas_thread(np.linalg.solve, a, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution")
        return sol, True, "ridge"
    except np.linalg.LinAlgError:
        return rbf._one_blas_thread(np.linalg.lstsq, a, rhs, rcond=None)[0], True, "lstsq"


def surrogate_archive(s, kind, seed=11):
    rng = np.random.default_rng(seed)
    d = 5 * s
    arch = filled_archive(rng.uniform(-10, 10, (d, s)), rng.normal(size=d) * 100.0)
    if kind == "duplicate":    # bypass the insert-time dedupe
        arch.points[1] = arch.points[0]
        arch.values[1] = arch.values[0] + 5.0
    elif kind == "rank-deficient":
        # all samples on the diagonal line; at s = 1 that line is the whole
        # space, so the samples collapse onto one point instead
        arch.points[:] = arch.points[:, :1] if s > 1 else arch.points[0]
    return arch


@pytest.mark.parametrize("kind", ["random", "duplicate", "rank-deficient"])
@pytest.mark.parametrize("s", [1, 5, 20, 50])
def test_training_is_bit_equal_to_full_kernel_formula(s, kind):
    arch = surrogate_archive(s, kind)
    model = train_surrogate(arch)
    sol, regularized, path = reference_train(arch)
    d = len(arch)
    assert model.omega.tobytes() == sol[:d].tobytes()
    assert model.beta.tobytes() == sol[d:d + s].tobytes()
    assert model.alpha == float(sol[d + s])
    assert model.regularized == regularized
    assert path == {"random": "solve", "duplicate": "ridge", "rank-deficient": "lstsq"}[kind]


def full_kernel_prediction(model, xs):
    z = (xs - model.lower) / (model.upper - model.lower)
    return cdist(z, model.centers) ** 3 @ model.omega + z @ model.beta + model.alpha


@pytest.mark.parametrize("s", [1, 5, 20, 50])
def test_prediction_is_bit_equal_to_full_kernel_formula(s):
    arch = surrogate_archive(s, "random")
    model = train_surrogate(arch)
    rng = np.random.default_rng(12)
    samples = arch.points.copy()
    fresh = rng.uniform(-10, 10, (3 * s, s))
    mixed = np.concatenate([samples[::2], fresh])
    mixed = mixed[rng.permutation(len(mixed))]
    for xs in (samples, fresh, mixed):
        got = model.predict_batch(xs)
        assert got.tobytes() == full_kernel_prediction(model, xs).tobytes()
    assert model.predict_batch(np.empty((0, s))).shape == (0,)


def test_prediction_of_training_samples_reuses_kernel_rows(monkeypatch):
    arch = surrogate_archive(5, "random")
    model = train_surrogate(arch)
    rows = []
    counted = SimpleNamespace(
        cdist_euclidean=lambda z, c: rows.append(len(z)) or cdist(z, c))
    monkeypatch.setattr(rbf, "_kernels", lambda: counted)
    model.predict_batch(arch.points[::-1].copy())
    model.predict_batch(np.concatenate([arch.points[:4], np.full((2, 5), 0.25)]))
    assert rows == [0, 2]  # distances only for the rows that are not centers
    model.predict_batch(np.full((3, 5), 0.25))
    assert rows == [0, 2, 3]


@pytest.mark.parametrize("kind", ["random", "duplicate", "rank-deficient"])
@pytest.mark.parametrize("s", [1, 5, 20, 50])
def test_model_kernel_is_the_unridged_phi_on_every_training_path(s, kind):
    # the kernel shares memory with the system that the ridge path ridges
    arch = surrogate_archive(s, kind)
    model = train_surrogate(arch)
    assert model.kernel.tobytes() == (cdist(model.centers, model.centers) ** 3).tobytes()
    got = model.predict_batch(arch.points)
    assert got.tobytes() == full_kernel_prediction(model, arch.points).tobytes()


# Dyadic rows on the unit box: they scale to themselves and their sums are
# exact in any order. A and B are centers with one sum, so B is never the
# candidate; C is not a center but has D's sum; D holds a 0.0.
ROW_A = [0.25, 0.5, 0.125, 0.375, 0.0625]
ROW_B = [0.5, 0.25, 0.125, 0.375, 0.0625]
ROW_C = [0.0, 0.75, 0.125, 0.0625, 0.5]
ROW_D = [0.75, 0.0, 0.125, 0.0625, 0.5]
NEGATIVE_ZERO = [0.75, -0.0, 0.125, 0.0625, 0.5]
NAN_ROW = [0.75, np.nan, 0.125, 0.0625, 0.5]


@pytest.mark.parametrize("batch", [
    "same-sum-as-a-center", "equal-sum-centers", "equal-sum-centers-reversed",
    "negative-zero", "nan", "all-centers", "no-centers", "empty"])
def test_center_matching_edge_cases_are_bit_equal_to_full_kernel_formula(batch):
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, (30, 5))
    pts[[3, 7, 11]] = [ROW_A, ROW_B, ROW_D]
    arch = filled_archive(pts, rng.normal(size=30), lower=np.zeros(5), upper=np.ones(5))
    model = train_surrogate(arch)
    assert np.array_equal(model.centers[[3, 7, 11]], [ROW_A, ROW_B, ROW_D])
    assert np.sum(ROW_A) == np.sum(ROW_B) and np.sum(ROW_C) == np.sum(ROW_D)
    xs = np.array({
        "same-sum-as-a-center": [ROW_C],
        "equal-sum-centers": [ROW_A, ROW_B],
        "equal-sum-centers-reversed": [ROW_B, ROW_A],
        "negative-zero": [NEGATIVE_ZERO],
        "nan": [NAN_ROW, ROW_D],
        "all-centers": pts[::-1],
        "no-centers": rng.uniform(0.0, 1.0, (8, 5)),
        "empty": np.empty((0, 5)),
    }[batch])
    got = model.predict_batch(xs)
    assert got.shape == (len(xs),)
    assert got.tobytes() == full_kernel_prediction(model, xs).tobytes()


def traced_peak(call):
    """The peak of the memory that ``call`` allocates, numpy's buffers
    included, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 250 x 50 is f14 1000-d's archive, and 100 the trial batch of a generation.
GUARD_D, GUARD_S, GUARD_ROWS = 250, 50, 100


def guard_archive():
    rng = np.random.default_rng(15)
    arch = filled_archive(rng.uniform(-10, 10, (GUARD_D, GUARD_S)), rng.normal(size=GUARD_D))
    train_surrogate(arch)  # loads the kernels and caches the triangle positions
    return arch


def test_training_allocates_only_the_system_the_distances_and_the_centers():
    d, s = GUARD_D, GUARD_S
    arch = guard_archive()
    peak = traced_peak(lambda: train_surrogate(arch))
    assert peak <= ((d + s + 1) ** 2 + d * (d - 1) // 2 + d * s) * 8 * 1.1


def test_prediction_of_trials_allocates_only_one_distance_block():
    model = train_surrogate(guard_archive())
    trials = np.random.default_rng(16).uniform(-10, 10, (GUARD_ROWS, GUARD_S))
    peak = traced_peak(lambda: model.predict_batch(trials))
    assert peak <= (GUARD_ROWS * GUARD_D + GUARD_ROWS * GUARD_S) * 8 * 1.1


# The kernels rbf loads on its own, checked against scipy's public cdist and
# pdist in a fresh interpreter: once with coopevo loading them before
# scipy.spatial is imported, once after. Each order also runs a tiny sacc
# experiment, whose final value must not depend on the order.
KERNEL_ORDERS = {
    "coopevo-first": (
        "from coopevo import harness, rbf\n"
        "final_f = tiny_sacc(harness)\n"
        "spatial_before = 'scipy.spatial' in sys.modules\n"
        "from scipy.spatial import distance\n"
    ),
    "scipy-first": (
        "from scipy.spatial import distance\n"
        "spatial_before = True\n"
        "from coopevo import harness, rbf\n"
        "final_f = tiny_sacc(harness)\n"
    ),
}
KERNEL_CHECK = """
kernels = rbf._kernels()
rng = np.random.default_rng(3)
shapes = [(100, 250, 50), (10, 240, 50), (100, 100, 20), (0, 4, 3), (1, 4, 3), (4, 0, 3), (4, 1, 3)]
blocks = [(rng.random((a, s)), rng.random((b, s))) for a, b, s in shapes]
with_nan = rng.random((5, 3))
with_nan[2, 1] = np.nan
blocks.append((with_nan, rng.random((4, 3))))
mismatched = []
for x, y in blocks:
    for metric in ("euclidean", "chebyshev"):
        cdist_kernel = getattr(kernels, "cdist_" + metric)
        pdist_kernel = getattr(kernels, "pdist_" + metric)
        pairs = [(cdist_kernel(x, y), distance.cdist(x, y, metric)),
                 (pdist_kernel(x), distance.pdist(x, metric)),
                 (pdist_kernel(y), distance.pdist(y, metric))]
        for got, want in pairs:
            if got.shape != want.shape or got.tobytes() != want.tobytes():
                mismatched.append([metric, x.shape, y.shape])
print(json.dumps({"spatial_before": spatial_before, "final_f": final_f,
                  "same_module": kernels is distance._distance_pybind,
                  "mismatched": mismatched}))
"""
TINY_SACC = """
import json, sys
import numpy as np

def tiny_sacc(harness):
    config = harness.ExperimentConfig(functions=("f01",), dim=20, algorithm="sacc",
                                      budget=600, runs=1)
    return harness.run_experiment(config).records["f01"][0].final_f
"""


def fresh_kernel_check(order, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = TINY_SACC + KERNEL_ORDERS[order] + KERNEL_CHECK
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_loaded_kernels_are_bit_equal_to_cdist_and_pdist_in_either_import_order(tmp_path):
    reports = {order: fresh_kernel_check(order, tmp_path) for order in KERNEL_ORDERS}
    for report in reports.values():
        assert report["mismatched"] == []
        assert report["same_module"]
    assert not reports["coopevo-first"]["spatial_before"]
    assert reports["coopevo-first"]["final_f"] == reports["scipy-first"]["final_f"]


def test_kernel_loader_names_a_missing_file_or_function(monkeypatch):
    monkeypatch.delitem(sys.modules, rbf.KERNEL_MODULE, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    rbf._kernels.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"_distance_pybind\.missing'\] exists"):
            rbf._kernels()
        partial = SimpleNamespace(__file__="kernels.so", cdist_euclidean=cdist)
        monkeypatch.setitem(sys.modules, rbf.KERNEL_MODULE, partial)
        with pytest.raises(ImportError, match="kernels.so has no function pdist_euclidean"):
            rbf._kernels()
    finally:
        rbf._kernels.cache_clear()


# --- BLAS threads and SIMD dispatch ---------------------------------------------

# One seeded sacc run of f01 at 100-d, 2000 FE, s_sep 20, in a fresh
# interpreter; it prints the final value and a digest of the trace and the
# final point. With the solves unpinned, two threads ended it at 4.97e8 and
# one at 5.28e8.
THREADED_RUN = """
import hashlib, json
from coopevo import RunParams, SurrogateCC, get_function, ideal_decompose
fn = get_function("f01", 100, 1)
record = SurrogateCC(fn, ideal_decompose(fn, 20), RunParams(max_fe=2000), seed=1).run()
digest = hashlib.sha256(repr(record.rows).encode() + record.final_x.tobytes()).hexdigest()
print(json.dumps({"final_f": record.final_f, "digest": digest}))
"""


def run_threaded(tmp_path, **env):
    """THREADED_RUN's reply, run under this environment with ``env`` set."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **env)
    done = subprocess.run([sys.executable, "-c", THREADED_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_sacc_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    threads = min(2, os.cpu_count() or 1)  # never more threads than CPUs
    if threads < 2:
        pytest.skip("one CPU: there is no second thread count to compare")
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps: rbf cannot find OpenBLAS to pin its threads")
    one, many = (run_threaded(tmp_path, OPENBLAS_NUM_THREADS=str(n)) for n in (1, threads))
    assert many == one


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="np.power's cube follows numpy's SIMD dispatch: THREADED_RUN ends "
                          "at 5.2803e8 with AVX-512 and at 6.6104e8 without it")
def test_sacc_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    avx512 = [group for group in found if group == "X86_V4" or group.startswith("AVX512")]
    if not avx512:
        pytest.skip("numpy dispatches to no AVX-512 group here")
    default, narrow = (run_threaded(tmp_path, OPENBLAS_NUM_THREADS="1",
                                    NPY_DISABLE_CPU_FEATURES=disabled)
                       for disabled in ("", " ".join(avx512)))
    assert narrow == default


def test_one_blas_thread_restores_the_previous_count_also_when_the_call_raises():
    libs = rbf._openblas_threads()
    if not libs:
        pytest.skip("no OpenBLAS whose thread count can be set")

    def counts():
        return [get() for get, _ in libs]

    def singular():
        inside.append(counts())
        raise np.linalg.LinAlgError("singular")

    original, inside = counts(), []
    threads = min(2, os.cpu_count() or 1)
    try:
        for _, set_ in libs:
            set_(threads)
        assert rbf._one_blas_thread(counts) == [1] * len(libs)
        assert counts() == [threads] * len(libs)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            rbf._one_blas_thread(singular)
        assert inside == [[1] * len(libs)]
        assert counts() == [threads] * len(libs)
    finally:
        for (_, set_), n in zip(libs, original):
            set_(n)
