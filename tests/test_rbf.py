import re

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
    with pytest.raises(ValueError):
        model.predict_batch(np.zeros((1, 2)))


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
    with pytest.raises(ValueError, match="5 points but 3 values"):
        arch.push(np.zeros((5, 2)), np.zeros(3))
    assert len(arch) == 0  # nothing written


def test_push_rejects_unequal_lengths():
    arch = filled_archive(np.arange(5.0)[:, None], np.arange(5.0))
    with pytest.raises(ValueError, match="2 points but 1 values"):
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
    with pytest.raises(ValueError, match=rf"shape \(b, 3\), got {re.escape(str(points.shape))}"):
        arch.push(points, np.arange(float(len(points))))
    assert np.array_equal(arch.points, before)  # nothing evicted
    assert arch.values.tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "lower, upper",
    [([0.0, 0.0], [1.0]), ([0.0, 0.0], [1.0, 0.0]), ([0.0], [-1.0])],
    ids=["shape", "equal", "inverted"],
)
def test_archive_rejects_bad_bounds(lower, upper):
    with pytest.raises(ValueError, match="bound"):
        TrainingArchive(6, np.array(lower), np.array(upper))


def test_archive_rejects_bounds_that_are_not_one_dimensional():
    # unchecked, (2, 2) bounds would read as s = 4 and fail later, in training
    box = np.zeros((2, 2))
    with pytest.raises(ValueError, match=re.escape("bounds must be 1-D, got shape (2, 2)")):
        TrainingArchive(6, box, box + 1.0)
    with pytest.raises(ValueError, match=re.escape("bounds must be 1-D, got shape ()")):
        TrainingArchive(6, 0.0, 1.0)


@pytest.mark.parametrize("capacity", [2.5, True, 0, -3, "6"])
def test_archive_rejects_a_capacity_that_is_not_a_positive_integer(capacity):
    with pytest.raises(ValueError, match=re.escape(f"capacity {capacity!r}")):
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
    arch = filled_archive([[0.0]], [1.0], lower=[-1.0], upper=[1.0])
    with pytest.raises(ValueError):
        arch.rebase(0.0)
    with pytest.raises(ValueError):
        arch.rebase(-1.0)


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
    the same ridge and least-squares fallbacks as train_surrogate. Returns
    the solution, the regularized flag and the path that produced it."""
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
        sol = np.linalg.solve(a, rhs)
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
        sol = np.linalg.solve(a, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution")
        return sol, True, "ridge"
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, rhs, rcond=None)[0], True, "lstsq"


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
    monkeypatch.setattr(rbf, "cdist", lambda z, c: rows.append(len(z)) or cdist(z, c))
    model.predict_batch(arch.points[::-1].copy())
    model.predict_batch(np.concatenate([arch.points[:4], np.full((2, 5), 0.25)]))
    assert rows == [0, 2]  # distances only for the rows that are not centers
    model.predict_batch(np.full((3, 5), 0.25))
    assert rows == [0, 2, 3]
