"""Cubic radial basis surrogate with a linear polynomial tail.

For each sub-problem the surrogate learns the mapping from a sub-solution to
the fitness improvement it would give over the current best complete
solution. Training solves the dense bordered interpolation system

    | Phi  Q | |omega|   |e|
    | Q^T  0 | |gamma| = |0|

with Phi_ij = ||t_i - t_j||^3 and Q's rows (t_i^T, 1); gamma stacks the
linear-tail coefficients and the constant. The system is invertible exactly
when Q has full column rank, i.e. the samples affinely span the space.
Inputs are scaled to the unit box before distances are taken so conditioning
does not depend on the magnitude of the variable bounds; labels stay in raw
units.

One optimizer step trains a model and predicts the parents and the trials
with it, and it does each distance only once:

- Phi is symmetric with a zero diagonal, so training takes the d(d-1)/2
  pairwise distances (``pdist``) and cubes only those. The entries are
  bit-equal to the full ``cdist`` block.
- The model keeps the unridged Phi as ``kernel``. A prediction row whose
  scaled coordinates are bit-equal to a center (most parents are training
  samples) takes that center's kernel row, and only the other rows go
  through ``cdist``. The assembled matrix is bit-equal to the full block,
  so the prediction is too.
- The bordered system is symmetric and is allocated in Fortran order, the
  layout LAPACK reads, so ``np.linalg.solve`` copies it without a
  transpose and returns the same solution.

The samples come from a ``TrainingArchive``: two plain arrays, rows oldest
first, that ``push`` and ``rebase`` replace rather than write in place, so
a model's labels never change under it. Nothing is carried from one step
to the next: the kernel lives as long as the model. A per-archive cache of
the scaled rows and Phi, updated by each push, was measured bit-identical
on f14 1000-d, but it raised peak RSS by 14% (76.4 to 87.3 MiB) and gave no
wall-time gain on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform


class TrainingError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


DUPLICATE_TOL = 1e-12  # infinity-norm below which two samples count as equal


class TrainingArchive:
    """FIFO store of the ``capacity`` newest real-evaluated samples.

    ``points`` (b x s) and ``values`` (b,) are two plain arrays holding the
    rows oldest first, so eviction drops the leading rows. ``push`` is the
    only way in: it builds the kept tail plus the batch as new arrays and
    rebinds both attributes, and ``rebase`` rebinds ``values``. An array
    read before a ``push`` or ``rebase`` keeps its rows.

    A sample that coincides with a stored one (within DUPLICATE_TOL) is
    nudged toward the box center by ~1e-9 of the bound range before insert;
    coincident rows would make the Phi block exactly singular.

    Each batch is first checked as a whole: a Chebyshev ``cdist`` compares
    every new row with the kept rows and a Chebyshev ``pdist`` compares
    each pair of rows of the batch once (the maximum is exact, so the gaps
    are those of the row-by-row check). If no pair is closer than
    DUPLICATE_TOL and every row is finite, the batch is written as it is.
    That is exact: with nothing nudged, each row meets the same earlier rows
    as in the row-by-row insert. Otherwise the batch is inserted one row at
    a time, each row checked against all rows written before it.
    """

    def __init__(self, capacity: int, lower: np.ndarray, upper: np.ndarray):
        if type(capacity) is bool or not isinstance(capacity, (int, np.integer)) or capacity < 1:
            raise ValueError(f"capacity {capacity!r} is not an integer >= 1")
        self.capacity = capacity
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds differ in shape")
        if self.lower.ndim != 1:
            raise ValueError(f"bounds must be 1-D, got shape {self.lower.shape}")
        if not np.all(self.upper > self.lower):
            raise ValueError("every upper bound must exceed its lower bound")
        self.points = np.empty((0, self.lower.size))
        self.values = np.empty(0)
        self._next_tick = 0

    def __len__(self) -> int:
        return len(self.values)

    @property
    def s(self) -> int:
        return int(self.lower.size)

    def _dedupe(self, earlier: np.ndarray, x: np.ndarray, tick: int) -> np.ndarray:
        if len(earlier) == 0:
            return x
        gap = np.max(np.abs(earlier - x), axis=1)
        if np.min(gap) >= DUPLICATE_TOL:
            return x
        span = self.upper - self.lower
        center = 0.5 * (self.lower + self.upper)
        direction = np.where(center >= x, 1.0, -1.0)
        # tick-seeded per-coordinate magnitudes: repeated pushes of one point
        # stay apart from each other AND in general position, so a fully
        # converged archive cannot collapse onto an affine subspace
        jitter = np.random.default_rng(tick).uniform(0.5, 1.0, x.size)
        return np.clip(x + 1e-9 * span * direction * jitter, self.lower, self.upper)

    def push(self, batch_points: np.ndarray, batch_values: np.ndarray):
        """Append fresh samples (oldest first), evicting only as many of the
        oldest rows as the ``capacity`` forces out."""
        points = np.asarray(batch_points, dtype=float)
        values = np.asarray(batch_values, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.s:
            raise ValueError(f"points must have shape (b, {self.s}), got {points.shape}")
        if values.ndim != 1:
            raise ValueError(f"values must have shape (b,), got {values.shape}")
        b = len(points)
        if b != len(values):
            raise ValueError(f"{b} points but {len(values)} values")
        if b > self.capacity:
            raise ValueError("batch larger than archive capacity")
        if b == 0:
            return
        kept = min(len(self), self.capacity - b)
        tail = self.points[len(self) - kept:]
        rows = np.concatenate([tail, points])
        # gap of each new row to every kept row and to the other rows of its
        # batch; the distances skip NaN coordinates where the row-by-row
        # check does not, so a non-finite row always takes the row-by-row
        # insert
        stored = cdist(points, tail, "chebyshev")
        within = pdist(points, "chebyshev")
        if not (np.all(stored >= DUPLICATE_TOL) and np.all(within >= DUPLICATE_TOL)
                and np.all(np.isfinite(rows))):
            for i in range(kept, kept + b):
                rows[i] = self._dedupe(rows[:i], rows[i], self._next_tick + i - kept)
        self.points = rows
        self.values = np.concatenate([self.values[len(self) - kept:], values])
        self._next_tick += b

    def rebase(self, delta: float):
        """Shift every stored improvement down by ``delta`` (> 0)."""
        if delta <= 0:
            raise ValueError("rebase delta must be positive")
        self.values = self.values - delta


def _unit_box(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``x`` scaled to the unit box. Training and prediction both scale
    through here, so an input equal to a training sample scales to its
    center bit for bit and ``predict_batch`` can reuse its kernel row."""
    return (x - lower) / (upper - lower)


@dataclass
class RbfModel:
    """Trained surrogate; ``centers`` are the training samples in unit-box
    coordinates, kept so predictions and audits evaluate the exact fitted
    form. ``kernel`` is the unridged Phi block the model was trained on;
    ``predict_batch`` reuses its rows for inputs that are centers."""

    omega: np.ndarray         # (d,) radial weights
    beta: np.ndarray          # (s,) linear-tail coefficients (unit-box space)
    alpha: float
    centers: np.ndarray       # (d, s) scaled training samples
    lower: np.ndarray
    upper: np.ndarray
    kernel: np.ndarray        # (d, d) ||c_i - c_j||^3, without the ridge
    regularized: bool = False

    @staticmethod
    def _row_keys(z: np.ndarray) -> list[bytes]:
        # the raw bytes of each row: equal keys mean bit-equal coordinates
        z = np.ascontiguousarray(z)
        return z.view(f"V{z.itemsize * z.shape[1]}").ravel().tolist()

    @cached_property
    def _center_row(self) -> dict[bytes, int]:
        return dict(zip(self._row_keys(self.centers), range(len(self.centers))))

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.lower.size:
            raise ValueError("dimension mismatch")
        z = _unit_box(xs, self.lower, self.upper)
        # an input that is a center has that center's kernel row as its row
        # of cdist(z, centers) ** 3, bit for bit
        found = np.array([self._center_row.get(key, -1) for key in self._row_keys(z)],
                         dtype=np.intp)
        hit = found >= 0
        if hit.any():
            k = np.empty((len(z), len(self.centers)))
            k[hit] = self.kernel[found[hit]]
            k[~hit] = cdist(z[~hit], self.centers) ** 3
        else:  # a batch of trials seldom holds a center; skip the copy
            k = cdist(z, self.centers) ** 3
        return k @ self.omega + z @ self.beta + self.alpha


INTERP_RTOL = 1e-6  # accepted relative residual at the training samples


def train_surrogate(archive: TrainingArchive) -> RbfModel:
    """Fit the surrogate to the archive's current samples.

    Tries a plain solve first and accepts it if the model reproduces its
    training labels to INTERP_RTOL; otherwise retries once with a small
    ridge on the Phi block and flags the model as regularized. A
    rank-deficient tail block (samples that stopped spanning some
    direction, e.g. a fully converged coordinate) drops to a minimum-norm
    least-squares solve of the ridged system. Raises TrainingError only
    when no finite coefficients can be produced at all.
    """
    d = len(archive)
    s = archive.s
    if d < s + 1:
        raise TrainingError(f"need at least s+1={s + 1} samples, have {d}")

    centers = _unit_box(archive.points, archive.lower, archive.upper)
    labels = archive.values

    phi = squareform(pdist(centers) ** 3)
    q = np.hstack([centers, np.ones((d, 1))])
    a = np.zeros((d + s + 1, d + s + 1), order="F")
    a[:d, :d] = phi.T  # phi is exactly symmetric; .T matches a's layout
    a[:d, d:] = q
    a[d:, :d] = q.T
    rhs = np.concatenate([labels, np.zeros(s + 1)])

    def build(sol, regularized):
        return RbfModel(
            omega=sol[:d],
            beta=sol[d:d + s].copy(),
            alpha=float(sol[d + s]),
            centers=centers,
            lower=archive.lower.copy(),
            upper=archive.upper.copy(),
            kernel=phi,
            regularized=regularized,
        )

    try:
        sol = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(sol)):
            residual = phi @ sol[:d] + q @ sol[d:] - labels
            tol = INTERP_RTOL * max(1.0, float(np.max(np.abs(labels))))
            if np.max(np.abs(residual)) <= tol:
                return build(sol, False)
    except np.linalg.LinAlgError:
        pass

    # ridge on the radial block; the cubic kernel has a zero diagonal so the
    # scale is taken from the mean off-diagonal entry. np.linalg.solve copies
    # its inputs, so ``a`` still holds the unridged system at this point.
    lam = 1e-10 * float(phi.mean())
    if lam <= 0.0:
        lam = 1e-12
    a[:d, :d] += lam * np.eye(d)
    try:
        sol = np.linalg.solve(a, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        try:
            sol = np.linalg.lstsq(a, rhs, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise TrainingError("interpolation system singular") from exc
    if not np.all(np.isfinite(sol)):
        raise TrainingError("interpolation system produced non-finite weights")
    return build(sol, True)
