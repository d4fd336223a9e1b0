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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


class TrainingError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


DUPLICATE_TOL = 1e-12  # infinity-norm below which two samples count as equal


class TrainingArchive:
    """FIFO store of the ``capacity`` newest real-evaluated samples.

    Rows are kept in insertion order, so eviction drops the leading rows.
    A sample that coincides with a stored one (within DUPLICATE_TOL) is
    nudged toward the box center by ~1e-9 of the bound range before insert;
    coincident rows would make the Phi block exactly singular.

    The rows live in one preallocated ``(capacity, s)`` block; ``points``
    and ``values`` are views of its filled part, so they change with the
    next ``push`` or ``rebase``.
    """

    def __init__(self, capacity: int, lower: np.ndarray, upper: np.ndarray):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self._points = np.empty((capacity, self.lower.size))
        self._values = np.empty(capacity)
        self._n = 0
        self._next_tick = 0

    def __len__(self) -> int:
        return self._n

    @property
    def s(self) -> int:
        return int(self.lower.size)

    @property
    def points(self) -> np.ndarray:
        return self._points[: self._n]

    @property
    def values(self) -> np.ndarray:
        return self._values[: self._n]

    def _dedupe(self, x: np.ndarray) -> np.ndarray:
        if len(self) == 0:
            return x
        gap = np.max(np.abs(self.points - x), axis=1)
        if np.min(gap) >= DUPLICATE_TOL:
            return x
        span = self.upper - self.lower
        center = 0.5 * (self.lower + self.upper)
        direction = np.where(center >= x, 1.0, -1.0)
        # tick-seeded per-coordinate magnitudes: repeated pushes of one point
        # stay apart from each other AND in general position, so a fully
        # converged archive cannot collapse onto an affine subspace
        jitter = np.random.default_rng(self._next_tick).uniform(0.5, 1.0, x.size)
        return np.clip(x + 1e-9 * span * direction * jitter, self.lower, self.upper)

    def _append(self, points: np.ndarray, values: np.ndarray):
        # each row is deduped against every row written before it, those of
        # the same batch included
        for x, v in zip(np.asarray(points, dtype=float), values):
            self._points[self._n] = self._dedupe(x)
            self._values[self._n] = v
            self._n += 1
            self._next_tick += 1

    def fill(self, points: np.ndarray, values: np.ndarray):
        """Initial population of the archive (oldest first)."""
        if len(self) != 0:
            raise ValueError("archive already filled")
        if len(points) != self.capacity:
            raise ValueError("initial fill must supply exactly `capacity` samples")
        self._append(points, values)

    def push(self, batch_points: np.ndarray, batch_values: np.ndarray):
        """Replace the ``len(batch)`` oldest entries with fresh samples."""
        b = len(batch_points)
        if b > self.capacity:
            raise ValueError("batch larger than archive capacity")
        if b == 0:
            return
        kept = max(self._n - b, 0)
        self._points[:kept] = self._points[self._n - kept : self._n]
        self._values[:kept] = self._values[self._n - kept : self._n]
        self._n = kept
        self._append(batch_points, batch_values)

    def rebase(self, delta: float):
        """Shift every stored improvement down by ``delta`` (> 0)."""
        if delta <= 0:
            raise ValueError("rebase delta must be positive")
        self._values[: self._n] -= delta


@dataclass
class RbfModel:
    """Trained surrogate; ``centers`` are the training samples in unit-box
    coordinates, kept so predictions and audits evaluate the exact fitted
    form."""

    omega: np.ndarray         # (d,) radial weights
    beta: np.ndarray          # (s,) linear-tail coefficients (unit-box space)
    alpha: float
    centers: np.ndarray       # (d, s) scaled training samples
    lower: np.ndarray
    upper: np.ndarray
    regularized: bool = False

    def _scale(self, x: np.ndarray) -> np.ndarray:
        return (x - self.lower) / (self.upper - self.lower)

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.lower.size:
            raise ValueError("dimension mismatch")
        z = self._scale(xs)
        radial = cdist(z, self.centers) ** 3 @ self.omega
        return radial + z @ self.beta + self.alpha


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

    span = archive.upper - archive.lower
    centers = (archive.points - archive.lower) / span
    labels = archive.values.copy()

    phi = cdist(centers, centers) ** 3
    q = np.hstack([centers, np.ones((d, 1))])
    a = np.zeros((d + s + 1, d + s + 1))
    a[:d, :d] = phi
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
