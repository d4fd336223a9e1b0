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
with it, and it does each distance only once and allocates nothing large
beyond the bordered system and one distance block:

- Phi is symmetric with a zero diagonal, so training takes the d(d-1)/2
  pairwise distances (``pdist``) and cubes them in place. The entries are
  bit-equal to the full ``cdist`` block.
- The bordered system is allocated in Fortran order, the layout LAPACK
  reads, so ``np.linalg.solve`` copies it without a transpose and returns
  the same solution. The cubed distances are scattered straight into its
  Phi block, each to both of its places, and Q and Q^T are written into
  it directly: no separate Phi or Q is built.
- The model's ``kernel`` is a view of that Phi block, transposed so that
  its rows are contiguous; Phi is exactly symmetric, so the view is Phi.
  The ridge fallback ridges the system only after copying the kernel out,
  so a model always holds the unridged Phi.
- A prediction row whose scaled coordinates equal a center takes that
  center's kernel row, and only the other rows go through ``cdist``; the
  assembled matrix, and so the prediction, is bit-equal to the full block.
  Each row's one candidate center is the first with the same coordinate
  sum, found by binary search in the centers' sorted sums, and it is taken
  only if every coordinate compares equal. A row that misses (two centers
  with one sum, a NaN) goes through ``cdist`` and gives the same bits. With
  seed 1, 0.89 of parent rows are centers on f01 100-d and 0.92 on f14
  1000-d, but only 2 of 30 000 and 1 of 20 000 trial rows are: so a batch
  with a center reuses rows, and a batch without one skips the copy.

The samples come from a ``TrainingArchive``: two plain arrays, rows oldest
first, that ``push`` and ``rebase`` replace rather than write in place, so
a model's labels never change under it. Nothing is carried from one step
to the next: the kernel lives as long as the model. A per-archive cache of
the scaled rows and Phi, updated by each push, was measured bit-identical
on f14 1000-d, but it raised peak RSS by 14% (76.4 to 87.3 MiB) and gave no
wall-time gain on its own.

The distances come from scipy's compiled kernels, the extension module
``scipy.spatial._distance_pybind`` that ``scipy.spatial.distance.cdist``
and ``pdist`` dispatch to. ``_kernels`` loads that one file at the first
push, training or prediction, without importing ``scipy.spatial``: the
package import takes about 0.2 s and 36 MiB of RSS (kd-tree, qhull,
``scipy.sparse``, the array-API layer), the kernel file alone about 0.5 ms
and 0.5 MiB, and ``shade-cc`` loads neither. Calling the kernels directly
also skips the public functions' per-call wrapper; the results are the
same bits. A ``sacc`` run loads them while it builds its archives, so a
missing scipy fails before any output is written. The loading is verified
against scipy 1.17.1 only: ``tests/test_rbf.py`` checks the kernels against
``cdist`` and ``pdist`` bit for bit, in both import orders.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .benchmarks import check_integer, float_array

KERNEL_MODULE = "scipy.spatial._distance_pybind"
KERNELS = ("cdist_euclidean", "pdist_euclidean", "cdist_chebyshev", "pdist_chebyshev")


@cache
def _kernels():
    """scipy's compiled distance kernels, loaded at the first call.

    The module is taken from ``sys.modules`` if ``scipy.spatial`` has
    loaded it; otherwise its file is loaded under scipy's own module name,
    so a later ``import scipy.spatial`` finds the same extension, and it is
    not added to ``sys.modules``. ``find_spec`` locates scipy without
    importing it."""
    module = sys.modules.get(KERNEL_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None or scipy.origin is None:
            raise ImportError(f"sacc needs scipy's {KERNEL_MODULE}, and scipy is not installed")
        stem = os.path.join(os.path.dirname(scipy.origin), "spatial", "_distance_pybind")
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((path for path in paths if os.path.isfile(path)), None)
        if path is None:
            raise ImportError(f"no {KERNEL_MODULE} extension: none of {paths} exists")
        loader = importlib.machinery.ExtensionFileLoader(KERNEL_MODULE, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(KERNEL_MODULE, path, loader=loader))
        loader.exec_module(module)
    for name in KERNELS:
        if not hasattr(module, name):
            raise ImportError(f"{module.__file__} has no function {name}")
    return module


@lru_cache(maxsize=8)  # a run has one archive size per sub-problem size
def _triangle_positions(d: int, ld: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions, in a Fortran-ordered array with leading dimension
    ``ld``, of the strict upper triangle of its leading (d, d) block in
    ``pdist``'s condensed order, and of their mirror images."""
    i, j = np.triu_indices(d, 1)
    upper, lower = i + j * ld, j + i * ld
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


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
        check_integer("capacity", capacity, 1)
        self.capacity = capacity
        self.lower = float_array("lower", lower, (None,))
        self.upper = float_array("upper", upper, self.lower.shape)
        if not np.all(self.upper > self.lower):
            raise ValueError("every upper bound must exceed its lower bound")
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if not np.isfinite(bound).all():
                raise ValueError(f"every {name} bound must be finite")
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

    def push(self, points: np.ndarray, values: np.ndarray):
        """Append fresh samples (oldest first), evicting only as many of the
        oldest rows as the ``capacity`` forces out."""
        points = float_array("points", points, (None, self.s))
        b = len(points)
        values = float_array("values", values, (b,))
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
        kernels = _kernels()
        stored = kernels.cdist_chebyshev(points, tail)
        within = kernels.pdist_chebyshev(points)
        if not (np.all(stored >= DUPLICATE_TOL) and np.all(within >= DUPLICATE_TOL)
                and np.all(np.isfinite(rows))):
            for i in range(kept, kept + b):
                rows[i] = self._dedupe(rows[:i], rows[i], self._next_tick + i - kept)
        self.points = rows
        self.values = np.concatenate([self.values[len(self) - kept:], values])
        self._next_tick += b

    def rebase(self, delta: float):
        """Shift every stored improvement down by ``delta``, finite and > 0."""
        if not 0 < delta < np.inf:
            raise ValueError(f"rebase delta must be a finite number above 0, got {delta!r}")
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
    form. ``kernel`` is the unridged Phi block the model was trained on,
    usually a view of the training system; ``predict_batch`` reuses its
    rows for inputs that are centers."""

    omega: np.ndarray         # (d,) radial weights
    beta: np.ndarray          # (s,) linear-tail coefficients (unit-box space)
    alpha: float
    centers: np.ndarray       # (d, s) scaled training samples
    lower: np.ndarray
    upper: np.ndarray
    kernel: np.ndarray        # (d, d) ||c_i - c_j||^3, without the ridge; rows contiguous
    regularized: bool = False

    @cached_property
    def _center_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The centers' coordinate sums in ascending order, and the center
        each belongs to; a stable sort keeps equal sums in center order."""
        sums = self.centers.sum(axis=1)
        order = np.argsort(sums, kind="stable")
        return sums[order], order

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = float_array("xs", xs, (None, self.lower.size))
        z = _unit_box(xs, self.lower, self.upper)
        # an input that is a center has that center's kernel row as its row
        # of cdist(z, centers) ** 3, bit for bit; about 9 in 10 parent rows
        # are centers, trial rows almost never (module docstring). A row's
        # candidate is the first center with its sum, accepted only if all
        # coordinates compare equal; a -0.0 equals 0.0, and no distance
        # tells them apart.
        sums, order = self._center_sums
        cand = order[np.minimum(np.searchsorted(sums, z.sum(axis=1)), len(sums) - 1)]
        hit = np.all(z == self.centers[cand], axis=1)
        cdist = _kernels().cdist_euclidean
        if hit.any():
            k = np.empty((len(z), len(self.centers)))
            k[hit] = self.kernel[cand[hit]]
            k[~hit] = cdist(z[~hit], self.centers) ** 3
        else:  # nearly every batch of trials; skip the copy
            k = cdist(z, self.centers)
            np.power(k, 3, out=k)
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

    # the bordered system, written in place: the condensed r^3 vector with
    # each entry in both of its places of the Phi block (the same matrix as
    # squareform's), then Q = (centers, 1) and Q^T
    ld = d + s + 1
    a = np.zeros((ld, ld), order="F")
    r3 = _kernels().pdist_euclidean(centers)
    np.power(r3, 3, out=r3)
    upper, lower = _triangle_positions(d, ld)
    flat = a.T.ravel()  # a view: a.T is C-contiguous
    flat[upper] = r3
    flat[lower] = r3
    a[:d, d:d + s] = centers
    a[:d, d + s] = 1.0
    a[d:d + s, :d] = centers.T
    a[d + s, :d] = 1.0
    phi = a[:d, :d].T  # Phi is exactly symmetric; .T makes its rows contiguous
    rhs = np.concatenate([labels, np.zeros(s + 1)])

    def build(sol, kernel, regularized):
        return RbfModel(
            omega=sol[:d],
            beta=sol[d:d + s].copy(),
            alpha=float(sol[d + s]),
            centers=centers,
            lower=archive.lower.copy(),
            upper=archive.upper.copy(),
            kernel=kernel,
            regularized=regularized,
        )

    try:
        sol = np.linalg.solve(a, rhs)
        if np.all(np.isfinite(sol)):
            residual = phi @ sol[:d] + a[:d, d:] @ sol[d:] - labels
            tol = INTERP_RTOL * max(1.0, float(np.max(np.abs(labels))))
            if np.max(np.abs(residual)) <= tol:
                return build(sol, phi, False)
    except np.linalg.LinAlgError:
        pass

    # ridge on the radial block; the cubic kernel has a zero diagonal so the
    # scale is taken from the mean off-diagonal entry. np.linalg.solve copies
    # its inputs, so ``a`` still holds the unridged system at this point.
    # The ridge is written into ``a``, which ``phi`` views, so the model
    # keeps a C-ordered copy; its mean sums in the order of a separately
    # built Phi's, where the strided view's would not.
    phi = phi.copy()
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
    return build(sol, phi, True)
