"""Shifted/rotated additively separable benchmark functions.

The suite mirrors the classic large-scale benchmark layout: a pool of base
functions is composed into 18 test functions whose variables are split into
known separable and rotated nonseparable groups, so optimizers with a
decomposition stage can be tested against the ground-truth structure.
Shift vectors and rotation matrices are synthesized from a seed instead of
being loaded from external data files, which keeps every run reproducible
from the seed and numpy's SIMD dispatch: the elliptic coefficients come
from ``np.power``, whose last bits follow the loop numpy picks for the host
(at 1000-d, the coefficients for groups of 50, 500, 950 and 1000 differ
between its AVX-512 and AVX2 loops).

A function is its table of groups: each ``Group`` holds its variable
indices, its base, its weight and, if it is nonseparable, its rotation.
The dimension and the bounds (each group's ``BASE_BOUNDS`` box) are
derived from that table, and the table is the ground-truth structure that
``decomposition.ideal_decompose`` reads.

Each group's weighted term is computed by one call, ``_Term.term``: the
group's base applied to its shifted (and, if rotated, ``rot.dot(z)``)
coordinates, times its weight. ``BenchmarkFunction.terms`` calls it for
every group in group order, and ``evaluate`` adds the terms one at a time
in that order. The shift at each group's indices and the elliptic
coefficients of each group size are computed once, not per call.

Because the function is a sum of group terms, a point that differs from a
known one only inside some groups needs only those groups recomputed.
``fn.known(kept, groups)`` checks the kept terms and the group positions
once and returns a ``KnownTerms`` bound to ``fn``; ``terms(x, known)`` and
``evaluate(x, known)`` take only ``None`` or such a ``KnownTerms`` of the
same function, check just its type and owner per call, copy the kept terms
and call the term of each listed group, the same call a full evaluation
makes, so the terms and their sum are bit-identical to a full evaluation by
construction. ``groups_of`` maps variable indices to the positions of the
groups that own them. The cooperative run uses this to score a
sub-solution embedded into the context vector from the context's kept
terms, building one ``KnownTerms`` per batch of rows (``runtime``).

Each base maps ``z`` of shape ``(..., m)`` to one value per row and is
row-stable: a row's value does not depend on the other rows passed with
it, and equals the value of the same row passed alone as a 1-D ``z``. So a
step that scores many candidate rows of one group in one call gets the
values the per-group term gives. Every reduction is taken per row:

- each dot product is a stacked ``np.matmul`` of ``(..., 1, m)`` slices,
  which makes one BLAS dot per row (a ``(b, m) @ coef`` gemv or an
  ``einsum`` would sum in another order); a 1-D dot is ``a.dot(b)``, the
  same BLAS dot;
- sums run along the last axis;
- ``ackley`` keeps libm's ``math.exp``, one value at a time, so a row's
  value is the scalar formula's (``np.exp`` differs from it in the last
  ulp on some inputs); on a scalar it calls ``math.exp`` directly.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

# the group kinds ``manifest()`` writes
SEPARABLE = "separable-singleton-block"
NONSEPARABLE = "nonseparable-rotated"

# conventional box per base function
BASE_BOUNDS = {
    "sphere": (-100.0, 100.0),
    "elliptic": (-100.0, 100.0),
    "rastrigin": (-5.0, 5.0),
    "ackley": (-32.0, 32.0),
    "schwefel12": (-100.0, 100.0),
    "rosenbrock": (-100.0, 100.0),
}


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, one BLAS dot per row: ``a.dot(b)``
    for a 1-D ``a``, a stacked ``np.matmul`` otherwise."""
    if a.ndim == 1:
        return a.dot(b)
    return np.matmul(a[..., None, :], b[..., None])[..., 0, 0]


def _libm_exp(a: np.ndarray) -> np.ndarray | float:
    """Elementwise ``math.exp``; a 0-d input gives the float itself."""
    if np.ndim(a) == 0:
        return math.exp(a)
    return np.array([math.exp(v) for v in np.ravel(a)]).reshape(np.shape(a))


@functools.lru_cache(maxsize=64)
def _elliptic_coef(s: int) -> np.ndarray:
    coef = 10.0 ** (6.0 * np.arange(s) / max(s - 1, 1))
    coef.flags.writeable = False
    return coef


# Each base maps z of shape (..., m) to its values of shape (...), one per
# row of the last axis; a 1-D z gives a scalar.


def sphere(z: np.ndarray) -> np.ndarray:
    return _dot(z, z)


def elliptic(z: np.ndarray) -> np.ndarray:
    """Sum of squares with coefficients 10^(6*i/(s-1)), i = 0..s-1 (1.0
    for s = 1)."""
    return _dot(z * z, _elliptic_coef(z.shape[-1]))


def rastrigin(z: np.ndarray) -> np.ndarray:
    return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=-1)


def ackley(z: np.ndarray) -> np.ndarray:
    s = z.shape[-1]
    term1 = -20.0 * _libm_exp(-0.2 * np.sqrt(_dot(z, z) / s))
    term2 = -_libm_exp(np.sum(np.cos(2.0 * np.pi * z), axis=-1) / s)
    return term1 + term2 + 20.0 + math.e


def schwefel12(z: np.ndarray) -> np.ndarray:
    partial = np.cumsum(z, axis=-1)
    return _dot(partial, partial)


def rosenbrock(z: np.ndarray) -> np.ndarray:
    # optimum moved to z = 0 (y = z + 1 is the classic parameterization)
    y = z + 1.0
    head, tail = y[..., :-1], y[..., 1:]
    return np.sum(100.0 * (head ** 2 - tail) ** 2 + (head - 1.0) ** 2, axis=-1)


BASES = {
    "sphere": sphere,
    "elliptic": elliptic,
    "rastrigin": rastrigin,
    "ackley": ackley,
    "schwefel12": schwefel12,
    "rosenbrock": rosenbrock,
}


def check_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Raise a ``ValueError`` that names ``value`` unless it is an integer
    in ``low..high`` (``None`` leaves that end open): ``bool`` is an int
    subclass and does not count; numpy integers do. The one integer test of
    the package."""
    if (type(value) is bool or not isinstance(value, (int, np.integer))
            or (low is not None and value < low) or (high is not None and value > high)):
        span = (f" in {low}..{high}" if high is not None
                else f" >= {low}" if low is not None else "")
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")


def float_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array, or a ``ValueError`` naming ``name`` and
    both shapes unless its shape matches ``shape``, where ``None`` matches
    any length. The one array-shape check of the package."""
    a = np.asarray(value, dtype=float)
    if a.shape != shape and (a.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, a.shape))):
        # printed as a tuple: (5,), (any, 3)
        want = ", ".join("any" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        raise ValueError(f"{name} must have shape ({want}), got {a.shape}")
    return a


def check_dim(dim) -> None:
    """Raise unless ``dim`` is a suite dimension: a positive multiple of 20."""
    check_integer("dim", dim)
    if dim < 20 or dim % 20 != 0:
        raise ValueError("dim must be a positive multiple of 20")


def check_partition(groups, n: int) -> tuple[np.ndarray, ...]:
    """``groups`` as read-only 1-D integer arrays of their own, in order,
    once checked to partition 0..n-1: every group is a non-empty sequence
    of integers (``bool`` is not one), no index appears twice in one group
    or in two groups, and together they cover 0..n-1."""
    seen: set[int] = set()
    arrays = []
    for grp in groups:
        try:
            grp = list(grp.tolist() if isinstance(grp, np.ndarray) else grp)
        except TypeError:
            raise ValueError(f"group must be a sequence of integers, got {grp!r}") from None
        if not grp:
            raise ValueError("empty group")
        for i in grp:
            check_integer("group entry", i)
        members = set(grp)
        if len(members) != len(grp):
            repeated = next(i for k, i in enumerate(grp) if i in grp[:k])
            raise ValueError(f"index {repeated} repeated in one group")
        if seen & members:
            raise ValueError("groups are not disjoint")
        seen |= members
        idx = np.array(grp, dtype=int)
        idx.flags.writeable = False
        arrays.append(idx)
    if not seen or seen != set(range(n)):
        raise ValueError("groups do not cover 0..n-1")
    return tuple(arrays)


class _Term(NamedTuple):
    """One group's weighted term."""

    idx: np.ndarray  # (m,) variable indices
    shift: np.ndarray  # (m,) shift at those indices
    rot: np.ndarray | None  # (m, m) rotation, None for a separable group
    base: Callable[[np.ndarray], np.ndarray]
    weight: float

    def term(self, x: np.ndarray) -> float:
        """Weighted base value of the group at the point ``x``."""
        idx, shift, rot, base, weight = self
        z = x[idx] - shift
        if rot is not None:
            z = rot.dot(z)
        return weight * base(z)


@dataclass(frozen=True, eq=False)
class Group:
    """One group of a benchmark function: its variable indices, the name of
    its base function, its weight and, for a nonseparable group, its
    rotation. ``rotation is None`` means the group is separable."""

    indices: tuple[int, ...]
    base: str
    weight: float = 1.0
    rotation: np.ndarray | None = None


def _box(groups) -> tuple[np.ndarray, np.ndarray]:
    """Each variable's bounds: the ``BASE_BOUNDS`` box of its group's base."""
    n = sum(len(g.indices) for g in groups)
    lower, upper = np.empty(n), np.empty(n)
    for g in groups:
        if g.base not in BASES:
            raise ValueError(f"unknown base {g.base!r}")
        idx = list(g.indices)
        lower[idx], upper[idx] = BASE_BOUNDS[g.base]
    return lower, upper


@dataclass(frozen=True, eq=False, slots=True)
class KnownTerms:
    """The group terms of a known point, made by ``BenchmarkFunction.known``.

    ``kept`` holds every group's term as a float, ``groups`` the positions
    of the groups a new point may differ in, and ``fn`` the function they
    were checked for; only that function's ``terms`` and ``evaluate``
    accept it."""

    kept: tuple[float, ...]
    groups: tuple[int, ...]
    fn: BenchmarkFunction


@dataclass(frozen=True, eq=False)
class BenchmarkFunction:
    """A fixed, immutable test function f(x) = sum of per-group terms.

    Each group applies its base function to shifted (and, for nonseparable
    groups, rotated) coordinates, scaled by a per-group weight. Evaluation
    is pure: the same x always yields the same value. The dimension ``n``
    and the bounds are derived from ``groups``, which must partition
    0..n-1; ``shift``, ``lower``, ``upper`` and each rotation in ``groups``
    are read-only arrays of its own.
    """

    fid: str
    shift: np.ndarray
    groups: tuple[Group, ...]
    seed: int
    n: int = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        check_integer("seed", self.seed)
        object.__setattr__(self, "seed", int(self.seed))
        n = sum(len(g.indices) for g in self.groups)
        indices = check_partition([g.indices for g in self.groups], n)
        shift = float_array("shift", self.shift, (n,)).copy()
        lower, upper = _box(self.groups)
        if not (np.all(shift > lower) and np.all(shift < upper)):
            raise ValueError("shift must lie strictly inside bounds")
        for a in (shift, lower, upper):
            a.flags.writeable = False
        object.__setattr__(self, "shift", shift)
        groups, terms = [], []
        owner = np.empty(n, dtype=int)
        for pos, (g, idx) in enumerate(zip(self.groups, indices)):
            rot = g.rotation
            if rot is not None:
                m = len(g.indices)
                # the copy keeps the caller's memory layout, so rot.dot gives the same bits
                rot = float_array("rotation", rot, (m, m)).copy(order="K")
                err = np.max(np.abs(rot.T @ rot - np.eye(m)))
                if not err <= 1e-10:  # a NaN entry makes err NaN
                    raise ValueError(f"rotation not orthogonal (err={err:.2e})")
                rot.flags.writeable = False
                g = replace(g, rotation=rot)
            groups.append(g)
            weight = float(g.weight)
            if not math.isfinite(weight):
                raise ValueError(f"group {pos} weight must be finite, got {weight!r}")
            terms.append(_Term(idx, shift[idx], rot, BASES[g.base], weight))
            owner[idx] = pos
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_terms", tuple(terms))
        # the position of the group that owns each variable
        object.__setattr__(self, "_owner", owner)

    def __call__(self, x: np.ndarray) -> float:
        return self.evaluate(x)

    def evaluate(self, x: np.ndarray, known: KnownTerms | None = None) -> float:
        """Full fitness: the sum of ``terms(x, known)``.

        The terms are added one at a time in group order, so the value is
        bit-identical to evaluating and adding the groups one by one (see
        the module docstring), with or without ``known``."""
        return sum(self._values(x, known))

    def terms(self, x: np.ndarray, known: KnownTerms | None = None) -> np.ndarray:
        """The weighted term of every group at ``x``, in group order.

        ``known``, made by ``self.known(terms, groups)``, holds the terms of
        a point that agrees with ``x`` outside the listed group positions:
        those terms are kept and only the listed groups are recomputed, by
        the same per-group call as without ``known``."""
        return np.array(self._values(x, known))

    def known(self, terms, groups) -> KnownTerms:
        """The ``known`` argument of ``terms`` and ``evaluate``: ``terms``
        must have shape ``(k,)`` for k groups and ``groups`` (see
        ``groups_of``) must hold integers, not ``bool``, in 0..k-1. Checked
        once here, so a batch of points can share one ``KnownTerms``."""
        k = len(self._terms)
        kept = float_array("terms", terms, (k,))
        groups = groups.tolist() if isinstance(groups, np.ndarray) else list(groups)
        for pos in groups:
            check_integer("group position", pos, 0, k - 1)
        return KnownTerms(tuple(kept.tolist()), tuple(map(int, groups)), self)

    def _values(self, x: np.ndarray, known: KnownTerms | None) -> list:
        """``terms(x, known)`` as a list of floats, the one path of both
        ``terms`` and ``evaluate``: the kept terms are copied as a list, so
        a partial evaluation copies no array."""
        x = float_array("x", x, (self.n,))
        if known is None:
            return [float(term.term(x)) for term in self._terms]
        if type(known) is not KnownTerms:
            raise ValueError(f"known must be None or a KnownTerms, got {type(known).__name__}")
        if known.fn is not self:
            raise ValueError(f"known was made by another function, not this {self.fid}")
        out = list(known.kept)
        for pos in known.groups:
            out[pos] = float(self._terms[pos].term(x))
        return out

    def groups_of(self, indices) -> tuple[int, ...]:
        """Sorted positions of the groups that own any of ``indices``, each
        an integer (``bool`` is not one) in 0..n-1."""
        indices = indices.tolist() if isinstance(indices, np.ndarray) else list(indices)
        for i in indices:
            check_integer("variable index", i, 0, self.n - 1)
        # a set, not np.unique, which imports numpy.ma at its first call
        return tuple(sorted(set(self._owner[np.asarray(indices, dtype=int)].tolist())))

    def manifest(self) -> dict:
        """Auditable description of the function (no large matrices)."""
        return {
            "id": self.fid,
            "n": self.n,
            "seed": self.seed,
            "groups": [
                {
                    "kind": SEPARABLE if g.rotation is None else NONSEPARABLE,
                    "base": g.base,
                    "weight": term.weight,
                    "size": len(g.indices),
                    "indices": list(map(int, g.indices)),
                }
                for g, term in zip(self.groups, self._terms)
            ],
            "bounds": {
                "lower": self.lower.tolist(),
                "upper": self.upper.tolist(),
            },
        }


def _synth_shift(rng: np.random.Generator, lower, upper) -> np.ndarray:
    # middle 80% of the box, so the optimum never sits on a bound
    span = upper - lower
    return rng.uniform(lower + 0.1 * span, upper - 0.1 * span)


def _synth_rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q


# layout of the 18-function suite: id -> (separable base, nonseparable base,
# number of rotated groups of dim // 20 variables, weight on each rotated
# group). Zero rotated groups make a fully separable function; no separable
# base means the 20 rotated groups tile every variable.
_SUITE_LAYOUT = {
    "f01": ("elliptic", None, 0, 1.0),
    "f02": ("rastrigin", None, 0, 1.0),
    "f03": ("ackley", None, 0, 1.0),
    "f04": ("elliptic", "elliptic", 1, 1e6),
    "f05": ("rastrigin", "rastrigin", 1, 1e6),
    "f06": ("ackley", "ackley", 1, 1e6),
    "f07": ("sphere", "schwefel12", 1, 1e6),
    "f08": ("sphere", "rosenbrock", 1, 1e6),
    "f09": ("elliptic", "elliptic", 10, 1.0),
    "f10": ("rastrigin", "rastrigin", 10, 1.0),
    "f11": ("ackley", "ackley", 10, 1.0),
    "f12": ("sphere", "schwefel12", 10, 1.0),
    "f13": ("sphere", "rosenbrock", 10, 1.0),
    "f14": (None, "elliptic", 20, 1.0),
    "f15": (None, "rastrigin", 20, 1.0),
    "f16": (None, "ackley", 20, 1.0),
    "f17": (None, "schwefel12", 20, 1.0),
    "f18": (None, "rosenbrock", 20, 1.0),
}

FUNCTION_IDS = tuple(_SUITE_LAYOUT)


def _assemble(fid: str, dim: int, seed: int, layout: tuple) -> BenchmarkFunction:
    """Assemble one function from a ``_SUITE_LAYOUT`` row ``(sep_base,
    nonsep_base, n_groups, weight)``: ``n_groups`` rotated blocks of
    ``dim // 20`` variables drawn from a seeded permutation, the remaining
    variables in one separable block. ``dim`` and ``seed`` must be integers
    (``bool`` is not one)."""
    check_integer("dim", dim, 1)
    check_integer("seed", seed)
    sep_base, nonsep_base, n_groups, weight = layout
    size = dim // 20

    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(fid.encode())]))
    perm = rng.permutation(dim)

    groups: list[Group] = []
    sep_idx = np.sort(perm[n_groups * size:])
    if sep_idx.size:
        groups.append(Group(tuple(int(i) for i in sep_idx), sep_base))
    for k in range(n_groups):
        idx = perm[k * size:(k + 1) * size]
        groups.append(Group(tuple(int(i) for i in idx), nonsep_base, weight,
                            _synth_rotation(rng, size)))

    shift = _synth_shift(rng, *_box(groups))
    fn = BenchmarkFunction(fid, shift, tuple(groups), seed)
    opt = fn(shift)
    if abs(opt) > 1e-9:
        raise AssertionError(f"{fid}: f(shift) = {opt!r}, expected 0")
    return fn


def make_separable(base: str, dim: int, seed: int) -> BenchmarkFunction:
    """Fully separable single-base function (handy for small experiments)."""
    return _assemble(f"{base}-{dim}d", dim, seed, (base, None, 0, 1.0))


def make_suite(dim: int, seed: int) -> list[BenchmarkFunction]:
    """The 18-function suite scaled to ``dim``.

    Rotated groups have size dim/20 so the 20-group members exactly tile the
    space; at dim=1000 that reproduces the reference layout of 50-variable
    nonseparable blocks.
    """
    return [get_function(fid, dim, seed) for fid in FUNCTION_IDS]


def get_function(fid: str, dim: int, seed: int) -> BenchmarkFunction:
    """Build a single suite member by id ('f01' .. 'f18')."""
    if fid not in _SUITE_LAYOUT:
        raise ValueError(f"unknown function id {fid!r}")
    check_dim(dim)
    return _assemble(fid, dim, seed, _SUITE_LAYOUT[fid])


def suite_manifest(suite: list[BenchmarkFunction]) -> str:
    """JSON manifest for a whole suite (auditable record of a run's inputs)."""
    return json.dumps([fn.manifest() for fn in suite], indent=2)
