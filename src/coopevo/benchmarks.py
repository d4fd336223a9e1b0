"""Shifted/rotated additively separable benchmark functions.

The suite mirrors the classic large-scale benchmark layout: a pool of base
functions is composed into 18 test functions whose variables are split into
known separable and rotated nonseparable groups, so optimizers with a
decomposition stage can be tested against the ground-truth structure.
Shift vectors and rotation matrices are synthesized from a seed instead of
being loaded from external data files, which keeps every run reproducible
from the seed alone.

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
from dataclasses import dataclass, field
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
    coef = 10.0 ** (6.0 * np.arange(s) / (s - 1))
    coef.flags.writeable = False
    return coef


# Each base maps z of shape (..., m) to its values of shape (...), one per
# row of the last axis; a 1-D z gives a scalar.


def sphere(z: np.ndarray) -> np.ndarray:
    return _dot(z, z)


def elliptic(z: np.ndarray) -> np.ndarray:
    """Sum of squares with coefficients 10^(6*i/(s-1)), i = 0..s-1."""
    s = z.shape[-1]
    if s == 1:
        return z[..., 0] * z[..., 0]
    return _dot(z * z, _elliptic_coef(s))


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


def check_integer(name: str, value) -> None:
    """Raise a ``ValueError`` that names ``value`` unless it is an integer:
    ``bool`` is an int subclass and does not count; numpy integers do."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_partition(groups, n: int) -> None:
    """Check that ``groups`` partition the indices 0..n-1: every group is
    non-empty and holds integers (``bool`` is not one), no index appears
    twice in one group or in two groups, and together they cover 0..n-1."""
    seen: set[int] = set()
    for grp in groups:
        grp = grp.tolist() if isinstance(grp, np.ndarray) else grp
        if not grp:
            raise ValueError("empty group")
        for kind in set(map(type, grp)):
            if kind is bool or not issubclass(kind, (int, np.integer)):
                entry = next(i for i in grp if type(i) is kind)
                raise ValueError(f"group entry {entry!r} is not an integer")
        members = set(grp)
        if len(members) != len(grp):
            repeated = next(i for k, i in enumerate(grp) if i in grp[:k])
            raise ValueError(f"index {repeated} repeated in one group")
        if seen & members:
            raise ValueError("groups are not disjoint")
        seen |= members
    if not seen or seen != set(range(n)):
        raise ValueError("groups do not cover 0..n-1")


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


def _check_indices(values, stop: int, what: str) -> None:
    """Raise unless every entry of ``values`` is an integer (``bool`` is not
    one) in 0..stop-1."""
    for i in values:
        if type(i) is bool or not isinstance(i, (int, np.integer)) or not 0 <= i < stop:
            raise ValueError(f"{what} {i!r} is not an integer in 0..{stop - 1}")


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
    0..n-1.
    """

    fid: str
    shift: np.ndarray
    groups: tuple[Group, ...]
    seed: int
    n: int = field(init=False)
    lower: np.ndarray = field(init=False)
    upper: np.ndarray = field(init=False)

    def __post_init__(self):
        n = sum(len(g.indices) for g in self.groups)
        check_partition([g.indices for g in self.groups], n)
        if np.shape(self.shift) != (n,):
            raise ValueError("shift must have shape (n,)")
        lower, upper = _box(self.groups)
        if not (np.all(self.shift > lower) and np.all(self.shift < upper)):
            raise ValueError("shift must lie strictly inside bounds")
        terms = []
        owner = np.empty(n, dtype=int)
        for pos, g in enumerate(self.groups):
            rot = g.rotation
            if rot is not None:
                m = len(g.indices)
                if np.shape(rot) != (m, m):
                    raise ValueError("rotation shape does not match group size")
                err = np.max(np.abs(rot.T @ rot - np.eye(m)))
                if err > 1e-10:
                    raise ValueError(f"rotation not orthogonal (err={err:.2e})")
            idx = np.array(g.indices, dtype=int)
            terms.append(_Term(idx, self.shift[idx], rot, BASES[g.base], float(g.weight)))
            owner[idx] = pos
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
        kept = np.asarray(terms, dtype=float)
        if kept.shape != (k,):
            raise ValueError(f"expected {k} known terms, got shape {kept.shape}")
        groups = groups.tolist() if isinstance(groups, np.ndarray) else list(groups)
        _check_indices(groups, k, "group position")
        return KnownTerms(tuple(kept.tolist()), tuple(map(int, groups)), self)

    def _values(self, x: np.ndarray, known: KnownTerms | None) -> list:
        """``terms(x, known)`` as a list of floats, the one path of both
        ``terms`` and ``evaluate``: the kept terms are copied as a list, so
        a partial evaluation copies no array."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
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
        _check_indices(indices, self.n, "variable index")
        return tuple(np.unique(self._owner[np.asarray(indices, dtype=int)]).tolist())

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
                    "weight": g.weight,
                    "size": len(g.indices),
                    "indices": list(map(int, g.indices)),
                }
                for g in self.groups
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
# number of rotated groups, weight on each rotated group). Zero rotated
# groups make a fully separable function; no separable base means the
# rotated groups tile every variable.
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


def build_function(
    fid: str,
    dim: int,
    seed: int,
    sep_base: str | None,
    nonsep_base: str | None,
    n_groups: int,
    group_size: int,
    group_weight: float = 1.0,
) -> BenchmarkFunction:
    """Assemble one function: ``n_groups`` rotated blocks of ``group_size``
    variables drawn from a seeded permutation, remaining variables in one
    separable block. Pass ``n_groups=0`` for a fully separable function.
    ``dim`` and ``seed`` must be integers (``bool`` is not one)."""
    check_integer("dim", dim)
    check_integer("seed", seed)
    if n_groups * group_size > dim:
        raise ValueError("rotated groups exceed dimension")
    if n_groups > 0 and nonsep_base is None:
        raise ValueError("nonseparable base required")
    if n_groups * group_size < dim and sep_base is None:
        raise ValueError("separable base required")

    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(fid.encode())]))
    perm = rng.permutation(dim)

    groups: list[Group] = []
    sep_idx = np.sort(perm[n_groups * group_size:])
    if sep_idx.size:
        groups.append(Group(tuple(int(i) for i in sep_idx), sep_base))
    for k in range(n_groups):
        idx = perm[k * group_size:(k + 1) * group_size]
        groups.append(Group(tuple(int(i) for i in idx), nonsep_base, group_weight,
                            _synth_rotation(rng, group_size)))

    shift = _synth_shift(rng, *_box(groups))
    fn = BenchmarkFunction(fid, shift, tuple(groups), int(seed))
    opt = fn(shift)
    if abs(opt) > 1e-9:
        raise AssertionError(f"{fid}: f(shift) = {opt!r}, expected 0")
    return fn


def make_separable(base: str, dim: int, seed: int, fid: str | None = None) -> BenchmarkFunction:
    """Fully separable single-base function (handy for small experiments)."""
    return build_function(fid or f"{base}-{dim}d", dim, seed, base, None, 0, 0)


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
    check_integer("dim", dim)
    check_integer("seed", seed)
    if dim < 20 or dim % 20 != 0:
        raise ValueError("dim must be a positive multiple of 20")
    sep_base, nonsep_base, n_groups, weight = _SUITE_LAYOUT[fid]
    return build_function(fid, dim, seed, sep_base, nonsep_base, n_groups, dim // 20, weight)


def suite_manifest(suite: list[BenchmarkFunction]) -> str:
    """JSON manifest for a whole suite (auditable record of a run's inputs)."""
    return json.dumps([fn.manifest() for fn in suite], indent=2)
