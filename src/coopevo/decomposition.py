"""Static decomposition of a problem into lower-dimensional sub-problems.

``ideal_decompose`` reads a benchmark function's group table: rotated
(nonseparable) groups are kept intact, and the variables of the separable
groups are chunked in ascending index order into blocks of a chosen size.
Because the grouping comes straight from the function's known groups, the
optimum of every sub-problem coincides with the projection of the global
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkFunction, check_partition


@dataclass(frozen=True)
class SubProblem:
    """One variable block: which indices it owns and their box bounds."""

    sid: int
    indices: np.ndarray          # original variable indices, fixed order
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if self.indices.size < 1:
            raise ValueError("sub-problem must own at least one variable")
        if self.lower.shape != self.indices.shape or self.upper.shape != self.indices.shape:
            raise ValueError("bounds must match index count")

    @property
    def s(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class Decomposition:
    subproblems: tuple[SubProblem, ...]
    n: int

    def __post_init__(self):
        check_partition([sub.indices for sub in self.subproblems], self.n)
        if [sub.sid for sub in self.subproblems] != list(range(self.k)):
            raise ValueError("sub-problem ids must be 0..k-1 in order")

    @property
    def k(self) -> int:
        return len(self.subproblems)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "subproblems": [
                {"id": sub.sid, "s": sub.s, "indices": sub.indices.tolist()}
                for sub in self.subproblems
            ],
        }


def ideal_decompose(fn: BenchmarkFunction, s_sep: int) -> Decomposition:
    """Decompose ``fn`` by its group table.

    The indices of every separable group (``rotation is None``) are pooled,
    sorted ascending and cut into chunks of ``s_sep`` (the final chunk may
    be smaller); then each rotated group becomes one sub-problem verbatim,
    in table order. Bounds come from ``fn.lower`` and ``fn.upper``.
    Deterministic.
    """
    if type(s_sep) is bool or not isinstance(s_sep, (int, np.integer)) or s_sep < 1:
        raise ValueError(f"s_sep {s_sep!r} is not an integer >= 1")

    subs: list[SubProblem] = []

    def add(indices):
        idx = np.asarray(indices, dtype=int)
        subs.append(SubProblem(len(subs), idx, fn.lower[idx], fn.upper[idx]))

    sep = sorted(i for g in fn.groups if g.rotation is None for i in g.indices)
    for start in range(0, len(sep), s_sep):
        add(sep[start:start + s_sep])
    for g in fn.groups:
        if g.rotation is not None:
            add(g.indices)

    return Decomposition(tuple(subs), fn.n)


def embed(context: np.ndarray, sub: SubProblem, x_g: np.ndarray) -> np.ndarray:
    """Complete solution equal to ``context`` with ``sub``'s positions
    replaced by ``x_g``. The context itself is left untouched."""
    x_g = np.asarray(x_g, dtype=float)
    if x_g.shape != (sub.s,):
        raise ValueError(f"expected sub-vector of length {sub.s}, got shape {x_g.shape}")
    out = np.array(context, dtype=float, copy=True)
    out[sub.indices] = x_g
    return out
