"""Static decomposition of a problem into lower-dimensional sub-problems.

A sub-problem is the 1-D integer array of the variable indices it owns, in
a fixed order; its bounds are the function's at those indices, and a run
addresses it by its position in ``Decomposition.subproblems``.

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

from .benchmarks import BenchmarkFunction, check_integer, check_partition, float_array


@dataclass(frozen=True)
class Decomposition:
    """Index arrays that partition the variables 0..n-1, where ``n`` is the
    sum of their sizes. ``subproblems`` may be any sequence of 1-D integer
    sequences; each is stored as an array, in the given order."""

    subproblems: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "subproblems", tuple(map(np.asarray, self.subproblems)))
        for indices in self.subproblems:
            float_array("indices", indices, (None,))  # the shape check alone
        check_partition(self.subproblems, self.n)

    @property
    def n(self) -> int:
        return sum(indices.size for indices in self.subproblems)

    @property
    def k(self) -> int:
        return len(self.subproblems)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "subproblems": [
                {"id": g, "s": indices.size, "indices": indices.tolist()}
                for g, indices in enumerate(self.subproblems)
            ],
        }


def ideal_decompose(fn: BenchmarkFunction, s_sep: int) -> Decomposition:
    """Decompose ``fn`` by its group table.

    The indices of every separable group (``rotation is None``) are pooled,
    sorted ascending and cut into chunks of ``s_sep`` (the final chunk may
    be smaller); then each rotated group becomes one sub-problem verbatim,
    in table order. Deterministic.
    """
    check_integer("s_sep", s_sep, 1)
    sep = sorted(i for g in fn.groups if g.rotation is None for i in g.indices)
    chunks = [sep[start:start + s_sep] for start in range(0, len(sep), s_sep)]
    rotated = [g.indices for g in fn.groups if g.rotation is not None]
    return Decomposition(chunks + rotated)


def embed(context: np.ndarray, indices: np.ndarray, x_g: np.ndarray) -> np.ndarray:
    """Complete solution equal to ``context`` with the positions
    ``indices`` replaced by ``x_g``. The context itself is left untouched."""
    x_g = float_array("x_g", x_g, (len(indices),))
    out = np.array(context, dtype=float, copy=True)
    out[indices] = x_g
    return out
