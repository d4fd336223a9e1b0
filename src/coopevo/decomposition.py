"""Static decomposition of a problem into lower-dimensional sub-problems.

A decomposition is a sequence of sub-problems, and a sub-problem is the
sequence of the variable indices it owns, in a fixed order; plain lists
will do. A run checks once that they partition the function's variables
and keeps each as a read-only 1-D integer array
(``runtime.CooperativeRun``); it addresses a sub-problem by its position,
and takes its bounds from the function at its indices.

``ideal_decompose`` reads a benchmark function's group table: rotated
(nonseparable) groups are kept intact, and the variables of the separable
groups are chunked in ascending index order into blocks of a chosen size.
Because the grouping comes straight from the function's known groups, the
optimum of every sub-problem coincides with the projection of the global
optimum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .benchmarks import BenchmarkFunction, check_integer, float_array


def ideal_decompose(fn: BenchmarkFunction, s_sep: int) -> list[list[int]]:
    """Decompose ``fn`` by its group table into a list of index lists.

    The indices of every separable group (``rotation is None``) are pooled,
    sorted ascending and cut into chunks of ``s_sep`` (the final chunk may
    be smaller); then each rotated group becomes one sub-problem verbatim,
    in table order. Deterministic.
    """
    check_integer("s_sep", s_sep, 1)
    sep = sorted(i for g in fn.groups if g.rotation is None for i in g.indices)
    chunks = [sep[start:start + s_sep] for start in range(0, len(sep), s_sep)]
    return chunks + [list(g.indices) for g in fn.groups if g.rotation is not None]


def to_dict(subproblems: Sequence[Sequence[int]]) -> dict:
    """The manifest entry of a decomposition: its dimension ``n``, the sum
    of the sub-problem sizes, and per sub-problem its position as ``id``,
    its size ``s`` and its ``indices``."""
    return {
        "n": sum(len(indices) for indices in subproblems),
        "subproblems": [
            {"id": g, "s": len(indices), "indices": [int(i) for i in indices]}
            for g, indices in enumerate(subproblems)
        ],
    }


def embed(context: np.ndarray, indices: np.ndarray, x_g: np.ndarray) -> np.ndarray:
    """Complete solution equal to ``context`` with the positions
    ``indices`` replaced by ``x_g``. The context itself is left untouched."""
    x_g = float_array("x_g", x_g, (len(indices),))
    out = np.array(context, dtype=float, copy=True)
    out[indices] = x_g
    return out
