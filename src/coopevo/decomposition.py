"""Static decomposition of a problem into lower-dimensional sub-problems.

Nonseparable variable groups are kept intact; separable variables are
chunked in ascending index order into blocks of a chosen size. Because the
grouping comes straight from the benchmark's known structure, the optimum of
every sub-problem coincides with the projection of the global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import SeparabilityStructure, check_partition


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


def ideal_decompose(
    structure: SeparabilityStructure,
    s_sep: int,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Decomposition:
    """Decompose using the known structure.

    Separable variables are pooled, sorted ascending and cut into chunks of
    ``s_sep`` (the final chunk may be smaller); each nonseparable group
    becomes one sub-problem verbatim. Deterministic.
    """
    if s_sep < 1:
        raise ValueError("s_sep must be >= 1")
    if not structure.groups:
        raise ValueError("empty structure")

    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    subs: list[SubProblem] = []

    def add(indices):
        idx = np.asarray(indices, dtype=int)
        subs.append(SubProblem(len(subs), idx, lower[idx].copy(), upper[idx].copy()))

    sep = structure.separable_indices()
    for start in range(0, len(sep), s_sep):
        add(sep[start:start + s_sep])
    for grp in structure.nonseparable_groups():
        add(grp)

    return Decomposition(tuple(subs), structure.n)


def embed(context: np.ndarray, sub: SubProblem, x_g: np.ndarray) -> np.ndarray:
    """Complete solution equal to ``context`` with ``sub``'s positions
    replaced by ``x_g``. The context itself is left untouched."""
    x_g = np.asarray(x_g, dtype=float)
    if x_g.shape != (sub.s,):
        raise ValueError(f"expected sub-vector of length {sub.s}, got shape {x_g.shape}")
    out = np.array(context, dtype=float, copy=True)
    out[sub.indices] = x_g
    return out
