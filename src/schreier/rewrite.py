"""Membership testing and rewriting over the Schreier basis.

A word lies in the stabilizer exactly when its coset scan returns to
coset 0.  The same scan rewrites it over the basis: each positive letter
emits the basis element of the current (coset, generator) pair, each
negative letter the inverse of the pair it undoes, and degenerate pairs
nothing, each factor ready from a table kept with the basis.  Expanding
joins the walk back with no reduction.
"""

import operator
from dataclasses import dataclass
from typing import Iterable

from . import words
from .basis import SchreierBasis, _source
from .cosets import CosetTable, SchreierTransversal, _tree_path, coset_of
from .words import Word

__all__ = [
    "BWord",
    "NotInSubgroupError",
    "contains",
    "expand",
    "rewrite",
]


class NotInSubgroupError(ValueError):
    """Word does not stabilize the basepoint; carries the final coset."""

    def __init__(self, final_coset: int):
        super().__init__(f"not in subgroup (word ends at coset {final_coset})")
        self.final_coset = final_coset


@dataclass(frozen=True)
class BWord:
    """A reduced word over the basis: (index, sign) factors."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        factors = tuple((operator.index(k), operator.index(s)) for k, s in self.factors)
        object.__setattr__(self, "factors", factors)
        prev = None
        for k, s in factors:
            if k < 0:
                raise ValueError(f"negative basis index {k}")
            if s not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {s}")
            if prev is not None and prev[0] == k and prev[1] == -s:
                raise ValueError("word over the basis is not reduced")
            prev = (k, s)

    def __len__(self) -> int:
        return len(self.factors)


def contains(table: CosetTable, w: Word) -> bool:
    """Whether w fixes the basepoint, i.e. lies in the stabilizer."""
    return coset_of(table, w) == 0


def rewrite(table: CosetTable, transversal: SchreierTransversal, basis: SchreierBasis, w: Word) -> BWord:
    """Express a stabilizer element as a reduced word over the basis, in O(|w|).

    Raises :class:`NotInSubgroupError` when the scan does not end at
    coset 0.  The factors need no reduction: w is reduced, so its walk
    never crosses a non-tree edge and back with only tree edges between.
    """
    if w.alphabet != table.action.alphabet:
        raise ValueError("alphabet mismatch")
    steps = _source(basis, table)[2]
    emits = basis._emits
    emitted: list[tuple[int, int] | None] = []
    c = 0
    for code in map(ord, w.codes):
        emitted.append(emits[code][c])
        c = steps[code][c]
    if c != 0:
        raise NotInSubgroupError(c)
    bw = object.__new__(BWord)
    object.__setattr__(bw, "factors", tuple(filter(None, emitted)))
    return bw


def expand(basis: SchreierBasis, bw: BWord | Iterable[tuple[int, int]]) -> Word:
    """Multiply out a word over the basis: join its walk in the Schreier graph, with no reduction.

    Accepts a BWord or any (index, sign) sequence with signs +1 or -1; an unreduced one is checked, then
    reduced factor by factor.  The basis must come from ``compute_basis``, else ValueError.  The factor on
    the pair (c, x) is the tree path to c, then x (for sign -1, the path to cx, then x^-1), and a last path
    leads back to coset 0: O(k + |result|) for k factors.  No letter cancels: a tree path is a geodesic and
    meets the non-tree edges on either side at other edges, since the action is a permutation, and two
    edges with no path between cancel only as (k, s), (k, -s).
    """
    tree, (starts, gens, ends) = _source(basis)[1]._tree, basis._edges
    factors = bw.factors if isinstance(bw, BWord) else list(bw)  # a BWord is reduced, signs +1 or -1, indices >= 0
    if not isinstance(bw, BWord):
        for k, s in factors:  # every factor, before any cancels
            if not 0 <= k < len(gens):
                raise ValueError(f"basis index {k} out of range")
            if s not in (1, -1):
                raise ValueError(f"factor sign must be +1 or -1, got {s}")
        factors = _bconcat((), factors)
    walk: list[int] = []
    c = 0
    for k, s in factors:
        try:
            if s == 1:
                a, code, b = starts[k], 2 * gens[k], ends[k]
            else:
                a, code, b = ends[k], 2 * gens[k] + 1, starts[k]
        except IndexError:  # only a BWord's index, never negative, can pass the last element
            raise ValueError(f"basis index {k} out of range") from None
        if c != a:
            _tree_path(tree, c, a, walk)
        walk.append(code)
        c = b
    return words._spell(basis.alphabet, _tree_path(tree, c, 0, walk))


def _bconcat(left: Iterable[tuple[int, int]], right: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The reduced form of left then right, for a reduced left, on one stack of factors."""
    stack = list(left)
    for k, s in right:
        if stack and stack[-1] == (k, -s):
            stack.pop()
        else:
            stack.append((k, s))
    return tuple(stack)
