"""Membership testing and rewriting over the Schreier basis.

A word lies in the stabilizer exactly when its coset scan returns to
coset 0.  The same scan rewrites it over the basis: each positive letter
emits the basis element of the current (coset, generator) pair, each
negative letter emits the inverse of the pair it undoes, and degenerate
pairs emit nothing.
"""

from dataclasses import dataclass
from typing import Iterable

from . import words
from .basis import SchreierBasis, _columns, _source
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
        factors = tuple((int(k), int(s)) for k, s in self.factors)
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
    emits = _tables(basis)[0]
    factors: list[int] = []
    c = 0
    for code in map(ord, w.codes):
        f = emits[code][c]
        c = steps[code][c]
        if f is not None:
            factors.append(f)
    if c != 0:
        raise NotInSubgroupError(c)
    bw = object.__new__(BWord)
    object.__setattr__(bw, "factors", tuple((f, 1) if f >= 0 else (~f, -1) for f in factors))
    return bw


def _tables(basis: SchreierBasis):
    """Per letter code, by coset, the factor it emits there: k for (k, 1), ~k for (k, -1), or None
    (x^-1 at coset c undoes the pair (c x^-1, x)); and per element its edge (from coset, code, to coset).
    Built in O(m·n) on first use, from the steps of the basis's own table, and kept."""
    kept = basis.__dict__.get("_tables")
    if kept is None:
        steps = _source(basis)[2]
        emits = []
        for g, ks in enumerate(_columns(basis)):
            emits += [tuple(ks), words._gather([None if k is None else ~k for k in ks], steps[2 * g + 1])]
        edges = tuple((e.coset, 2 * e.gen, steps[2 * e.gen][e.coset]) for e in basis.elements)
        kept = (tuple(emits), edges)
        object.__setattr__(basis, "_tables", kept)
    return kept


def expand(basis: SchreierBasis, bw: BWord | Iterable[tuple[int, int]]) -> Word:
    """Multiply out a word over the basis and reduce it onto one stack.

    Accepts a BWord or any (index, sign) sequence with signs +1 or -1;
    unreduced sequences are fine.  The basis must come from
    ``compute_basis``, else ValueError.  This walks its Schreier graph, in
    O(k + |result|) for k reduced factors: the factor on the pair (c, x) is
    the tree path to c, then x (for sign -1, the path to cx, then x^-1),
    and a last path leads back to coset 0.
    """
    factors = bw.factors if isinstance(bw, BWord) else bw
    tree, edges = _source(basis)[1]._tree, _tables(basis)[1]
    stack: list[int] = []
    c = 0
    for k, s in factors:
        if not 0 <= k < len(edges):
            raise ValueError(f"basis index {k} out of range")
        if s not in (1, -1):
            raise ValueError(f"factor sign must be +1 or -1, got {s}")
        a, code, b = edges[k]  # the edge from coset a
        if s == -1:
            a, b, code = b, a, code + 1
        if c != a:
            _push(stack, _tree_path(tree, c, a))
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
        c = b
    _push(stack, _tree_path(tree, c, 0))
    return words._spell(basis.alphabet, stack)


def _push(stack: list[int], codes: list[int]) -> None:
    """Push reduced letter codes onto a reduced stack: only their junction can cancel."""
    i = 0
    while i < len(codes) and stack and stack[-1] == codes[i] ^ 1:
        stack.pop()
        i += 1
    stack += codes[i:]
