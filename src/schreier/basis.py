"""The free basis of a basepoint stabilizer.

For every coset representative t and generator x, the element
t x (rep(tx))^-1 fixes the basepoint.  A Schreier transversal is a
spanning tree of the Schreier graph: each nonempty rep is its parent's
plus one tree edge.  The m - 1 tree edges are exactly the pairs that
collapse to 1; the other pairs give a free basis of 1 + m(n - 1) words.
"""

from dataclasses import dataclass, field

from . import words
from .cosets import CosetTable, SchreierTransversal
from .words import Alphabet, Word

__all__ = [
    "BasisElement",
    "InvariantError",
    "SchreierBasis",
    "compute_basis",
    "degenerate_count",
    "degenerate_pair_of_rep",
]

_NOT_SCHREIER = "not a Schreier transversal of this table"


class InvariantError(AssertionError):
    """The input breaks a precondition or a theorem of the construction.

    Raised explicitly, so unlike ``assert`` it survives ``python -O``.
    """


@dataclass(frozen=True)
class BasisElement:
    """One basis word t x (rep(tx))^-1 with its defining pair."""

    coset: int
    gen: int
    word: Word


@dataclass(frozen=True)
class SchreierBasis:
    """Basis elements ordered by (coset, generator).

    ``index`` maps every (coset, generator) pair to the position of its
    basis element, or to None when the pair is degenerate.  It is
    determined by ``elements``, so equality and hashing leave it out.
    """

    alphabet: Alphabet
    num_cosets: int
    elements: tuple[BasisElement, ...]
    index: dict[tuple[int, int], int | None] = field(compare=False)


def compute_basis(table: CosetTable, transversal: SchreierTransversal) -> SchreierBasis:
    """One basis word per (coset, generator) pair that is not a tree edge.

    Raises InvariantError unless ``transversal`` is a Schreier transversal
    of ``table``.  Words need no reduction: t x rep(tx)^-1 cancels only if
    t ends in x^-1 or rep(tx) ends in x, either making (t, x) a tree edge.
    """
    alphabet = table.action.alphabet
    tree = set(_tree_edges(table, transversal))
    inverses = [words._inverse_letters(alphabet, r.letters) for r in transversal.reps]
    elements: list[BasisElement] = []
    index: dict[tuple[int, int], int | None] = {}
    forward = [perm.images for perm in table.graph.gen_perms]
    for c in range(table.num_cosets):
        t = transversal.reps[c].letters
        for g, images in enumerate(forward):
            if (c, g) in tree:
                index[(c, g)] = None
            else:
                index[(c, g)] = len(elements)
                word = words._word(alphabet, t + (alphabet._letters[2 * g],) + inverses[images[c]])
                elements.append(BasisElement(c, g, word))
    return SchreierBasis(alphabet, table.num_cosets, tuple(elements), index)


def degenerate_count(basis: SchreierBasis) -> int:
    """Number of (coset, generator) pairs whose word collapsed to 1."""
    return sum(1 for v in basis.index.values() if v is None)


def degenerate_pair_of_rep(table: CosetTable, transversal: SchreierTransversal, c: int) -> tuple[int, int]:
    """The tree edge into coset c: its degenerate (coset, generator) pair.

    The rep at c must be its parent's rep plus one letter, the parent
    being one inverse step back in the table, else :class:`InvariantError`.
    The edge is (parent, x) for a last letter x, and (c, x) for x^-1.
    """
    if c == 0:
        raise ValueError("coset 0 has the empty representative")
    r = transversal.reps[c]
    if r.alphabet is not table.action.alphabet and r.alphabet != table.action.alphabet:
        raise ValueError("alphabet mismatch")
    if not r.letters:
        raise InvariantError(_NOT_SCHREIER)
    last = r.letters[-1]
    parent = table.graph.step(c, r.alphabet._inverse[last])
    if r.letters[:-1] != transversal.reps[parent].letters:
        raise InvariantError(_NOT_SCHREIER)
    return (parent, last.gen) if last.sign > 0 else (c, last.gen)


def _tree_edges(table: CosetTable, transversal: SchreierTransversal) -> list[tuple[int, int]]:
    """The m - 1 tree edges in coset order, checking the whole transversal."""
    reps = transversal.reps
    if len(reps) != table.num_cosets or reps[0].letters:
        raise InvariantError(_NOT_SCHREIER)
    return [degenerate_pair_of_rep(table, transversal, c) for c in range(1, len(reps))]
