"""The free basis of a basepoint stabilizer.

For every coset representative t and generator x, the element
t x (rep(tx))^-1 fixes the basepoint.  The nonidentity ones form a free
generating set of the stabilizer; pairs that collapse to the identity
are recorded as degenerate.  Exactly one degenerate pair corresponds to
each nonempty representative, so there are m - 1 of them and the basis
has 1 + m(n - 1) elements.
"""

from dataclasses import dataclass, field

from . import words
from .actions import evaluate
from .cosets import CosetTable, SchreierTransversal
from .words import Alphabet, Word

__all__ = [
    "BasisElement",
    "InvariantError",
    "SchreierBasis",
    "compute_basis",
    "degenerate_count",
    "degenerate_pair_of_rep",
    "schreier_formula_check",
]


class InvariantError(AssertionError):
    """A theorem of the construction failed on this input.

    Raised explicitly, so unlike ``assert`` it survives ``python -O``.
    """


@dataclass(frozen=True)
class BasisElement:
    """One basis word t x (rep(tx))^-1 with its defining pair."""

    coset: int
    gen: int
    t: Word
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
    """Enumerate all (coset, generator) pairs and keep the nonidentity words.

    The counting and distinctness facts are theorems for any Schreier
    transversal; they are checked here so a violation raises
    :class:`InvariantError`.
    """
    act = table.action
    n = len(act.alphabet)
    m = table.num_cosets
    elements: list[BasisElement] = []
    index: dict[tuple[int, int], int | None] = {}
    for c in range(m):
        t = transversal.reps[c]
        for g in range(n):
            u = transversal.reps[table.transitions[c][g]]
            word = words.concat(words.concat(t, words.single(act.alphabet, g)), words.invert(u))
            if word.is_identity():
                index[(c, g)] = None
            else:
                index[(c, g)] = len(elements)
                elements.append(BasisElement(c, g, t, word))
    basis = SchreierBasis(act.alphabet, m, tuple(elements), index)

    if len(elements) != 1 + m * (n - 1):
        raise InvariantError("Schreier count violated")
    if degenerate_count(basis) != m - 1:
        raise InvariantError("degenerate count violated")
    if len({e.word for e in elements}) != len(elements):
        raise InvariantError("basis words not distinct")
    if not all(evaluate(act, table.basepoint, e.word) == table.basepoint for e in elements):
        raise InvariantError("basis word does not fix the basepoint")
    return basis


def schreier_formula_check(basis: SchreierBasis, m: int, n: int) -> bool:
    """Whether the basis size matches 1 + m(n-1)."""
    return len(basis.elements) == 1 + m * (n - 1)


def degenerate_count(basis: SchreierBasis) -> int:
    """Number of (coset, generator) pairs whose word collapsed to 1."""
    return sum(1 for v in basis.index.values() if v is None)


def degenerate_pair_of_rep(table: CosetTable, transversal: SchreierTransversal, c: int) -> tuple[int, int]:
    """The degenerate (coset, generator) pair owned by the nonempty rep at c.

    A representative ending in x is u x with u the parent rep, and the
    pair (coset of u, x) is degenerate; one ending in x^-1 makes its own
    pair (c, x) degenerate.  Over all nonempty reps this is a bijection
    onto the degenerate pairs.
    """
    r = transversal.reps[c]
    if r.is_identity():
        raise ValueError("coset 0 has the empty representative")
    last = r.letters[-1]
    if last.sign > 0:
        # The parent rep's coset is one inverse step back from c.
        return (table.step(c, r.alphabet._inverse[last]), last.gen)
    return (c, last.gen)
