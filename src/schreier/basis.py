"""The free basis of a basepoint stabilizer.

For every coset representative t and generator x, the element
t x (rep(tx))^-1 fixes the basepoint.  A Schreier transversal is a
spanning tree of the Schreier graph: each nonempty rep is its parent's
plus one tree edge.  The m - 1 tree edges are exactly the pairs that
collapse to 1; the other pairs give a free basis of 1 + m(n - 1) words.
"""

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, cycle, product, repeat

from . import words
from .cosets import CosetTable, SchreierTransversal, _tree_path
from .words import Alphabet, Word

__all__ = [
    "BasisElement",
    "InvariantError",
    "SchreierBasis",
    "compute_basis",
    "degenerate_count",
]

_NOT_SCHREIER = "not a Schreier transversal of this table"


class InvariantError(AssertionError):
    """The input breaks a precondition or a theorem of the construction.

    Raised explicitly, so unlike ``assert`` it survives ``python -O``.
    """


class _Sourced:
    __slots__ = ("_source",)  # outside the dataclass fields: fields(), asdict() and == skip it


@dataclass(frozen=True, slots=True)
class BasisElement(_Sourced):
    """One basis word t x (rep(tx))^-1 with its defining pair.

    A basis from ``compute_basis`` spells out its elements with the word
    unbuilt, None in its slot, and ``_source`` set to the alphabet, the
    transversal and the table's image tuple per signed letter: the word is
    spelled out on first read, from t and rep(tx) or their tree paths, in
    O(|t| + |rep(tx)|), and kept in its slot.
    """

    coset: int
    gen: int
    word: Word


def _read_word(e: BasisElement, get=BasisElement.word.__get__, put=BasisElement.word.__set__) -> Word:
    word = get(e)
    if word is None:  # unbuilt: join t, x and rep(tx)^-1, and keep the word
        alphabet, tr, steps = e._source
        code = 2 * e.gen
        c, d = e.coset, steps[code][e.coset]
        if "reps" in tr.__dict__:  # spelled out already: two strings join faster than two tree paths climb
            t, u = tr.reps[c].codes, tr.reps[d].codes
            word = words._word(alphabet, t + alphabet._char(code) + u[::-1].translate(words._FLIP))
        else:
            walk = _tree_path(tr._tree, 0, c, [])
            walk.append(code)
            word = words._spell(alphabet, _tree_path(tr._tree, d, 0, walk))
        put(e, word)
    return word


# Set after the class is made, so ``word`` stays a field and the element keeps its slots.
BasisElement.word = property(_read_word, BasisElement.word.__set__)


@dataclass(frozen=True)
class SchreierBasis:
    """Basis elements ordered by (coset, generator).

    ``index`` maps every (coset, generator) pair to the position of its
    basis element, or to None when the pair is degenerate.  It is
    determined by ``elements``, so equality and hashing leave it out.
    ``compute_basis`` keeps the positions in one coset-major list, ``_ks``,
    with slot c·n + g for the pair (c, g), and builds neither field:
    ``elements`` and ``index`` are spelled out from ``_ks`` on first read,
    each in O(m·n), and kept.  ``rewrite``, ``expand``, ``induce``,
    ``restrict_to_h``, ``haction_from_action`` and ``degenerate_count``
    read ``_ks`` or ``_edges`` and never build an element.  A computed
    basis also keeps the elements' shared ``_source``, without which (built
    by hand, or by ``dataclasses.replace``) ``rewrite``, ``expand``,
    ``restrict_to_h``, ``induce``, ``haction_from_action`` and
    ``degenerate_count`` raise ValueError.
    """

    alphabet: Alphabet
    num_cosets: int
    elements: tuple[BasisElement, ...]
    index: dict[tuple[int, int], int | None] = field(compare=False)

    @cached_property
    def _edges(self) -> tuple[list[int], list[int], list[int]]:
        """Per basis element, its edge c -x-> cx in three lists: start coset c, generator x and end coset cx.

        Read off ``_ks`` by ``compress`` and off the table's steps, with no
        element built, once per basis, for its readers: ``elements``,
        ``expand``, ``restrict_to_h`` and the CLI's listing.  ValueError for
        a basis not from ``compute_basis``.
        """
        steps, m, n = _source(self)[2], self.num_cosets, len(self.alphabet)
        free = [k is not None for k in self._ks]
        cosets = list(compress(chain.from_iterable(map(repeat, range(m), repeat(n))), free))
        gens = list(compress(cycle(range(n)), free))
        return cosets, gens, [steps[2 * g][c] for c, g in zip(cosets, gens)]

    @cached_property
    def _emits(self) -> tuple[tuple[tuple[int, int] | None, ...], ...]:
        """Per letter code, by coset, the factor ``rewrite`` emits: the basis's one (k, 1) or (k, -1) tuple,
        or None (x^-1 at coset c undoes the pair (c x^-1, x)).  Built in O(m·n) on first read, from the
        steps of the basis's own table, and kept.  ValueError for a basis not from ``compute_basis``."""
        steps, emits = _source(self)[2], []
        for g, ks in enumerate(_columns(self)):  # each k sits in one slot: one tuple per element and sign
            emits += [tuple([None if k is None else (k, 1) for k in ks]),
                      words._gather([None if k is None else (k, -1) for k in ks], steps[2 * g + 1])]
        return tuple(emits)


def _spell_elements(basis: SchreierBasis) -> tuple[BasisElement, ...]:
    cosets, gens, _ = basis._edges
    elements = tuple(map(object.__new__, repeat(BasisElement, len(cosets))))
    for put, values in ((BasisElement.coset.__set__, cosets), (BasisElement.gen.__set__, gens),
                        (BasisElement.word.fset, repeat(None)), (_Sourced._source.__set__, repeat(basis._source))):
        deque(map(put, elements, values), 0)  # the slots' own setters, one C call per field: no frozen check
    return elements


def _size(basis: SchreierBasis) -> int:
    """Number of basis elements, counted on ``_ks``, so no element is built."""
    return len(basis._ks) - basis._ks.count(None)


# Set after the class is made, so both stay fields: a computed basis spells each out on first read and keeps it.
SchreierBasis.elements = cached_property(_spell_elements)
SchreierBasis.elements.__set_name__(SchreierBasis, "elements")
SchreierBasis.index = cached_property(lambda b: dict(zip(product(range(b.num_cosets), range(len(b.alphabet))), b._ks)))
SchreierBasis.index.__set_name__(SchreierBasis, "index")


def compute_basis(table: CosetTable, transversal: SchreierTransversal) -> SchreierBasis:
    """One basis word per (coset, generator) pair that is not a tree edge.

    Raises InvariantError unless ``transversal`` is a Schreier transversal
    of ``table``.  Numbers the pairs in one coset-major list of m·n slots,
    None at each tree edge, and builds no pair per slot and no element:
    ``elements`` and ``index`` are spelled out on first read, in O(m·n).
    Words are built on their own first read, with no reduction:
    t x rep(tx)^-1 cancels only if t ends in x^-1 or rep(tx) ends in x,
    either making (t, x) a tree edge.
    """
    alphabet, m = table.action.alphabet, table.num_cosets
    n = len(alphabet)
    free = [True] * (m * n)
    for c, g in _tree_edges(table, transversal):
        free[c * n + g] = False
    ks = [k - 1 if f else None for f, k in zip(free, accumulate(free))]
    basis = object.__new__(SchreierBasis)
    basis.__dict__.update(alphabet=alphabet, num_cosets=m, _source=(alphabet, transversal, table.graph._steps), _ks=ks)
    return basis


def degenerate_count(basis: SchreierBasis) -> int:
    """Number of (coset, generator) pairs whose word collapsed to 1.  ValueError for a basis not from ``compute_basis``."""
    _source(basis)
    return basis._ks.count(None)


def _columns(basis: SchreierBasis) -> list[list[int | None]]:
    """Per generator, by coset, its pair's index: a slice of ``_ks``, which ``compute_basis`` fills coset-major."""
    n = len(basis.alphabet)
    return [basis._ks[g::n] for g in range(n)]


def _source(basis: SchreierBasis, table: CosetTable | None = None):
    """The (alphabet, transversal, steps) that ``compute_basis`` stored, else ValueError.

    With a table, also ValueError unless the basis was computed for it: its
    image tuples are the stored steps, compared by identity in O(1), else by value.
    """
    source = basis.__dict__.get("_source")
    if source is None:
        raise ValueError("basis was not made by compute_basis")
    if table is not None and table.graph._steps is not source[2] and table.graph._steps != source[2]:
        raise ValueError("basis was computed for another coset table")
    return source


def _tree_edges(table: CosetTable, transversal: SchreierTransversal) -> list[tuple[int, int]]:
    """The degenerate pairs of the tree edges into cosets 1..m-1.

    Checks the Schreier vector against the table, else InvariantError: its
    size and an empty reps[0], then per coset c, in O(1), a parent of smaller
    depth that the letter steps to c.  Depths fall along parents, so every
    coset's path leads back to coset 0: the vector is a spanning tree.
    """
    parents, codes, depths = transversal._tree
    if len(parents) != table.num_cosets or depths[0]:
        raise InvariantError(_NOT_SCHREIER)
    cosets = range(1, table.num_cosets)
    alphabet = table.action.alphabet
    if transversal._alphabet is not alphabet and transversal._alphabet != alphabet:
        raise ValueError("alphabet mismatch")
    images = table.graph._steps
    edges = (cosets, parents[1:], codes[1:])  # zipped twice: each pass reuses one tuple
    if not all(p is not None and depths[p] < depths[c] and images[code][p] == c for c, p, code in zip(*edges)):
        raise InvariantError(_NOT_SCHREIER)
    return [(c if code & 1 else p, code >> 1) for c, p, code in zip(*edges)]
