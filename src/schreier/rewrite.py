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
from .basis import SchreierBasis
from .cosets import CosetTable, SchreierTransversal, coset_of
from .words import Letter, Word

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
    """Express a stabilizer element as a reduced word over the basis.

    Raises :class:`NotInSubgroupError` when the scan does not end at
    coset 0.  Cancelling factors produced at letter boundaries are
    merged away eagerly.
    """
    if w.alphabet != table.action.alphabet:
        raise ValueError("alphabet mismatch")
    steps = table.graph._steps
    index = basis.index
    factors: list[tuple[int, int]] = []
    c = 0
    for lt in w.letters:
        nxt = steps[lt][c]
        k = index[(c, lt.gen) if lt.sign > 0 else (nxt, lt.gen)]
        if k is not None:
            if factors and factors[-1] == (k, -lt.sign):
                factors.pop()
            else:
                factors.append((k, lt.sign))
        c = nxt
    if c != 0:
        raise NotInSubgroupError(c)
    return BWord(tuple(factors))


def expand(basis: SchreierBasis, bw: BWord | Iterable[tuple[int, int]]) -> Word:
    """Substitute basis words for factors and reduce, in O(total factor length).

    Accepts a BWord or any (index, sign) sequence with signs +1 or -1;
    unreduced sequences are fine.  Each factor's letters (inverted for
    sign -1) go onto one stack, and only the letters where a factor
    meets the stack can cancel, since each basis word is already
    reduced.
    """
    factors = bw.factors if isinstance(bw, BWord) else bw
    elements = basis.elements
    stack: list[Letter] = []
    for k, s in factors:
        if not 0 <= k < len(elements):
            raise ValueError(f"basis index {k} out of range")
        letters = elements[k].word.letters
        if s != 1:
            if s != -1:
                raise ValueError(f"factor sign must be +1 or -1, got {s}")
            letters = words._inverse_letters(basis.alphabet, letters)
        cut = words._cancel_point(basis.alphabet, stack, letters)
        del stack[len(stack) - cut:]
        stack.extend(letters[cut:])
    return words._word(basis.alphabet, tuple(stack))
