"""Coset tables and Schreier transversals for basepoint stabilizers.

The cosets of H = Stab(basepoint) are realized as the basepoint orbit.
A breadth-first scan in shortlex letter order yields the transversal:
each representative is the shortlex-least word reaching its coset, and
the set is closed under taking prefixes.
"""

from dataclasses import dataclass
from functools import cached_property

from . import words
from .actions import FiniteAction
from .words import Letter, Word

__all__ = [
    "CosetTable",
    "SchreierTransversal",
    "build_table",
    "coset_of",
    "rep",
]


@dataclass(frozen=True)
class CosetTable:
    """Basepoint orbit with per-generator transitions between cosets.

    ``points[c]`` is the orbit point of coset c (coset 0 is H itself);
    ``transitions[c][g]`` is the coset reached from c by generator g.
    """

    action: FiniteAction
    basepoint: int
    points: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.points)

    @cached_property
    def _steps(self) -> dict[Letter, tuple[int, ...]]:
        # Like FiniteAction._steps: one coset image tuple per signed
        # generator, keyed by the alphabet's shared letters.
        steps = {}
        letters = self.action.alphabet._letters
        for g, forward in enumerate(zip(*self.transitions)):
            backward = [0] * self.num_cosets
            for c, c2 in enumerate(forward):
                backward[c2] = c
            steps[letters[2 * g]] = forward
            steps[letters[2 * g + 1]] = tuple(backward)
        return steps

    def step(self, c: int, letter: Letter) -> int:
        return self._steps[letter][c]

    def trace(self, c: int, w: Word) -> int:
        """Coset reached from c by the letters of w."""
        steps = self._steps
        for lt in w.letters:
            c = steps[lt][c]
        return c


@dataclass(frozen=True)
class SchreierTransversal:
    """One representative word per coset; reps[0] is the empty word."""

    reps: tuple[Word, ...]


def build_table(act: FiniteAction, basepoint: int) -> tuple[CosetTable, SchreierTransversal]:
    """Scan the basepoint orbit breadth-first and record representatives.

    Letters are tried in shortlex order (per generator, positive before
    negative), so each coset is first reached by its shortlex-least
    reduced word and every representative's parent word is already a
    representative.  Points outside the orbit are ignored.
    """
    if not 0 <= basepoint < act.degree:
        raise ValueError(f"basepoint {basepoint} out of range for degree {act.degree}")
    steps = tuple(act._steps.items())  # in shortlex letter order
    points = [basepoint]
    index = {basepoint: 0}
    reps = [words.identity(act.alphabet)]
    for pos, p in enumerate(points):  # points grows as it is scanned
        for lt, images in steps:
            q = images[p]
            if q not in index:
                index[q] = len(points)
                points.append(q)
                # Never cancels: undoing the last letter of reps[pos]
                # leads back to its parent coset, which is indexed.
                reps.append(words._word(act.alphabet, reps[pos].letters + (lt,)))
    forward = [perm.images for perm in act.gen_perms]
    transitions = tuple(tuple(index[images[p]] for images in forward) for p in points)
    table = CosetTable(act, basepoint, tuple(points), transitions)
    return table, SchreierTransversal(tuple(reps))


def coset_of(table: CosetTable, w: Word) -> int:
    """Index of the coset Hw."""
    if w.alphabet != table.action.alphabet:
        raise ValueError("alphabet mismatch")
    return table.trace(0, w)


def rep(table: CosetTable, transversal: SchreierTransversal, w: Word) -> Word:
    """The transversal word representing the coset of w (the bar map)."""
    return transversal.reps[coset_of(table, w)]
