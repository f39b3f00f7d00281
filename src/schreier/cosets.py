"""Coset tables and Schreier transversals for basepoint stabilizers.

The cosets of H = Stab(basepoint) are realized as the basepoint orbit.
A breadth-first scan in shortlex letter order yields the transversal:
each representative is the shortlex-least word reaching its coset, and
the set is closed under taking prefixes.
"""

from dataclasses import dataclass

from . import words
from .actions import FiniteAction, Permutation, _bfs, evaluate
from .words import Word

__all__ = [
    "CosetTable",
    "SchreierTransversal",
    "build_table",
    "coset_of",
    "rep",
]


@dataclass(frozen=True)
class CosetTable:
    """The Schreier graph: the action on the basepoint orbit, by coset.

    ``points[c]`` is the orbit point of coset c (coset 0 is H itself);
    ``graph`` is the action restricted to the orbit and relabelled onto
    cosets 0..m-1, so ``evaluate(graph, c, w)`` is the coset reached
    from coset c by w.
    """

    action: FiniteAction
    basepoint: int
    points: tuple[int, ...]
    graph: FiniteAction

    @property
    def num_cosets(self) -> int:
        return len(self.points)


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
    points, index, edges = _bfs(act, basepoint)
    reps = [words.identity(act.alphabet)]
    for parent, lt in edges:
        # Never cancels: undoing the last letter of the parent's rep
        # leads back to its own parent, which was reached earlier.
        reps.append(words._word(act.alphabet, reps[parent].letters + (lt,)))
    graph = FiniteAction(act.alphabet, len(points), tuple(
        Permutation(tuple(index[perm.images[p]] for p in points)) for perm in act.gen_perms))
    return CosetTable(act, basepoint, tuple(points), graph), SchreierTransversal(tuple(reps))


def coset_of(table: CosetTable, w: Word) -> int:
    """Index of the coset Hw."""
    return evaluate(table.graph, 0, w)


def rep(table: CosetTable, transversal: SchreierTransversal, w: Word) -> Word:
    """The transversal word representing the coset of w (the bar map)."""
    return transversal.reps[coset_of(table, w)]
