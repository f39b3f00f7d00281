"""Coset tables and Schreier transversals for basepoint stabilizers.

The cosets of H = Stab(basepoint) are realized as the basepoint orbit.
A breadth-first scan in shortlex letter order yields the transversal:
each representative is the shortlex-least word reaching its coset, and
the set is closed under taking prefixes.
"""

from dataclasses import dataclass
from functools import cached_property

from . import words
from .actions import FiniteAction, _bfs, _perm, evaluate
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


@dataclass(frozen=True, repr=False)
class SchreierTransversal:
    """One representative word per coset; reps[0] is the empty word.

    Every transversal keeps a Schreier vector, ``_tree = (parents, codes,
    depths)``: per coset, the coset of its rep minus the last letter, the
    code 2·gen + (sign < 0) of that letter (0 for coset 0) and the rep's
    length.  One from ``build_table`` holds its BFS tree, parents numbered
    first, and spells out ``reps`` on first read.  One built from words
    derives the vector once, in O(Σ|t|), with None for a parent whose word
    is not a rep and ``_alphabet`` None where the reps mix alphabets.
    """

    reps: tuple[Word, ...]

    def __post_init__(self):
        index, alphabets = {r.codes: c for c, r in enumerate(self.reps)}, {r.alphabet for r in self.reps}
        self.__dict__.update(_alphabet=alphabets.pop() if len(alphabets) == 1 else None, _tree=(
            [index.get(r.codes[:-1]) for r in self.reps],
            [ord(r.codes[-1]) if r.codes else 0 for r in self.reps],
            [len(r.codes) for r in self.reps]))

    def __repr__(self) -> str:
        if "reps" in self.__dict__:
            return f"SchreierTransversal(reps={self.reps!r})"
        return f"SchreierTransversal(_tree={self._tree!r})"


def _spell_reps(transversal: SchreierTransversal) -> tuple[Word, ...]:
    parents, codes, _ = transversal._tree
    texts, char = [""], transversal._alphabet._char
    for c in range(1, len(parents)):
        # Never cancels: undoing the parent's last letter leads to an earlier coset.
        texts.append(texts[parents[c]] + char(codes[c]))
    return tuple(words._word(transversal._alphabet, t) for t in texts)


# Set after the class is made, so ``reps`` stays its one field: a tree spells it out on first read and keeps it.
SchreierTransversal.reps = cached_property(_spell_reps)
SchreierTransversal.reps.__set_name__(SchreierTransversal, "reps")


def _tree_path(tree, a: int, b: int, walk: list[int]) -> list[int]:
    """Extend walk by the letter codes of the path from coset a to coset b in a Schreier vector, in O(its length)."""
    parents, codes, depths = tree
    down = []
    while a != b:  # climb from the deeper coset until the two meet
        if depths[a] >= depths[b]:
            walk.append(codes[a] ^ 1)
            a = parents[a]
        else:
            down.append(codes[b])
            b = parents[b]
    walk += down[::-1]
    return walk


def _texts(transversal: SchreierTransversal, edges=()):
    """The text of every rep, and an iterator over the text of t x rep(tx)^-1 per edge (coset, generator, end coset).

    Reads the transversal's Schreier vector and builds no word.  In one
    pass by depth, so parents first, coset c keeps its rep t split at its last run: the text
    before the run, the run's letter code and length, and the text of t^-1 after its
    first run, which is the last run inverted.  A child bumps its parent's last run
    or starts a new one.  A pair's word cancels no letter (see ``compute_basis``),
    but x can merge with the runs on both sides of it.  O(m + len(edges) + characters built)
    on a tree from ``build_table``, whose depths are already sorted.
    """
    names = transversal._alphabet.names
    parents, codes, depths = transversal._tree

    def run(code: int, k: int) -> str:
        return words._run(names[code >> 1], -k if code & 1 else k) if k else ""

    parts = [("", 0, 0, "")] * len(parents)  # coset 0: no run
    for c in sorted(range(1, len(parents)), key=depths.__getitem__):
        head, code, k, tail = parts[parents[c]]
        if codes[c] == code:
            parts[c] = (head, code, k + 1, tail)
        else:
            parts[c] = (_join(head, run(code, k)), codes[c], 1, _join(run(code ^ 1, k), tail))

    def basis_words():
        for c, g, end in edges:
            head, code, k, _ = parts[c]
            _, last, j, tail = parts[end]
            x, first = 2 * g, last ^ 1  # rep(tx)^-1 opens with rep(tx)'s last run inverted
            mid = 1 + (k if code == x else 0) + (j if first == x else 0)
            yield _join(head, "" if code == x else run(code, k), run(x, mid), "" if first == x else run(first, j), tail)

    return [_join(head, run(code, k)) or "1" for head, code, k, _ in parts], basis_words()


def _join(*texts: str) -> str:
    return " ".join(filter(None, texts))


def build_table(act: FiniteAction, basepoint: int) -> tuple[CosetTable, SchreierTransversal]:
    """Scan the basepoint orbit breadth-first and keep its tree as the transversal.

    Letters are tried in shortlex order (per generator, positive before
    negative), so each coset is first reached by its shortlex-least
    reduced word and every representative's parent word is already a
    representative.  Points outside the orbit are ignored.  The graph's
    image tuples, and each of its permutations' inverse, are gathered
    from the action's through the orbit, two C calls per letter code.
    """
    if not 0 <= basepoint < act.degree:
        raise ValueError(f"basepoint {basepoint} out of range for degree {act.degree}")
    points, index, tree = _bfs(act, basepoint)
    steps = tuple(words._gather(index, words._gather(images, points)) for images in act._steps)
    graph = FiniteAction(act.alphabet, len(points), tuple(map(_perm, steps[::2])))
    graph.__dict__["_steps"] = steps
    for perm, inverse in zip(graph.gen_perms, steps[1::2]):
        perm.__dict__["inverse"] = _perm(inverse)  # its cached_property slot: no inversion loop on first read
    transversal = object.__new__(SchreierTransversal)
    transversal.__dict__.update(_alphabet=act.alphabet, _tree=tree)
    return CosetTable(act, basepoint, tuple(points), graph), transversal


def coset_of(table: CosetTable, w: Word) -> int:
    """Index of the coset Hw."""
    return evaluate(table.graph, 0, w)


def rep(table: CosetTable, transversal: SchreierTransversal, w: Word) -> Word:
    """The transversal word representing the coset of w (the bar map)."""
    return transversal.reps[coset_of(table, w)]
