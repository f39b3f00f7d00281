"""Coset tables and Schreier transversals for basepoint stabilizers.

The cosets of H = Stab(basepoint) are realized as the basepoint orbit.
A breadth-first scan in shortlex letter order yields the transversal:
each representative is the shortlex-least word reaching its coset, and
the set is closed under taking prefixes.
"""

from dataclasses import dataclass

from . import words
from .actions import FiniteAction, _bfs, _perm, evaluate
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

    One from ``build_table`` holds its BFS tree, a Schreier vector:
    ``_tree[c - 1]`` is the edge (parent, letter) into coset c, parents
    numbered first.  ``reps`` is spelled out from it on first read and kept.
    """

    reps: tuple[Word, ...]
    _tree = None  # not a field: set only by build_table

    def __repr__(self) -> str:
        if "reps" in self.__dict__:
            return f"SchreierTransversal(reps={self.reps!r})"
        return f"SchreierTransversal(_tree={self._tree!r})"

    def __getattr__(self, name):
        if name != "reps" or self._tree is None:
            raise AttributeError(name)
        letters = [()]
        for parent, lt in self._tree:
            # Never cancels: undoing the parent's last letter leads to an earlier coset.
            letters.append(letters[parent] + (lt,))
        reps = tuple(words._word(self._alphabet, t) for t in letters)
        object.__setattr__(self, "reps", reps)
        return reps

    def _view(self, steps) -> tuple[list[int], list[int], list[int]]:
        """Parent, letter code and a rank above the parent's per coset, kept from the first call, in O(m).

        A tree numbers parents first, so the rank is the coset.  Otherwise it is the depth, and the parent
        is a rep's last letter stepped back by the table's ``steps``, once ``compute_basis`` checked the reps."""
        if "_tree_view" not in self.__dict__:
            if self._tree is not None:
                edges, ranks = self._tree, list(range(len(self._tree) + 1))
            else:
                last = [r.letters[-1] for r in self.reps[1:]]
                edges = [(steps[Letter(lt.gen, -lt.sign)][c], lt) for c, lt in enumerate(last, 1)]
                ranks = [len(r) for r in self.reps]
            parents, codes = [0] + [p for p, _ in edges], [0] + [2 * lt.gen + (lt.sign < 0) for _, lt in edges]
            object.__setattr__(self, "_tree_view", (parents, codes, ranks))
        return self._tree_view


def _tree_path(view, a: int, b: int) -> list[int]:
    """The letter codes of the tree path from coset a to coset b, in O(its length)."""
    parents, codes, ranks = view
    up, down = [], []
    while a != b:  # climb from the higher rank until the two meet
        if ranks[a] >= ranks[b]:
            up.append(codes[a] ^ 1)
            a = parents[a]
        else:
            down.append(codes[b])
            b = parents[b]
    return up + down[::-1]


def _texts(table: CosetTable, transversal: SchreierTransversal, pairs=()):
    """The text of every rep, and an iterator over the text of t x rep(tx)^-1 per (coset, generator) pair.

    Reads the tree of a transversal from ``build_table`` and builds no word.  In one
    pass, parents first, coset c keeps its rep t split at its last run: the text
    before the run, the run's letter code and length, and the text of t^-1 after its
    first run, which is the last run inverted.  A child bumps its parent's last run
    or starts a new one.  A pair's word cancels no letter (see ``compute_basis``),
    but x can merge with the runs on both sides of it.  O(m + len(pairs) + characters built).
    """
    names, images = transversal._alphabet.names, [p.images for p in table.graph.gen_perms]

    def run(code: int, k: int) -> str:
        return words._run(names[code >> 1], -k if code & 1 else k) if k else ""

    parts = [("", 0, 0, "")]  # coset 0: no run
    for parent, lt in transversal._tree:
        head, code, k, tail = parts[parent]
        new = 2 * lt.gen + (lt.sign < 0)
        if new == code:
            parts.append((head, code, k + 1, tail))
        else:
            parts.append((_join(head, run(code, k)), new, 1, _join(run(code ^ 1, k), tail)))

    def basis_words():
        for c, g in pairs:
            head, code, k, _ = parts[c]
            _, last, j, tail = parts[images[g][c]]
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
    representative.  Points outside the orbit are ignored.
    """
    if not 0 <= basepoint < act.degree:
        raise ValueError(f"basepoint {basepoint} out of range for degree {act.degree}")
    points, index, edges = _bfs(act, basepoint)
    graph = FiniteAction(act.alphabet, len(points), tuple(
        _perm(tuple(map(index.__getitem__, map(perm.images.__getitem__, points)))) for perm in act.gen_perms))
    transversal = object.__new__(SchreierTransversal)
    transversal.__dict__.update(_alphabet=act.alphabet, _tree=tuple(edges))
    return CosetTable(act, basepoint, tuple(points), graph), transversal


def coset_of(table: CosetTable, w: Word) -> int:
    """Index of the coset Hw."""
    return evaluate(table.graph, 0, w)


def rep(table: CosetTable, transversal: SchreierTransversal, w: Word) -> Word:
    """The transversal word representing the coset of w (the bar map)."""
    return transversal.reps[coset_of(table, w)]
