"""Induced actions: extend an action of the stabilizer to the whole group.

Given an action of H = Stab(basepoint) on a set A, specified on the
Schreier basis, the whole group acts on A x (cosets): a generator moves
the coset by the coset table and the A-coordinate by the basis element
of the traversed (coset, generator) pair (or not at all when the pair is
degenerate).  Restricting back to A over coset 0 recovers the original
H-action, which is what makes the basis free.
"""

from dataclasses import dataclass

from . import actions, words
from .actions import ActionParseError, FiniteAction, Permutation
from .basis import InvariantError, SchreierBasis, _columns, _size, _source, _tree_edges
from .cosets import CosetTable, SchreierTransversal, coset_of
from .rewrite import rewrite
from .words import Word

__all__ = [
    "HAction",
    "InducedAction",
    "check_claim",
    "haction_from_action",
    "induce",
    "restrict_to_h",
    "tensor_action_generic",
]


@dataclass(frozen=True)
class HAction:
    """An action of the stabilizer on {0..degree-1}, one permutation per basis element.

    The degenerate symbol acts as the identity implicitly.
    """

    degree: int
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(self.perms))
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        for p in self.perms:
            if p.degree != self.degree:
                raise ValueError(f"permutation of degree {p.degree} in H-action of degree {self.degree}")


@dataclass(frozen=True)
class InducedAction:
    """The induced action on pairs (a, coset), encoded as a + h_degree * coset."""

    base: FiniteAction
    h_degree: int
    num_cosets: int

    def encode(self, a: int, c: int) -> int:
        return a + self.h_degree * c

    def decode(self, point: int) -> tuple[int, int]:
        return (point % self.h_degree, point // self.h_degree)


def induce(sigma: HAction, table: CosetTable, transversal: SchreierTransversal, basis: SchreierBasis) -> InducedAction:
    """Build the induced action of the whole group from an H-action on the basis of this table."""
    alphabet, tr, _ = _source(basis, table)
    if len(sigma.perms) != _size(basis):
        raise ValueError(
            f"H-action has {len(sigma.perms)} permutations, basis has {_size(basis)} elements"
        )
    m = table.num_cosets
    d = sigma.degree
    if d * m > actions.MAX_DEGREE:
        raise ValueError(f"induced degree {d} x {m} is more than the limit of {actions.MAX_DEGREE}")
    # Reps walk tree edges only, so they leave A alone iff those are degenerate: compute_basis
    # made exactly its own transversal's tree edges degenerate, after this check on that tree.
    own = transversal is tr and (table.action.alphabet is alphabet or table.action.alphabet == alphabet)
    if not own and any(basis._ks[c * len(alphabet) + g] is not None for c, g in _tree_edges(table, transversal)):
        raise InvariantError("transversal words must move cosets without touching A")
    # Point a + d*c goes to sigma_k(a) + d*c2, or to a + d*c2 when degenerate.
    moves = dict([(None, range(d)), *enumerate(p.images for p in sigma.perms)])
    gen_perms = []
    for perm, ks in zip(table.graph.gen_perms, _columns(basis)):
        rows = words._gather(moves, ks)
        gen_perms.append(actions._perm(tuple([a2 + d * c2 for row, c2 in zip(rows, perm.images) for a2 in row])))
    return InducedAction(FiniteAction(table.action.alphabet, d * m, tuple(gen_perms)), d, m)


def _fibers(ind: InducedAction, transversal: SchreierTransversal) -> list[tuple[int, ...]]:
    """Per coset c, where rep(c) sends the points (a, coset 0), encoded, for a = 0..d-1.

    Parents first, by depth, each fiber is its parent's moved by one letter:
    O(m·d) in all.  A coset whose parent is not a rep (reps given as words
    that are not prefix-closed) evaluates its own rep on each point.
    ValueError unless the transversal has the action's alphabet and cosets.
    """
    act = ind.base
    if transversal._alphabet is not act.alphabet and transversal._alphabet != act.alphabet:
        raise ValueError("alphabet mismatch")
    parents, codes, depths = transversal._tree
    if len(parents) != ind.num_cosets:
        raise ValueError(f"transversal has {len(parents)} cosets, the induced action {ind.num_cosets}")
    steps = act._steps
    fibers = [tuple(range(ind.h_degree))] * len(parents)  # the empty rep's
    for c in sorted(range(len(parents)), key=depths.__getitem__):
        if not depths[c]:
            continue
        if parents[c] is None:
            fibers[c] = tuple(actions.evaluate(act, a, transversal.reps[c]) for a in fibers[c])
        else:
            fibers[c] = words._gather(steps[codes[c]], fibers[parents[c]])
    return fibers


def check_claim(ind: InducedAction, transversal: SchreierTransversal) -> bool:
    """Whether every representative t sends (a, coset 0) to (a, coset of t)."""
    fibers = _fibers(ind, transversal)
    return [q for fiber in fibers for q in fiber] == list(range(ind.h_degree * len(fibers)))


def restrict_to_h(ind: InducedAction, basis: SchreierBasis) -> tuple[Permutation, ...]:
    """The action each basis word induces on A over coset 0.

    Equals the defining H-action exactly; that identity is the proof
    obligation checked by the test suite.  The basis must come from
    ``compute_basis``, else ValueError: the word rep(c) x rep(cx)^-1 is read
    off its transversal's fibers, with no word built, and stays over coset 0
    iff x moves fiber c into fiber cx.
    """
    d = ind.h_degree
    fibers = _fibers(ind, _source(basis)[1])
    inverses = [dict(zip(fiber, range(d))) for fiber in fibers]
    steps = ind.base._steps
    perms = []
    for c, g, end in zip(*basis._edges):
        try:
            perms.append(actions._perm(words._gather(inverses[end], words._gather(steps[2 * g], fibers[c]))))
        except KeyError:
            raise InvariantError("basis word moved the coset coordinate") from None
    return tuple(perms)


def tensor_action_generic(
    sigma: HAction,
    table: CosetTable,
    transversal: SchreierTransversal,
    basis: SchreierBasis,
    a: int,
    w_prior: Word,
    g: Word,
) -> tuple[int, int]:
    """Act on (a, coset of w_prior) by g using the transfer formula directly.

    The A-coordinate moves by the stabilizer element t g (rep(tg))^-1
    with t the representative of w_prior's coset, applied through the
    basis rewriting.  A second, independent route to the induced action;
    exposed for property tests.
    """
    if not 0 <= a < sigma.degree:
        raise ValueError(f"point {a} out of range for degree {sigma.degree}")
    c0 = coset_of(table, w_prior)
    t = transversal.reps[c0]
    moved = words.concat(t, g)
    c1 = coset_of(table, moved)
    h = words.concat(moved, words.invert(transversal.reps[c1]))
    for k, s in rewrite(table, transversal, basis, h).factors:
        a = sigma.perms[k](a) if s > 0 else sigma.perms[k].inverse(a)
    return (a, c1)


def haction_from_action(file_act: FiniteAction, basis: SchreierBasis) -> HAction:
    """Interpret an action file whose generators are b0..b{k-1} as an H-action of a basis from ``compute_basis``."""
    _source(basis)
    expected = [f"b{k}" for k in range(_size(basis))]
    if file_act.alphabet._positions.keys() != set(expected):  # both sides distinct: equal sets, equal sorted lists
        want = f"generators must be exactly b0..b{len(expected) - 1}" if expected else "must have no generators"
        raise ActionParseError(f"H-action {want}, got {list(file_act.alphabet.names)}")
    perms = words._gather(file_act.gen_perms, words._gather(file_act.alphabet._positions, expected))
    return HAction(file_act.degree, perms)
