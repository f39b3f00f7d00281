"""Seeded inputs for the benchmark workloads.

Everything here is plain standard-library code that never imports the
library under test, so a change to the library cannot change the inputs
it is measured on.  The library receives only the texts built here: an
action file, an optional H-action file, and word texts.
"""

import random
from dataclasses import dataclass

GEN_NAMES = ("x", "y", "z", "w", "v", "u")


@dataclass(frozen=True)
class Spec:
    """The shape of one workload.

    ``stages`` names the pipeline steps after set-up, in order:
    ``listing`` formats the basis as ``schreier basis`` prints it,
    ``induce`` induces from a random H-action of degree ``h_degree`` and
    restricts back, ``checks`` runs the invariant suite.  Every pass ends
    with ``queries`` rewrite queries whose base words have lengths drawn
    from ``query_len``.  ``cli`` is the ``schreier`` subcommand timed
    end to end, ``cli_reps`` times a round; ``setup_reps`` extra set-ups
    a round add samples to the set-up time.
    """

    name: str
    dihedral: bool
    degree: int
    gens: int
    stages: tuple[str, ...]
    h_degree: int
    queries: int
    query_len: tuple[int, int]
    cli: str
    cli_reps: int
    setup_reps: int


@dataclass(frozen=True)
class Query:
    """A word text and whether it lies in the basepoint stabilizer.

    Texts are in canonical form, so a member's expansion must print as
    ``text`` again.
    """

    text: str
    member: bool


@dataclass(frozen=True)
class Inputs:
    action_text: str
    h_text: str | None
    queries: tuple[Query, ...]


def _action_text(names, perms) -> str:
    lines = [f"degree {len(perms[0])}", " ".join(["generators", *names])]
    for name, images in zip(names, perms):
        lines.append(" ".join(["perm", name, *map(str, images)]))
    return "\n".join(lines) + "\n"


def _shuffled(rng: random.Random, degree: int) -> list[int]:
    images = list(range(degree))
    rng.shuffle(images)
    return images


def _inverse(images: list[int]) -> list[int]:
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return inv


def _tree(perms, inverses) -> dict[int, tuple[int, int, int]]:
    """Breadth-first tree from point 0: point -> (parent, gen, sign)."""
    tree = {0: (-1, -1, 0)}
    frontier = [0]
    while frontier:
        grown = []
        for p in frontier:
            for g in range(len(perms)):
                for sign, table in ((1, perms[g]), (-1, inverses[g])):
                    q = table[p]
                    if q not in tree:
                        tree[q] = (p, g, sign)
                        grown.append(q)
        frontier = grown
    return tree


def _path_to(tree, point: int) -> list[tuple[int, int]]:
    """Letters leading from point 0 to ``point`` along the tree."""
    path = []
    while point != 0:
        parent, g, sign = tree[point]
        path.append((g, sign))
        point = parent
    path.reverse()
    return path


def _reduce(letters) -> list[tuple[int, int]]:
    stack: list[tuple[int, int]] = []
    for g, s in letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def _format(names, letters) -> str:
    """Canonical run-length text, the same grammar ``format_word`` prints."""
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        g, s = letters[i]
        k = (j - i) * s
        parts.append(names[g] if k == 1 else f"{names[g]}^{k}")
        i = j
    return " ".join(parts)


def _random_reduced(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        lt = (rng.randrange(n), rng.choice((1, -1)))
        if not letters or letters[-1] != (lt[0], -lt[1]):
            letters.append(lt)
    return letters


def _walk(perms, inverses, letters) -> int:
    p = 0
    for g, s in letters:
        p = perms[g][p] if s > 0 else inverses[g][p]
    return p


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Build one workload's texts; the same spec and seed give the same texts."""
    rng = random.Random(f"{spec.name}:{seed}")
    m, n = spec.degree, spec.gens
    names = GEN_NAMES[:n]
    if spec.dihedral:
        perms = [[(i + 1) % m for i in range(m)], [(-i) % m for i in range(m)]]
    else:
        # Redraw until transitive, so that every action has exactly m
        # cosets and the H-action below has the right number of generators.
        while True:
            perms = [_shuffled(rng, m) for _ in range(n)]
            inverses = [_inverse(p) for p in perms]
            if len(_tree(perms, inverses)) == m:
                break
    inverses = [_inverse(p) for p in perms]
    tree = _tree(perms, inverses)

    h_text = None
    if "induce" in spec.stages:
        size = 1 + m * (n - 1)
        h_text = _action_text([f"b{k}" for k in range(size)],
                              [_shuffled(rng, spec.h_degree) for _ in range(size)])

    queries = []
    lo, hi = spec.query_len
    # One length from each of ``queries`` equal strata of [lo, hi], so that
    # the total work of a pass and its percentiles vary little with the seed.
    # Three strata in every four are members, so that members and
    # non-members cover the same lengths whatever the seed.
    kinds = [(lo + int((hi - lo + 1) * (i + rng.random()) / spec.queries), i % 4 != 3)
             for i in range(spec.queries)]
    rng.shuffle(kinds)
    for length, member in kinds:
        while True:
            u = _random_reduced(rng, n, length)
            end = _walk(perms, inverses, u)
            if member:
                back = [(g, -s) for g, s in reversed(_path_to(tree, end))]
                letters = _reduce(u + back)
                break
            if end != 0:
                letters = u
                break
        queries.append(Query(_format(names, letters), member))
    return Inputs(_action_text(names, perms), h_text, tuple(queries))
