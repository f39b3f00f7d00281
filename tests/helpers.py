"""Independent oracles for the test suite, and probes that count the words and bases the library builds.

Everything here works on raw (generator index, sign) pairs and plain
permutation image lists, on purpose: these functions re-derive expected
values by slower, structurally different algorithms than the package
(repeated-scan cancellation instead of a stack, word-equality lookups
instead of (coset, generator) indexing, exhaustive search instead of a
single deterministic scan).  The induced-action oracles walk each word
one point at a time with ``evaluate``, where the package moves whole
fibers along the Schreier vector; the scan oracle walks each enumerated
word whole, where the check suite steps it from its prefix.
"""

import itertools
import random

import schreier.words
from schreier.actions import MAX_DEGREE
from schreier import (ActionParseError, Alphabet, FiniteAction, InvariantError, Letter, Permutation, Word, coset_of,
                      evaluate, iter_reduced_words)

Pairs = tuple[tuple[int, int], ...]


def brute_reduce(pairs) -> Pairs:
    """Free reduction by repeated full scans until nothing cancels."""
    out = list(pairs)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            (g1, s1), (g2, s2) = out[i], out[i + 1]
            if g1 == g2 and s1 == -s2:
                del out[i:i + 2]
                changed = True
                break
    return tuple(out)


def format_pairs(names, pairs) -> str:
    """The canonical text of reduced letters: one ``name^k`` per run of a letter, by groupby."""
    runs = [(g, s * len(list(run))) for (g, s), run in itertools.groupby(pairs)]
    return " ".join(names[g] if k == 1 else f"{names[g]}^{k}" for g, k in runs) or "1"


def brute_factor_reduce(factors) -> Pairs:
    # Same scheme, one level up: factors are (basis index, sign) pairs.
    return brute_reduce(factors)


def shortlex_key(pairs) -> tuple:
    return (len(pairs), tuple(2 * g + (1 if s < 0 else 0) for g, s in pairs))


def all_reduced_words(n: int, max_len: int):
    """All reduced letter tuples up to max_len, in shortlex order."""
    letters = [(g, s) for g in range(n) for s in (1, -1)]
    found = [()]
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            if any(a[0] == b[0] and a[1] == -b[1] for a, b in zip(combo, combo[1:])):
                continue
            found.append(combo)
    found.sort(key=shortlex_key)
    return found


def ev_pairs(perms, point: int, pairs) -> int:
    """Evaluate raw letters against raw image lists; list.index inverts."""
    for g, s in pairs:
        point = perms[g][point] if s > 0 else perms[g].index(point)
    return point


def rewrite_by_words(perms, basepoint: int, reps, basis_words, pairs) -> Pairs:
    """Reidemeister-Schreier scan using only word equality.

    reps and basis_words are letter tuples; no (coset, generator) index
    is consulted.  Raises ValueError when the word leaves the stabilizer.
    """
    rep_of_point = {ev_pairs(perms, basepoint, r): tuple(r) for r in reps}

    def schreier_word(t, g):
        u = rep_of_point[ev_pairs(perms, basepoint, t + ((g, 1),))]
        return brute_reduce(t + ((g, 1),) + tuple((gg, -ss) for gg, ss in reversed(u)))

    out = []
    prefix: list = []
    for g, s in pairs:
        if s > 0:
            t = rep_of_point[ev_pairs(perms, basepoint, tuple(prefix))]
        else:
            t = rep_of_point[ev_pairs(perms, basepoint, tuple(prefix) + ((g, -1),))]
        b = schreier_word(t, g)
        if b:
            out.append((list(basis_words).index(b), s))
        prefix.append((g, s))
    if ev_pairs(perms, basepoint, tuple(prefix)) != basepoint:
        raise ValueError("not in the stabilizer")
    return brute_factor_reduce(out)


def expand_pairs(basis_words, factors) -> Pairs:
    flat: list = []
    for k, s in factors:
        b = basis_words[k]
        flat.extend(b if s > 0 else tuple((g, -ss) for g, ss in reversed(b)))
    return brute_reduce(flat)


def bword_search(basis_words, target, max_factors: int):
    """All reduced factor sequences over the basis expanding to target.

    Exhaustive up to max_factors; the caller asserts there is exactly
    one hit (freeness at small scale) and that it matches rewrite().
    """
    target = brute_reduce(target)
    symbols = [(k, s) for k in range(len(basis_words)) for s in (1, -1)]
    hits = []
    for length in range(max_factors + 1):
        for combo in itertools.product(symbols, repeat=length):
            if any(a[0] == b[0] and a[1] == -b[1] for a, b in zip(combo, combo[1:])):
                continue
            if expand_pairs(basis_words, combo) == target:
                hits.append(combo)
    return hits


def fold_bouquet(words, n: int) -> tuple[tuple, ...]:
    """Stallings' folding of the bouquet of words, reduced letter tuples over n generators, in ``rooted_form``.

    Each word is a loop of fresh vertices at the base.  While two edges of one
    label leave, or enter, one vertex, their other ends are merged.  What is
    left is the core graph of the subgroup the words generate, which fixes
    that subgroup (Stallings 1983; Kapovich and Myasnikov 2002).
    """
    root, edges = [0], []  # union-find parents, a root its own; (tail, generator, head) per edge

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for word in words:
        tail = 0
        for i, (g, sign) in enumerate(word):
            head = 0 if i == len(word) - 1 else len(root)
            if head:
                root.append(head)
            edges.append((tail, g, head) if sign > 0 else (head, g, tail))
            tail = head
    merged = True
    while merged:
        merged, step = False, {}
        for tail, g, head in edges:
            for key, end in (((find(tail), 2 * g), head), ((find(head), 2 * g + 1), tail)):
                seen, end = find(step.setdefault(key, find(end))), find(end)
                if seen != end:
                    root[seen], merged = end, True
    return rooted_form(step, find(0), n)


def rooted_form(step, base, n: int) -> tuple[tuple, ...]:
    """A graph with at most one edge per (vertex, letter code), ``step``, up to isomorphisms that fix base.

    Vertices are numbered breadth-first from base, codes 2g along and 2g + 1
    against an edge of generator g in order; per generator, each vertex's head.
    """
    number, order = {base: 0}, [base]
    for v in order:
        for code in range(2 * n):
            u = step.get((v, code))
            if u is not None and u not in number:
                number[u] = len(order)
                order.append(u)
    return tuple(tuple(number.get(step.get((v, 2 * g))) for v in order) for g in range(n))


def random_word_pairs(rng: random.Random, n: int, max_len: int) -> Pairs:
    """Random reduced letters; rejection keeps adjacent pairs legal."""
    out: list = []
    for _ in range(rng.randint(0, max_len)):
        options = [(g, s) for g in range(n) for s in (1, -1)
                   if not (out and out[-1] == (g, -s))]
        out.append(rng.choice(options))
    return tuple(out)


def random_perm_images(rng: random.Random, m: int) -> list:
    images = list(range(m))
    rng.shuffle(images)
    return images


def orbit_of(perms, base: int) -> set:
    seen = {base}
    frontier = [base]
    while frontier:
        p = frontier.pop()
        for images in perms:
            for q in (images[p], images.index(p)):
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
    return seen


def random_transitive_perms(rng: random.Random, n: int, m: int) -> list:
    """Image lists for n generators acting transitively on m points."""
    for _ in range(20):
        perms = [random_perm_images(rng, m) for _ in range(n)]
        if len(orbit_of(perms, 0)) == m:
            return perms
    # Rare at large m with one generator: force a full cycle.
    perms = [random_perm_images(rng, m) for _ in range(n)]
    perms[0] = [(i + 1) % m for i in range(m)]
    return perms


def make_action(names, image_lists) -> FiniteAction:
    alphabet = Alphabet(tuple(names))
    degree = len(image_lists[0])
    return FiniteAction(alphabet, degree,
                        tuple(Permutation(tuple(im)) for im in image_lists))


def word_from_pairs(alphabet: Alphabet, pairs) -> Word:
    # Pairs are already reduced in every oracle that produces them.
    return Word(alphabet, tuple(Letter(g, s) for g, s in pairs))


def pairs_of_word(w: Word) -> Pairs:
    return tuple((lt.gen, lt.sign) for lt in w.letters)


def scan_by_words(table, length: int) -> tuple[dict[int, Word], int]:
    """The first reduced word up to length of each coset reached, and how many of them lie in the stabilizer.

    Enumerates every word with ``iter_reduced_words`` and walks each one
    from coset 0 with ``coset_of``, where the check suite steps each
    word's coset once from its prefix's.
    """
    first, members = {}, 0
    for w in iter_reduced_words(table.graph.alphabet, length):
        c = coset_of(table, w)
        first.setdefault(c, w)
        members += c == 0
    return first, members


def induced_fiber(ind, w: Word) -> list[tuple[int, int]]:
    """Where w sends each point (a, coset 0) of an induced action, as (a, coset) pairs, one point at a time."""
    return [ind.decode(evaluate(ind.base, a, w)) for a in range(ind.h_degree)]


def claim_by_words(ind, transversal) -> bool:
    """``check_claim`` by walking every representative, point by point."""
    return all(induced_fiber(ind, t) == [(a, c) for a in range(ind.h_degree)] for c, t in enumerate(transversal.reps))


def restrict_by_words(ind, basis) -> tuple[Permutation, ...]:
    """``restrict_to_h`` by walking every basis word, point by point."""
    perms = []
    for e in basis.elements:
        images, cosets = zip(*induced_fiber(ind, e.word))
        if any(cosets):
            raise InvariantError("basis word moved the coset coordinate")
        perms.append(Permutation(images))
    return tuple(perms)


def count_built_words(monkeypatch) -> list:
    """Record the length of every word the library builds from here on."""
    built = []
    real = schreier.words._word

    def counting(alphabet, letters):
        built.append(len(letters))
        return real(alphabet, letters)

    monkeypatch.setattr(schreier.words, "_word", counting)
    return built


def count_built_elements(monkeypatch) -> list:
    """Record the size of every basis whose ``elements`` the library spells out from here on."""
    built = []
    lazy = schreier.SchreierBasis.elements
    real = lazy.func

    def counting(basis):
        elements = real(basis)
        built.append(len(elements))
        return elements

    monkeypatch.setattr(lazy, "func", counting)
    return built


def parse_action_rows(text: str) -> FiniteAction:
    """``parse_action_text`` line by line: each row read and checked in turn, so the first fault in line order raises.

    The package reads the same rows in one pass with C calls per row (one
    ``int`` pass and one ``sorted`` each); property tests and a wide-file
    test compare the two on valid and on faulty files.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise ActionParseError("empty action file")

    lineno, fields = rows[0]
    if len(fields) != 2 or fields[0] != "degree":
        raise ActionParseError(f"line {lineno}: expected 'degree m'")
    try:
        degree = int(fields[1])
    except ValueError:
        raise ActionParseError(f"line {lineno}: bad degree {fields[1]!r}") from None
    if degree < 1:
        raise ActionParseError(f"line {lineno}: degree must be at least 1")
    if degree > MAX_DEGREE:
        raise ActionParseError(f"line {lineno}: degree more than the limit of {MAX_DEGREE}")

    if len(rows) < 2 or rows[1][1][0] != "generators":
        raise ActionParseError("expected a 'generators' line after the degree")
    lineno, fields = rows[1]
    try:
        alphabet = Alphabet(tuple(fields[1:]))
    except ValueError as exc:
        raise ActionParseError(f"line {lineno}: {exc}") from None

    perms: dict[str, Permutation] = {}
    for lineno, fields in rows[2:]:
        if fields[0] != "perm":
            raise ActionParseError(f"line {lineno}: expected a 'perm' line, got {fields[0]!r}")
        if len(fields) < 2:
            raise ActionParseError(f"line {lineno}: missing generator name")
        name = fields[1]
        if name not in alphabet._positions:
            raise ActionParseError(f"line {lineno}: unknown generator {name!r}")
        if name in perms:
            raise ActionParseError(f"line {lineno}: duplicate perm line for {name!r}")
        if len(fields) - 2 != degree:
            raise ActionParseError(
                f"line {lineno}: expected {degree} images, got {len(fields) - 2}"
            )
        try:
            images = tuple(int(f) for f in fields[2:])
        except ValueError:
            raise ActionParseError(f"line {lineno}: images must be integers") from None
        try:
            perms[name] = Permutation(images)
        except ValueError as exc:
            raise ActionParseError(f"line {lineno}: {exc}") from None

    missing = [name for name in alphabet.names if name not in perms]
    if missing:
        raise ActionParseError(f"missing perm line for generator {missing[0]!r}")
    return FiniteAction(alphabet, degree, tuple(perms[name] for name in alphabet.names))
