"""Invariant suite behind the ``check`` subcommand.

Runs every module's contract against one action: group laws on words,
action axioms, transversal properties, basis counting, rewriting round
trips, and the induced-action obligations.  Deterministic for a fixed
seed.
"""

import random
from dataclasses import dataclass
from typing import Iterator

from . import words
from .actions import FiniteAction, Permutation, evaluate, perm_of_word
from .basis import compute_basis, degenerate_count
from .cosets import CosetTable, build_table, coset_of, rep
from .induce import HAction, check_claim, induce, restrict_to_h, tensor_action_generic
from .rewrite import NotInSubgroupError, _bconcat, contains, expand, rewrite
from .words import Letter, Word

__all__ = ["CheckResult", "run_checks"]

# Exhaustive scans are skipped above this many reduced words or this many
# letters in them.  The letter cap binds only with one generator, whose
# 2L + 1 words up to length L hold L(L + 1) letters; with more generators
# the word cap binds first (the largest scan it allows, two generators up
# to length 10, holds 1,121,932 letters).
_ENUMERATION_CAP = 300_000
_LETTER_CAP = 1_200_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class _CheckFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise _CheckFailure(message)


def _random_perm(rng: random.Random, degree: int) -> Permutation:
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _below(bits, n: int) -> int:
    """``randrange(n)`` for n >= 1, drawn from ``bits``, a bound ``getrandbits``, with randrange's
    own draws and none of its wrapper calls: n.bit_length() bits, drawn again while they reach n."""
    k = n.bit_length()
    value = bits(k)
    while value >= n:
        value = bits(k)
    return value


def _random_raw(bits, alphabet, max_len: int) -> list[tuple[int, int]]:
    # Unreduced on purpose: cancellations are likely.  The draws of
    # (randrange(n), choice((1, -1))) per letter, after randrange(max_len + 1).
    n = len(alphabet)
    if n == 0:
        return []
    return [(_below(bits, n), (1, -1)[_below(bits, 2)]) for _ in range(_below(bits, max_len + 1))]


def _enumerable(n: int, max_len: int) -> bool:
    """Whether the reduced words up to max_len letters fit under both caps."""
    total, letters, layer = 1, 0, 1
    for depth in range(1, max_len + 1):
        layer *= 2 * n if depth == 1 else 2 * n - 1
        total += layer
        letters += depth * layer
        if total > _ENUMERATION_CAP or letters > _LETTER_CAP:
            return False
    return True


def _walk(table: CosetTable, length: int) -> Iterator[tuple[str, int]]:
    """Every reduced word up to length in shortlex order, as (codes, coset) pairs.

    The coset-table walk, a length at a time: each child's coset is one step
    of the table's graph from its parent's, so a word costs one step past
    the string of its codes, and no ``Word`` is built.
    """
    alphabet, steps = table.graph.alphabet, table.graph._steps
    chars = "".join(map(alphabet._char, range(2 * len(alphabet))))
    # The codes, and image tuples, of the letters that may follow each last
    # letter, in shortlex letter order: every letter but its inverse.
    follow, moves = {"": chars}, {"": steps}
    texts, cosets = [""], [0]
    yield "", 0
    for depth in range(1, length + 1):
        if depth == 2:  # only now, so a wide alphabet scanned to length 1 builds no table
            for code, ch in enumerate(chars):
                k = code ^ 1
                follow[ch], moves[ch] = chars[:k] + chars[k + 1:], steps[:k] + steps[k + 1:]
        cosets = [images[c] for t, c in zip(texts, cosets) for images in moves[t[-1:]]]
        texts = [t + ch for t in texts for ch in follow[t[-1:]]]
        yield from zip(texts, cosets)


def run_checks(act: FiniteAction, basepoint: int = 0, max_len: int = 5, seed: int = 0,
               trials: int = 200) -> list[CheckResult]:
    """Run the whole invariant suite; returns one result per invariant."""
    for name, value in (("trials", trials), ("max_len", max_len)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if max_len > words.MAX_WORD_LENGTH:  # read now, as parse does, so the cap can be lowered
        raise ValueError(f"max_len must be at most {words.MAX_WORD_LENGTH}, got {max_len}")
    rng = random.Random(seed)
    bits = rng.getrandbits  # all draws but the H-action's shuffles go through _below
    alphabet = act.alphabet
    n = len(alphabet)
    table, transversal = build_table(act, basepoint)
    basis = compute_basis(table, transversal)
    m = table.num_cosets
    h_degree = 3
    sigma = HAction(h_degree, tuple(_random_perm(rng, h_degree) for _ in basis.elements))
    ind = induce(sigma, table, transversal, basis)

    results: list[CheckResult] = []

    def check(name, fn):
        try:
            detail = fn() or ""
            results.append(CheckResult(name, True, detail))
        except (_CheckFailure, AssertionError) as exc:
            results.append(CheckResult(name, False, str(exc)))

    def rand_word():
        # After each letter code, every code but its inverse may follow, in
        # shortlex letter order: draw the rank of the next among those.
        size, codes = _below(bits, max_len + 1), []
        while n and len(codes) < size:
            if codes:
                code = _below(bits, 2 * n - 1)
                codes.append(code + (code >= codes[-1] ^ 1))
            else:
                codes.append(_below(bits, 2 * n))
        return words._spell(alphabet, codes)

    def rand_h():
        u = rand_word()
        return words.concat(u, words.invert(rep(table, transversal, u)))

    def axioms(action, moved, failed):
        if trials > 0:
            _require(perm_of_word(action, words.identity(alphabet)).is_identity(), moved)
        for _ in range(trials):
            v, w = rand_word(), rand_word()
            _require(
                perm_of_word(action, words.concat(v, w)) == perm_of_word(action, v).then(perm_of_word(action, w)),
                failed,
            )

    # words -----------------------------------------------------------------
    def words_reduce_idempotent():
        for _ in range(trials):
            raw = _random_raw(bits, alphabet, 2 * max_len)
            w = words.reduce(alphabet, raw)
            _require(all(ord(a) ^ 1 != ord(b) for a, b in zip(w.codes, w.codes[1:])), "cancelling pair survived")
            _require(words.reduce(alphabet, w.letters) == w, "reduce is not idempotent")

    check("words-reduce-idempotent", words_reduce_idempotent)

    def words_group_laws():
        e = words.identity(alphabet)
        for _ in range(trials):
            w, v, u = rand_word(), rand_word(), rand_word()
            _require(
                words.concat(words.concat(w, v), u) == words.concat(w, words.concat(v, u)),
                "concat is not associative",
            )
            _require(words.concat(w, e) == w == words.concat(e, w), "identity law failed")
            _require(words.concat(w, words.invert(w)) == e, "inverse law failed")
            _require(words.invert(words.invert(w)) == w, "invert is not an involution")

    check("words-group-laws", words_group_laws)

    def words_parse_roundtrip():
        for _ in range(trials):
            w = rand_word()
            _require(words.parse(words.format_word(w), alphabet) == w, "parse(format(w)) != w")

    check("words-parse-roundtrip", words_parse_roundtrip)

    # actions ---------------------------------------------------------------
    check("action-axioms", lambda: axioms(act, "identity word moved a point", "compatibility axiom failed"))

    def action_homomorphism():
        for _ in range(trials):
            w = rand_word()
            _require(
                perm_of_word(act, words.invert(w)) == perm_of_word(act, w).inverse,
                "word permutations do not respect inverses",
            )

    check("action-homomorphism", action_homomorphism)

    def action_respects_reduction():
        for _ in range(trials):
            raw = _random_raw(bits, alphabet, 2 * max_len)
            p = _below(bits, act.degree)
            folded = p
            for g, s in raw:
                folded = act.step(folded, Letter(g, s))
            _require(
                evaluate(act, p, words.reduce(alphabet, raw)) == folded,
                "reduction changed the action of a letter sequence",
            )

    check("action-respects-reduction", action_respects_reduction)

    # cosets ----------------------------------------------------------------
    def transversal_identity_first():
        _require(transversal.reps[0].is_identity(), "reps[0] is not the empty word")

    check("transversal-identity-first", transversal_identity_first)

    def transversal_prefix_closed():
        # Closed under prefixes iff each rep minus its last letter is a rep.
        have = {r.codes for r in transversal.reps}
        for r in transversal.reps:
            if r.codes and r.codes[:-1] not in have:
                pfx = words._word(alphabet, r.codes[:-1])
                raise _CheckFailure(f"prefix {pfx} of {r} is not a representative")

    check("transversal-prefix-closed", transversal_prefix_closed)

    def transversal_consistent():
        _require(len(set(transversal.reps)) == m, "representatives are not distinct")
        for c, r in enumerate(transversal.reps):
            if evaluate(act, basepoint, r) != table.points[c]:
                raise _CheckFailure(f"rep {r} does not reach its coset point")

    check("transversal-consistent", transversal_consistent)

    def transversal_shortlex_minimal():
        longest = max(len(r) for r in transversal.reps)
        if _enumerable(n, longest):
            first: dict[int, Word] = {}
            for codes, c in _walk(table, longest):
                if c not in first:
                    first[c] = words._word(alphabet, codes)
            for c, r in enumerate(transversal.reps):
                if first[c] != r:
                    raise _CheckFailure(f"coset {c}: {first[c]} is smaller than rep {r}")
            return f"exhaustive up to length {longest}"
        for _ in range(trials):
            w = rand_word()
            r = rep(table, transversal, w)
            if r.shortlex_key() > w.shortlex_key():
                raise _CheckFailure(f"rep {r} is not minimal against {w}")
        return "sampled (instance too large for an exhaustive scan)"

    check("transversal-shortlex-minimal", transversal_shortlex_minimal)

    def barmap_laws():
        for _ in range(trials):
            w, v = rand_word(), rand_word()
            r = rep(table, transversal, w)
            _require(rep(table, transversal, r) == r, "bar map is not idempotent")
            _require(
                coset_of(table, words.concat(w, v)) == evaluate(table.graph, coset_of(table, w), v),
                "coset of wv does not factor through the coset of w",
            )

    check("barmap-laws", barmap_laws)

    # basis -----------------------------------------------------------------
    def basis_count():
        _require(len(basis.elements) == 1 + m * (n - 1), "basis size is not 1 + m(n-1)")
        _require(degenerate_count(basis) == m - 1, "degenerate pair count is not m - 1")
        return f"|B| = {len(basis.elements)}, degenerate = {degenerate_count(basis)}"

    check("basis-count", basis_count)

    def basis_words_distinct():
        seen = {e.word for e in basis.elements}
        _require(len(seen) == len(basis.elements), "basis words are not pairwise distinct")
        _require(all(not e.word.is_identity() for e in basis.elements), "identity crept into the basis")

    check("basis-words-distinct", basis_words_distinct)

    def basis_membership():
        for e in basis.elements:
            if evaluate(act, basepoint, e.word) != basepoint:
                raise _CheckFailure(f"basis word {e.word} does not fix the basepoint")

    check("basis-membership", basis_membership)

    def basis_degenerate_bijection():
        # Word arithmetic, not the tree edges compute_basis reads.
        singles, e = [words.single(alphabet, g) for g in range(n)], words.identity(alphabet)
        for c, t in enumerate(transversal.reps):
            for g, perm in enumerate(table.graph.gen_perms):
                c2 = perm(c)
                word = words.concat(words.concat(t, singles[g]), words.invert(transversal.reps[c2]))
                k = basis.index[(c, g)]
                if word != (basis.elements[k].word if k is not None else e):
                    raise _CheckFailure(f"pair ({c}, {g}) does not match its word {word}")

    check("basis-degenerate-bijection", basis_degenerate_bijection)

    # rewrite ---------------------------------------------------------------
    def rewrite_roundtrip():
        for _ in range(trials):
            h = rand_h()
            if expand(basis, rewrite(table, transversal, basis, h)) != h:
                raise _CheckFailure(f"round trip failed for {h}")

    check("rewrite-roundtrip", rewrite_roundtrip)

    def rewrite_homomorphism():
        for _ in range(trials):
            h1, h2 = rand_h(), rand_h()
            joint = rewrite(table, transversal, basis, words.concat(h1, h2)).factors
            split = _bconcat(
                rewrite(table, transversal, basis, h1).factors,
                rewrite(table, transversal, basis, h2).factors,
            )
            _require(joint == split, "rewriting is not a homomorphism")

    check("rewrite-homomorphism", rewrite_homomorphism)

    def rewrite_basis_fidelity():
        for k, e in enumerate(basis.elements):
            if rewrite(table, transversal, basis, e.word).factors != ((k, 1),):
                raise _CheckFailure(f"basis word {k} does not rewrite to itself")

    check("rewrite-basis-fidelity", rewrite_basis_fidelity)

    def rewrite_empty_iff_identity():
        bound = max_len if _enumerable(n, max_len) else max(d for d in range(4) if _enumerable(n, d))
        count = 0
        for codes, c in _walk(table, bound):
            if c:  # outside the stabilizer
                continue
            w = words._word(alphabet, codes)
            count += 1
            bw = rewrite(table, transversal, basis, w)
            if (len(bw) == 0) != w.is_identity():
                raise _CheckFailure(f"empty rewrite for nonidentity {w}")
            if expand(basis, bw) != w:
                raise _CheckFailure(f"round trip failed for {w}")
        return f"{count} stabilizer elements up to length {bound}"

    check("rewrite-empty-iff-identity", rewrite_empty_iff_identity)

    def membership_final_state():
        for _ in range(trials):
            w = rand_word()
            inside = evaluate(act, basepoint, w) == basepoint
            _require(contains(table, w) == inside, "contains disagrees with the action")
            try:
                rewrite(table, transversal, basis, w)
                ended_at_zero = True
            except NotInSubgroupError as exc:
                ended_at_zero = False
                _require(exc.final_coset == coset_of(table, w), "reported final coset is wrong")
            _require(ended_at_zero == inside, "rewrite accepts exactly the stabilizer")

    check("membership-final-state", membership_final_state)

    # induce ----------------------------------------------------------------
    def induce_restriction_identity():
        restricted = restrict_to_h(ind, basis)
        _require(restricted == sigma.perms, "restriction does not recover the H-action")

    check("induce-restriction-identity", induce_restriction_identity)

    def induce_claim():
        _require(check_claim(ind, transversal), "a representative moved the A-coordinate")

    check("induce-claim", induce_claim)

    check("induce-action-axioms", lambda: axioms(
        ind.base, "identity word moved an induced point", "induced compatibility axiom failed"))

    def induce_coset_equivariance():
        # Point a + d*c lies over coset c, so the coset of each induced
        # image is the table's image of that point's coset.
        over = tuple(q // h_degree for q in range(ind.base.degree))
        for _ in range(trials):
            w = rand_word()
            cosets = words._gather(over, perm_of_word(ind.base, w).images)
            expected = words._gather(perm_of_word(table.graph, w).images, over)
            _require(cosets == expected, "coset coordinate strayed from the table")

    check("induce-coset-equivariance", induce_coset_equivariance)

    def induce_tensor_generic():
        for _ in range(trials):
            a = _below(bits, h_degree)
            w_prior, g = rand_word(), rand_word()
            got = tensor_action_generic(sigma, table, transversal, basis, a, w_prior, g)
            start = ind.encode(a, coset_of(table, w_prior))
            _require(got == ind.decode(evaluate(ind.base, start, g)),
                     "transfer formula disagrees with the induced action")

    check("induce-tensor-generic", induce_tensor_generic)

    return results
