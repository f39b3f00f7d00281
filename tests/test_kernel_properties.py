"""Property tests: the word kernels against the oracles in helpers.py."""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import schreier as s
import schreier.checks as checks
import schreier.cli as cli
import schreier.cosets as cosets

from helpers import (
    brute_factor_reduce,
    brute_reduce,
    claim_by_words,
    ev_pairs,
    expand_pairs,
    fold_bouquet,
    format_pairs,
    make_action,
    orbit_of,
    pairs_of_word,
    parse_action_rows,
    random_transitive_perms,
    restrict_by_words,
    rewrite_by_words,
    rooted_form,
    scan_by_words,
    shortlex_key,
    word_from_pairs,
)

ALPHABETS = [s.Alphabet(tuple("abc"[:n])) for n in (1, 2, 3)]


def _raw(n: int, max_size: int = 30):
    return st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), max_size=max_size)


@st.composite
def alphabet_and_raws(draw, count: int):
    alphabet = draw(st.sampled_from(ALPHABETS))
    return alphabet, [draw(_raw(len(alphabet))) for _ in range(count)]


def _inverse_pairs(pairs):
    return tuple((g, -sign) for g, sign in reversed(pairs))


def _revalidates(w: s.Word) -> bool:
    return s.Word(w.alphabet, w.letters) == w


@given(alphabet_and_raws(1))
def test_reduce_agrees_with_brute_reduce(case):
    alphabet, (raw,) = case
    w = s.reduce(alphabet, raw)
    assert pairs_of_word(w) == brute_reduce(raw)
    assert _revalidates(w)


@given(alphabet_and_raws(2))
def test_concat_agrees_with_brute_reduce(case):
    alphabet, (raw_w, raw_v) = case
    w, v = s.reduce(alphabet, raw_w), s.reduce(alphabet, raw_v)
    # w w^-1 and (w v) v^-1 cancel all the way through the junction
    for left, right in ((w, v), (w, s.invert(w)), (s.concat(w, v), s.invert(v))):
        got = s.concat(left, right)
        assert pairs_of_word(got) == brute_reduce(pairs_of_word(left) + pairs_of_word(right))
        assert _revalidates(got)


@given(alphabet_and_raws(1))
def test_invert_agrees_with_brute_reduce(case):
    alphabet, (raw,) = case
    w = s.reduce(alphabet, raw)
    got = s.invert(w)
    assert pairs_of_word(got) == brute_reduce(_inverse_pairs(pairs_of_word(w)))
    assert _revalidates(got)
    assert s.concat(w, got).is_identity()


@given(alphabet_and_raws(1))
def test_prefixes_revalidate(case):
    alphabet, (raw,) = case
    w = s.reduce(alphabet, raw)
    pre = s.prefixes(w)
    assert [pairs_of_word(p) for p in pre] == [pairs_of_word(w)[:i] for i in range(len(w) + 1)]
    assert all(_revalidates(p) for p in pre)


_SEPARATORS = (" ", "\t", "\n", "*", " * ", "\t*\n")
_PLUS_ONE = ("", "^1", "^+1", "^01")
_PADDING = ("", " ", "\t", "\n", " \t\n ")


@st.composite
def spelled_word(draw):
    """Letters and one of the many texts that spell them."""
    alphabet, (raw,) = draw(alphabet_and_raws(1))
    factors = [alphabet.names[g] + (draw(st.sampled_from(_PLUS_ONE)) if sign > 0 else "^-1") for g, sign in raw]
    text = factors[0] if factors else "1"
    for factor in factors[1:]:
        text += draw(st.sampled_from(_SEPARATORS)) + factor
    pad = st.sampled_from(_PADDING)
    return alphabet, raw, draw(pad) + text + draw(pad)


@given(spelled_word())
def test_parse_agrees_with_brute_reduce(case):
    alphabet, raw, text = case
    w = s.parse(text, alphabet)
    assert pairs_of_word(w) == brute_reduce(raw)
    assert _revalidates(w)


@st.composite
def run_text(draw):
    """An alphabet, the letters of up to 12 factor tokens and their text; a token often undoes
    part of the one before it, and exponents pass the longest run the memo keeps as codes."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    factors = []
    for _ in range(draw(st.integers(0, 12))):
        if factors and draw(st.booleans()):
            g, k = factors[-1]
            factors.append((g, -draw(st.integers(1, abs(k))) * (1 if k > 0 else -1)))
        else:
            factors.append((draw(st.integers(0, len(alphabet) - 1)), draw(st.integers(-70, 70).filter(bool))))
    raw = [(g, 1 if k > 0 else -1) for g, k in factors for _ in range(abs(k))]
    return alphabet, raw, " ".join(f"{alphabet.names[g]}^{k}" for g, k in factors) or "1"


@given(run_text())
@example((ALPHABETS[1], [(0, 1)] * 70 + [(0, -1)] * 70 + [(1, 1)], "a^70 a^-70 b"))
@example((ALPHABETS[1], [(0, 1), (1, 1), (1, -1), (0, -1)], "a^1 b b^-1 a^-1"))
def test_parse_and_format_word_agree_with_the_oracles(case):
    # Cold, then with every token memoised: tokens that cancel across their
    # junction, and long runs the memo keeps as (generator, exponent).
    alphabet, raw, text = case
    pairs = brute_reduce(raw)
    for ab in (s.Alphabet(alphabet.names), alphabet, alphabet):
        w = s.parse(text, ab)
        assert pairs_of_word(w) == pairs and _revalidates(w)
    assert s.format_word(w) == format_pairs(alphabet.names, pairs)
    assert s.parse(s.format_word(w), alphabet) == w


@given(alphabet_and_raws(2))
def test_shortlex_key_and_letters_agree_with_the_oracles(case):
    alphabet, raws = case
    words = [s.reduce(alphabet, raw) for raw in raws]
    keys = [shortlex_key(pairs_of_word(w)) for w in words]
    assert [w.shortlex_key()[0] for w in words] == [k[0] for k in keys]
    assert [tuple(map(ord, w.shortlex_key()[1])) for w in words] == [k[1] for k in keys]
    assert (words[0] < words[1]) == (keys[0] < keys[1]) and (words[0] == words[1]) == (keys[0] == keys[1])
    for w, raw in zip(words, raws):
        assert w.letters == tuple(s.Letter(g, sign) for g, sign in brute_reduce(raw))
        assert all(lt == s.Letter(ord(c) >> 1, -1 if ord(c) & 1 else 1) for lt, c in zip(w.letters, w.codes))


# Valid exponents and separators, including ones that re's \s and
# str.split() must both see (U+2003 EM SPACE, U+001C FILE SEPARATOR).
_EXPONENTS = ("", "^1", "^+1", "^01", "^-1", "^2", "^-3", "^600000")
_SPACES = (" ", "\t", "\n", "\u2003", "\u001c", "*", " * ", "\t*\n")
# Faults by kind of piece; int() refuses a 5,000-digit exponent.
_FAULTS = {
    "name": ("z", "ab", "a1", "_", "1", "2a"),
    "exponent": ("^0", "^-0", "^", "^+", "^^2", "^" + "9" * 5000),
    "gap": ("", "**", "%", "1"),
    "pad": ("*", "1"),
}


@st.composite
def word_text(draw):
    """An alphabet and a text of up to 8 factors, with up to two pieces faulty."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    valid = {"name": alphabet.names, "exponent": _EXPONENTS, "gap": _SPACES, "pad": _PADDING}
    kinds = ["pad", *(["gap", "name", "exponent"] * draw(st.integers(0, 8)))[1:], "pad"]
    pieces = [draw(st.sampled_from(valid[kind])) for kind in kinds]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(kinds) - 1))
        pieces[i] = draw(st.sampled_from(_FAULTS[kinds[i]]))
    return alphabet, "".join(pieces)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


@given(word_text())
@example((ALPHABETS[0], "a\u2003a*"))
@example((ALPHABETS[1], "b\u001ca^" + "9" * 5000))
@example((ALPHABETS[1], "a^+1 b^0"))
@example((ALPHABETS[0], "\t1\n"))
def test_parse_agrees_with_the_factor_scanner(case):
    # The token memo decides nothing: cold, warm or bypassed, parse gives
    # the same word or the same error.
    alphabet, text = case
    scanned = _outcome(lambda: s.words._fold(alphabet, s.words._scan_factors(text, alphabet)))
    assert _outcome(lambda: s.parse(text, s.Alphabet(alphabet.names))) == scanned
    for _ in range(2):  # the shared alphabet has seen other texts, then this one
        assert _outcome(lambda: s.parse(text, alphabet)) == scanned


def _no_fold():
    return mock.patch.object(s.words, "_fold", side_effect=AssertionError("folded"))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _raw(n, 60))))
def test_parse_reads_a_formatted_word_back_with_one_join_cold_and_warm(case):
    # No run passes 64 letters and nothing cancels: a fresh memo learns every token, and only ``1`` folds.
    n, raw = case
    alphabet = s.Alphabet(tuple("abcd"[:n]))
    w = s.reduce(alphabet, raw)
    with _no_fold() if w.codes else contextlib.nullcontext():
        for _ in range(2):  # the fresh memo, then the warm one
            assert s.parse(s.format_word(w), alphabet) == w


# Codes past 255 need more than 128 generators; those of generators 0x6C00-0x6FFF are the surrogates.
_WIDE = s.Alphabet(tuple(f"b{k}" for k in range(300)))
_SURROGATES = s.Alphabet(tuple(f"b{k}" for k in range(0x7000)))
# Few generators at a time, so that letters often cancel, or XOR to 0x100 or to 0x10000 across a 32-bit slot.
_WIDE_GENERATORS = [(_WIDE, range(300)), (_WIDE, (0, 1, 127, 128, 129, 255, 256, 299)), (_WIDE, (126, 127, 128)),
                    (_SURROGATES, (0x6BFF, 0x6C00, 0x6C01)), (_SURROGATES, (0x6FFF, 0x6F7F, 0x6F80, 0x6F00)),
                    (_SURROGATES, (0, 0x80, 0x6C00, 0x6C80)), (_SURROGATES, (0, 1, 0x6FFF))]


@st.composite
def wide_raw(draw):
    alphabet, gens = draw(st.sampled_from(_WIDE_GENERATORS))
    return alphabet, draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))), max_size=40))


@given(wide_raw())
@example((_WIDE, [(128, 1), (0, 1), (0, -1)]))
@example((_SURROGATES, [(0x6C00, 1), (0x6C00, -1)]))
def test_parse_joins_over_a_wide_alphabet_as_brute_reduce(case):
    alphabet, raw = case
    pairs = brute_reduce(raw)
    alphabet._tokens.clear()  # a cold memo: a fresh alphabet of 28,672 names costs tens of ms
    with _no_fold() if pairs else contextlib.nullcontext():
        for _ in range(2):  # a reduced word's text joins, cold and warm; ``1`` is read by the scanner
            assert pairs_of_word(s.parse(format_pairs(alphabet.names, pairs), alphabet)) == pairs
    for _ in range(2):  # the unreduced text: every cancelling pair is found, and the fold reduces
        assert pairs_of_word(s.parse(format_pairs(alphabet.names, raw), alphabet)) == pairs


# Warm alphabets by width; a fresh one of the same names is cold.  The codes of
# 127 generators reach just below the marker bytes of ``words._runs``; 128 reach them.
_FORMAT_ALPHABETS = {n: s.Alphabet(tuple(f"c{k}" for k in range(n))) for n in (1, 2, 3, 4, 127, 128, 300)}


@st.composite
def word_of_runs(draw):
    """A width and 0 to 300 letters, in runs of one letter: short ones, and ones past 64 letters."""
    n = draw(st.sampled_from(sorted(_FORMAT_ALPHABETS)))
    gens = st.one_of(st.sampled_from((0, n - 1)), st.integers(0, n - 1))
    lengths = st.one_of(st.integers(1, 3), st.integers(60, 100))
    size = draw(st.one_of(st.integers(0, 20), st.integers(0, 300)))
    raw = []
    while len(raw) < size:
        raw += [(draw(gens), draw(st.sampled_from((1, -1))))] * draw(lengths)
    return n, raw[:size]


@given(word_of_runs())
@example((127, [(126, -1)] * 70 + [(126, 1)] + [(0, 1)] * 20))
@example((128, [(127, -1)] * 15 + [(0, 1)]))
def test_format_word_agrees_with_format_pairs_cold_and_warm(case):
    # Both sides of the cutoff and of the 127-generator limit: runs found in C or by the loop.
    n, raw = case
    pairs = brute_reduce(raw)
    for alphabet in (s.Alphabet(_FORMAT_ALPHABETS[n].names), _FORMAT_ALPHABETS[n]):
        w = s.reduce(alphabet, raw)
        for _ in range(2):  # learning its runs, then reading them
            text = s.format_word(w)
            assert text == format_pairs(alphabet.names, pairs)
            assert s.parse(text, alphabet) == w


def _basis_case(seed: int):
    rng = random.Random(seed)
    n, m = rng.randint(1, 3), rng.randint(1, 6)
    act = make_action(("x", "y", "z")[:n], random_transitive_perms(rng, n, m))
    table, tr = s.build_table(act, 0)
    return table, tr, s.compute_basis(table, tr)


BASES = [_basis_case(seed) for seed in range(8)]


def _factors(draw, size: int) -> list[tuple[int, int]]:
    if not size:
        return []
    factor = st.tuples(st.integers(0, size - 1), st.sampled_from((1, -1)))
    head = draw(st.lists(factor, max_size=12))
    tail = draw(st.lists(factor, max_size=12))
    # Undo part of head right after it, so whole factors cancel across
    # boundaries, not just letters at the junction of basis words.
    undo = draw(st.integers(0, len(head)))
    undone = [(k, -sign) for k, sign in reversed(head[len(head) - undo:])]
    return head + undone + tail


@st.composite
def basis_and_factors(draw):
    table, tr, basis = draw(st.sampled_from(BASES))
    return (table, tr, basis), _factors(draw, len(basis.elements))


@given(basis_and_factors())
def test_expand_agrees_with_expand_pairs(case):
    (_, _, basis), factors = case
    basis_words = [pairs_of_word(e.word) for e in basis.elements]
    got = s.expand(basis, factors)
    assert pairs_of_word(got) == expand_pairs(basis_words, factors)
    assert _revalidates(got)


@given(basis_and_factors())
def test_expand_inverts_rewrite(case):
    (table, tr, basis), factors = case
    h = s.expand(basis, factors)
    bw = s.rewrite(table, tr, basis, h)
    assert s.BWord(bw.factors) == bw
    assert s.expand(basis, bw) == h


@given(basis_and_factors(), st.integers(0, 24), st.sampled_from((0, 3, -1)))
def test_expand_rejects_out_of_range_index(case, where, offset):
    (_, _, basis), factors = case
    bad = len(basis.elements) + offset if offset >= 0 else offset
    factors = list(factors)
    factors.insert(min(where, len(factors)), (bad, 1))
    with pytest.raises(ValueError, match="out of range"):
        s.expand(basis, factors)


def test_kernel_outputs_read_the_same_letters():
    ab = ALPHABETS[1]
    words = [s.parse("a b^-1 a", ab), s.reduce(ab, [(0, 1), (1, -1), (0, 1)]),
             s.Word(ab, ((0, 1), (1, -1), (0, 1))), s.invert(s.invert(s.parse("a b^-1 a", ab)))]
    for w in words:
        assert w.letters == (s.Letter(0, 1), s.Letter(1, -1), s.Letter(0, 1))
    assert all(type(lt) is s.Letter for w in words for lt in w.letters)


@st.composite
def action_and_word(draw):
    """Any action (transitive or not, of degree 1, with no generators) and a word with inverse letters."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(1, 8))
    perms = [list(draw(st.permutations(range(m)))) for _ in range(n)]
    act = s.FiniteAction(s.Alphabet(("x", "y", "z")[:n]), m, tuple(s.Permutation(tuple(p)) for p in perms))
    w = s.reduce(act.alphabet, draw(_raw(n, max_size=16)) if n else ())
    return perms, act, w, draw(st.integers(0, m - 1))


@given(action_and_word())
@example(([[0]], make_action(("x",), [[0]]), s.parse("x^-2", s.Alphabet(("x",))), 0))
def test_action_kernels_agree_with_ev_pairs(case):
    perms, act, w, p = case
    pairs = pairs_of_word(w)
    assert s.evaluate(act, p, w) == ev_pairs(perms, p, pairs)
    # perm_of_word starts from the first letter's image tuple: also the empty word, one letter of each sign, degree 1.
    singles = [s.single(act.alphabet, g, sign) for g in range(len(perms)) for sign in (1, -1)]
    for v in (w, s.identity(act.alphabet), *singles):
        expected = tuple(ev_pairs(perms, q, pairs_of_word(v)) for q in range(act.degree))
        assert s.perm_of_word(act, v).images == tuple(s.evaluate(act, q, v) for q in range(act.degree)) == expected
    for g in range(len(act.alphabet)):
        for sign in (1, -1):
            # Fresh letters, not only the alphabet's shared ones.
            assert act.step(p, s.Letter(g, sign)) == ev_pairs(perms, p, ((g, sign),))


@st.composite
def action_and_words_for_the_pair_memo(draw):
    """An action on 1-4 generators of degree 1-6, reduced words of 0-12 letters, and the pair memo's two caps."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    perms = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    words = []
    for _ in range(draw(st.integers(1, 6))):
        # Each next code is drawn by its rank among the 2n - 1 codes that do not cancel the last.
        codes = [draw(st.integers(0, 2 * n - 1))] if draw(st.booleans()) else []
        for rank in draw(st.lists(st.integers(0, 2 * n - 2), max_size=11)) if codes else ():
            codes.append(rank + (rank >= codes[-1] ^ 1))
        words.append(codes)
    return perms, words, draw(st.integers(0, 6)), draw(st.integers(0, 40))


@given(action_and_words_for_the_pair_memo())
@example(([(0,)], [[], [0], [0, 0], [0, 0, 0]], 4, 40))
def test_perm_of_word_through_the_pair_memo_agrees_with_evaluate(case):
    perms, codes, size_cap, images_cap = case
    alphabet = s.Alphabet(tuple("wxyz"[:len(perms)]))
    m = len(perms[0])

    def fresh():
        return s.FiniteAction(alphabet, m, tuple(map(s.Permutation, perms)))

    words = [s.words._spell(alphabet, c) for c in codes]
    expected = [tuple(s.evaluate(fresh(), q, w) for q in range(m)) for w in words]
    shared, unstored = fresh(), fresh()
    unstored._pairs.room = 0  # a store limit of 0: every pair costs its two gathers
    for w, images in zip(words, expected):
        assert s.perm_of_word(fresh(), w).images == images  # cold
        assert s.perm_of_word(shared, w).images == images  # warming
        assert s.perm_of_word(unstored, w).images == images
    assert [s.perm_of_word(shared, w).images for w in words] == expected  # warm
    assert not unstored._pairs
    for pair, images in shared._pairs.items():
        assert len(pair) == 2 and ord(pair[0]) ^ 1 != ord(pair[1])
        assert images == tuple(s.evaluate(shared, q, s.words._word(alphabet, pair)) for q in range(m))
    # The memo's bounds, at any caps: pairs and images both.
    with mock.patch.object(s.actions, "_TOKEN_MEMO_SIZE", size_cap), \
            mock.patch.object(s.actions, "_PAIR_MEMO_IMAGES", images_cap):
        capped = fresh()
        assert [s.perm_of_word(capped, w).images for w in words * 2] == expected * 2
    assert len(capped._pairs) <= size_cap and sum(map(len, capped._pairs.values())) <= images_cap
    # A warm memo is no part of the action's value.
    assert shared == fresh() and hash(shared) == hash(fresh()) and repr(shared) == repr(fresh())
    assert dataclasses.asdict(shared) == dataclasses.asdict(fresh())


@given(action_and_word())
def test_coset_kernels_agree_with_ev_pairs(case):
    perms, act, w, base = case
    table, _ = s.build_table(act, base)
    assert table.points[0] == base and len(set(table.points)) == len(table.points)
    assert set(table.points) == orbit_of(perms, base)
    coset_of_point = {q: c for c, q in enumerate(table.points)}
    pairs = pairs_of_word(w)
    for c, q in enumerate(table.points):
        assert s.evaluate(table.graph, c, w) == coset_of_point[ev_pairs(perms, q, pairs)]
        for g in range(len(act.alphabet)):
            for sign in (1, -1):
                # Fresh letters, not only the alphabet's shared ones.
                assert table.graph.step(c, s.Letter(g, sign)) == coset_of_point[ev_pairs(perms, q, ((g, sign),))]


@st.composite
def action_with_transversals(draw):
    """Any action, also of degree 1 or with no generators, a basepoint, which transversal to build, and letters.

    The transversal is either the shortlex tree of ``build_table`` (None)
    or one built from words, (order, pop): the reps of a search tree from
    the basepoint in a shuffled letter order, breadth-first for pop 0 and
    last in, first out for pop -1.  Either is a Schreier transversal but
    rarely the shortlex one, and in the second a parent can have a higher
    coset number than its child.  ``_build`` builds it; a drawn case holds
    none, so Hypothesis's report of a case never spells out a tree's reps.
    """
    n, m = draw(st.integers(0, 3)), draw(st.integers(1, 7))
    perms = [list(draw(st.permutations(range(m)))) for _ in range(n)]
    act = s.FiniteAction(s.Alphabet(("x", "y", "z")[:n]), m, tuple(s.Permutation(tuple(p)) for p in perms))
    base = draw(st.integers(0, m - 1))
    order = tuple(draw(st.permutations([(g, sign) for g in range(n) for sign in (1, -1)])))
    raw = draw(_raw(n, max_size=12)) if n else []
    return perms, act, base, draw(st.sampled_from((None, (order, 0), (order, -1)))), raw


def _build(case):
    """The perms, the coset table, the transversal and the letters of a drawn case."""
    perms, act, base, search, raw = case
    table, tr = s.build_table(act, base)
    if search is not None:
        order, pop = search
        path = {base: ()}
        pending = [base]
        while pending:
            p = pending.pop(pop)
            for g, sign in order:
                q = ev_pairs(perms, p, ((g, sign),))
                if q not in path:
                    path[q] = path[p] + ((g, sign),)
                    pending.append(q)
        tr = s.SchreierTransversal(tuple(word_from_pairs(act.alphabet, path[q]) for q in table.points))
    return perms, table, tr, raw


@given(alphabet_and_raws(3))
def test_group_laws_agree_with_brute_reduce(case):
    alphabet, raws = case
    w, v, u = (s.reduce(alphabet, raw) for raw in raws)
    joined = brute_reduce(pairs_of_word(w) + pairs_of_word(v) + pairs_of_word(u))
    assert pairs_of_word(s.concat(s.concat(w, v), u)) == joined == pairs_of_word(s.concat(w, s.concat(v, u)))
    e = s.identity(alphabet)
    assert s.concat(w, e) == w == s.concat(e, w)
    assert s.concat(w, s.invert(w)) == e == s.concat(s.invert(w), w)
    assert s.invert(s.invert(w)) == w


@given(action_with_transversals(), st.data())
def test_rewrite_is_a_homomorphism_against_brute_factor_reduce(case, data):
    perms, table, tr, raw = _build(case)
    basis = s.compute_basis(table, tr)
    alphabet = table.action.alphabet

    def factors(h):
        return s.rewrite(table, tr, basis, h).factors

    other = data.draw(_raw(len(perms), max_size=12)) if perms else []
    h1, h2 = (s.concat(u, s.invert(s.rep(table, tr, u))) for u in (s.reduce(alphabet, r) for r in (raw, other)))
    assert factors(s.concat(h1, h2)) == brute_factor_reduce(factors(h1) + factors(h2))
    assert factors(s.invert(h1)) == brute_factor_reduce(_inverse_pairs(factors(h1)))


@given(action_with_transversals(), st.integers(0, 4))
def test_check_scans_agree_with_scan_by_words(case, max_len):
    # The drawn actions fit the caps, so both scans are exhaustive: the
    # first word per coset against the reps, and the stabilizer up to max_len.
    _, table, tr, _ = _build(case)
    longest = max(len(r) for r in tr.reps)
    first, _ = scan_by_words(table, longest)
    walked = {}
    for codes, c in checks._walk(table, longest):
        walked.setdefault(c, codes)
    assert walked == {c: w.codes for c, w in first.items()}
    with mock.patch.object(checks, "build_table", lambda act, base: (table, tr)):
        by_name = {r.name: r for r in s.run_checks(table.action, table.basepoint, max_len, trials=0)}
    wrong = [c for c, r in enumerate(tr.reps) if first[c] != r]
    minimal = by_name["transversal-shortlex-minimal"]
    if wrong:
        c = wrong[0]
        assert (minimal.passed, minimal.detail) == (False, f"coset {c}: {first[c]} is smaller than rep {tr.reps[c]}")
    else:
        assert (minimal.passed, minimal.detail) == (True, f"exhaustive up to length {longest}")
    members = scan_by_words(table, max_len)[1]
    assert by_name["rewrite-empty-iff-identity"].detail == f"{members} stabilizer elements up to length {max_len}"
    assert all(r.passed for r in by_name.values() if r.name != "transversal-shortlex-minimal")


def _listings(act, base) -> dict[tuple[str, str], str]:
    """What ``schreier transversal`` and ``schreier basis`` print on act, plain and structured."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "act.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(s.format_action_text(act))
        for command in ("transversal", "basis"):
            for fmt in ("plain", "structured"):
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    assert cli.main([command, path, "--base", str(base), "--format", fmt]) == 0
                out[command, fmt] = buf.getvalue()
    return out


def _check_listings(act, base):
    table, tr = s.build_table(act, base)
    basis = s.compute_basis(table, tr)
    names, reps = act.alphabet.names, [s.format_word(r) for r in tr.reps]
    rows = [(k, reps[e.coset], names[e.gen], s.format_word(e.word)) for k, e in enumerate(basis.elements)]
    counts = {"count": len(rows), "expected": 1 + table.num_cosets * (len(names) - 1),
              "degenerate": s.degenerate_count(basis)}
    plain = {
        "transversal": [f"{c} {r}" for c, r in enumerate(reps)],
        "basis": [" ".join(map(str, row)) for row in rows] + [" ".join(f"{k} {v}" for k, v in counts.items())],
    }
    structured = {
        "transversal": [{"coset": c, "rep": r} for c, r in enumerate(reps)],
        "basis": [dict(zip(("index", "rep", "generator", "word"), row)) for row in rows] + [counts],
    }
    printed = _listings(act, base)
    for command in ("transversal", "basis"):
        assert printed[command, "plain"].splitlines() == plain[command]
        assert [json.loads(line) for line in printed[command, "structured"].splitlines()] == structured[command]


@settings(deadline=None)  # four cli.main runs an example: a loaded machine took 252 ms for one, over the 200 ms default
@given(action_with_transversals())
def test_listings_agree_with_format_word(case):
    _, act, base, _, _ = case
    _check_listings(act, base)


@pytest.mark.parametrize("names,images,base", [
    ("xy", [[0], [0]], 0),                        # degree 1
    ("", [], 2),                                  # no generators
    ("x", [[1, 0, 3, 2]], 2),                     # not transitive, basepoint 2
    ("xy", [[1, 2, 3, 0, 5, 4], [0, 2, 1, 3, 4, 5]], 3),
    ("xy", [[(i + 1) % 12 for i in range(12)], [(i + 4) % 12 for i in range(12)]], 5),
])
def test_listings_agree_with_format_word_on_edge_cases(names, images, base):
    degree = len(images[0]) if images else 3
    act = s.FiniteAction(s.Alphabet(tuple(names)), degree, tuple(s.Permutation(tuple(p)) for p in images))
    _check_listings(act, base)


def _basis_oracle(perms, table, tr):
    """Elements and index from brute_reduce of t x rep(tx)^-1."""
    coset_of_point = {q: c for c, q in enumerate(table.points)}
    reps = [pairs_of_word(r) for r in tr.reps]
    elements, index = [], {}
    for c, q in enumerate(table.points):
        for g in range(len(perms)):
            u = reps[coset_of_point[perms[g][q]]]
            word = brute_reduce(reps[c] + ((g, 1),) + _inverse_pairs(u))
            index[(c, g)] = len(elements) if word else None
            if word:
                elements.append((c, g, word))
    return elements, index


@given(action_with_transversals())
def test_compute_basis_agrees_with_brute_reduce(case):
    perms, table, tr, raw = _build(case)
    basis = s.compute_basis(table, tr)
    elements, index = _basis_oracle(perms, table, tr)
    assert "elements" not in basis.__dict__  # spelled out lazily, just below
    assert [(e.coset, e.gen, pairs_of_word(e.word)) for e in basis.elements] == elements
    assert basis.index == index
    assert type(basis.index) is dict and list(basis.index.items()) == list(index.items())
    assert all(_revalidates(e.word) for e in basis.elements)
    u = s.reduce(table.action.alphabet, raw)
    h = s.concat(u, s.invert(s.rep(table, tr, u)))
    assert s.expand(basis, s.rewrite(table, tr, basis, h)) == h


def _schreier_graph(table) -> tuple[tuple, ...]:
    """``table.graph`` in ``rooted_form``, from coset 0."""
    step = {}
    for g, perm in enumerate(table.graph.gen_perms):
        for c, c2 in enumerate(perm.images):
            step[c, 2 * g], step[c2, 2 * g + 1] = c2, c
    return rooted_form(step, 0, len(table.graph.alphabet))


@given(action_with_transversals())
def test_the_basis_folds_to_the_schreier_graph(case):
    # The fold of a generating set of H is H's core graph, the whole Schreier graph at finite index: so B generates H.
    _, table, tr, _ = _build(case)
    basis_words = [pairs_of_word(e.word) for e in s.compute_basis(table, tr).elements]
    assert fold_bouquet(basis_words, len(table.graph.alphabet)) == _schreier_graph(table)


@given(action_with_transversals())
def test_the_fold_keeps_a_nielsen_move_and_sees_a_square(case):
    # b0 -> b0 b1 generates the same subgroup; b0 -> b0^2 a proper one, since b0 is free over the rest.
    _, table, tr, _ = _build(case)
    b = [pairs_of_word(e.word) for e in s.compute_basis(table, tr).elements]
    n, graph = len(table.graph.alphabet), _schreier_graph(table)
    if len(b) >= 2:
        assert fold_bouquet([brute_reduce(b[0] + b[1]), *b[1:]], n) == graph
    if b:
        assert fold_bouquet([brute_reduce(b[0] + b[0]), *b[1:]], n) != graph


def _tampered_transversals(tr):
    reps = tr.reps
    yield reps[:-1]
    yield reps + reps[:1]
    if len(reps) >= 2:
        yield (reps[1],) + reps[1:]
        yield reps[:1] * len(reps)
    if len(reps) >= 3:
        # Each rep reaches a coset of its own; these two reach each other's.
        yield (reps[0], reps[2], reps[1]) + reps[3:]


@given(action_with_transversals())
def test_compute_basis_and_induce_reject_a_tampered_transversal(case):
    _, table, tr, _ = _build(case)
    basis = s.compute_basis(table, tr)
    sigma = s.HAction(1, (s.Permutation((0,)),) * len(basis.elements))
    for reps in _tampered_transversals(tr):
        bad = s.SchreierTransversal(reps)
        with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
            s.compute_basis(table, bad)
        with pytest.raises(s.InvariantError, match="not a Schreier transversal"):
            s.induce(sigma, table, bad, basis)


@given(action_with_transversals(), st.data())
def test_induce_restricts_to_sigma_and_agrees_with_the_transfer_formula(case, data):
    _, table, tr, raw = _build(case)
    basis = s.compute_basis(table, tr)
    d = data.draw(st.integers(1, 3))
    sigma = s.HAction(d, tuple(s.Permutation(tuple(data.draw(st.permutations(range(d)))))
                               for _ in basis.elements))
    ind = s.induce(sigma, table, tr, basis)
    assert s.restrict_to_h(ind, basis) == sigma.perms
    assert s.check_claim(ind, tr)
    alphabet = table.action.alphabet
    n = len(alphabet)
    a = data.draw(st.integers(0, d - 1))
    w_prior = s.reduce(alphabet, data.draw(_raw(n, max_size=8)) if n else ())
    g = s.reduce(alphabet, raw)
    a2, c2 = s.tensor_action_generic(sigma, table, tr, basis, a, w_prior, g)
    assert s.evaluate(ind.base, ind.encode(a, s.coset_of(table, w_prior)), g) == ind.encode(a2, c2)


def _tampered_inductions(ind: s.InducedAction, rng: random.Random):
    """The induced action, then with one generator's permutation composed with a
    transposition inside a fiber, and with one across two fibers, where there is room."""
    yield ind
    act, d, m = ind.base, ind.h_degree, ind.num_cosets
    if not act.gen_perms:
        return
    g = rng.randrange(len(act.gen_perms))
    swaps = []
    if d > 1:
        c, (a, b) = rng.randrange(m), rng.sample(range(d), 2)
        swaps.append((ind.encode(a, c), ind.encode(b, c)))
    if m > 1:
        (a, b), (c, c2) = (rng.randrange(d) for _ in range(2)), rng.sample(range(m), 2)
        swaps.append((ind.encode(a, c), ind.encode(b, c2)))
    for p, q in swaps:
        images = list(range(act.degree))
        images[p], images[q] = q, p
        perms = list(act.gen_perms)
        perms[g] = perms[g].then(s.Permutation(tuple(images)))
        yield s.InducedAction(s.FiniteAction(act.alphabet, act.degree, tuple(perms)), d, m)


@given(action_with_transversals(), st.integers(1, 3), st.randoms(use_true_random=False))
@example(([[0]], make_action(("x",), [[0]]), 0, None, [(0, 1), (0, 1)]), 1, random.Random(0))
def test_restrict_to_h_and_check_claim_agree_with_walking_the_words(case, d, rng):
    _, table, tr, raw = _build(case)
    basis = s.compute_basis(table, tr)
    sigma = s.HAction(d, tuple(s.Permutation(tuple(rng.sample(range(d), d))) for _ in basis.elements))
    w = s.reduce(table.action.alphabet, raw)
    # Reps that are not prefix-closed: a coset whose parent is not a rep walks its own word.
    prefixed = s.SchreierTransversal(tuple(s.concat(w, t) for t in tr.reps))
    for ind in _tampered_inductions(s.induce(sigma, table, tr, basis), rng):
        p = s.perm_of_word(ind.base, w)
        assert p.images == tuple(s.evaluate(ind.base, q, w) for q in range(ind.base.degree))
        assert p.then(p) == s.perm_of_word(ind.base, s.concat(w, w))
        for transversal in (tr, prefixed):
            assert _outcome(lambda: s.check_claim(ind, transversal)) == _outcome(lambda: claim_by_words(ind, transversal))
        assert _outcome(lambda: s.restrict_to_h(ind, basis)) == _outcome(lambda: restrict_by_words(ind, basis))


def _is_bijection(perm: s.Permutation) -> bool:
    return sorted(perm.images) == list(range(len(perm.images)))


@given(action_with_transversals(), st.data())
def test_unchecked_permutations_are_bijections(case, data):
    # These permutations skip the constructor's sort: each composes or
    # relabels permutations that were checked.
    perms, table, tr, raw = _build(case)
    act = table.action
    p = s.perm_of_word(act, s.reduce(act.alphabet, raw))
    q = s.perm_of_word(act, s.reduce(act.alphabet, data.draw(_raw(len(perms), max_size=8)) if perms else ()))
    basis = s.compute_basis(table, tr)
    d = data.draw(st.integers(1, 3))
    sigma = s.HAction(d, tuple(s.Permutation(tuple(data.draw(st.permutations(range(d)))))
                               for _ in basis.elements))
    built = [p, q, p.inverse, p.then(q), s.Permutation.identity(act.degree), *table.graph.gen_perms,
             *s.induce(sigma, table, tr, basis).base.gen_perms]
    assert all(_is_bijection(perm) for perm in built)


@given(action_with_transversals(), st.data())
def test_tree_backed_and_word_built_transversals_agree(case, data):
    perms, table, drawn, _ = _build(case)
    table, tree = s.build_table(table.action, table.basepoint)
    alphabet, n = table.action.alphabet, len(perms)
    d = data.draw(st.integers(1, 3))
    tree_basis = s.compute_basis(table, tree)
    sigma = s.HAction(d, tuple(s.Permutation(tuple(data.draw(st.permutations(range(d)))))
                               for _ in tree_basis.elements))
    hs = []
    for _ in range(3):
        u = s.reduce(alphabet, data.draw(_raw(n, max_size=10)) if n else ())
        hs.append(s.concat(u, s.invert(s.rep(table, drawn, u))))
    # Read the tree-backed side first, so its basis words are spelled
    # from the tree before the full list of representatives is needed.
    tree_side = ([s.rewrite(table, tree, tree_basis, h) for h in hs],
                 [s.expand(tree_basis, s.rewrite(table, tree, tree_basis, h)) for h in hs],
                 s.induce(sigma, table, tree, tree_basis))
    words = s.SchreierTransversal(tuple(tree.reps))
    assert tree == words and words == tree and hash(tree) == hash(words)
    words_basis = s.compute_basis(table, words)
    assert tree_basis.elements == words_basis.elements and tree_basis.index == words_basis.index
    assert tree_basis == words_basis and hash(tree_basis) == hash(words_basis)
    assert tree_side == ([s.rewrite(table, words, words_basis, h) for h in hs],
                         [s.expand(words_basis, s.rewrite(table, words, words_basis, h)) for h in hs],
                         s.induce(sigma, table, words, words_basis))
    assert tree_side[1] == hs


@given(action_with_transversals(), st.data())
def test_expand_and_rewrite_walk_the_schreier_graph(case, data):
    perms, table, tr, _ = _build(case)
    basis = s.compute_basis(table, tr)
    factors = _factors(data.draw, len(basis.elements))
    # Expand before any basis word is read: the walk must not need them.
    got = s.expand(basis, factors)
    assert case[3] is not None or "reps" not in tr.__dict__  # case[3] is None for a tree, which spells out no rep
    basis_words = [pairs_of_word(e.word) for e in basis.elements]
    assert pairs_of_word(got) == expand_pairs(basis_words, factors)
    assert _revalidates(got)
    bw = s.rewrite(table, tr, basis, got)
    assert s.BWord(bw.factors) == bw
    reps = [pairs_of_word(r) for r in tr.reps]
    assert bw.factors == rewrite_by_words(perms, table.basepoint, reps, basis_words, pairs_of_word(got))


# A 5-cycle x, searched last in, first out: the rep x^-2 of point 3 (coset 4) is the parent of the rep x^-3
# of point 2 (coset 3).  y fixes every point, so a factor on (c, y) starts and ends at c.
CYCLE5_LIFO = ([[1, 2, 3, 4, 0], [0, 1, 2, 3, 4]], make_action(("x", "y"), [[1, 2, 3, 4, 0], [0, 1, 2, 3, 4]]), 0,
               (((0, 1), (0, -1), (1, 1), (1, -1)), -1), [])


@given(action_with_transversals())
@example(CYCLE5_LIFO)
def test_schreier_vector_of_words_agrees_with_the_tree_the_texts_and_expand(case):
    _, table, tr, _ = _build(case)
    _, tree = s.build_table(table.action, table.basepoint)
    assert s.SchreierTransversal(tree.reps)._tree == tree._tree
    # On the drawn reps given as words, also those of a search tree whose parents can come after their children.
    words = s.SchreierTransversal(tuple(tr.reps))
    assert words._tree[0] == [s.coset_of(table, s.Word(r.alphabet, r.letters[:-1])) for r in tr.reps]
    basis = s.compute_basis(table, words)
    factors = [(k, 1) for k in range(len(basis.elements))] * 2  # tree paths between the factors' cosets
    got = s.expand(basis, factors)
    edges = [(e.coset, e.gen, table.graph.gen_perms[e.gen](e.coset)) for e in basis.elements]
    reps, basis_texts = cosets._texts(words, edges)
    assert reps == [s.format_word(r) for r in tr.reps]
    assert list(basis_texts) == [s.format_word(e.word) for e in basis.elements]
    assert pairs_of_word(got) == expand_pairs([pairs_of_word(e.word) for e in basis.elements], factors)


@given(action_with_transversals(), st.lists(st.tuples(st.integers(0, 99), st.sampled_from((1, -1))), max_size=16))
@example(CYCLE5_LIFO, [(1, 1), (4, -1), (0, 1), (5, 1), (2, -1), (3, 1)])
def test_a_reduced_word_over_the_basis_walks_the_schreier_graph_without_backtracking(case, drawn):
    _, table, tr, _ = _build(case)
    basis = s.compute_basis(table, tr)
    size = len(basis.elements)
    factors = brute_factor_reduce([(k % size, sign) for k, sign in drawn]) if size else ()
    graph, reps = [p.images for p in table.graph.gen_perms], [pairs_of_word(r) for r in tr.reps]
    # The tree geodesic to each edge, the edge, and at the end the path back to coset 0, joined with no reduction.
    walk, c = [], 0
    for k, sign in factors:
        e = basis.elements[k]
        a, b = e.coset, graph[e.gen][e.coset]
        if sign == -1:
            a, b = b, a
        walk += brute_reduce(_inverse_pairs(reps[c]) + reps[a])
        walk.append((e.gen, sign))
        c = b
    walk += _inverse_pairs(reps[c])
    assert brute_reduce(walk) == tuple(walk)
    assert pairs_of_word(s.expand(basis, s.BWord(factors))) == tuple(walk)


def _faulty_rows(draw, rows: list[list[str]], i: int) -> list[list[str]]:
    """What stands in for row i of a valid file: none, two, or one row, with one fault of a kind that
    ``test_parse_action_errors`` lists.  The kind is drawn first, each kind as likely as any other."""
    row, degree, names = rows[i], int(rows[0][1]), rows[1][1:]
    if i == 0:
        faults = [[row[0]], [*row, "7"], ["Degree", row[1]], ["degree", "zero"], ["degree", "0"], ["degree", "-2"],
                  ["degree", str(s.actions.MAX_DEGREE + 1)]]
    elif i == 1:
        faults = [["gens", *names], [*row, "2y"], [*row, *(names[:1] or ["x", "x"])], [*row, "w"]]
    if i < 2:
        return draw(st.sampled_from([[], *([fault] for fault in faults)]))
    name, images = row[1], row[2:]
    later = [other[1] for other in rows[i + 1:]]  # only later rows, so two renamed rows never swap into a valid file

    def one_image(wrong):  # image j replaced by one of wrong(j)
        j = draw(st.integers(0, degree - 1))
        return [["perm", name, *images[:j], draw(st.sampled_from(wrong(j))), *images[j + 1:]]]

    kinds = [lambda: [], lambda: [row, row], lambda: [["prem", name, *images]], lambda: [["perm"]],
             lambda: [["perm", "q", *images]], lambda: [["perm", name, *images[1:]]], lambda: [[*row, "0"]],
             lambda: one_image(lambda j: ["a", "1.5", "0x1"]),  # not an integer
             lambda: one_image(lambda j: ["-1", str(degree)] + [images[j - 1]] * (degree > 1))]  # not a bijection
    kinds += [lambda: [["perm", draw(st.sampled_from(later)), *images]]] if later else []
    return draw(st.sampled_from(kinds))()


@st.composite
def action_texts(draw, faults: int):
    """An action file, valid for ``faults`` 0, else with faults on that many different lines, or empty.

    Fields are joined by spaces or tabs, images written as 3, 03 or +3, perm
    lines come in any order, and blank lines, comments and indents fall anywhere.
    """
    n, degree = draw(st.integers(0, 3)), draw(st.integers(1, 5))
    names = list(draw(st.permutations(("x", "y", "z", "b0"))))[:n]
    rows = [["degree", str(degree)], ["generators", *names]]
    for name in draw(st.permutations(names)):
        images = draw(st.permutations(range(degree)))
        rows.append(["perm", name, *(draw(st.sampled_from(("{}", "0{}", "+{}"))).format(k) for k in images)])
    groups = [[row] for row in rows]
    if faults and draw(st.integers(0, 19)) == 0:
        groups = []
    elif faults:  # a fault lands on a perm line three times as often as on the degree or generators line
        where = st.sampled_from([0, 1] + 3 * list(range(2, len(rows))))
        for i in draw(st.lists(where, min_size=faults, max_size=faults, unique=True)):
            groups[i] = _faulty_rows(draw, rows, i)
    gap = st.sampled_from(("", " ", "\t", "  # a comment", "# perm x 0"))
    lines = []
    for row in (row for group in groups for row in group):
        lines += draw(st.lists(gap, max_size=2))
        sep = draw(st.sampled_from((" ", "\t", " \t ")))
        lines.append(draw(st.sampled_from(("", " ", "\t"))) + sep.join(row) + draw(gap))
    return draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines + draw(st.lists(gap, max_size=2)))


def _parsed(parse, text):
    try:
        return parse(text)
    except s.ActionParseError as exc:
        return type(exc), str(exc)


@given(action_texts(0))
def test_parse_action_text_agrees_with_the_row_by_row_parser_on_valid_files(text):
    act = s.parse_action_text(text)
    assert act == parse_action_rows(text) and isinstance(act.gen_perms, tuple)
    assert all(type(p.images) is tuple for p in act.gen_perms)


@given(st.integers(1, 2).flatmap(action_texts))
def test_parse_action_text_reports_the_first_fault_as_the_row_by_row_parser(text):
    expected = _parsed(parse_action_rows, text)
    assert isinstance(expected, tuple), "a faulty file parsed"
    assert _parsed(s.parse_action_text, text) == expected


@st.composite
def actions_with_h_degrees(draw):
    """An action with 0 to 4 generators, often not transitive, a basepoint and an H-degree."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    perms = [list(draw(st.permutations(range(m)))) for _ in range(n)]
    act = s.FiniteAction(s.Alphabet(("x", "y", "z", "w")[:n]), m, tuple(s.Permutation(tuple(p)) for p in perms))
    return perms, act, draw(st.integers(0, m - 1)), draw(st.integers(1, 3))


@given(actions_with_h_degrees(), st.data())
def test_tables_and_induce_agree_with_the_index_pair_by_pair(case, data):
    perms, act, base, d = case
    built = []
    with mock.patch.object(s.words, "_word", lambda alphabet, codes: built.append(codes)):
        table, tr = s.build_table(act, base)
        basis = s.compute_basis(table, tr)
        emits, edges = basis._emits, basis._edges
        sigma = s.HAction(d, tuple(s.Permutation(tuple(data.draw(st.permutations(range(d))))) for _ in basis.elements))
        ind = s.induce(sigma, table, tr, basis)
    assert built == []  # compute_basis left every word unbuilt, and the tables and induce read none
    graph, m, index = [p.images for p in table.graph.gen_perms], table.num_cosets, basis.index
    for g, images in enumerate(graph):
        assert emits[2 * g] == tuple(None if (k := index[(c, g)]) is None else (k, 1) for c in range(m))
        undone = [index[(images.index(c), g)] for c in range(m)]  # x^-1 at c undoes the pair (c x^-1, x)
        assert emits[2 * g + 1] == tuple(None if k is None else (k, -1) for k in undone)
    assert [*zip(*edges)] == [(e.coset, e.gen, graph[e.gen][e.coset]) for e in basis.elements]  # three columns
    for g, images in enumerate(graph):
        for c, a in itertools.product(range(m), range(d)):
            k = index[(c, g)]
            moved = a if k is None else sigma.perms[k](a)
            assert ind.base.gen_perms[g](ind.encode(a, c)) == ind.encode(moved, images[c])
    # The words, spelled out on first read through repr, asdict or the field, against brute_reduce.
    words = [word_from_pairs(act.alphabet, w) for _, _, w in _basis_oracle(perms, table, tr)[0]]
    for k, (e, w) in enumerate(zip(basis.elements, words, strict=True)):
        if k % 3 == 0:
            assert repr(e) == f"BasisElement(coset={e.coset}, gen={e.gen}, word={w!r})"
        elif k % 3 == 1:
            assert dataclasses.asdict(e) == {"coset": e.coset, "gen": e.gen, "word": dataclasses.asdict(w)}
        assert e.word == w and s.BasisElement(e.coset, e.gen, w).word is w
