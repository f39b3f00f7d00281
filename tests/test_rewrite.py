import random

import pytest

import schreier as s
import schreier.cli as cli
from helpers import (
    brute_factor_reduce,
    make_action,
    pairs_of_word,
    random_transitive_perms,
    random_word_pairs,
    rewrite_by_words,
    word_from_pairs,
)

CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])


def setup_case(act):
    table, tr = s.build_table(act, 0)
    return table, tr, s.compute_basis(table, tr)


def test_contains():
    table, _, _ = setup_case(CYCLE3)
    ab = CYCLE3.alphabet
    assert s.contains(table, s.identity(ab))
    assert not s.contains(table, ab.word("x"))
    assert s.contains(table, ab.word("x y x^2"))


def test_rewrite_identity_is_empty():
    table, tr, basis = setup_case(CYCLE3)
    assert s.rewrite(table, tr, basis, s.identity(CYCLE3.alphabet)).factors == ()


def test_rewrite_worked_examples():
    table, tr, basis = setup_case(CYCLE3)
    ab = CYCLE3.alphabet
    # x y x^2 factors as (x y x^-1) . (x^3), basis indices 2 and 1
    bw = s.rewrite(table, tr, basis, ab.word("x y x^2"))
    assert bw.factors == ((2, 1), (1, 1))
    assert str(s.expand(basis, bw)) == "x y x^2"
    # a negative letter inverts the factor it crosses
    assert s.rewrite(table, tr, basis, ab.word("x y^-1 x^2")).factors == ((2, -1), (1, 1))
    # x^-1 y x is itself a basis element
    assert s.rewrite(table, tr, basis, ab.word("x^-1 y x")).factors == ((3, 1),)


def test_rewrite_rejects_a_word_over_another_alphabet():
    table, tr, basis = setup_case(CYCLE3)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.rewrite(table, tr, basis, s.Alphabet(("x", "z")).word("x"))


def test_rewrite_rejects_nonmembers():
    table, tr, basis = setup_case(CYCLE3)
    with pytest.raises(s.NotInSubgroupError) as info:
        s.rewrite(table, tr, basis, CYCLE3.alphabet.word("x"))
    assert info.value.final_coset == 1


def test_expand_examples():
    _, _, basis = setup_case(CYCLE3)
    assert s.expand(basis, s.BWord(())).is_identity()
    # raw factor lists may cancel completely
    assert s.expand(basis, [(0, 1), (0, -1)]).is_identity()
    assert str(s.expand(basis, [(1, 1), (0, 1)])) == "x^3 y"
    with pytest.raises(ValueError, match="out of range"):
        s.expand(basis, [(9, 1)])


@pytest.mark.parametrize("sign", [0, 5, -2])
def test_expand_rejects_a_sign_other_than_plus_or_minus_one(sign):
    # BWord refuses these signs; a raw factor sequence must not slip past.
    _, _, basis = setup_case(CYCLE3)
    for factors in ([(1, sign)], [(0, 1), (1, sign)]):
        with pytest.raises(ValueError) as info:
            s.expand(basis, factors)
        assert str(info.value) == f"factor sign must be +1 or -1, got {sign}"


def test_expand_checks_every_factor_before_reducing_a_raw_sequence():
    # A bad factor must not cancel against its inverse before it is checked.
    _, _, basis = setup_case(CYCLE3)
    with pytest.raises(ValueError) as info:
        s.expand(basis, [(0, 2), (0, -2)])
    assert str(info.value) == "factor sign must be +1 or -1, got 2"
    with pytest.raises(ValueError, match="out of range"):
        s.expand(basis, [(9, 1), (9, -1)])
    assert s.expand(basis, [(0, 1), (0, -1), (1, 1)]) == basis.elements[1].word
    with pytest.raises(ValueError, match="basis index 9 out of range"):
        s.expand(basis, s.BWord(((1, 1), (9, -1))))


def test_bword_validates():
    with pytest.raises(ValueError, match="not reduced"):
        s.BWord(((0, 1), (0, -1)))
    with pytest.raises(ValueError, match="sign"):
        s.BWord(((0, 2),))
    with pytest.raises(ValueError, match="negative basis index -1"):
        s.BWord(((-1, 1),))


def test_roundtrip_random_stabilizer_elements():
    rng = random.Random(61)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 10)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr, basis = setup_case(act)
        for _ in range(50):
            u = word_from_pairs(act.alphabet, random_word_pairs(rng, n, 8))
            h = s.concat(u, s.invert(s.rep(table, tr, u)))
            bw = s.rewrite(table, tr, basis, h)
            assert s.expand(basis, bw) == h


def test_rewrite_matches_word_scan_oracle():
    rng = random.Random(67)
    for _ in range(15):
        n, m = rng.randint(1, 3), rng.randint(1, 8)
        perms = random_transitive_perms(rng, n, m)
        act = make_action(tuple("xyz"[:n]), perms)
        table, tr, basis = setup_case(act)
        reps = [pairs_of_word(r) for r in tr.reps]
        bwords = [pairs_of_word(e.word) for e in basis.elements]
        for _ in range(40):
            u = word_from_pairs(act.alphabet, random_word_pairs(rng, n, 7))
            h = s.concat(u, s.invert(s.rep(table, tr, u)))
            got = s.rewrite(table, tr, basis, h).factors
            assert got == rewrite_by_words(perms, 0, reps, bwords, pairs_of_word(h))


def test_rewrite_is_a_homomorphism():
    rng = random.Random(71)
    table, tr, basis = setup_case(CYCLE3)
    ab = CYCLE3.alphabet
    for _ in range(200):
        u1 = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        u2 = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        h1 = s.concat(u1, s.invert(s.rep(table, tr, u1)))
        h2 = s.concat(u2, s.invert(s.rep(table, tr, u2)))
        joint = s.rewrite(table, tr, basis, s.concat(h1, h2)).factors
        split = brute_factor_reduce(
            s.rewrite(table, tr, basis, h1).factors
            + s.rewrite(table, tr, basis, h2).factors)
        assert joint == split


def test_basis_words_rewrite_to_single_factors():
    rng = random.Random(73)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 10)
        act = make_action(tuple("xyz"[:n]), random_transitive_perms(rng, n, m))
        table, tr, basis = setup_case(act)
        for k, e in enumerate(basis.elements):
            assert s.rewrite(table, tr, basis, e.word).factors == ((k, 1),)
            assert s.rewrite(table, tr, basis, s.invert(e.word)).factors == ((k, -1),)


def test_rewrite_empty_iff_identity_exhaustive():
    table, tr, basis = setup_case(CYCLE3)
    count = 0
    for w in s.iter_reduced_words(CYCLE3.alphabet, 5):
        if not s.contains(table, w):
            continue
        count += 1
        bw = s.rewrite(table, tr, basis, w)
        assert (len(bw) == 0) == w.is_identity()
        assert s.expand(basis, bw) == w
    assert count > 1


def test_rewrite_works_for_alternate_transversal():
    # the scan never assumes shortlex representatives
    table, _ = s.build_table(CYCLE3, 0)
    ab = CYCLE3.alphabet
    alt = s.SchreierTransversal((ab.word("1"), ab.word("x"), ab.word("x^2")))
    basis = s.compute_basis(table, alt)
    rng = random.Random(79)
    for _ in range(200):
        u = word_from_pairs(ab, random_word_pairs(rng, 2, 7))
        h = s.concat(u, s.invert(s.rep(table, alt, u)))
        assert s.expand(basis, s.rewrite(table, alt, basis, h)) == h


def test_a_query_never_builds_letters(monkeypatch, tmp_path, capsys):
    # parse, contains, rewrite, expand and format_word all walk the codes.
    act = make_action(("x", "y", "z"), random_transitive_perms(random.Random(3), 3, 40))
    table, tr, basis = setup_case(act)
    ab = act.alphabet
    queries = [s.concat(w, s.invert(s.rep(table, tr, w)))
               for w in (ab.word("x^3 y^-2 z x^-1"), ab.word("y x^-1 y^70 z^-1 y^-69 x"))]
    path = tmp_path / "action.txt"
    path.write_text(s.format_action_text(act))
    read = []
    letters = s.Word.letters
    monkeypatch.setattr(s.Word, "letters", property(lambda w: read.append(w) or letters.__get__(w)))
    for h in queries:
        text = s.format_word(h)
        w = s.parse(text, ab)
        assert s.contains(table, w)
        assert s.format_word(s.expand(basis, s.rewrite(table, tr, basis, w))) == text
        assert cli.main(["rewrite", str(path), text]) == 0
        assert capsys.readouterr().out.endswith(f"expanded: {text}\n")
    assert read == [] and "_letters" not in vars(ab)
    assert s.Word(ab, queries[0].letters) == queries[0] and read == [queries[0]]
