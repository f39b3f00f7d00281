import itertools
import pickle
import random
import re
import sys
import threading
from pathlib import Path

import pytest

import schreier as s
from helpers import (
    ev_pairs,
    make_action,
    parse_action_rows,
    random_transitive_perms,
    random_word_pairs,
    word_from_pairs,
)

FIXTURES = Path(__file__).parent / "fixtures"

CYCLE3 = make_action(("x", "y"), [[1, 2, 0], [0, 1, 2]])


def test_permutation_validation():
    with pytest.raises(ValueError, match="invalid permutation"):
        s.Permutation((0, 0, 1))
    with pytest.raises(ValueError, match="invalid permutation"):
        s.Permutation((0, 3, 1))
    with pytest.raises(ValueError, match="invalid permutation"):
        s.Permutation(())


def test_checked_constructors_keep_their_messages():
    # Kernels build permutations unchecked; the public constructor still checks.
    with pytest.raises(ValueError, match=r"^invalid permutation: \[0, 0\] is not a bijection of 0\.\.1$"):
        s.Permutation((0, 0))
    with pytest.raises(ValueError, match=r"^invalid permutation: \[\] is not a bijection of 0\.\.-1$"):
        s.Permutation.identity(0)
    with pytest.raises(s.ActionParseError, match=r"^line 3: invalid permutation: \[1, 1\]"):
        s.parse_action_text("degree 2\ngenerators x\nperm x 1 1\n")


def test_permutation_basics():
    p = s.Permutation((1, 2, 0))
    assert p.degree == 3 and p(0) == 1
    assert p.inverse(1) == 0 and p.then(p.inverse).is_identity()
    assert s.Permutation.identity(4).is_identity()


def test_then_applies_left_first():
    p = s.Permutation((1, 0, 2))
    q = s.Permutation((0, 2, 1))
    assert p.then(q)(0) == q(p(0)) == 2


def test_action_validation():
    ab = s.Alphabet(("x",))
    with pytest.raises(ValueError, match="degree"):
        s.FiniteAction(ab, 0, ())
    with pytest.raises(ValueError, match="expected 1 permutations"):
        s.FiniteAction(ab, 2, ())
    with pytest.raises(ValueError, match="degree"):
        s.FiniteAction(ab, 2, (s.Permutation((0, 1, 2)),))


def test_evaluate_is_a_right_action():
    # v applies before w
    ab = CYCLE3.alphabet
    v, w = s.parse("x", ab), s.parse("y", ab)
    assert s.evaluate(CYCLE3, 0, s.concat(v, w)) == s.evaluate(CYCLE3, s.evaluate(CYCLE3, 0, v), w)
    assert s.evaluate(CYCLE3, 0, s.parse("x^-1", ab)) == 2


def test_evaluate_matches_raw_oracle():
    rng = random.Random(23)
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 8)
        perms = [list(pm) for pm in (random_transitive_perms(rng, n, m))]
        act = make_action(tuple("abc"[:n]), perms)
        pairs = random_word_pairs(rng, n, 8)
        w = word_from_pairs(act.alphabet, pairs)
        p = rng.randrange(m)
        assert s.evaluate(act, p, w) == ev_pairs(perms, p, pairs)


def test_perm_of_word_multiplicative():
    rng = random.Random(29)
    ab = CYCLE3.alphabet
    for _ in range(200):
        v = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        w = word_from_pairs(ab, random_word_pairs(rng, 2, 6))
        assert s.perm_of_word(CYCLE3, s.concat(v, w)) == \
            s.perm_of_word(CYCLE3, v).then(s.perm_of_word(CYCLE3, w))


def test_pair_memo_room_is_4096_pairs_and_2_to_the_18_images():
    rooms = {m: make_action(("x",), [list(range(m))])._pairs.room for m in (1, 64, 65, 200, 2**18, 2**18 + 1)}
    assert rooms == {1: 4096, 64: 4096, 65: 4032, 200: 1310, 2**18: 1, 2**18 + 1: 0}
    # With no room, a word still costs its pairs' two gathers each, and the memo stays empty.
    act = make_action(("x", "y"), [list(range(1, 2**18 + 1)) + [0], list(range(2**18 + 1))])
    assert s.perm_of_word(act, act.alphabet.word("x^3 y^-1")).images[:2] == (3, 4) and act._pairs == {}


def test_a_pickled_action_keeps_only_its_fields():
    act = make_action(("x", "y"), [[1, 2, 0], [0, 2, 1]])
    w = act.alphabet.word("x y^-1 x^2")
    assert s.perm_of_word(act, w).images == (1, 0, 2) and len(act._pairs) == 2
    twin = pickle.loads(pickle.dumps(act))
    assert twin == act and not {"_steps", "_pairs"} & set(vars(twin))
    assert s.perm_of_word(twin, w) == s.perm_of_word(act, w)


def test_a_word_over_a_wide_action_inverts_only_its_own_generators():
    # 100,001 generators of degree 4, the shape of the H-action of a stabilizer of index 10^5.
    rows = list(itertools.permutations(range(4)))
    ab = s.Alphabet(tuple(f"b{k}" for k in range(100_001)))
    act = s.FiniteAction(ab, 4, tuple(s.Permutation(rows[k % 24]) for k in range(100_001)))
    b7, b9 = rows[7], rows[9]
    b9_inverse = tuple(b9.index(p) for p in range(4))
    assert s.perm_of_word(act, ab.word("b7 b9^-1")).images == tuple(b9_inverse[b7[p]] for p in range(4))
    assert s.perm_of_word(act, ab.word("b9^-1 b7 b9^-1")).images == tuple(
        b9_inverse[b7[b9_inverse[p]]] for p in range(4))  # an odd first letter
    assert tuple(act.step(p, s.Letter(9, -1)) for p in range(4)) == b9_inverse
    assert tuple(act.step(p, s.Letter(7, 1)) for p in range(4)) == b7
    assert "_steps" not in vars(act)
    assert [k for k, perm in enumerate(act.gen_perms) if "inverse" in vars(perm)] == [9]


def test_pair_memo_stays_bounded_under_racing_threads(monkeypatch):
    # Room for 10 of the 56 pairs of 4 generators; each thread reads every pair and longer words.
    monkeypatch.setattr(s.actions, "_PAIR_MEMO_IMAGES", 16 * 10)
    rng, threads = random.Random(5), 4
    act = make_action(("w", "x", "y", "z"), random_transitive_perms(rng, 4, 16))
    ab = act.alphabet
    pairs = [s.Word(ab, [(g, a), (h, b)]) for g in range(4) for a in (1, -1) for h in range(4) for b in (1, -1)
             if (g, a) != (h, -b)]
    cases = [(w, tuple(s.evaluate(act, q, w) for q in range(16)))
             for w in pairs + [word_from_pairs(ab, random_word_pairs(rng, 4, 9)) for _ in range(200)]]
    wrong: list[s.Word] = []

    def run(offset):
        for w, images in cases[offset:] + cases[:offset]:
            if s.perm_of_word(act, w).images != images:
                wrong.append(w)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i * 14,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong
    # Threads that race past the size check can each add one pair.
    assert len(pairs) == 56 and 10 <= len(act._pairs) <= 10 + threads


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.evaluate(CYCLE3, 0, s.parse("x", s.Alphabet(("x",))))
    with pytest.raises(ValueError, match="out of range"):
        s.evaluate(CYCLE3, 3, s.parse("x", CYCLE3.alphabet))
    with pytest.raises(ValueError, match="out of range"):
        s.evaluate(CYCLE3, -1, s.parse("x", CYCLE3.alphabet))
    # step indexes its table by letter code, so a letter out of range must not wrap to another.
    assert CYCLE3.step(0, s.Letter(0, -1)) == CYCLE3.step(0, (0, -1)) == 2
    for bad in (s.Letter(2, 1), s.Letter(-1, 1), s.Letter(0, 0), s.Letter(1, 2)):
        with pytest.raises(ValueError, match="invalid letter"):
            CYCLE3.step(0, bad)


def test_perm_of_word_and_orbit_reject_bad_input():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.perm_of_word(CYCLE3, s.parse("x", s.Alphabet(("x",))))
    with pytest.raises(ValueError, match="basepoint 3 out of range for degree 3"):
        s.build_table(CYCLE3, 3)


def test_equal_alphabet_objects_are_interchangeable():
    # An equal Alphabet that is a distinct object passes the guards.
    twin = s.Alphabet(CYCLE3.alphabet.names)
    assert twin is not CYCLE3.alphabet
    w = s.parse("x y x^-2", twin)
    native = s.parse("x y x^-2", CYCLE3.alphabet)
    assert s.evaluate(CYCLE3, 1, w) == s.evaluate(CYCLE3, 1, native) == 0
    assert s.perm_of_word(CYCLE3, w) == s.perm_of_word(CYCLE3, native)
    table, tr = s.build_table(CYCLE3, 0)
    basis = s.compute_basis(table, tr)
    assert s.coset_of(table, w) == s.coset_of(table, native) == 2
    h = s.parse("x y x^-1", twin)
    assert s.contains(table, h)
    assert s.rewrite(table, tr, basis, h) == s.rewrite(table, tr, basis, s.parse("x y x^-1", CYCLE3.alphabet))


def _orbit(act, base):
    return s.build_table(act, base)[0].points


def test_orbit_and_transitivity():
    assert _orbit(CYCLE3, 0) == (0, 1, 2)
    split = make_action(("x",), [[1, 0, 2]])
    assert _orbit(split, 2) == (2,)
    assert _orbit(split, 0) == (0, 1)


def test_orbit_needs_inverse_edges_for_order():
    # the orbit lists points in discovery order: positive step first
    act = make_action(("x",), [[2, 0, 1]])
    assert _orbit(act, 0) == (0, 2, 1)


def test_parse_action_roundtrip():
    text = s.format_action_text(CYCLE3)
    assert text == "degree 3\ngenerators x y\nperm x 1 2 0\nperm y 0 1 2\n"
    act = s.parse_action_text(text)
    assert act == CYCLE3


def test_parse_action_ignores_comments_and_blanks():
    act = s.read_action_file(FIXTURES / "act3cycle.txt")
    assert act == CYCLE3


def test_parse_action_accepts_any_perm_order():
    act = s.parse_action_text(
        "degree 2\ngenerators x y\nperm y 1 0\nperm x 0 1\n")
    assert act.gen_perms[0].is_identity()
    assert not act.gen_perms[1].is_identity()


@pytest.mark.parametrize("text,message", [
    ("", "empty action file"),
    ("generators x", "expected 'degree m'"),
    ("degree zero", "bad degree"),
    ("degree 0", "at least 1"),
    ("degree 2", "expected a 'generators' line"),
    ("degree 2\ngenerators x 2y", "invalid generator name"),
    ("degree 2\ngenerators x\nfoo x 0 1", "expected a 'perm' line"),
    ("degree 2\ngenerators x\nperm", "missing generator name"),
    ("degree 2\ngenerators x\nperm z 0 1", "unknown generator"),
    ("degree 2\ngenerators x\nperm x 0 1\nperm x 1 0", "duplicate perm"),
    ("degree 2\ngenerators x\nperm x 0", "expected 2 images"),
    ("degree 2\ngenerators x\nperm x a b", "images must be integers"),
    ("degree 2\ngenerators x\nperm x 1 1", "invalid permutation"),
    ("degree 2\ngenerators x y\nperm x 0 1", "missing perm line"),
])
def test_parse_action_errors(text, message):
    with pytest.raises(s.ActionParseError, match=message):
        s.parse_action_text(text)


def test_parse_action_reads_a_wide_file_in_one_pass():
    # The shape of random_wide's H-action: degree 4 over 4,501 generators, so the last perm row is line 4,503.
    rng, names = random.Random(0), [f"b{k}" for k in range(4501)]
    rows = [f"perm {name} " + " ".join(map(str, rng.sample(range(4), 4))) for name in names]
    head = f"degree 4\ngenerators {' '.join(names)}\n"
    assert s.parse_action_text(head + "\n".join(rows)) == parse_action_rows(head + "\n".join(rows))
    last = rows[-1].split()
    faults = {  # one of each kind that test_parse_action_errors lists for a perm row
        "expected a 'perm' line": ["prem", *last[1:]], "missing generator name": ["perm"],
        "unknown generator": ["perm", "q", *last[2:]], "duplicate perm": ["perm", "b0", *last[2:]],
        "expected 4 images": last[:-1], "images must be integers": [*last[:-1], "a"],
        "invalid permutation": [*last[:-1], last[2]],
    }
    for kind, fault in faults.items():
        text = head + "\n".join(rows[:-1] + [" ".join(fault)])
        with pytest.raises(s.ActionParseError) as expected:
            parse_action_rows(text)
        assert str(expected.value).startswith(f"line 4503: {kind}")
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            s.parse_action_text(text)


def test_a_row_that_is_not_a_bijection_is_named_in_under_a_kilobyte():
    # One repeated image in a row of degree 100,000: the message names the first 32 images, not the row.
    images = [*range(99_999), 0]
    pattern = r"invalid permutation: \[0, 1, 2, (\d+, ){28}31, \.\.\.\] is not a bijection of 0\.\.99999$"
    with pytest.raises(s.ActionParseError, match="^line 3: " + pattern) as fault:
        s.parse_action_text(f"degree 100000\ngenerators x\nperm x {' '.join(map(str, images))}\n")
    assert len(str(fault.value).encode()) < 1024
    with pytest.raises(ValueError, match="^" + pattern) as fault:
        s.Permutation(tuple(images))
    assert len(str(fault.value).encode()) < 1024


def test_write_read_action_file(tmp_path):
    path = tmp_path / "act.txt"
    path.write_text(s.format_action_text(CYCLE3), encoding="utf-8")
    assert s.read_action_file(path) == CYCLE3


def test_parse_action_caps_the_degree(monkeypatch):
    monkeypatch.setattr(s.actions, "MAX_DEGREE", 6)
    assert s.parse_action_text("degree 6\ngenerators\n").degree == 6
    for degree in (7, 1000):
        with pytest.raises(s.ActionParseError, match="more than the limit of 6"):
            s.parse_action_text(f"degree {degree}\ngenerators\n")
