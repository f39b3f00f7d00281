import pickle
import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import schreier as s
from helpers import (
    all_reduced_words,
    brute_reduce,
    format_pairs,
    pairs_of_word,
    random_word_pairs,
    shortlex_key,
    word_from_pairs,
)

XY = s.Alphabet(("x", "y"))


def test_reduce_matches_brute_scan():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 3)
        alphabet = s.Alphabet(tuple("abc"[:n]))
        raw = [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        assert pairs_of_word(s.reduce(alphabet, raw)) == brute_reduce(raw)


def test_reduce_cancels_nested_pairs():
    # x y y^-1 x^-1 collapses in two stack pops
    assert s.reduce(XY, [(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity()


def test_identity_and_single():
    e = s.identity(XY)
    assert len(e) == 0 and e.is_identity() and str(e) == "1"
    w = s.single(XY, 1, -1)
    assert str(w) == "y^-1" and len(w) == 1


def test_group_laws():
    rng = random.Random(11)
    for _ in range(300):
        w = word_from_pairs(XY, random_word_pairs(rng, 2, 6))
        v = word_from_pairs(XY, random_word_pairs(rng, 2, 6))
        u = word_from_pairs(XY, random_word_pairs(rng, 2, 6))
        assert s.concat(s.concat(w, v), u) == s.concat(w, s.concat(v, u))
        e = s.identity(XY)
        assert s.concat(w, e) == w == s.concat(e, w)
        assert s.concat(w, s.invert(w)) == e
        assert s.invert(s.invert(w)) == w


def test_concat_rejects_alphabet_mismatch():
    other = s.Alphabet(("x", "z"))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.concat(s.identity(XY), s.identity(other))


def test_prefixes():
    w = s.parse("x y^-1 x", XY)
    assert [str(p) for p in s.prefixes(w)] == ["1", "x", "x y^-1", "x y^-1 x"]
    assert s.prefixes(s.identity(XY)) == [s.identity(XY)]


@pytest.mark.parametrize("text,expected", [
    ("1", "1"),
    ("x", "x"),
    ("x^1", "x"),
    ("x^-1", "x^-1"),
    ("x^3", "x^3"),
    ("x x^-1 y", "y"),
    ("x^3 x^-1", "x^2"),
    ("x*y", "x y"),
    ("x * y^-2", "x y^-2"),
    ("  x   y  ", "x y"),
    ("x^2 y x^-2", "x^2 y x^-2"),
    ("x y^2 y^-2 x^-1 y", "y"),
    ("x^2 y y^-1 x^-3 y", "x^-1 y"),
])
def test_parse_and_format(text, expected):
    assert str(s.parse(text, XY)) == expected


def test_parse_folds_exponents_across_factors():
    assert s.parse("x^2 x^-3", XY) == s.parse("x^-1", XY)


@pytest.mark.parametrize("text,message", [
    ("", "empty word"),
    ("   ", "empty word"),
    ("z", "unknown generator"),
    ("x^", "malformed exponent"),
    ("x^+", "malformed exponent"),
    ("x^0", "must be nonzero"),
    ("x^^2", "malformed exponent"),
    ("x*", "empty factor"),
    ("*x", "expected a generator name"),
    ("2x", "expected a generator name"),
    ("x%y", "missing separator"),
])
def test_parse_errors(text, message):
    with pytest.raises(s.WordParseError, match=message):
        s.parse(text, XY)


@pytest.mark.parametrize("text,message", [
    ("", "empty word (write '1' for the identity)"),
    ("   ", "empty word (write '1' for the identity)"),
    ("z", "unknown generator 'z'"),
    ("z^0", "unknown generator 'z'"),  # the name is checked before the exponent
    ("x^", "malformed exponent at position 2"),
    ("x^+", "malformed exponent at position 2"),
    ("x^0", "malformed exponent: must be nonzero"),
    ("x^^2", "malformed exponent at position 2"),
    ("x*", "empty factor after '*'"),
    ("x\t*", "empty factor after '*'"),
    ("*x", "expected a generator name at position 0"),
    ("  *x", "expected a generator name at position 2"),
    ("2x", "expected a generator name at position 0"),
    ("x ^2", "expected a generator name at position 2"),
    ("x * * y", "expected a generator name at position 4"),
    ("x%y", "missing separator at position 1"),
    ("x^2y", "missing separator at position 3"),
])
def test_parse_error_messages(text, message):
    for ab in (s.Alphabet(XY.names), XY):  # a cold memo learns the tokens before the fault, then the scanner reports it
        with pytest.raises(s.WordParseError) as info:
            s.parse(text, ab)
        assert str(info.value) == message


def test_format_parse_roundtrip():
    rng = random.Random(13)
    for _ in range(300):
        w = word_from_pairs(XY, random_word_pairs(rng, 2, 8))
        assert s.parse(str(w), XY) == w


def test_shortlex_letter_order():
    # positive letter sorts before its own inverse, then the next generator
    ws = [s.parse(t, XY) for t in ("x", "x^-1", "y", "y^-1")]
    assert sorted(ws) == ws
    assert s.parse("y^-1", XY) < s.parse("x x", XY)  # length dominates


def test_shortlex_order_needs_words_over_one_alphabet():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        s.parse("x", XY) < s.parse("x", s.Alphabet(("x", "z")))
    with pytest.raises(TypeError):
        s.parse("x", XY) < "x"


def test_shortlex_matches_oracle_key():
    rng = random.Random(17)
    for _ in range(200):
        a = random_word_pairs(rng, 2, 5)
        b = random_word_pairs(rng, 2, 5)
        wa, wb = word_from_pairs(XY, a), word_from_pairs(XY, b)
        assert (wa < wb) == (shortlex_key(a) < shortlex_key(b))


def test_iter_reduced_words_matches_enumeration_oracle():
    got = [pairs_of_word(w) for w in s.iter_reduced_words(XY, 3)]
    assert got == all_reduced_words(2, 3)
    # one generator: 1, x, x^-1, x^2, x^-2, ...
    one = s.Alphabet(("x",))
    assert [str(w) for w in s.iter_reduced_words(one, 2)] == ["1", "x", "x^-1", "x^2", "x^-2"]


def test_word_rejects_unreduced_letters():
    with pytest.raises(ValueError, match="not reduced"):
        s.Word(XY, (s.Letter(0, 1), s.Letter(0, -1)))


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError, match="out of range"):
        s.Word(XY, (s.Letter(5, 1),))
    with pytest.raises(ValueError, match="sign"):
        s.Word(XY, (s.Letter(0, 2),))
    # A bad letter is reported even after a cancelling pair.
    with pytest.raises(ValueError, match="out of range"):
        s.Word(XY, (s.Letter(0, 1), s.Letter(0, -1), s.Letter(5, 1)))


def test_alphabet_validation():
    with pytest.raises(ValueError, match="invalid generator name"):
        s.Alphabet(("x", "2bad"))
    with pytest.raises(ValueError, match="distinct"):
        s.Alphabet(("x", "x"))
    with pytest.raises(s.WordParseError, match="unknown generator"):
        XY.index("z")


def test_alphabet_word_shorthand():
    assert XY.word("x y") == s.parse("x y", XY)


def test_words_are_hashable_values():
    w1 = s.parse("x y", XY)
    w2 = s.concat(s.parse("x", XY), s.parse("y", XY))
    assert w1 == w2 and hash(w1) == hash(w2)
    assert len({w1, w2}) == 1


def test_an_alphabet_hashes_its_names_once():
    hashed = []

    class Name(str):
        def __hash__(self):
            hashed.append(str(self))
            return str.__hash__(self)

    a, b = s.Alphabet(tuple(map(Name, "xyz"))), s.Alphabet(("x", "y", "z"))
    hashed.clear()  # the distinctness check of the names hashes each once
    assert a == b and hash(a) == hash(b) and hash(a) == hash(tuple("xyz"))
    assert hashed == ["x", "y", "z"]
    assert hash(a) == hash(b) and hash(s.single(a, 1)) == hash(s.single(b, 1))
    assert hashed == ["x", "y", "z"]
    assert a != s.Alphabet(("x", "y")) and hash(a) != hash(s.Alphabet(("y", "x", "z")))


def test_a_pickled_alphabet_keeps_only_its_names():
    # Another process hashes str differently, so a cached hash must not travel.
    a = s.Alphabet(("x", "y"))
    hash(s.parse("x y^-1", a))
    assert str(s.parse("x y^-1", a)) == "x y^-1" and a._run_texts == {"\x00": "x", "\x03": "y^-1"}
    b = pickle.loads(pickle.dumps(a))
    assert b == a and vars(b) == {"names": ("x", "y")}
    assert b._run_texts == {}  # a pickled alphabet carries no memo


def test_parse_folds_exponents_before_building_letters():
    tracemalloc.start()
    try:
        w = XY.word("x^100000 x^-100000 y")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(w) == "y"
    assert peak < 1_000_000


def test_parse_caps_the_folded_word_length(monkeypatch):
    assert str(s.parse("x^6", XY)) == "x^6"  # the token is memoised, and still checked below
    monkeypatch.setattr(s.words, "MAX_WORD_LENGTH", 5)
    assert str(s.parse("x^5", XY)) == "x^5"
    assert str(s.parse("x^9 x^-4 y^-1 y", XY)) == "x^5"  # the cap applies after folding
    for text in ("x^6", "x^3 y^-3", "y^-7 x"):
        with pytest.raises(s.WordParseError, match="longer than the limit of 5 letters"):
            s.parse(text, XY)


def test_parse_rejects_an_exponent_int_cannot_convert():
    # 5,000 digits is more than int() converts where the interpreter limits it.
    with pytest.raises(s.WordParseError) as info:
        s.parse("y x^" + "9" * 5000, XY)
    assert type(info.value) is s.WordParseError
    if hasattr(sys, "get_int_max_str_digits"):
        assert "exponent too large at position 4" in str(info.value)


def _padded_texts() -> list[str]:
    """Texts ``y x^k x^-(k - 1)``, each parsing to ``y x``, over 5,041 distinct tokens: ``y``, and runs of at
    most 64 codes, k from 2 to 64 written after 0 to 39 leading zeros, as in ``x^003``."""
    return [f"y x^{'0' * pad}{k} x^-{'0' * pad}{k - 1}" for pad in range(40) for k in range(2, 65)]


def test_parse_memo_is_bounded():
    ab = s.Alphabet(("x", "y"))
    texts = _padded_texts()
    for text in texts:
        assert str(ab.word(text)) == "y x"
    assert len(ab._tokens) == s.words._TOKEN_MEMO_SIZE == 4096
    _, last, last_inverse = texts[-1].split()
    assert last not in ab._tokens and last_inverse not in ab._tokens
    assert str(ab.word(f"{last_inverse} y {last}")) == "x^-63 y x^64"
    assert ab == XY and hash(ab) == hash(XY)
    # A token longer than 64 characters is never stored, even with room to spare.
    ab, long = s.Alphabet(("x", "y")), "x^" + "0" * 62 + "3"
    assert str(ab.word(f"y {long}")) == "y x^3" and set(ab._tokens) == {"y"}


def test_parse_memo_keeps_only_short_runs_as_codes():
    # At most 64 codes per token, so the memo's runs stay under 4,096 x 64 characters.
    ab = s.Alphabet(("x", "y"))
    for _ in range(2):  # cold, then warm: a run of 65 letters is never stored, and its text goes to the scanner
        assert str(ab.word("x^64 y^-65 y^65 x^-2 y")) == "x^62 y"
    assert ab._tokens == {"x^64": "\x00" * 64}  # learned up to the first token it cannot take
    for _ in range(2):  # cold, then a join of memoised runs that cancel across a junction
        assert str(ab.word("x^64 x^-2 y")) == "x^62 y"
    assert ab._tokens == {"x^64": "\x00" * 64, "x^-2": "\x01\x01", "y": "\x02"}


def test_a_cold_parse_learns_its_tokens_and_joins_them_without_folding(monkeypatch):
    texts = ["x^3 y^-2 x y^64 x^-1", "y x^-1 y^-1 x", "x^2 y^-1 x^2 y^-1"]  # canonical, so nothing cancels
    expected = [s.parse(text, XY) for text in texts]
    ab = s.Alphabet(("x", "y"))
    with pytest.raises(s.WordParseError, match="must be nonzero"):
        s.parse("y x^0 x^2", ab)
    assert ab._tokens == {"y": "\x02"}  # learned up to the first token that is not one factor
    ab = s.Alphabet(("x", "y"))
    monkeypatch.setattr(s.words, "_fold", lambda *args: pytest.fail("folded"))
    assert [s.parse(text, ab) for text in texts] == expected
    # One run of codes per token; a repeated token is learned once.
    assert ab._tokens == {"x^3": "\x00" * 3, "y^-2": "\x03" * 2, "x": "\x00", "y^64": "\x02" * 64, "x^-1": "\x01",
                          "y": "\x02", "y^-1": "\x03", "x^2": "\x00" * 2}


def test_parse_memo_stays_bounded_under_racing_threads():
    ab, threads, texts = s.Alphabet(("x", "y")), 4, _padded_texts()
    wrong: list[str] = []

    def parse_range(offset):
        for text in texts[offset::threads]:
            if str(ab.word(text)) != "y x":
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=parse_range, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong
    # Threads that race past the size check can each add one token.
    assert s.words._TOKEN_MEMO_SIZE <= len(ab._tokens) <= s.words._TOKEN_MEMO_SIZE + threads


def _outcome(read, text: str, alphabet: s.Alphabet):
    """The word read makes of text, or its error's type and message."""
    try:
        return read(text, alphabet)
    except ValueError as exc:
        return type(exc), str(exc)


def _scanned(text: str, alphabet: s.Alphabet) -> s.Word:
    return s.words._fold(alphabet, s.words._scan_factors(text, alphabet))


_LONG_TOKEN = "x^-" + "0" * 62 + "3"  # 66 characters, a run of 3 letters


@pytest.mark.parametrize("texts,full", [
    (["x^65", "y x^-100 y", "x^65 x^-65", "x^64 x^65 y^-70 x", "x^65 z", "x^65 *", "x^65 x^0"], False),
    ([_LONG_TOKEN, f"y {_LONG_TOKEN} x^3", f"x^3 {_LONG_TOKEN} y", f"{_LONG_TOKEN} y^0"], False),
    (["y^3 x y^-2", "y^2 x^2 x^-2 y^-2 x", "x^2 y^5 x^0", "y^2 w"], True),
], ids=["a run over 64 letters", "a token over 64 characters", "a new token, the memo full"])
def test_parse_agrees_with_the_scanner_where_the_memo_cannot_take_a_token(texts, full):
    ab = s.Alphabet(("x", "y"))
    if full:
        for text in _padded_texts():
            ab.word(text)
        assert len(ab._tokens) == s.words._TOKEN_MEMO_SIZE
        assert all(any(token not in ab._tokens for token in text.split()) for text in texts)
    for text in texts:
        expected = _outcome(_scanned, text, ab)
        for _ in range(2):  # cold, then warm
            assert _outcome(s.parse, text, ab) == expected
    assert all(type(run) is str and len(run) <= s.words._TOKEN_MEMO_WIDTH for run in ab._tokens.values())


# Over 100 generators, 200 codes x 64 lengths: more short runs than the run memo keeps.
_HUNDRED = tuple(f"g{k}" for k in range(100))


def _run_word(alphabet: s.Alphabet, code: int, k: int) -> tuple[s.Word, str]:
    """The word of k letters of one code, then another generator, and its canonical text."""
    pairs = [(code >> 1, -1 if code & 1 else 1)] * k + [(0 if code >> 1 else 1, 1)]
    return s.reduce(alphabet, pairs), format_pairs(alphabet.names, pairs)


def test_format_memo_is_bounded():
    ab = s.Alphabet(_HUNDRED)
    # 12,800 distinct runs, over both sides of the cutoff.
    for code in range(200):
        for k in range(1, 65):
            w, text = _run_word(ab, code, k)
            assert s.format_word(w) == text
    memo = ab._run_texts
    assert len(memo) == s.words._TOKEN_MEMO_SIZE == 4096
    assert all(text == format_pairs(ab.names, [(ord(c) >> 1, -1 if ord(c) & 1 else 1) for c in run])
               for run, text in memo.items())
    w, text = _run_word(ab, 199, 64)  # a run the full memo lacks is spelt afresh
    assert w.codes[:64] not in memo and s.format_word(w) == text and len(memo) == 4096


def test_format_memo_keeps_no_run_over_64_letters():
    # A run of 65 letters is never stored, even with room to spare, on a cold or a warm memo.
    ab = s.Alphabet(("x", "y"))
    for _ in range(2):
        assert s.format_word(ab.word("x^65 y x^-64 y^-65 x^2")) == "x^65 y x^-64 y^-65 x^2"
    assert ab._run_texts == {"\x02": "y", "\x01" * 64: "x^-64", "\x00\x00": "x^2"}


def test_format_memo_stays_bounded_under_racing_threads():
    ab, threads = s.Alphabet(_HUNDRED), 4
    cases = [_run_word(ab, code, k) for code in range(200) for k in range(1, 65)]
    wrong: list[str] = []

    def format_range(offset):
        for w, text in cases[offset::threads]:
            if s.format_word(w) != text:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=format_range, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not wrong
    # Threads that race past the size check can each add one run.
    assert s.words._TOKEN_MEMO_SIZE <= len(ab._run_texts) <= s.words._TOKEN_MEMO_SIZE + threads


def test_format_word_over_a_wide_alphabet_costs_the_word_not_the_alphabet():
    # The first format over 100,001 generators learns two runs, not a text per code.
    ab = s.Alphabet(tuple(f"x{k}" for k in range(100_001)))
    w = s.Word(ab, [(100_000, 1), (7, -1)])
    tracemalloc.start()
    try:
        text = s.format_word(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "x100000 x7^-1"
    assert peak < 20_000


def test_a_word_over_a_wide_alphabet_spells_only_its_own_codes():
    # Over 100,001 generators the first word, and its inverse and products,
    # build no character per code of the alphabet (17.3 MB for a table).
    ab = s.Alphabet(tuple(f"x{k}" for k in range(100_001)))
    tracemalloc.start()
    try:
        w = s.Word(ab, [(100_000, 1), (7, -1)])
        v = s.invert(w)
        vw = s.concat(s.concat(v, s.single(ab, 3)), w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert w.codes == chr(200_000) + chr(15) and v.codes == chr(14) + chr(200_001)
    assert vw.codes == chr(14) + chr(200_001) + chr(6) + chr(200_000) + chr(15)
    assert s.concat(v, w).is_identity() and "_chars" not in vars(ab)
    # An enumeration reads every code, and so the inverse table, by index.
    ab = s.Alphabet(tuple(f"x{k}" for k in range(130)))
    layers = [0] * 3
    for u in s.iter_reduced_words(ab, 2):
        layers[len(u)] += 1
        assert all(ord(a) ^ 1 != ord(b) for a, b in zip(u.codes, u.codes[1:]))
    assert layers == [1, 260, 260 * 259]


_SPELL_ALPHABETS = {n: s.Alphabet(tuple(f"g{i}" for i in range(n))) for n in (3, 128, 0x7000)}
# The byte edge and both ends of the surrogates, which 0x7000 generators' codes reach.
_SPELL_EDGES = (0, 1, 5, 254, 255, 256, 257, 0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF)


@st.composite
def _alphabet_and_codes(draw):
    n = draw(st.sampled_from(sorted(_SPELL_ALPHABETS)))
    top = 2 * n - 1
    code = st.one_of(st.integers(0, min(top, 255)), st.integers(0, top),
                     st.sampled_from([c for c in _SPELL_EDGES if c <= top]))
    return _SPELL_ALPHABETS[n], draw(st.lists(code, max_size=40))


@given(_alphabet_and_codes())
def test_spell_is_chr_of_each_code_below_and_past_a_byte(case):
    alphabet, codes = case
    assert s.words._spell(alphabet, codes).codes == "".join(map(chr, codes))


def test_the_shared_inverse_table_never_grows():
    ab = s.Alphabet(tuple(f"x{k}" for k in range(100_001)))
    w = s.Word(ab, [(100_000, 1), (7, -1), (50_000, 1), (300, -1)])
    v = s.invert(w)
    assert s.concat(w, v).is_identity() and s.concat(v, s.concat(w, s.single(ab, 99_999))) == s.single(ab, 99_999)
    assert str(v) == "x300 x50000^-1 x7 x100000^-1" and len(s.words._FLIP) == 256


@pytest.mark.parametrize("n", [3, 300])
def test_an_alphabet_keeps_no_table_of_characters_or_of_inverses(n):
    ab = s.Alphabet(tuple(f"g{i}" for i in range(n)))
    w = s.Word(ab, [(n - 1, 1), (0, -1), (1, 1)])
    assert s.concat(w, s.invert(w)).is_identity() and str(s.invert(w)) == f"g1^-1 g0 g{n - 1}^-1"
    assert sum(1 for _ in s.iter_reduced_words(ab, 2)) == 1 + 2 * n + 2 * n * (2 * n - 1)
    assert not {"_chars", "_flips"} & vars(ab).keys()


def test_str_split_and_re_agree_on_whitespace():
    # parse splits tokens with str.split() and its scanner reads re's \s:
    # both must see the same code points as whitespace.
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = re.findall(r"\s", text)
    assert "".join(text.split()) == re.sub(r"\s", "", text)
    assert {" ", "\t", "\n", "\u2003", "\u001c"} <= set(spaces)


def test_a_word_is_one_string_of_letter_codes():
    w = XY.word("x^2 y^-1 x^-1")
    assert w.codes == "\x00\x00\x03\x01"  # chr(2g + (sign < 0)) per letter
    assert s.Word(XY, w.letters) == w and w == s.words._word(XY, w.codes)
    assert w.shortlex_key() == (4, w.codes) and len(w) == 4 and bool(w) and not s.identity(XY)
    assert s.invert(w).codes == "\x00\x02\x01\x01"
    assert hash(w) == hash(s.parse("x x y^-1 x^-1", XY))
    # Past 128 generators codes leave latin-1, and past 27,647 they reach the surrogate code points.
    wide = s.Alphabet(tuple(f"g{i}" for i in range(30000)))
    v = wide.word("g27700^-2 g150 g150^-1 g29999 g3")
    assert v.codes == chr(55401) * 2 + chr(59998) + chr(6) and str(v) == "g27700^-2 g29999 g3"
    assert s.concat(v, s.invert(wide.word("g29999 g3"))) == wide.word("g27700^-2")
    assert s.concat(s.invert(v), v).is_identity() and str(s.invert(v)) == "g3^-1 g29999^-1 g27700^2"


def test_letters_are_built_from_the_words_own_codes():
    ab = s.Alphabet(("x", "y", "z"))
    w = ab.word("z^-1 x^3 y")
    assert w.letters == (s.Letter(2, -1), s.Letter(0, 1), s.Letter(0, 1), s.Letter(0, 1), s.Letter(1, 1))
    assert all(lt == s.Letter(ord(c) >> 1, -1 if ord(c) & 1 else 1) and type(lt) is s.Letter
               for lt, c in zip(w.letters, w.codes))
    assert s.concat(w, w).letters == w.letters * 2


def test_letters_over_a_wide_alphabet_build_only_the_words_own():
    # Over 100,001 generators a two-letter word's letters are two Letters,
    # not one per code of the alphabet (17.8 MB for a table).
    ab = s.Alphabet(tuple(f"x{k}" for k in range(100_001)))
    w = s.Word(ab, [(100_000, 1), (7, -1)])
    kept = dict(vars(ab))
    tracemalloc.start()
    try:
        letters = w.letters
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert letters == (s.Letter(100_000, 1), s.Letter(7, -1)) and vars(ab) == kept


def test_words_over_too_wide_an_alphabet_raise_a_typed_error(monkeypatch):
    # Codes are characters, so the last generator's inverse has the last code point.
    assert chr(2 * s.words.MAX_GENERATORS - 1) == chr(sys.maxunicode)
    with pytest.raises(ValueError):
        chr(2 * s.words.MAX_GENERATORS)
    # The limit is read when a word is built, so a small one stands in for 557,056.
    monkeypatch.setattr(s.words, "MAX_GENERATORS", 2)
    wide = s.Alphabet(("x", "y", "z"))  # still an alphabet, as an H-action's may be
    action = s.FiniteAction(wide, 2, (s.Permutation((1, 0)),) * 3)
    assert len(wide) == 3 and s.build_table(action, 0)[0].points == (0, 1)
    builds = [
        lambda: s.identity(wide), lambda: s.single(wide, 0), lambda: s.Word(wide, [(0, 1)]),
        lambda: s.reduce(wide, []), lambda: s.parse("x y", wide), lambda: s.parse("1", wide),
        lambda: next(s.iter_reduced_words(wide, 1)), lambda: s.build_table(action, 0)[1].reps,
    ]
    for build in builds:
        with pytest.raises(s.AlphabetTooWideError, match="at most 2 generators, not 3"):
            build()
    # Past 128 generators a word is spelt from chr of its own codes, with the same check.
    monkeypatch.setattr(s.words, "MAX_GENERATORS", 129)
    wider = s.Alphabet(tuple(f"g{i}" for i in range(130)))
    for build in [lambda: s.Word(wider, [(129, 1)]), lambda: s.parse("g1 g2", wider), lambda: s.parse("1", wider)]:
        with pytest.raises(s.AlphabetTooWideError, match="at most 129 generators, not 130"):
            build()
    assert issubclass(s.AlphabetTooWideError, ValueError) and str(XY.word("x y^-1")) == "x y^-1"
    assert str(s.identity(s.Alphabet(("x", "y")))) == "1"
