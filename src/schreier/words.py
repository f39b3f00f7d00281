"""Reduced words over a finite generating alphabet.

Free-group elements are kept in their unique reduced form: no adjacent
pair of a generator and its inverse.  The empty word is the group
identity and prints as ``1``.  A word is one string of letter codes:
the letter (g, sign) is the character chr(2g + (sign < 0)), so a code's
inverse is code ^ 1 and codes sort in shortlex letter order
x0 < x0^-1 < x1 < ...  All values here are immutable and safe to share
between threads.  The exceptions are two bounded memos on each
``Alphabet``, dicts that learn a missing key on first read and keep it
while they hold fewer than ``_TOKEN_MEMO_SIZE`` entries and the key is at
most ``_TOKEN_MEMO_WIDTH`` characters.  ``parse``'s memo maps a factor
token to its run of codes, at most ``_TOKEN_MEMO_WIDTH`` of them: a text
whose tokens it holds or learns parses in one join, at any alphabet
width.  ``format_word``'s memo is its mirror and maps a run of codes to
its text, such as ``x^-3``: a word's runs, found in C, are mapped through
it in one join.  Both are thread-safe: a key always maps to the same
value, each dict read or write is atomic, and threads that race past the
size check can overfill a memo only by one entry each.
"""

import re
import sys
from dataclasses import dataclass
from functools import cached_property, total_ordering
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

__all__ = [
    "Alphabet",
    "AlphabetTooWideError",
    "Letter",
    "Word",
    "WordParseError",
    "concat",
    "format_word",
    "identity",
    "invert",
    "iter_reduced_words",
    "parse",
    "prefixes",
    "reduce",
    "single",
]

# Most letters ``parse`` builds, counted after folding: ``x^2000000000`` fails fast.
MAX_WORD_LENGTH = 1_000_000
# Most generators a word can use: its 2n letter codes are characters, and chr stops at 0x10FFFF.
MAX_GENERATORS = (sys.maxunicode + 1) // 2
# Most generators whose 2n letter codes fit in a byte below the markers 0xFE
# and 0xFF of ``_runs``.  Their words are spelt from the alphabet's table of
# one character per code, whose characters chr keeps ready below 256, and
# formatted by finding their runs in C.  Past it each character is a new
# string, so a word over a wider alphabet is spelt from chr of its own codes
# and builds no table, and its runs are found by a loop.
_BYTE_MAX_GENERATORS = 127

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
# One factor of ``parse`` and the separator after it: a name, an optional
# ``^exponent``, then whitespace, at most one ``*`` and whitespace.
_FACTOR_RE = re.compile(rf"({_NAME})(?:\^([+-]?[0-9]+))?(\s*\*?\s*)")
# Most entries each memo of an alphabet keeps, and the longest token, and
# run of codes, it keeps, so hostile input cannot grow either memo past
# about a megabyte.
_TOKEN_MEMO_SIZE = 4096
_TOKEN_MEMO_WIDTH = 64
# Words shorter than this many letters are formatted by a loop over their
# runs, which beats finding the runs in C below it.
_FORMAT_LOOP_BELOW = 16
# The bytes.translate table from a code XOR the code before it to its marker.
_RUN_MARKERS = b"\xfe" + b"\xff" * 255


class WordParseError(ValueError):
    """Raised when a word string does not match the word grammar."""


class AlphabetTooWideError(ValueError):
    """Raised when a word is built over more than ``MAX_GENERATORS`` generators."""


class _Flip(dict):
    """An empty table that maps each code to the character of its inverse, chr(code ^ 1), as it is read:
    indexed, or through str.translate, it reads as a table of every code would."""

    def __missing__(self, code: int) -> str:
        return chr(code ^ 1)


_FLIP = _Flip()


def _has_room(memo: dict, key: str) -> bool:
    """Both memos' store rule: a key of at most ``_TOKEN_MEMO_WIDTH`` characters, while the memo
    holds fewer than ``_TOKEN_MEMO_SIZE`` entries."""
    return len(memo) < _TOKEN_MEMO_SIZE and len(key) <= _TOKEN_MEMO_WIDTH


class _Tokens(dict):
    """``parse``'s memo: a factor token -> its run of codes, learned on first read under ``_has_room``.

    A token that is not exactly one factor, or one the memo cannot take (the
    memo full, over ``_TOKEN_MEMO_WIDTH`` characters, or a run of more codes
    than that), raises KeyError, and the scanner then reads the whole text.
    """

    def __init__(self, alphabet: "Alphabet"):
        self.alphabet = alphabet

    def __missing__(self, token: str) -> str:
        if not _has_room(self, token):
            raise KeyError(token)
        try:
            ((gen, k),) = _scan_factors(token, self.alphabet)
        except ValueError:  # no factor (``1``), more than one (``x*y``), or a fault the scanner reports
            raise KeyError(token) from None
        if abs(k) > _TOKEN_MEMO_WIDTH:
            raise KeyError(token)
        run = self[token] = self.alphabet._char(2 * gen + (k < 0)) * abs(k)
        return run


class _RunTexts(dict):
    """``format_word``'s memo: a run of one code -> its text, learned on first read and kept under ``_has_room``."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def __missing__(self, run: str) -> str:
        code = ord(run[0])
        text = _run(self.names[code >> 1], -len(run) if code & 1 else len(run))
        if _has_room(self, run):
            self[run] = text
        return text


class Letter(NamedTuple):
    """One signed generator: ``sign`` +1 for x, -1 for x^-1."""

    gen: int
    sign: int


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct generator names; the order fixes shortlex.  Its per-code tables are built on first use.

    It also keeps two bounded memos, neither pickled, each learning what it
    lacks on first read: ``_tokens``, from factor tokens ``parse`` has read
    to their runs of codes, and its mirror ``_run_texts``, from runs of one
    code ``format_word`` has printed to their text, such as ``x^-3``.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        bad = next(filterfalse(_NAME_RE.match, names), None)
        if bad is not None:
            raise ValueError(f"invalid generator name: {bad!r}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")

    def __len__(self) -> int:
        return len(self.names)

    def __hash__(self) -> int:  # explicit, so dataclass keeps it: hashing a word costs O(1), not O(len(names))
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.names)

    def __reduce__(self):  # names alone: a str hash, and so ``_hash``, differs from one process to the next
        return type(self), (self.names,)

    @cached_property
    def _chars(self) -> tuple[str, ...]:
        """The character of each code, built when first read: an alphabet no word is built over (an H-action's) builds none."""
        _check_width(self)
        return tuple(map(chr, range(2 * len(self.names))))

    @cached_property
    def _char(self) -> Callable[[int], str]:
        """The character of one code: read from ``_chars`` over at most ``_BYTE_MAX_GENERATORS``
        generators, else ``chr`` itself, so a word over a wider alphabet costs its own codes only."""
        if len(self.names) <= _BYTE_MAX_GENERATORS:
            return self._chars.__getitem__
        _check_width(self)
        return chr

    @cached_property
    def _flips(self) -> str | dict:
        """The str.translate table from each code to its inverse: over more than
        ``_BYTE_MAX_GENERATORS`` generators, ``_FLIP``, which works each one out."""
        if len(self.names) > _BYTE_MAX_GENERATORS:  # a word over it was built first, and so checked its width
            return _FLIP
        return "".join(self._chars[code ^ 1] for code in range(len(self._chars)))

    @cached_property
    def _letters(self) -> tuple[Letter, ...]:  # one shared Letter per code, built when a word's letters are read
        return tuple(Letter(g, sign) for g in range(len(self.names)) for sign in (1, -1))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _tokens(self) -> _Tokens:
        """``parse``'s memo, at most ``_TOKEN_MEMO_SIZE`` tokens, each -> its run of at most
        ``_TOKEN_MEMO_WIDTH`` codes: see ``_Tokens``."""
        return _Tokens(self)

    @cached_property
    def _run_texts(self) -> _RunTexts:
        """``format_word``'s memo, the mirror of ``_tokens``: a run of one code, at most
        ``_TOKEN_MEMO_WIDTH`` of them, -> its text, such as ``x^-3``.  It holds at most
        ``_TOKEN_MEMO_SIZE`` runs, so a word costs O(|w|) at any alphabet width; a run it
        cannot take is spelt afresh each time."""
        return _RunTexts(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise WordParseError(f"unknown generator {name!r}") from None

    def word(self, text: str) -> "Word":
        """Shorthand for :func:`parse` against this alphabet."""
        return parse(text, self)


@total_ordering
@dataclass(frozen=True, init=False, slots=True)
class Word:
    """A reduced word, the normal form of a free-group element.

    ``codes`` holds one character per letter, chr of its code.
    ``Word(alphabet, letters)`` takes Letters or (generator, sign) pairs
    and insists on reduced input; use :func:`reduce` to build a word from
    an arbitrary letter sequence.
    """

    alphabet: Alphabet
    codes: str

    def __init__(self, alphabet: Alphabet, letters: Iterable[tuple[int, int]] = ()):
        raw = tuple(letters)
        codes = reduce(alphabet, raw).codes
        if len(codes) != len(raw):
            raise ValueError("word is not reduced")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", codes)

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The alphabet's shared Letter per code, built on each read."""
        return _gather(self.alphabet._letters, [*map(ord, self.codes)])

    def __len__(self) -> int:
        return len(self.codes)

    def is_identity(self) -> bool:
        return not self.codes

    def shortlex_key(self) -> tuple[int, str]:
        return (len(self.codes), self.codes)

    def __lt__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return self.shortlex_key() < other.shortlex_key()

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def _check_width(alphabet: Alphabet) -> None:
    if len(alphabet.names) > MAX_GENERATORS:
        raise AlphabetTooWideError(f"a word can use at most {MAX_GENERATORS} generators, not {len(alphabet.names)}")


def _word(alphabet: Alphabet, codes: str) -> Word:
    """Trusted constructor, with no O(len) validation: only for codes in range and reduced by construction."""
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "codes", codes)
    return w


def _spell(alphabet: Alphabet, codes: list[int]) -> Word:
    """Trusted constructor from int letter codes, in range and reduced."""
    if len(alphabet.names) > _BYTE_MAX_GENERATORS:
        return _word(alphabet, "".join(map(alphabet._char, codes)))
    return _word(alphabet, "".join(_gather(alphabet._chars, codes)))


def _gather(seq, indices) -> tuple:
    """``tuple(seq[i] for i in indices)`` in one C call, with no wrapper call per index as ``map(seq.__getitem__, ...)``."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return (seq[indices[0]],) if indices else ()  # itemgetter(i) returns a bare item


def identity(alphabet: Alphabet) -> Word:
    """The empty word."""
    return Word(alphabet, ())


def single(alphabet: Alphabet, gen: int, sign: int = 1) -> Word:
    """The one-letter word for a generator or its inverse."""
    return Word(alphabet, (Letter(gen, sign),))


def reduce(alphabet: Alphabet, raw: Iterable[tuple[int, int]]) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    The result is the unique reduced form of the input sequence; feeding
    a reduced word back in is a no-op.
    """
    n = len(alphabet)
    stack: list[int] = []
    for g, s in raw:
        if not 0 <= g < n:
            raise ValueError(f"invalid letter: generator index {g} out of range for {n} generators")
        if s not in (1, -1):
            raise ValueError(f"invalid letter: sign must be +1 or -1, got {s}")
        code = 2 * g + (s < 0)
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return _spell(alphabet, stack)


def concat(w: Word, v: Word) -> Word:
    """Group multiplication: reduce w followed by v.

    Both are reduced, so only their junction can cancel: O(|w| + |v|).
    """
    if w.alphabet is not v.alphabet and w.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    left, right, k = w.codes, v.codes, 0
    top = min(len(left), len(right))
    if top and ord(left[-1]) ^ 1 == ord(right[0]):
        # v opens with the inverse of w's last k letters: XOR the two as 32-bit
        # numbers per code, and the highest bit left marks the first mismatch.
        x = _number(left[:-top - 1:-1].translate(w.alphabet._flips)) ^ _number(right[:top])
        k = top - (x.bit_length() + 31) // 32
    return _word(w.alphabet, left[:len(left) - k] + right[k:])


def _number(codes: str) -> int:
    """The codes as one integer, 32 bits per code."""
    return int.from_bytes(codes.encode("utf-32-be", "surrogatepass"), "big")


def invert(w: Word) -> Word:
    """Group inverse: reverse the letters and flip every sign."""
    return _word(w.alphabet, w.codes[::-1].translate(w.alphabet._flips))


def prefixes(w: Word) -> list[Word]:
    """All prefixes of w, shortest first, ending with w itself."""
    return [_word(w.alphabet, w.codes[:i]) for i in range(len(w.codes) + 1)]


def parse(text: str, alphabet: Alphabet) -> Word:
    """Parse the text grammar: ``1`` or factors ``name`` / ``name^k``.

    Factors are separated by whitespace, an optional ``*``, or both.
    Exponents are nonzero integers.  The result is reduced.
    """
    tokens = text.split()
    try:  # every token one factor the memo holds or learns: one join
        runs = [*map(alphabet._tokens.__getitem__, tokens)]
    except KeyError:  # one the memo cannot take
        runs = []
    if not runs:  # that, or no token: the scanner reads the text or reports its first fault
        return _fold(alphabet, _scan_factors(text, alphabet))
    codes = "".join(runs)
    if len(codes) <= MAX_WORD_LENGTH and not _cancels(codes):
        return _word(alphabet, codes)
    return _fold(alphabet, [(ord(run[0]) >> 1, -len(run) if ord(run[0]) & 1 else len(run)) for run in runs])


def _cancels(codes: str) -> bool:
    """Whether two adjacent codes cancel: XOR them with themselves shifted a letter, and find a 1, all in C.

    Past 255, over more than 128 generators, each code takes 32 bits and a
    cancelling pair is a 32-bit slot that reads 1: a match across two slots
    is passed over.
    """
    try:
        raw = codes.encode("latin-1")
    except UnicodeEncodeError:
        x = _number(codes)
        raw = (x ^ x >> 32).to_bytes(4 * len(codes), "big")
        at = raw.find(b"\x00\x00\x00\x01", 4)
        while at > 0 and at & 3:
            at = raw.find(b"\x00\x00\x00\x01", (at | 3) + 1)
        return at > 0
    return _xor_previous(raw).find(1, 1) >= 0


def _xor_previous(raw: bytes) -> bytes:
    """Each byte XOR the byte before it, the first kept as it is: in C, as one shift and XOR of an integer."""
    x = int.from_bytes(raw, "big")
    return (x ^ x >> 8).to_bytes(len(raw), "big")


def _scan_factors(text: str, alphabet: Alphabet) -> Iterator[tuple[int, int]]:
    """Yield (generator, exponent) per factor, one ``_FACTOR_RE`` match each.

    Raises the ``WordParseError`` of the first fault, with its position.
    """
    if text.strip() == "1":
        return
    end = len(text)
    pos = end - len(text.lstrip())
    if pos == end:
        raise WordParseError("empty word (write '1' for the identity)")
    while True:
        m = _FACTOR_RE.match(text, pos)
        if not m:
            raise WordParseError(f"expected a generator name at position {pos}")
        name, digits, sep = m.groups()
        gen = alphabet.index(name)
        k = 1
        if digits is not None:
            try:
                k = int(digits)
            except ValueError:  # more digits than int() converts
                raise WordParseError(f"exponent too large at position {m.start(2)}") from None
            if k == 0:
                raise WordParseError("malformed exponent: must be nonzero")
        yield gen, k
        pos = m.end()
        if pos == end:
            if "*" in sep:
                raise WordParseError("empty factor after '*'")
            return
        if not sep:
            if digits is None and text[pos] == "^":
                raise WordParseError(f"malformed exponent at position {pos + 1}")
            raise WordParseError(f"missing separator at position {pos}")


def _fold(alphabet: Alphabet, factors: Iterable[tuple[int, int]]) -> Word:
    """The reduced word of (generator, exponent) factors, checked against ``MAX_WORD_LENGTH``."""
    # Runs of one generator, [gen, exponent]: a factor on the same generator
    # as the last run folds into it, and a run that folds to 0 is dropped, so
    # the runs stay freely reduced and no cancelled letter is ever built.
    runs: list[list[int]] = []
    for gen, k in factors:
        if runs and runs[-1][0] == gen:
            runs[-1][1] += k
            if not runs[-1][1]:
                runs.pop()
        else:
            runs.append([gen, k])
    if sum(abs(k) for _, k in runs) > MAX_WORD_LENGTH:
        raise WordParseError(f"word longer than the limit of {MAX_WORD_LENGTH} letters")
    char = alphabet._char
    return _word(alphabet, "".join([char(2 * gen + (k < 0)) * abs(k) for gen, k in runs]))


def format_word(w: Word) -> str:
    """Canonical text: run-length factors joined by single spaces.

    Each run of one code is mapped to its text through the alphabet's run
    memo.  A word of at least ``_FORMAT_LOOP_BELOW`` letters over at most
    127 generators has its runs found in C by ``_runs``; a shorter word, or
    one over a wider alphabet, whose codes reach the marker bytes, by a loop
    over its runs.
    """
    codes, alphabet = w.codes, w.alphabet
    memo, end = alphabet._run_texts, len(codes)
    if end >= _FORMAT_LOOP_BELOW and len(alphabet.names) <= _BYTE_MAX_GENERATORS:
        return " ".join(map(memo.__getitem__, _runs(codes)))
    texts, i = [], 0
    while i < end:
        c, j = codes[i], i + 1
        while j < end and codes[j] == c:
            j += 1
        texts.append(memo[codes[i:j] if j - i > 1 else c])  # no slice for the commonest run, one letter
        i = j
    return " ".join(texts) or "1"


def _runs(codes: str) -> list[str]:
    """The runs of one code that make up codes, over at most 127 generators, found in C.

    A code that differs from the one before it starts a run.  Each code
    but the first is preceded by a marker, 0xFF where a run starts and
    0xFE where it goes on; the 0xFE are deleted and the rest split at 0xFF.
    """
    raw = codes.encode("latin-1")
    marked = bytearray(2 * len(raw) - 1)
    marked[::2] = raw
    marked[1::2] = _xor_previous(raw)[1:].translate(_RUN_MARKERS)
    return marked.translate(None, b"\xfe").decode("latin-1").split("\xff")


def _run(name: str, k: int) -> str:
    """One factor of the canonical text: ``name`` for k = 1, else ``name^k``."""
    return name if k == 1 else f"{name}^{k}"


def iter_reduced_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """Yield every reduced word of length <= max_len in shortlex order."""
    chars, flips, layer = alphabet._chars, alphabet._flips, [""]
    yield _word(alphabet, "")
    for _ in range(max_len):
        # Each word grows by every letter but its last letter's inverse, in shortlex letter order.
        layer = [codes + ch for codes in layer for ch in chars if not codes or ch != flips[ord(codes[-1])]]
        if not layer:
            return
        yield from (_word(alphabet, codes) for codes in layer)
