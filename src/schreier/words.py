"""Reduced words over a finite generating alphabet.

Free-group elements are kept in their unique reduced form: no adjacent
pair of a generator and its inverse.  The empty word is the group
identity and prints as ``1``.  All values here are immutable and safe to
share between threads.  The one exception is a bounded cache: each
``Alphabet`` remembers short factor tokens ``parse`` has read, at most
``_TOKEN_MEMO_SIZE`` of them.  It is still thread-safe: a token always
maps to the same factor, each dict read or write is atomic, and threads
that race past the size check can overfill it only by one token each.
"""

import re
from dataclasses import dataclass
from functools import cached_property, total_ordering
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Alphabet",
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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
# One factor of ``parse`` and the separator after it: a name, an optional
# ``^exponent``, then whitespace, at most one ``*`` and whitespace.
_FACTOR_RE = re.compile(rf"({_NAME})(?:\^([+-]?[0-9]+))?(\s*\*?\s*)")
# Most tokens ``parse`` memoises per alphabet, and the longest token it
# memoises, so hostile input cannot grow the memo past about a megabyte.
_TOKEN_MEMO_SIZE = 4096
_TOKEN_MEMO_WIDTH = 64


class WordParseError(ValueError):
    """Raised when a word string does not match the word grammar."""


class Letter(NamedTuple):
    """One signed generator: ``sign`` +1 for x, -1 for x^-1."""

    gen: int
    sign: int


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct generator names; the order fixes shortlex."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid generator name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        # One shared Letter per signed generator, indexed by its code
        # 2g + (sign < 0), so the inverse is code ^ 1 and codes sort in
        # shortlex letter order x0 < x0^-1 < x1 < ...  Words over this
        # alphabet hold these objects, not a new tuple per letter.
        letters = tuple(Letter(g, sign) for g in range(len(names)) for sign in (1, -1))
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_inverse", {lt: letters[code ^ 1] for code, lt in enumerate(letters)})
        object.__setattr__(self, "_codes", {lt: code for code, lt in enumerate(letters)})

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _tokens(self) -> dict[str, tuple[int, int]]:
        """``parse``'s memo: factor token -> (generator, exponent), at most ``_TOKEN_MEMO_SIZE``."""
        return {}

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise WordParseError(f"unknown generator {name!r}") from None

    def word(self, text: str) -> "Word":
        """Shorthand for :func:`parse` against this alphabet."""
        return parse(text, self)


@total_ordering
@dataclass(frozen=True)
class Word:
    """A reduced word, the normal form of a free-group element.

    The constructor insists on reduced input; use :func:`reduce` to
    build a word from an arbitrary letter sequence.
    """

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        raw = tuple(self.letters)
        letters = reduce(self.alphabet, raw).letters
        if len(letters) != len(raw):
            raise ValueError("word is not reduced")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def shortlex_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), tuple(map(self.alphabet._codes.__getitem__, self.letters)))

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


def _word(alphabet: Alphabet, letters: tuple[Letter, ...]) -> Word:
    """Trusted constructor: letters must be shared, in range and reduced.

    Skips the O(len) validation of ``Word(...)``; only for kernels whose
    output is reduced and in range by construction.
    """
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "letters", letters)
    return w


def _gather(seq, indices) -> tuple:
    """``tuple(seq[i] for i in indices)`` in one C call, with no wrapper call per index as ``map(seq.__getitem__, ...)``."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return (seq[indices[0]],) if indices else ()  # itemgetter(i) returns a bare item


def _check_letter(lt: Letter, n: int) -> None:
    if not 0 <= lt.gen < n:
        raise ValueError(f"invalid letter: generator index {lt.gen} out of range for {n} generators")
    if lt.sign not in (1, -1):
        raise ValueError(f"invalid letter: sign must be +1 or -1, got {lt.sign}")


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
        if not (0 <= g < n and s in (1, -1)):
            _check_letter(Letter(g, s), n)
        code = 2 * g + (s < 0)
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return _word(alphabet, _gather(alphabet._letters, stack))


def concat(w: Word, v: Word) -> Word:
    """Group multiplication: reduce w followed by v.

    Both are reduced, so only their junction can cancel: O(|w| + |v|).
    """
    if w.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    left, right, inverse = w.letters, v.letters, w.alphabet._inverse
    k, top = 0, min(len(left), len(right))
    while k < top and left[-1 - k] == inverse[right[k]]:
        k += 1
    return _word(w.alphabet, left[:len(left) - k] + right[k:])


def _inverse_letters(alphabet: Alphabet, letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple(map(alphabet._inverse.__getitem__, reversed(letters)))


def invert(w: Word) -> Word:
    """Group inverse: reverse the letters and flip every sign."""
    return _word(w.alphabet, _inverse_letters(w.alphabet, w.letters))


def prefixes(w: Word) -> list[Word]:
    """All prefixes of w, shortest first, ending with w itself."""
    return [_word(w.alphabet, w.letters[:i]) for i in range(len(w.letters) + 1)]


def parse(text: str, alphabet: Alphabet) -> Word:
    """Parse the text grammar: ``1`` or factors ``name`` / ``name^k``.

    Factors are separated by whitespace, an optional ``*``, or both.
    Exponents are nonzero integers.  The result is reduced.
    """
    # No token ([]) or one the memo cannot take (None): the scanner reads the text.
    return _fold(alphabet, _token_factors(text, alphabet) or _scan_factors(text, alphabet))


def _token_factors(text: str, alphabet: Alphabet) -> list[tuple[int, int]] | None:
    """The factors of a text of whitespace-separated factor tokens, else None.

    Each token is looked up in the alphabet's memo, and learnt there if it
    is at most ``_TOKEN_MEMO_WIDTH`` characters long, while the memo holds
    fewer than ``_TOKEN_MEMO_SIZE`` tokens.  A token that is not one
    whole factor (``*``, ``1``, an unknown name, ``x^0``, ...) returns None:
    the scanner then parses the text or reports its first fault.
    """
    memo = alphabet._tokens
    factors = []
    for token in text.split():
        factor = memo.get(token)
        if factor is None:
            factor = _token_factor(token, alphabet)
            if factor is None:
                return None
            if len(memo) < _TOKEN_MEMO_SIZE and len(token) <= _TOKEN_MEMO_WIDTH:
                memo[token] = factor
        factors.append(factor)
    return factors


def _token_factor(token: str, alphabet: Alphabet) -> tuple[int, int] | None:
    """(generator, exponent) if the token is one factor the scanner accepts."""
    m = _FACTOR_RE.fullmatch(token)
    if m is None or m[3]:  # a separator in a token can only be a '*'
        return None
    name, digits, _ = m.groups()
    gen = alphabet._positions.get(name)
    if gen is None:
        return None
    if digits is None:
        return gen, 1
    try:
        k = int(digits)
    except ValueError:  # more digits than int() converts
        return None
    return (gen, k) if k else None


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
    # Runs of one generator, gens[i]^exps[i]: a factor on the same
    # generator as the last run folds into it, and a run that folds to 0 is
    # dropped, so the runs stay freely reduced and no cancelled letter is
    # ever built.
    gens: list[int] = []
    exps: list[int] = []
    for gen, k in factors:
        if gens and gens[-1] == gen:
            k += exps[-1]
            if k:
                exps[-1] = k
            else:
                gens.pop()
                exps.pop()
        else:
            gens.append(gen)
            exps.append(k)
    if sum(map(abs, exps)) > MAX_WORD_LENGTH:
        raise WordParseError(f"word longer than the limit of {MAX_WORD_LENGTH} letters")
    letters: list[Letter] = []
    for gen, k in zip(gens, exps):
        letters.extend([alphabet._letters[2 * gen + (k < 0)]] * abs(k))
    return _word(alphabet, tuple(letters))


def format_word(w: Word) -> str:
    """Canonical text: run-length factors joined by single spaces."""
    letters, names = w.letters, w.alphabet.names
    if not letters:
        return "1"
    parts = []
    i, end = 0, len(letters)
    while i < end:
        lt, j = letters[i], i + 1
        while j < end and letters[j] == lt:
            j += 1
        parts.append(_run(names[lt.gen], (j - i) * lt.sign))
        i = j
    return " ".join(parts)


def _run(name: str, k: int) -> str:
    """One factor of the canonical text: ``name`` for k = 1, else ``name^k``."""
    return name if k == 1 else f"{name}^{k}"


def iter_reduced_words(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """Yield every reduced word of length <= max_len in shortlex order."""
    layer = [identity(alphabet)]
    yield layer[0]
    for _ in range(max_len):
        grown: list[Word] = []
        for w in layer:
            blocked = alphabet._inverse[w.letters[-1]] if w.letters else None
            for lt in alphabet._letters:  # in shortlex letter order
                if lt is not blocked:
                    grown.append(_word(alphabet, w.letters + (lt,)))
        if not grown:
            return
        yield from grown
        layer = grown
