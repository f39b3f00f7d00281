"""Finite right actions of a free group: one permutation per generator.

A word acts by applying its letters left to right; a negative letter
acts by the inverse permutation.  This is the unique extension of the
generator assignment to the whole group.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .words import _TOKEN_MEMO_SIZE, Alphabet, Letter, Word, _gather

__all__ = [
    "ActionParseError",
    "FiniteAction",
    "Permutation",
    "evaluate",
    "format_action_text",
    "parse_action_text",
    "perm_of_word",
    "read_action_file",
]


# Largest degree ``parse_action_text`` accepts; a file with no generators can claim any.
MAX_DEGREE = 1_000_000
# Most images an action's pair memo holds, summed over its pairs: 2 MB of
# tuple slots, the size of an alphabet's two memos together.  A first guess:
# it keeps all 2n(2n - 1) pairs of n generators while 2n(2n - 1) * degree <=
# 2^18, as at two generators up to degree 21,845 and five up to 2,912, and
# past that as many as fit.  It holds at most ``_TOKEN_MEMO_SIZE`` pairs, like
# the alphabet's memos.
_PAIR_MEMO_IMAGES = 1 << 18
_SHOWN_IMAGES = 32  # most images named in the message of a row that is not a bijection


class ActionParseError(ValueError):
    """Raised when an action file does not match the file format."""


class _Pairs(dict):
    """``perm_of_word``'s memo: the codes of a two-letter reduced word -> its image tuple, found by one
    gather of its codes' images on first read and kept while the memo holds fewer than ``room`` pairs."""

    def __init__(self, perms: tuple["Permutation", ...], room: int):
        self._perms, self.room = perms, room

    def __missing__(self, pair: str) -> tuple[int, ...]:
        images = _gather(_images(self._perms, ord(pair[1])), _images(self._perms, ord(pair[0])))
        if len(self) < self.room:
            self[pair] = images
        return images


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..m-1}; ``images[i]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if not images or sorted(images) != list(range(len(images))):
            raise ValueError(_not_a_bijection(images))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return _perm(tuple(range(degree))) if degree > 0 else cls(())  # cls(()) raises

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    @cached_property
    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _perm(tuple(inv))

    def then(self, other: "Permutation") -> "Permutation":
        """Composite: apply self first, then other."""
        return _perm(_gather(other.images, self.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))


def _not_a_bijection(images: tuple[int, ...]) -> str:
    shown = ", ".join(map(repr, images[:_SHOWN_IMAGES])) + (", ..." if len(images) > _SHOWN_IMAGES else "")
    return f"invalid permutation: [{shown}] is not a bijection of 0..{len(images) - 1}"


def _perm(images: tuple[int, ...]) -> Permutation:
    """Trusted constructor for images that are a bijection by construction: skips the O(m log m) check."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


@dataclass(frozen=True)
class FiniteAction:
    """A right action on {0..degree-1} given by one permutation per generator.

    ``step`` and ``perm_of_word`` read their word's codes through ``_images``
    and invert no other generator.  ``_steps``, every code's images for the
    hot loops, is built on first use, and so is one bounded memo, ``_pairs``:
    the image tuple of each two-letter word ``perm_of_word`` has read, kept
    under its ``room`` of at most ``_TOKEN_MEMO_SIZE`` pairs and
    ``_PAIR_MEMO_IMAGES`` images.  Neither is a field, so neither takes part
    in ``==``, ``hash``, ``repr``, ``asdict`` or a pickle.  The memo is
    thread-safe as the alphabet's are: a pair always maps to the same tuple,
    and threads racing past the size check can each overfill it by one pair.
    """

    alphabet: Alphabet
    degree: int
    gen_perms: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "gen_perms", tuple(self.gen_perms))
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if len(self.gen_perms) != len(self.alphabet):
            raise ValueError(
                f"expected {len(self.alphabet)} permutations, got {len(self.gen_perms)}"
            )
        for name, perm in zip(self.alphabet.names, self.gen_perms):
            if perm.degree != self.degree:
                raise ValueError(
                    f"permutation for {name!r} has degree {perm.degree}, expected {self.degree}"
                )

    def __reduce__(self):  # its fields alone, as for an Alphabet: the tables and the pair memo are rebuilt on use
        return type(self), (self.alphabet, self.degree, self.gen_perms)

    @cached_property
    def _steps(self) -> tuple[tuple[int, ...], ...]:
        # One image tuple per letter code 2g + (sign < 0), in shortlex letter
        # order, so a letter acts by two indexings with no branch on its sign.
        return tuple(_images(self.gen_perms, code) for code in range(2 * len(self.gen_perms)))

    def step(self, point: int, letter: Letter) -> int:
        """Image of a point under a single signed letter."""
        g, sign = letter
        if not 0 <= g < len(self.gen_perms) or sign not in (1, -1):
            raise ValueError(f"invalid letter {tuple(letter)} for {len(self.gen_perms)} generators")
        return _images(self.gen_perms, 2 * g + (sign < 0))[point]

    @cached_property
    def _pairs(self) -> _Pairs:
        """``perm_of_word``'s memo, with room for as many pairs of ``degree`` images as its bounds allow."""
        return _Pairs(self.gen_perms, min(_TOKEN_MEMO_SIZE, _PAIR_MEMO_IMAGES // self.degree))


def _images(perms: tuple[Permutation, ...], code: int) -> tuple[int, ...]:
    """The image tuple of letter code 2g + (sign < 0): generator g's images, or its inverse's for an odd code."""
    return perms[code >> 1].inverse.images if code & 1 else perms[code >> 1].images


def evaluate(act: FiniteAction, point: int, w: Word) -> int:
    """Apply a word to a point, letters left to right."""
    if w.alphabet is not act.alphabet and w.alphabet != act.alphabet:
        raise ValueError("alphabet mismatch")
    if not 0 <= point < act.degree:
        raise ValueError(f"point {point} out of range for degree {act.degree}")
    steps = act._steps
    for code in map(ord, w.codes):
        point = steps[code][point]
    return point


def perm_of_word(act: FiniteAction, w: Word) -> Permutation:
    """The permutation a word induces on all points at once: one gather per pair of letters.

    It starts from the first letter's images when |w| is odd, or the first
    pair's when it is even, and gathers the rest a pair at a time through
    the action's pair memo: ceil(|w|/2) - 1 gathers once the memo holds its
    pairs, and one more for each pair it has to learn.
    """
    if w.alphabet is not act.alphabet and w.alphabet != act.alphabet:
        raise ValueError("alphabet mismatch")
    codes = w.codes
    if not codes:
        return Permutation.identity(act.degree)
    pairs = act._pairs
    start = len(codes) & 1
    images = _images(act.gen_perms, ord(codes[0])) if start else pairs[codes[:2]]
    for i in range(2 - start, len(codes), 2):
        images = _gather(pairs[codes[i:i + 2]], images)
    return _perm(images)


def _bfs(act: FiniteAction, base: int) -> tuple[list[int], list[int | None], tuple[list[int], list[int], list[int]]]:
    """Breadth-first scan of the Schreier graph from base.

    Returns the orbit points in discovery order, a list of ``degree`` slots
    holding each point's position in that order (None off the orbit), and
    the BFS tree as a Schreier vector: per position,
    the parent position, the letter code 2·gen + (sign < 0) of the edge
    that first reached it and its depth (0, 0 and 0 for base).  Letters
    are tried in shortlex order, per generator and positive before negative.
    """
    steps = tuple(enumerate(act._steps))  # by letter code, in shortlex letter order
    points = [base]
    index: list[int | None] = [None] * act.degree
    index[base] = 0
    parents, codes, depths = [0], [0], [0]
    for pos, p in enumerate(points):  # points grows as it is scanned
        depth = depths[pos] + 1
        for code, images in steps:
            q = images[p]
            if index[q] is None:
                index[q] = len(points)
                points.append(q)
                parents.append(pos)
                codes.append(code)
                depths.append(depth)
    return points, index, (parents, codes, depths)


def parse_action_text(text: str) -> FiniteAction:
    """Parse the line-oriented action format.

    ``degree m``, then ``generators name1 name2 ...``, then one
    ``perm name i0 i1 ... i(m-1)`` line per generator.  Blank lines and
    ``#`` comments are ignored.  One pass, each row split as it is read and
    checked with C calls: the first fault in line order raises.
    """
    lines = [line.split("#", 1)[0] for line in text.splitlines()] if "#" in text else text.splitlines()
    rows = ((lineno, fields) for lineno, fields in enumerate(map(str.split, lines), start=1) if fields)
    head = list(islice(rows, 2))
    if not head:
        raise ActionParseError("empty action file")

    lineno, fields = head[0]
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

    if len(head) < 2 or head[1][1][0] != "generators":
        raise ActionParseError("expected a 'generators' line after the degree")
    lineno, fields = head[1]
    try:
        alphabet = Alphabet(tuple(fields[1:]))
    except ValueError as exc:
        raise ActionParseError(f"line {lineno}: {exc}") from None

    positions, bijection = alphabet._positions, list(range(degree))
    images: dict[str, tuple[int, ...]] = {}
    for lineno, fields in rows:
        if fields[0] != "perm":
            raise ActionParseError(f"line {lineno}: expected a 'perm' line, got {fields[0]!r}")
        if len(fields) < 2:
            raise ActionParseError(f"line {lineno}: missing generator name")
        name = fields[1]
        if name not in positions:
            raise ActionParseError(f"line {lineno}: unknown generator {name!r}")
        if name in images:
            raise ActionParseError(f"line {lineno}: duplicate perm line for {name!r}")
        if len(fields) - 2 != degree:
            raise ActionParseError(
                f"line {lineno}: expected {degree} images, got {len(fields) - 2}"
            )
        try:
            row = tuple(map(int, fields[2:]))
        except ValueError:
            raise ActionParseError(f"line {lineno}: images must be integers") from None
        if sorted(row) != bijection:
            raise ActionParseError(f"line {lineno}: {_not_a_bijection(row)}")
        images[name] = row

    missing = [name for name in alphabet.names if name not in images]
    if missing:
        raise ActionParseError(f"missing perm line for generator {missing[0]!r}")
    act = object.__new__(FiniteAction)  # each row has the degree, and the alphabet its names: skip the checks
    act.__dict__.update(alphabet=alphabet, degree=degree, gen_perms=tuple(map(_perm, _gather(images, alphabet.names))))
    return act


def format_action_text(act: FiniteAction) -> str:
    """Render an action in the file format, one perm line per generator."""
    lines = [f"degree {act.degree}", " ".join(["generators", *act.alphabet.names])]
    for name, perm in zip(act.alphabet.names, act.gen_perms):
        lines.append(" ".join(["perm", name, *map(str, perm.images)]))
    return "\n".join(lines) + "\n"


def read_action_file(path) -> FiniteAction:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops the byte-order mark some editors write first
        return parse_action_text(fh.read())

