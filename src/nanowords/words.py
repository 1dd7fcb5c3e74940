"""Gauss words and nanowords: parsing, ordering, normal forms, transforms.

A Gauss word is a finite sequence of letters in which every letter that
occurs, occurs exactly twice.  A nanoword is a Gauss word together with a
map assigning a crossing type (``a`` or ``b``) to each letter.  Nanowords
are the universal combinatorial representation of virtual strings; all
higher layers (moves, invariants, census) work on the types defined here.

Text format (bit-exact): ``WORD:TYPES`` with the types listed in
alphabetical order of the letters, or the single character ``0`` for the
empty nanoword.  Example: ``ABACBC:aab``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

TYPE_A = "a"
TYPE_B = "b"
_TYPE_CHARS = frozenset((TYPE_A, TYPE_B))

EMPTY_TEXT = "0"

MIRROR = "mirror"
INVERSE = "inverse"
MIRROR_INVERSE = "mirror_inverse"
TRANSFORM_KINDS = (MIRROR, INVERSE, MIRROR_INVERSE)

_TEXT_RE = re.compile(r"^([A-Z]+):([ab]+)$")

# Letters are rendered as single uppercase characters, which caps the
# textual layer at 26 letters.
MAX_LETTERS = 26
_ALPHA = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class NanowordError(ValueError):
    """Malformed nanoword text or inconsistent word/type data."""


def flip_type(t: str) -> str:
    return TYPE_B if t == TYPE_A else TYPE_A


@dataclass(frozen=True, order=True)
class Nanoword:
    """An immutable nanoword.

    ``word`` holds the Gauss word as a string, ``types`` the type word:
    one ``a``/``b`` per distinct letter, in alphabetical order of the
    letters.  The dataclass ordering on ``(word, types)`` is exactly the
    alphabetical order used throughout: words compared letterwise (a
    proper prefix sorts first), ties broken on the type word with
    ``a < b``.
    """

    word: str = ""
    types: str = ""

    def __post_init__(self):
        word, types = self.word, self.types
        letters = sorted(set(word))
        if len(word) != 2 * len(letters) or len(types) != len(letters):
            raise NanowordError(f"bad arity: word {word!r} with types {types!r}")
        # One counting pass: sorted, the word pairs off exactly when every
        # letter occurs twice; only a failing word is searched letter by letter.
        pairs = sorted(word)
        if pairs[::2] != pairs[1::2] or word and not "A" <= pairs[0] <= pairs[-1] <= "Z":
            for x in letters:
                if not ("A" <= x <= "Z"):
                    raise NanowordError(f"letter {x!r} is not an uppercase letter")
                if word.count(x) != 2:
                    raise NanowordError(f"letter {x!r} occurs {word.count(x)} times")
        if not _TYPE_CHARS.issuperset(types):
            for t in types:
                if t not in (TYPE_A, TYPE_B):
                    raise NanowordError(f"bad type character {t!r}")

    @cached_property
    def letters(self) -> tuple[str, ...]:
        """The distinct letters, in alphabetical order."""
        return tuple(sorted(set(self.word)))

    @cached_property
    def type_map(self) -> dict[str, str]:
        return dict(zip(self.letters, self.types))

    @property
    def crossings(self) -> int:
        return len(self.types)

    def type_of(self, letter: str) -> str:
        try:
            return self.type_map[letter]
        except KeyError:
            raise NanowordError(f"letter {letter!r} not in {self}") from None

    def occurrences(self, letter: str) -> tuple[int, int]:
        """0-based positions of the two occurrences of ``letter``."""
        i = self.word.find(letter)
        if i < 0:
            raise NanowordError(f"letter {letter!r} not in {self}")
        return i, self.word.find(letter, i + 1)

    def __str__(self) -> str:
        return format_nanoword(self)

    def __repr__(self) -> str:
        return f"Nanoword({format_nanoword(self)!r})"


EMPTY = Nanoword()


def parse_nanoword(text: str) -> Nanoword:
    """Parse ``WORD:TYPES`` (or ``0``) into a nanoword.

    The letters of the word may be any uppercase letters; the types are
    assigned to the distinct letters in alphabetical order.  Raises
    :class:`NanowordError` on malformed input.
    """
    if text == EMPTY_TEXT:
        return EMPTY
    m = _TEXT_RE.match(text)
    if not m:
        raise NanowordError(f"cannot parse nanoword text {text!r}")
    return Nanoword(m.group(1), m.group(2))


def format_nanoword(nw: Nanoword) -> str:
    """Inverse of :func:`parse_nanoword`; the empty nanoword prints as ``0``."""
    if not nw.word:
        return EMPTY_TEXT
    return f"{nw.word}:{nw.types}"


def is_increasing(nw: Nanoword) -> bool:
    """True if ``nw`` is in increasing normal form.

    The letters must be the initial uppercase letters and their first
    occurrences must appear in alphabetical order.
    """
    n = nw.crossings
    if nw.letters != tuple(_ALPHA[:n]):
        return False
    seen: set[str] = set()
    order = [x for x in nw.word if x not in seen and not seen.add(x)]
    return order == sorted(order)


def normalize_increasing(nw: Nanoword) -> tuple[Nanoword, dict[str, str]]:
    """Relabel so first occurrences run A, B, C, ... in order.

    Returns the increasing nanoword and the letter bijection applied to it
    (old letter -> new letter).  Types travel with their letters.  The map
    sends the i-th new letter of the word to the i-th alphabet letter, so
    the result is the canonical representative of the isomorphism class.
    """
    if nw.crossings > MAX_LETTERS:
        raise NanowordError("more than 26 letters cannot be rendered")
    rename: dict[str, str] = {}
    for x in nw.word:
        if x not in rename:
            rename[x] = _ALPHA[len(rename)]
    word = "".join(rename[x] for x in nw.word)
    new_types = {rename[x]: nw.type_of(x) for x in nw.letters}
    types = "".join(new_types[x] for x in sorted(new_types))
    return Nanoword(word, types), rename


def compare(x: Nanoword, y: Nanoword) -> int:
    """Total order: -1, 0 or +1 for the alphabetical order on nanowords."""
    if x == y:
        return 0
    return -1 if x < y else 1


def transform(nw: Nanoword, kind: str) -> Nanoword:
    """Mirror, inverse or mirror-inverse of a nanoword, normalized.

    mirror swaps the type of every letter; inverse reverses the Gauss word
    and swaps all types; mirror_inverse is their composition (reversal
    alone).  Each is an involution up to increasing normalization.
    """
    if kind == MIRROR:
        word = nw.word
        types = "".join(flip_type(t) for t in nw.types)
    elif kind == INVERSE:
        word = nw.word[::-1]
        types = "".join(flip_type(t) for t in nw.types)
    elif kind == MIRROR_INVERSE:
        word = nw.word[::-1]
        types = nw.types
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    normalized, _ = normalize_increasing(Nanoword(word, types))
    return normalized


GAUSS = "gauss"
INCREASING_GAUSS = "increasing_gauss"
NANOWORDS = "nanowords"


def count(n: int, kind: str) -> int:
    """Closed-form counts of words on an n-letter alphabet.

    gauss: (2n)!/2^n, increasing_gauss: (2n)!/(n! 2^n),
    nanowords: (2n)!/n! (nanowords on increasing Gauss words, i.e. up to
    isomorphism).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if kind == GAUSS:
        return math.factorial(2 * n) // 2**n
    if kind == INCREASING_GAUSS:
        return math.factorial(2 * n) // (math.factorial(n) * 2**n)
    if kind == NANOWORDS:
        return math.factorial(2 * n) // math.factorial(n)
    raise ValueError(f"unknown count kind {kind!r}")
