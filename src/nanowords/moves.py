"""The rewrite system on nanowords: shift and homotopy moves.

Move schemata (capital letters are single letters, lower case letters are
arbitrary subwords; every nanoword is kept a valid Gauss word):

  shift  AxAy <-> xByB         the rotated letter flips type
  H1     xAAy <-> xy           any type
  H2     xAByBAz <-> xyz       A, B of opposite types
  H2a    xAByABz <-> xyz       A, B of opposite types
  H3     xAByACzBCt <-> xBAyCAzCBt   A, B, C of one type
  H3a    xAByCAzBCt <-> xBAyACzCBt   A, C of one type, B of the other
  H3b    xAByCAzCBt <-> xBAyACzBCt   A, B of one type, C of the other
  H3c    xAByACzCBt <-> xBAyCAzBCt   B, C of one type, A of the other

Every H3-family rewrite reverses the three matched adjacent pairs in
place, so both directions of each schema are realized by the same pair
swap applied to the two pattern shapes.

One orientation rule names all eight shapes.  A match is three adjacent
pairs at p < q < r, with p + 2 <= q and q + 2 <= r.  Pair 1 holds the
first occurrences of two letters; A is the one whose second occurrence
comes first, and B the other.  Pair 2 holds A's second occurrence and
the first of a third letter C; pair 3 holds the second occurrences of B
and C.  Let o1, o2, o3 be 1 when pair 1 reads AB, pair 2 reads AC and
pair 3 reads BC.  The direction is forward iff o1 = 1.  If o1 = o2 = o3
the schema is H3, and A, B, C share one type.  Otherwise the pair whose
orientation differs from the other two names the schema (pair 2: H3a,
pair 1: H3b, pair 3: H3c), and the letter not in that pair is the one
whose type differs from the other two.

On top of the raw schemata this module provides the 3-class (closure
under shift and 3-moves), reducibility, and a greedy reduction driver
that repeatedly removes crossings until the 3-class is irreducible.

Every search runs on the encoded ``State`` through one bounded
breadth-first engine, ``_explore``: it takes a successor function and a
stop predicate, and gives back the distinct states it admitted, the first
admitted state satisfying the predicate, and the limit it hit, if any.
A step is one generated successor; the member limit is checked only when
a new distinct state would be admitted.  Both bounds travel as one
:class:`Limits`.  ``three_class`` reports a hit limit on its result;
every other search raises the :class:`TruncationError` its ``Limits``
builds, naming the limit and its value.  The public string-level API
(``applicable_moves``/``apply_move``) validates outside input and is the
reference the ``State`` successors are tested against.

The move structure is computed once per Gauss word, not per state, as a
few type masks per pattern, in one table (``_WordTable``): the H1/H2/H2a
removal patterns, the shifted word and each H3-family match with its
swapped word.  One bounded cache (``_word_table``) serves single searches
and ``identify``; a walk owns its tables (``_Tables``).  A per-state step
(``_neighbors``, ``_reducible_state``) looks its word's table up once,
through ``table_of``, then only tests and moves bits of the state's type
mask; nothing is sized by 2^n.

Outside the walk a state is tested for a removal by a scan with no table
(``_first_removal``), so a table is built only for an expanded word:
``three_class`` and the reduction meet mostly words no other query
shares.  The walk meets each Gauss word under many masks and expands it
by its table anyway, so it tests by the table; by the scan,
``candidates(6)`` took 0.41-0.51 s of CPU, not 0.26-0.33 s (three
interleaved fresh runs, 2-vCPU x86_64).  The reduction files each
irreducible 3-class it searches to the end in a bounded memo
(``_CLASS_MEMO``): such a search admits the same members and makes the
same steps from any start.

The reduction's body, ``_reduce``, takes a state; ``census.separate``
builds each covering's state from its word's letters (``_norm``), with
no text between.  A ``Nanoword`` is built only where a state leaves as
text: by ``_decode`` and, for the walk's survivors, by
``census._decoded``, which joins each Gauss word's text once for all its
masks.  Either builds through the validating constructor, with the type
word read off the mask.  ``_encode`` reads a nanoword's word and type
word in one pass and never fills its cached ``letters`` or ``type_map``.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .words import (
    _ALPHA,
    MAX_LETTERS,
    MIRROR,
    MIRROR_INVERSE,
    TYPE_A,
    TYPE_B,
    Nanoword,
    NanowordError,
    flip_type,
    normalize_increasing,
)

SHIFT = "shift"
H1 = "H1"
H2 = "H2"
H2A = "H2a"
H3 = "H3"
H3A = "H3a"
H3B = "H3b"
H3C = "H3c"

ALL_KINDS = frozenset({SHIFT, H1, H2, H2A, H3, H3A, H3B, H3C})
REMOVAL_KINDS = (H1, H2, H2A)
H3_KINDS = (H3, H3A, H3B, H3C)

FORWARD = "forward"
BACKWARD = "backward"
REMOVE = "remove"
INSERT = "insert"

DEFAULT_MAX_MEMBERS = 10**6
DEFAULT_MAX_STEPS = 10**7


class MoveError(ValueError):
    """A move instance does not (or no longer does) match its nanoword."""


class TruncationError(RuntimeError):
    """An exploration hit its limits; ``partial`` carries the best-so-far.

    ``limit`` names the limit that was hit: ``"members"`` or ``"steps"``.
    """

    def __init__(self, message: str, partial=None, limit: str | None = None):
        super().__init__(message)
        self.partial = partial
        self.limit = limit


class Limits(NamedTuple):
    """A search's bounds (:func:`_explore`); ``max_steps`` also bounds phi's orderings."""

    max_members: int = DEFAULT_MAX_MEMBERS
    max_steps: int = DEFAULT_MAX_STEPS

    def truncation(self, what: str, limit: str, partial=None) -> TruncationError:
        value = self.max_members if limit == "members" else self.max_steps
        return TruncationError(f"{what} exceeded max_{limit}={value}", partial, limit)


@dataclass(frozen=True)
class MoveInstance:
    """One applicable rewrite, pinned to concrete positions.

    For removals and H3 moves ``positions`` are the matched occurrence
    indices (for H3: the starts of the three adjacent pairs) and
    ``letters`` the matched letters.  For insertions ``positions`` are the
    insertion sites in the current word, ``letters`` the fresh letters and
    ``new_types`` their types.
    """

    kind: str
    direction: str
    positions: tuple[int, ...]
    letters: tuple[str, ...]
    new_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class ThreeClass:
    """Closure of a nanoword under shift moves and 3-moves."""

    members: frozenset[Nanoword]
    min_member: Nanoword
    reducible: bool
    truncated: bool
    limit_hit: str | None = None


# ---------------------------------------------------------------------------
# Internal state representation.
#
# A state is (word, mask): the word as a tuple of letter indices in
# increasing normal form (letter k first occurs before letter k+1), the
# types as a mask whose bit n-1-k is letter k's type, 0 = a, 1 = b, for n
# letters.  Letter 0 holds the highest bit, so tuple comparison on states
# is exactly the alphabetical order on nanowords.
#
# A successor's mask is (m & F) | (m & G) << 1 | (m & S) >> d for masks
# F, G, S and a shift d of its word table, because each move renames
# letters in one of two shapes.  A shift rotates a prefix: letter 0's
# second occurrence becomes its first, after letters 1..k, so new letter
# j < k is old letter j + 1 (G holds 1..k), new letter k is old letter 0
# (S holds it, d = k) and the rest stay (F); the rotated letter's bit also
# flips.  An H3-family swap moves no first occurrence but the two of pair
# 1, letters word[p] and word[p] + 1, so it exchanges just those (d = 1).
# ---------------------------------------------------------------------------

State = tuple[tuple[int, ...], int]


def _relabel(seq) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Increasing normal form of a letter sequence, with the old letter
    each new letter renames: new letter k carries the type of ``src[k]``."""
    index: dict = {}
    word = tuple([index.setdefault(x, len(index)) for x in seq])
    return word, tuple(index)


def _norm(word_seq, type_of) -> State:
    """Normal form of a letter sequence, ``type_of[x]`` old letter x's type."""
    word, src = _relabel(word_seq)
    mask = 0
    for x in src:
        mask = mask << 1 | type_of[x]
    return word, mask


def _types(state: State) -> list[int]:
    """The type of each letter of a state, by letter."""
    word, mask = state
    return [mask >> k & 1 for k in range(len(word) // 2 - 1, -1, -1)]


def _encode(nw: Nanoword) -> State:
    """The state of ``nw``: one pass over its word, as :func:`_relabel`,
    then each letter's type read off ``nw.types`` by alphabetical rank."""
    word, src = _relabel(nw.word)
    type_of = dict(zip(sorted(src), nw.types))
    mask = 0
    for x in src:
        mask = mask << 1 | (type_of[x] == TYPE_B)
    return word, mask


_TYPE_OF_BIT = str.maketrans("01", TYPE_A + TYPE_B)


def _type_word(mask: int, n: int) -> str:
    """The type word of an n-letter state's mask, letter 0's bit first."""
    return bin(mask | 1 << n)[3:].translate(_TYPE_OF_BIT)


def _decode(state: State) -> Nanoword:
    word, mask = state
    return Nanoword("".join([_ALPHA[x] for x in word]), _type_word(mask, len(word) // 2))


def _positions(word: tuple[int, ...]) -> list[tuple[int, int]]:
    first: dict[int, int] = {}
    pos: list[tuple[int, int]] = [(-1, -1)] * (len(word) // 2)
    for i, x in enumerate(word):
        if x in first:
            pos[x] = (first[x], i)
        else:
            first[x] = i
    return pos


def _swap_pairs(word, p: int, q: int, r: int) -> tuple:
    w = list(word)
    w[p], w[p + 1] = w[p + 1], w[p]
    w[q], w[q + 1] = w[q + 1], w[q]
    w[r], w[r + 1] = w[r + 1], w[r]
    return tuple(w)


# The orientation rule of the module docstring, read off the schema
# table: for each o1, every schema's (o2, o3) and the types it needs as
# (type B != type A) + 2 (type C != type A), in the order of the matches
# at one p.  Renaming letters moves no position, so the matches on the
# encoded state are those on its nanoword.
_H3_RULES = {
    True: ((1, 1, H3, 0), (0, 1, H3A, 1), (0, 0, H3B, 2), (1, 0, H3C, 3)),
    False: ((0, 0, H3, 0), (1, 0, H3A, 1), (1, 1, H3B, 2), (0, 1, H3C, 3)),
}

# Gauss words whose tables are kept: bounded, as ``identify`` may serve
# queries for the life of a process, and a search revisits few words many
# times.  Only expanded words enter; the words a reduction scans do not.
_WORD_TABLE_SIZE = 512


class _WordTable:
    """The removal patterns and the moves of one Gauss word as masks."""

    # letter sets of H1 removals, by position
    h1: tuple[tuple[int], ...]
    # (x, y, pm) of H2/H2a removals, by x, pm the bits of x and y; each
    # needs x and y of opposite types: 0 < m & pm < pm
    h2: tuple[tuple[int, int, int], ...]
    # (word, F, G, S, d) after a shift, which takes ``m & S ^ S`` for
    # ``m & S`` to flip the rotated letter; None on the empty word
    shift: tuple | None
    # (M, p0, p1, (kind, direction, p, q, r), word, F, G, S, d) for each
    # positional H3-family match, by p and then by schema; it applies when
    # the bits M of A, B, C read p0 (the types it needs, A = a) or M ^ p0
    h3: tuple[tuple, ...]

    # a plain slotted class: a NamedTuple costs more to define at import
    __slots__ = ("h1", "h2", "shift", "h3")

    def __init__(self, h1, h2, shift, h3):
        self.h1, self.h2, self.shift, self.h3 = h1, h2, shift, h3


@functools.lru_cache(maxsize=_WORD_TABLE_SIZE)
def _word_table(word: tuple[int, ...]) -> _WordTable:
    pos = _positions(word)
    L, n = len(word), len(pos)
    bit, full = [1 << n - 1 - x for x in range(n)], (1 << n) - 1
    h1 = tuple((word[r],) for r in range(L - 1) if word[r] == word[r + 1])
    h2 = []
    for x, (i, j) in enumerate(pos):
        # i < j, so i + 1 is inside the word
        y = word[i + 1]
        if y != x and pos[y][0] == i + 1 and pos[y][1] in (j - 1, j + 1):
            h2.append((x, y, bit[x] | bit[y]))
    shift = None
    if word:
        shifted, src = _relabel(word[1:] + word[:1])
        k = src.index(0)
        shift = (shifted, bit[k] - 1, bit[0] - bit[k], bit[0], k)
    h3 = []
    for p in range(L - 1):
        u, v = word[p], word[p + 1]
        if pos[u][0] != p or pos[v][0] != p + 1:
            continue
        o1 = pos[u][1] < pos[v][1]
        A, B = (u, v) if o1 else (v, u)
        a2, b2 = pos[A][1], pos[B][1]
        direction = FORWARD if o1 else BACKWARD
        for o2, o3, kind, need in _H3_RULES[o1]:
            # pair 2 holds A's second and C's first occurrence
            c1 = a2 + 1 if o2 else a2 - 1
            q = a2 if o2 else c1
            if q < p + 2 or c1 >= L or pos[word[c1]][0] != c1:
                continue
            C = word[c1]
            # pair 3 holds B's and C's second occurrences, so r >= q + 2
            c2 = pos[C][1]
            if c2 - b2 != (1 if o3 else -1):
                continue
            r = b2 if o3 else c2
            M = bit[A] | bit[B] | bit[C]
            p0 = (need & 1) * bit[B] | (need >> 1) * bit[C]
            swapped = _relabel(_swap_pairs(word, p, q, r))[0]
            h3.append((M, p0, M ^ p0, (kind, direction, p, q, r), swapped, full ^ bit[u] ^ bit[v], bit[v], bit[u], 1))
    return _WordTable(h1, tuple(h2), shift, tuple(h3))


# Irreducible 3-classes searched to the end, by member state: one (least
# member, size, steps) per class.  Whole classes only; filing past the cap
# empties the memo first.  About 135 bytes a state (the 4,765 states of
# all census5 records' classes freed 640,000 traced bytes), so ~9 MB.
_CLASS_MEMO_SIZE = 1 << 16
_CLASS_MEMO: dict[State, tuple[Nanoword, int, int]] = {}


class _Tables(dict):
    """Word tables built uncached on first use; their owner drops them."""
    def __missing__(self, word):
        table = self[word] = _word_table.__wrapped__(word)
        return table


def _transform_state(state: State, kind: str) -> State:
    """:func:`words.transform` on an encoded state.  Each kind maps shift
    and 3-moves to shift and 3-moves, so it maps 3-classes to 3-classes."""
    word, mask = state
    if kind != MIRROR_INVERSE:
        mask ^= (1 << len(word) // 2) - 1
    if kind == MIRROR:
        return word, mask
    return _norm(word[::-1], _types((word, mask)))


def _removable_letters(state: State) -> list[tuple[int, ...]]:
    """Letter sets an H1, H2 or H2a removal deletes, in the order of
    :func:`_removal_instances`: H1 by position, then by first letter."""
    word, m = state
    table = _word_table(word)
    return [*table.h1, *((x, y) for x, y, pm in table.h2 if 0 < m & pm < pm)]


def _reducible_state(state: State, table_of=_word_table) -> bool:
    word, m = state
    table = table_of(word)
    for _, _, pm in table.h2:
        if 0 < m & pm < pm:
            return True
    return bool(table.h1)


def _first_removal(state: State) -> tuple[int, ...] | None:
    """``_removable_letters(state)[0]`` or None, by one scan and no table.
    An H2/H2a pair is x, x + 1: the letter new right after x's first."""
    word, m = state
    n = len(word) // 2
    first, second = [0] * n, [0] * n
    new = prev = -1
    for i, x in enumerate(word):
        if x == prev:
            return (x,)
        if x > new:
            first[x], new = i, x
        else:
            second[x] = i
        prev = x
    for x in range(n - 1):
        if word[first[x] + 1] == x + 1 and second[x + 1] - second[x] in (1, -1) and m >> n - 2 - x & 3 in (1, 2):
            return x, x + 1
    return None


def _without(state: State, letters) -> State:
    """``state`` less one removal's letters, x or x and x + 1: the later
    letters and their type bits move down by k = len(letters)."""
    (word, m), x, k = state, letters[0], len(letters)
    r = len(word) // 2 - x - k  # the letters after the removed ones
    return tuple([v - k if v > x else v for v in word if v not in letters]), m >> (r + k) << r | m & ((1 << r) - 1)


def _removals(state: State) -> list[State]:
    return [_without(state, letters) for letters in _removable_letters(state)]


def _insertions(state: State, max_letters: int) -> list[State]:
    """Fresh-letter H1, H2, H2a insertions up to ``max_letters`` letters,
    in the order of :func:`_insertion_instances`."""
    word, types = state[0], _types(state)
    n, L = len(types), len(word)
    out = []
    if n + 1 <= max_letters:
        for u in range(L + 1):
            for t in (0, 1):
                out.append((word[:u] + (n, n) + word[u:], types + [t]))
    if n + 2 <= max_letters:
        x, y = n, n + 1
        for u in range(L + 1):
            for v in range(u, L + 1):
                head = word[:u] + (x, y) + word[u:v]
                for t in (0, 1):
                    new_types = types + [t, 1 - t]
                    out.append((head + (y, x) + word[v:], new_types))
                    out.append((head + (x, y) + word[v:], new_types))
    return [_norm(w, t) for w, t in out]


def _h3_matches(state: State) -> list[tuple[str, str, int, int, int]]:
    word, m = state
    return [e[3] for e in _word_table(word).h3 if m & e[0] in (e[1], e[2])]


def _neighbors(state: State, table_of=_word_table) -> list[State]:
    word, m = state
    if not word:
        return []
    table = table_of(word)
    w, F, G, S, d = table.shift
    out = [(w, (m & F) | (m & G) << 1 | (m & S ^ S) >> d)]
    for M, p0, p1, _, w, F, G, S, d in table.h3:
        if m & M in (p0, p1):
            out.append((w, (m & F) | (m & G) << 1 | (m & S) >> d))
    return out


def _escape_successors(state: State, max_letters: int) -> list[State]:
    """Every move of :func:`applicable_moves` with insertions, in its
    order: shift, removals, H3 family, insertions up to ``max_letters``."""
    moved = _neighbors(state)
    return moved[:1] + _removals(state) + moved[1:] + _insertions(state, max_letters)


def _explore(start: State, successors, stop, limits: Limits):
    """Bounded breadth-first search over states from ``start``.

    Returns ``(seen, found, limit, steps)``: the distinct states admitted,
    the first admitted state satisfying ``stop`` (``start`` included;
    never, when ``stop`` is None) or None, ``"members"``/``"steps"`` if
    that limit ended the search early, else None, and the steps taken.  A
    step is one generated successor; the member limit is checked only when
    a new distinct state would be admitted.
    """
    max_members, max_steps = limits
    seen = {start}
    if stop is not None and stop(start):
        return seen, start, None, 0
    queue = deque([start])
    steps = 0
    while queue:
        for nxt in successors(queue.popleft()):
            steps += 1
            if steps > max_steps:
                return seen, None, "steps", steps
            if nxt in seen:
                continue
            if len(seen) >= max_members:
                return seen, None, "members", steps
            seen.add(nxt)
            if stop is not None and stop(nxt):
                return seen, nxt, None, steps
            queue.append(nxt)
    return seen, None, None, steps


# ---------------------------------------------------------------------------
# Public move enumeration and application.
# ---------------------------------------------------------------------------


def shift_rotate(nw: Nanoword) -> Nanoword:
    """One raw shift: first letter rotated to the end, its type flipped.

    The result is *not* normalized; 2n successive rotations restore the
    nanoword (each letter is rotated twice, flipping its type twice).
    """
    if not nw.word:
        raise NanowordError("cannot shift the empty nanoword")
    x = nw.word[0]
    word = nw.word[1:] + x
    types = "".join(
        flip_type(t) if y == x else t for y, t in zip(nw.letters, nw.types)
    )
    return Nanoword(word, types)


def _removal_instances(nw: Nanoword, kinds) -> list[MoveInstance]:
    word = nw.word
    out = []
    if H1 in kinds:
        for r in range(len(word) - 1):
            if word[r] == word[r + 1]:
                out.append(MoveInstance(H1, REMOVE, (r, r + 1), (word[r],)))
    if H2 in kinds or H2A in kinds:
        for x in nw.letters:
            i, j = nw.occurrences(x)
            y = word[i + 1]
            if y == x or nw.type_of(y) == nw.type_of(x):
                continue
            iy, jy = nw.occurrences(y)
            if iy != i + 1:
                continue
            if H2 in kinds and jy == j - 1:
                out.append(MoveInstance(H2, REMOVE, (i, i + 1, j - 1, j), (x, y)))
            if H2A in kinds and jy == j + 1:
                out.append(MoveInstance(H2A, REMOVE, (i, i + 1, j, j + 1), (x, y)))
    return out


def _fresh_letters(nw: Nanoword, k: int) -> tuple[str, ...]:
    used = set(nw.letters)
    return tuple(x for x in _ALPHA if x not in used)[:k]


def _insertion_instances(nw: Nanoword, kinds) -> list[MoveInstance]:
    L = len(nw.word)
    out = []
    if H1 in kinds and nw.crossings + 1 <= MAX_LETTERS:
        (x,) = _fresh_letters(nw, 1)
        for u in range(L + 1):
            for t in (TYPE_A, TYPE_B):
                out.append(MoveInstance(H1, INSERT, (u,), (x,), (t,)))
    if (H2 in kinds or H2A in kinds) and nw.crossings + 2 <= MAX_LETTERS:
        x, y = _fresh_letters(nw, 2)
        for u in range(L + 1):
            for v in range(u, L + 1):
                for ta in (TYPE_A, TYPE_B):
                    tb = flip_type(ta)
                    if H2 in kinds:
                        out.append(MoveInstance(H2, INSERT, (u, v), (x, y), (ta, tb)))
                    if H2A in kinds:
                        out.append(MoveInstance(H2A, INSERT, (u, v), (x, y), (ta, tb)))
    return out


def applicable_moves(
    nw: Nanoword,
    kinds=ALL_KINDS,
    allow_insertions: bool = False,
) -> list[MoveInstance]:
    """All matches of the requested schemata on ``nw``.

    Shift contributes exactly one (rotation) instance on a nonempty word.
    Insertion instances (backward H1/H2/H2a) are enumerated only when
    ``allow_insertions``; fresh letters are the next unused alphabet
    letters, with both types for H1 and opposite-type pairs for H2/H2a.
    """
    kinds = frozenset(kinds)
    out: list[MoveInstance] = []
    if SHIFT in kinds and nw.word:
        x = nw.word[0]
        out.append(MoveInstance(SHIFT, FORWARD, nw.occurrences(x), (x,)))
    out.extend(_removal_instances(nw, kinds))
    h3_wanted = kinds & set(H3_KINDS)
    if h3_wanted and nw.word:
        for kind, direction, p, q, r in _h3_matches(_encode(nw)):
            if kind in h3_wanted:
                if direction == FORWARD:
                    letters = (nw.word[p], nw.word[p + 1], nw.word[q + 1] if kind in (H3, H3C) else nw.word[q])
                else:
                    letters = (nw.word[p + 1], nw.word[p], nw.word[q] if kind in (H3, H3C) else nw.word[q + 1])
                out.append(MoveInstance(kind, direction, (p, q, r), letters))
    if allow_insertions:
        out.extend(_insertion_instances(nw, kinds))
    return out


def apply_move(nw: Nanoword, m: MoveInstance) -> Nanoword:
    """Apply a move instance; the result is increasing-normalized.

    Raises :class:`MoveError` if the instance no longer matches ``nw``.
    """
    word = nw.word
    L = len(word)

    def check(cond):
        if not cond:
            raise MoveError(f"stale move {m} on {nw}")

    if m.kind == SHIFT:
        check(bool(word) and word[0] == m.letters[0])
        out = shift_rotate(nw)
    elif m.direction == REMOVE:
        check(all(0 <= i < L for i in m.positions))
        if m.kind == H1:
            check(len(m.positions) == 2 and len(m.letters) == 1)
            r, r1 = m.positions
            check(r1 == r + 1 and word[r] == word[r1] == m.letters[0])
            out = _delete_letters(nw, {m.letters[0]})
        else:
            check(len(m.positions) == 4 and len(m.letters) == 2)
            x, y = m.letters
            check(x in nw.type_map and y in nw.type_map)
            check(nw.type_of(x) != nw.type_of(y))
            i, j = nw.occurrences(x)
            iy, jy = nw.occurrences(y)
            if m.kind == H2:
                check((i, iy, jy, j) == (m.positions[0], m.positions[1], m.positions[2], m.positions[3]))
                check(iy == i + 1 and jy == j - 1)
            else:
                check((i, iy, j, jy) == (m.positions[0], m.positions[1], m.positions[2], m.positions[3]))
                check(iy == i + 1 and jy == j + 1)
            out = _delete_letters(nw, {x, y})
    elif m.direction == INSERT:
        k = 1 if m.kind == H1 else 2
        check(len(m.positions) == len(m.letters) == len(m.new_types) == k)
        check(len(set(m.letters)) == k and all(t in (TYPE_A, TYPE_B) for t in m.new_types))
        for x in m.letters:
            check(x not in nw.type_map)
        if m.kind == H1:
            (u,) = m.positions
            (x,) = m.letters
            check(0 <= u <= L)
            out = _insert(nw, [(u, x + x)], dict(zip(m.letters, m.new_types)))
        else:
            u, v = m.positions
            x, y = m.letters
            check(0 <= u <= v <= L)
            check(m.new_types[0] != m.new_types[1])
            second = x + y if m.kind == H2A else y + x
            out = _insert(nw, [(u, x + y), (v, second)], dict(zip(m.letters, m.new_types)))
    else:
        check((m.kind, m.direction, *m.positions) in _h3_matches(_encode(nw)))
        out = Nanoword("".join(_swap_pairs(word, *m.positions)), nw.types)
    normalized, _ = normalize_increasing(out)
    return normalized


def _delete_letters(nw: Nanoword, letters: set[str]) -> Nanoword:
    kept = [x for x in nw.letters if x not in letters]
    return Nanoword("".join(x for x in nw.word if x not in letters), "".join(map(nw.type_map.get, kept)))


def _insert(nw: Nanoword, chunks: list[tuple[int, str]], new_types: dict[str, str]) -> Nanoword:
    # chunks: (site, text) with sites in the *current* word, ascending
    word, prev = "", 0
    for site, text in chunks:
        word, prev = word + nw.word[prev:site] + text, site
    tmap = {**nw.type_map, **new_types}
    return Nanoword(word + nw.word[prev:], "".join(tmap[x] for x in sorted(tmap)))


def is_reducible(nw: Nanoword) -> bool:
    """True iff an H1, H2 or H2a removal matches ``nw`` as written."""
    return bool(_removal_instances(nw, REMOVAL_KINDS))


def three_class(
    nw: Nanoword,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ThreeClass:
    """Breadth-first closure of ``nw`` under shift rotations and 3-moves.

    Every generated word is increasing-normalized before deduplication,
    so members are isomorphism classes.  Truncation is reported on the
    result, never raised.
    """
    seen, _, limit, _ = _explore(_encode(nw), _neighbors, None, Limits(max_members, max_steps))
    return ThreeClass(
        members=frozenset(_decode(s) for s in seen),
        min_member=_decode(min(seen)),
        reducible=any(_first_removal(s) is not None for s in seen),
        truncated=limit is not None,
        limit_hit=limit,
    )


def reduce_to_irreducible(
    nw: Nanoword,
    max_extra_letters: int = 0,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Nanoword:
    """Greedy descent to an irreducible 3-class; returns its minimal member.

    A reducible start loses its first removal on the spot; an irreducible
    one has its 3-class explored until a reducible member appears, which
    starts the next round.  Terminates because the letter count strictly
    decreases on every round.  With ``max_extra_letters > 0`` an
    irreducible class is additionally probed through insertion moves
    (bounded by the budget) for an escape to a smaller word; the default
    budget of 0 never inserts, and the empty word has no smaller one.

    Note the result is the minimal member of *an* irreducible 3-class of
    the input's homotopy class.  Distinct irreducible 3-classes of one
    homotopy class are not known to be impossible, so callers must compare
    results via invariants, not by word equality alone.

    An irreducible class searched to the end is filed in a memo of at most
    ``_CLASS_MEMO_SIZE`` states.  Such a search admits every member and
    makes every step from any start, so on a filed member it stops short
    iff size > ``max_members`` or steps > ``max_steps``; otherwise the
    memo's least member is its answer.
    """
    return _reduce(_encode(nw), max_extra_letters, Limits(max_members, max_steps))


def _reduce(state: State, max_extra_letters: int, limits: Limits) -> Nanoword:
    """:func:`reduce_to_irreducible` from an encoded state."""
    while True:
        if (letters := _first_removal(state)) is not None:
            state = _without(state, letters)
            continue
        least, size, steps = _CLASS_MEMO.get(state, (None, 0, 0))
        if least is None or size > limits.max_members or steps > limits.max_steps:
            seen, found, limit, steps = _explore(state, _neighbors, _first_removal, limits)
            if limit is not None:
                current = _decode(state)
                raise limits.truncation(f"3-class of {current}", limit, current)
            if found is not None:
                state = found
                continue
            least = _decode(min(seen))
            if len(seen) <= _CLASS_MEMO_SIZE:
                if len(_CLASS_MEMO) + len(seen) > _CLASS_MEMO_SIZE:
                    _CLASS_MEMO.clear()
                _CLASS_MEMO.update(dict.fromkeys(seen, (least, len(seen), steps)))
        L = len(state[0])
        if max_extra_letters <= 0 or not L:
            return least
        # the whole move graph within the letter budget, for a smaller word
        escape = functools.partial(_escape_successors, max_letters=min(L // 2 + max_extra_letters, MAX_LETTERS))
        _, smaller, limit, _ = _explore(state, escape, lambda s: len(s[0]) < L, limits)
        if limit is not None:
            current = _decode(state)
            raise limits.truncation(f"insertion search from {current}", limit, current)
        if smaller is None:
            return least
        state = smaller
