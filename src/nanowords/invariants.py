"""Homotopy invariants of nanowords.

Three layers:

* linking numbers, the per-letter sums n(X), and the u-polynomial
  u(t) = sum_k u_k t^k with u_k = #{n(X) = k} - #{n(X) = -k};
* r-coverings: the sub-nanoword on letters whose n(X) is divisible by r;
* the based matrix (G, s, b): a skew-symmetric integer pairing on the
  crossings plus a special element s, its reduction to primitive form,
  and a canonical description of the primitive matrix that decides
  isomorphism of primitives by tuple equality.

The based-matrix pairing b(g, h) is the homological intersection number
of the loops of g and h, and it is a sum of per-crossing terms read off
the loops' spans.  Letter X sits at positions x1 < x2 of the word and has
sign eps(X) = +1 for type a, -1 for type b.  Its loop passes straight
through position p (in_X(p) = 1) when x1 < p < x2 for type a, and when
p < x1 or p > x2 for type b; the loop of s passes through every
position.  For g in {s} + letters and a letter h != g:

    b(g, h) = eps(h) (in_g(h1) - in_g(h2))
              + sum over letters Z not in {g, h} of
                eps(Z) (in_g(z1) in_h(z2) - in_g(z2) in_h(z1))

and b(h, g) = -b(g, h).  The first term is where h's loop turns at its
own crossing, the sum where both loops pass through another one.

Per Gauss word, a bounded table (``_word_table``) holds what does not
depend on the types: for each letter X and each of its two types, the
masks G1, G2 of the letters whose first and second occurrence X's loop
passes (for s, every letter).  With A and B the masks of the type-a and
type-b letters, and H1, H2 also holding h itself (that Z = h term is the
turn term), an entry is, as A and B are disjoint,

    popcount(G1 & H2 & A | G2 & H1 & B)
      - popcount(G1 & H2 & B | G2 & H1 & A).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .words import _ALPHA, TYPE_A, Nanoword

# Orientation conventions, pinned by the worked example of the reference
# tables (see tests).  The formula fixes two binary choices: a type-a
# loop runs through the span between its occurrences (a type-b loop
# takes the complement, through the base point), and eps(a) = +1.  The
# other three combinations give a different worked-example matrix.


class InvariantError(ValueError):
    """Inconsistent invariant input (bad letters, non-skew matrix, ...)."""


# Gauss words whose tables are kept, bounded as ``moves._WORD_TABLE_SIZE``.
_WORD_TABLE_SIZE = 512


@functools.lru_cache(maxsize=_WORD_TABLE_SIZE)
def _word_table(word: str):
    """``(letters, loops, pairs, kept)``: letter k is ``letters[k]``
    (alphabetical) and bit k of a mask; ``loops[k][t]`` is (G1, G2) for
    letter k of type a (t = 0) or b (t = 1); ``pairs`` holds (x, y, p1,
    p2) per alternating pair x < y, with the parity of y's occurrences
    before x's first (p1) and second (p2) occurrence; ``kept``, filled by
    :func:`covering`, maps kept letters to a normal form."""
    letters = tuple(sorted(set(word)))
    index = {x: k for k, x in enumerate(letters)}
    pos = [(word.index(x), word.rindex(x)) for x in letters]
    loops = []
    for k, (x1, x2) in enumerate(pos):
        # a type-a loop passes the positions strictly between x1 and x2,
        # a type-b loop every other position but x1 and x2
        g = [0, 0]
        for p in range(x1 + 1, x2):
            z = index[word[p]]
            g[pos[z][1] == p] |= 1 << z
        rest = ((1 << len(letters)) - 1) ^ (1 << k)
        loops.append(((g[0], g[1]), (rest ^ g[0], rest ^ g[1])))
    pairs = []
    for x, y in itertools.combinations(range(len(letters)), 2):
        (x1, x2), (y1, y2) = pos[x], pos[y]
        if (x1 < y1 < x2) != (x1 < y2 < x2):
            pairs.append((x, y, ((y1 < x1) + (y2 < x1)) % 2, ((y1 < x2) + (y2 < x2)) % 2))
    return letters, tuple(loops), tuple(pairs), {}


# ---------------------------------------------------------------------------
# Linking numbers and the u-polynomial.
# ---------------------------------------------------------------------------


def linking(nw: Nanoword, x: str, y: str) -> int:
    """lk(x, y): 0 if the letters do not alternate, otherwise +-1."""
    nw.type_of(x), nw.type_of(y)  # an unknown letter raises
    return n_values(nw).lk[x][y]


@dataclass(frozen=True)
class LetterStats:
    """The sums n(X) = sum_Y lk(X, Y) of ``nanoword``, and its full lk
    table, built on first use."""

    nanoword: Nanoword
    n: dict[str, int]

    @functools.cached_property
    def lk(self) -> dict[str, dict[str, int]]:
        lk = {x: dict.fromkeys(self.n, 0) for x in self.n}
        for x, y, v in _signs(self.nanoword):
            lk[x][y], lk[y][x] = v, -v
        return lk


def _signs(nw: Nanoword):
    """(x, y, lk(x, y)) for each alternating pair x < y.  lk(x, y) is the
    sign of a simulation: shift-rotate the word until it begins with x of
    type a, and read y's type (a: +1).  The rotation stops at x's first
    or, for x of type b, second occurrence, and flips y once per
    occurrence of y before that stop."""
    letters, _, pairs, _ = _word_table(nw.word)
    is_a = [t == TYPE_A for t in nw.types]
    for x, y, p1, p2 in pairs:
        yield letters[x], letters[y], 1 if is_a[y] != (p1 if is_a[x] else p2) else -1


def n_values(nw: Nanoword) -> LetterStats:
    """n, summed over the alternating pairs without the lk table."""
    n = dict.fromkeys(nw.letters, 0)
    for x, y, v in _signs(nw):
        n[x], n[y] = n[x] + v, n[y] - v
    return LetterStats(nw, n)


@dataclass(frozen=True)
class UPolynomial:
    """Sparse u-polynomial; only nonzero coefficients are stored."""

    coefficients: tuple[tuple[int, int], ...]  # (k, u_k), ascending k

    def as_dict(self) -> dict[int, int]:
        return dict(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k, c in sorted(self.coefficients, reverse=True):
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            coeff = "" if mag == 1 else str(mag)
            power = "t" if k == 1 else f"t^{k}"
            parts.append(f"{sign}{coeff}{power}")
        return "".join(parts)


def u_polynomial(nw: Nanoword) -> UPolynomial:
    return u_of(n_values(nw))


def u_of(stats: LetterStats) -> UPolynomial:
    """The u-polynomial read off already computed n-values."""
    coeffs: dict[int, int] = {}
    for v in stats.n.values():
        if v > 0:
            coeffs[v] = coeffs.get(v, 0) + 1
        elif v < 0:
            coeffs[-v] = coeffs.get(-v, 0) - 1
    return UPolynomial(tuple(sorted((k, c) for k, c in coeffs.items() if c)))


def covering_raw(nw: Nanoword, r: int, stats: LetterStats | None = None) -> Nanoword:
    """The r-covering before normalization: letters with r | n(X), kept as is.

    ``stats``, the n-values of ``nw``, are computed here when not given.
    """
    if r == 1:
        return nw
    keep = _kept(nw, r, stats)
    word = "".join(x for x in nw.word if x in keep)
    return Nanoword(word, "".join(map(nw.type_map.__getitem__, keep)))


def covering(nw: Nanoword, r: int, stats: LetterStats | None = None) -> Nanoword:
    """The r-covering, increasing-normalized; r = 1 is the identity."""
    return nw if r == 1 else Nanoword(*_covering_text(nw, _kept(nw, r, stats)))


def _kept(nw: Nanoword, r: int, stats: LetterStats | None) -> tuple[str, ...]:
    # the letters X of the r-covering, r | n(X), alphabetical
    if r < 1:
        raise InvariantError("covering index r must be >= 1")
    n = (stats or n_values(nw)).n
    return tuple(x for x in nw.letters if n[x] % r == 0)


def _covering_text(nw: Nanoword, keep: tuple[str, ...]) -> tuple[str, str]:
    """``(word, types)`` of the increasing-normalized sub-nanoword of
    ``nw`` on the letters ``keep`` (alphabetical), its normal form read
    from, or filed in, the word table's ``kept`` map."""
    kept = _word_table(nw.word)[3]
    if keep not in kept:
        # :func:`words.normalize_increasing` of the word on ``keep``
        rename = dict(zip(dict.fromkeys(x for x in nw.word if x in keep), _ALPHA))
        kept[keep] = "".join(rename[x] for x in nw.word if x in rename), tuple(rename)
    word, old = kept[keep]
    return word, "".join(map(nw.type_map.__getitem__, old))


# ---------------------------------------------------------------------------
# Based matrices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasedMatrix:
    """A finite set with special element s and skew-symmetric pairing b.

    ``labels`` lists the elements with s first; ``entries`` is the square
    array of b over that order.
    """

    labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.labels)
        if not self.labels or self.labels[0] != "s":
            raise InvariantError("first element must be the special element 's'")
        if len(set(self.labels)) != m:
            raise InvariantError("duplicate element labels")
        if len(self.entries) != m or any(len(row) != m for row in self.entries):
            raise InvariantError("entries must be square over the labels")
        for i in range(m):
            for j in range(m):
                if self.entries[i][j] != -self.entries[j][i]:
                    raise InvariantError("pairing is not skew-symmetric")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvariantError(f"no element {label!r}") from None

    def b(self, g: str, h: str) -> int:
        return self.entries[self.index(g)][self.index(h)]

    def drop(self, labels: set[str]) -> "BasedMatrix":
        keep = [i for i, lab in enumerate(self.labels) if lab not in labels]
        return BasedMatrix(
            tuple(self.labels[i] for i in keep),
            tuple(tuple(self.entries[i][j] for j in keep) for i in keep),
        )


def based_matrix(nw: Nanoword, stats: LetterStats | None = None) -> BasedMatrix:
    """The based matrix of a nanoword over {s} + letters.

    Every entry is the popcount form of the span sum of the module
    docstring.  b(X, s) always equals n(X), which comes independently
    from the linking numbers (``stats``, the n-values of ``nw``, computed
    here when not given); this is enforced as a postcondition.
    """
    letters, table, _, _ = _word_table(nw.word)
    m = len(letters)
    every = (1 << m) - 1
    A = sum(1 << k for k, t in enumerate(nw.types) if t == TYPE_A)
    B = every ^ A
    # (G1, G2) of each label, s first, and (H1, H2) of each letter
    loops = [(every, every)] + [table[k][t != TYPE_A] for k, t in enumerate(nw.types)]
    own = [(h1 | 1 << k, h2 | 1 << k) for k, (h1, h2) in enumerate(loops[1:])]
    b = [[0] * (m + 1) for _ in range(m + 1)]
    for i, (g1, g2) in enumerate(loops):
        for j in range(i + 1, m + 1):
            h1, h2 = own[j - 1]
            x, y = g1 & h2, g2 & h1
            v = (x & A | y & B).bit_count() - (x & B | y & A).bit_count()
            b[i][j], b[j][i] = v, -v

    result = BasedMatrix(("s",) + letters, tuple(tuple(row) for row in b))
    if stats is None:
        stats = n_values(nw)
    for x, row in zip(letters, b[1:]):
        if row[0] != stats.n[x]:
            raise AssertionError(
                f"based matrix column of {x} disagrees with n({x}) on {nw}"
            )
    return result


def _reduction_candidates(bm: BasedMatrix) -> list[tuple[str, ...]]:
    """All single elements (R1/R2) and pairs (R3) currently removable.

    R1: b(g, .) identically 0.  R2: b(g, .) equal to b(s, .).  R3: a
    complementary pair g1, g2 with b(g1, h) + b(g2, h) = b(s, h) for
    every h, the pair included.  The special element never moves.

    The quantifier in R3 runs over all of G: relaxing it to exclude the
    pair itself admits spurious removals (it eats 4-letter census
    matrices down to rank 0), while the strict form reproduces every
    published primitive size.
    """
    return _removable(bm.labels, bm.entries)


def _removable(labels, B) -> list[tuple[str, ...]]:
    # :func:`_reduction_candidates` on the labels and entries of a matrix
    m = len(labels)
    rest = [tuple(map(operator.sub, B[0], row)) for row in B]  # b(s, .) - b(g, .)
    singles = [(labels[i],) for i in range(1, m) if not any(B[i]) or B[i] == B[0]]
    return singles + [(labels[i], labels[j]) for i, j in itertools.combinations(range(1, m), 2) if B[j] == rest[i]]


def reduce_based_matrix(bm: BasedMatrix, rng=None) -> BasedMatrix:
    """Reduce to a primitive based matrix (no reduction move applies).

    Deterministic strategy: single-element moves before pair moves, first
    candidate in the current element order.  Passing an ``rng`` draws the
    next move uniformly from all available candidates instead; the
    canonical form of the result must not depend on the order, which the
    test suite checks rather than assumes.  Each move is
    :meth:`BasedMatrix.drop` on bare labels and entries: a submatrix of a
    skew-symmetric matrix is one, so only the primitive is validated.
    """
    labels, B = bm.labels, bm.entries
    while candidates := _removable(labels, B):
        choice = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        keep = [i for i, lab in enumerate(labels) if lab not in choice]
        labels = tuple(labels[i] for i in keep)
        B = tuple(tuple(B[i][j] for j in keep) for i in keep)
    return bm if labels is bm.labels else BasedMatrix(labels, B)


def is_primitive(bm: BasedMatrix) -> bool:
    return not _reduction_candidates(bm)


def theta(matrix) -> tuple[int, ...]:
    """Flatten a skew-symmetric matrix: lower triangle, column by column.

    Columns left to right, each column top to bottom.  The map is a
    bijection: skew-symmetry reconstructs the matrix from the tuple.
    """
    m = len(matrix)
    for i in range(m):
        if len(matrix[i]) != m:
            raise InvariantError("matrix is not square")
        for j in range(m):
            if matrix[i][j] != -matrix[j][i]:
                raise InvariantError("matrix is not skew-symmetric")
    return tuple(matrix[i][j] for j in range(m) for i in range(j + 1, m))


def theta_inverse(t: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    if len(t) != size * (size - 1) // 2:
        raise InvariantError("tuple length does not match size")
    matrix = [[0] * size for _ in range(size)]
    it = iter(t)
    for j in range(size):
        for i in range(j + 1, size):
            v = next(it)
            matrix[i][j] = v
            matrix[j][i] = -v
    return tuple(tuple(row) for row in matrix)


def m_profile(bm: BasedMatrix, g: str) -> tuple[int, ...]:
    """The multiset of b(g, .) values over G - {s}, flattened.

    Counts m_g(i) = #{h != s : b(g, h) = i} are listed as (i, m_g(i))
    pairs with nonzero count, sorted by i, concatenated into a 2l-tuple.
    """
    if g == "s":
        raise InvariantError("m-profile is only defined for g != s")
    return _profile(bm.entries[bm.index(g)])


def _profile(row: tuple[int, ...]) -> tuple[int, ...]:
    # :func:`m_profile` of the element whose row is ``row``
    row = row[1:]
    out: tuple[int, ...] = ()
    for v in sorted(set(row)):
        out += v, row.count(v)
    return out


@dataclass(frozen=True)
class CanonicalPBM:
    """Canonical description of a primitive based matrix.

    ``phi`` is the minimal theta-image over the isomorphism-respecting
    orderings; ``rho`` the primitive size minus one, so ``phi`` has
    rho(rho+1)/2 entries.
    """

    rho: int
    phi: tuple[int, ...]

    def __post_init__(self):
        if len(self.phi) != self.rho * (self.rho + 1) // 2:
            raise InvariantError("phi length does not match rho")

    def __str__(self) -> str:
        return phi_string(self.phi)


def phi_string(phi: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in phi)


def _element_classes(bm: BasedMatrix) -> list[list[int]]:
    # Partition the rows of G - {s} by the isomorphism invariants
    # (b(g, s), m-profile), classes sorted ascending by that key and rows
    # ascending within a class.
    keyed: dict[tuple, list[int]] = {}
    for i in range(1, bm.size):
        row = bm.entries[i]
        keyed.setdefault((row[0], _profile(row)), []).append(i)
    return [keyed[k] for k in sorted(keyed)]


def _theta_at(B, ids: list[int]) -> tuple[int, ...]:
    # theta of the matrix B with its rows and columns taken in order ids
    m = len(ids)
    return tuple(B[ids[i]][ids[j]] for j in range(m) for i in range(j + 1, m))


def _min_theta(bm: BasedMatrix, classes: list[list[int]]):
    # Minimize theta over orderings that keep s first and each class in a
    # contiguous block, searching all within-class permutations.  The DFS
    # places one element at a time and prunes on the contiguous theta
    # prefix known so far: column 1 is fixed by the class layout, and with
    # k elements placed column 2 is known down to row k+1.
    B = bm.entries
    col1 = tuple(B[g][0] for cls in classes for g in cls)
    best: list = [None, None]

    def rec(ci: int, pool: list[int], order: list[int]):
        # ``pool``: what is left of the class before ``classes[ci]``
        if best[0] is not None and len(order) >= 2:
            prefix = col1 + tuple(B[g][order[0]] for g in order[1:])
            if prefix > best[0][: len(prefix)]:
                return
        if pool:
            for g in pool:
                rec(ci, [h for h in pool if h != g], order + [g])
        elif ci < len(classes):
            rec(ci + 1, classes[ci], order)
        else:
            t = _theta_at(B, [0] + order)
            if best[0] is None or t < best[0]:
                best[:] = t, [0] + order

    rec(0, [], [])
    return best[0], tuple(bm.labels[i] for i in best[1])


def canonical_form(bm: BasedMatrix) -> CanonicalPBM:
    """phi of the primitive reduction of ``bm`` (reducing defensively)."""
    return _canonical(bm)[0]


def canonical_order(bm: BasedMatrix) -> tuple[str, ...]:
    """Element order realizing phi (the first minimizing arrangement)."""
    return _canonical(bm)[1]


def _canonical(bm: BasedMatrix):
    """phi, the order realizing it and, from the same reduction, the
    display tuple: theta of the primitive in the order s, then the
    element classes one after another (:func:`display_theta`)."""
    prim = reduce_based_matrix(bm)
    classes = _element_classes(prim)
    ids = [0] + [g for cls in classes for g in cls]
    display = _theta_at(prim.entries, ids)
    if len(classes) == len(ids) - 1:  # singletons: the class order is the only one
        t, order = display, tuple(prim.labels[i] for i in ids)
    else:
        t, order = _min_theta(prim, classes)
    return CanonicalPBM(rho=prim.size - 1, phi=t), order, display


def string_phi(nw: Nanoword) -> CanonicalPBM:
    """The canonical primitive based matrix of a nanoword."""
    return canonical_form(based_matrix(nw))


def display_theta(bm: BasedMatrix) -> tuple[int, ...]:
    """Theta of the class-sorted matrix with ties kept in element order.

    This is the arrangement the reference tables print.  It skips the
    within-class minimization, so unlike :func:`canonical_form` it is not
    an isomorphism invariant; it coincides with phi except where a class
    holds interchangeable elements whose given order is not the minimal
    one.  That happens on 1 census record up to 4 crossings (4.1), 6 up
    to 5 and 218 up to 6.  Use it for table display only.
    """
    return _canonical(bm)[2]
