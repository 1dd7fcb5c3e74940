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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import TYPE_A, Nanoword, normalize_increasing

# Orientation conventions, pinned by the worked example of the reference
# tables (see tests).  The formula fixes two binary choices: a type-a
# loop runs through the span between its occurrences (a type-b loop
# takes the complement, through the base point), and eps(a) = +1.  The
# other three combinations give a different worked-example matrix.


class InvariantError(ValueError):
    """Inconsistent invariant input (bad letters, non-skew matrix, ...)."""


# ---------------------------------------------------------------------------
# Linking numbers and the u-polynomial.
# ---------------------------------------------------------------------------


def linking(nw: Nanoword, x: str, y: str) -> int:
    """lk(x, y): 0 if the letters do not alternate, otherwise +-1.

    The sign is that of a simulation: shift-rotate the word until it
    begins with x and x has type a; then y's type a/b gives +1/-1.  With
    x at positions i < j, the rotation stops at k = i if x has type a and
    at k = j otherwise (rotating past i flips x to a).  Every letter
    rotated past flips its type, so y ends with its type flipped once for
    each of its occurrences before k.
    """
    tx, ty = nw.type_of(x), nw.type_of(y)
    if x == y:
        return 0
    return _lk(nw.occurrences(x), nw.occurrences(y), tx == TYPE_A, ty == TYPE_A)


def _lk(occ_x: tuple[int, int], occ_y: tuple[int, int], x_is_a: bool, y_is_a: bool) -> int:
    # The closed form of :func:`linking` from occurrence positions.
    i, j = occ_x
    p, q = occ_y
    if (i < p < j) == (i < q < j):
        return 0
    k = i if x_is_a else j
    flipped = ((p < k) + (q < k)) % 2 == 1
    return 1 if y_is_a != flipped else -1


@dataclass(frozen=True)
class LetterStats:
    """The full lk table and the sums n(X) = sum_Y lk(X, Y)."""

    lk: dict[str, dict[str, int]]
    n: dict[str, int]


def n_values(nw: Nanoword) -> LetterStats:
    letters = nw.letters
    occ = {x: nw.occurrences(x) for x in letters}
    is_a = {x: nw.type_of(x) == TYPE_A for x in letters}
    lk = {x: {} for x in letters}
    for x, y in itertools.combinations(letters, 2):
        v = _lk(occ[x], occ[y], is_a[x], is_a[y])
        lk[x][y] = v
        lk[y][x] = -v
    for x in letters:
        lk[x][x] = 0
    n = {x: sum(lk[x].values()) for x in letters}
    return LetterStats(lk=lk, n=n)


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
    if r < 1:
        raise InvariantError("covering index r must be >= 1")
    if r == 1:
        return nw
    if stats is None:
        stats = n_values(nw)
    drop = {x for x, v in stats.n.items() if v % r != 0}
    word = "".join(c for c in nw.word if c not in drop)
    kept = [x for x in nw.letters if x not in drop]
    types = "".join(nw.type_of(x) for x in kept)
    return Nanoword(word, types)


def covering(nw: Nanoword, r: int, stats: LetterStats | None = None) -> Nanoword:
    """The r-covering, increasing-normalized; r = 1 is the identity."""
    if r == 1:
        return nw
    normalized, _ = normalize_increasing(covering_raw(nw, r, stats))
    return normalized


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

    Every entry is the span sum of the module docstring.  b(X, s) always
    equals n(X), which comes independently from the linking numbers
    (``stats``, the n-values of ``nw``, computed here when not given);
    this is enforced as a postcondition.
    """
    labels = ("s",) + nw.letters
    m = len(labels)
    # Per label (s first): occurrence positions, sign and loop membership
    # in_g(p) of every position; a loop never passes its own crossing.
    occ = [(0, 0)] + [nw.occurrences(x) for x in nw.letters]
    eps = [0] + [1 if nw.type_of(x) == TYPE_A else -1 for x in nw.letters]
    inside = [[1] * len(nw.word)]
    for (x1, x2), e in zip(occ[1:], eps[1:]):
        inside.append([
            int(x1 < p < x2 if e > 0 else p < x1 or p > x2)
            for p in range(len(nw.word))
        ])

    b = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        g, h = inside[i], inside[j]
        h1, h2 = occ[j]
        v = eps[j] * (g[h1] - g[h2])
        for k in range(1, m):
            if k != i and k != j:
                z1, z2 = occ[k]
                v += eps[k] * (g[z1] * h[z2] - g[z2] * h[z1])
        b[i][j], b[j][i] = v, -v

    result = BasedMatrix(labels, tuple(tuple(row) for row in b))
    if stats is None:
        stats = n_values(nw)
    for x in nw.letters:
        if result.b(x, "s") != stats.n[x]:
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
    m = bm.size
    B = bm.entries
    singles: list[tuple[str, ...]] = []
    for i in range(1, m):
        if all(B[i][j] == 0 for j in range(m)):
            singles.append((bm.labels[i],))
        elif all(B[i][j] == B[0][j] for j in range(m)):
            singles.append((bm.labels[i],))
    pairs: list[tuple[str, ...]] = []
    for i in range(1, m):
        for j in range(i + 1, m):
            if all(B[i][h] + B[j][h] == B[0][h] for h in range(m)):
                pairs.append((bm.labels[i], bm.labels[j]))
    return singles + pairs


def reduce_based_matrix(bm: BasedMatrix, rng=None) -> BasedMatrix:
    """Reduce to a primitive based matrix (no reduction move applies).

    Deterministic strategy: single-element moves before pair moves, first
    candidate in the current element order.  Passing an ``rng`` draws the
    next move uniformly from all available candidates instead; the
    canonical form of the result must not depend on the order, which the
    test suite checks rather than assumes.
    """
    while True:
        candidates = _reduction_candidates(bm)
        if not candidates:
            return bm
        choice = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        bm = bm.drop(set(choice))


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
    gi = bm.index(g)
    counts: dict[int, int] = {}
    for j in range(1, bm.size):
        v = bm.entries[gi][j]
        counts[v] = counts.get(v, 0) + 1
    out: list[int] = []
    for i in sorted(counts):
        out.extend((i, counts[i]))
    return tuple(out)


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


def _element_classes(bm: BasedMatrix) -> list[list[str]]:
    # Partition G - {s} by the isomorphism invariants (b(g,s), m-profile),
    # classes sorted ascending by that key.
    keyed: dict[tuple, list[str]] = {}
    for g in bm.labels[1:]:
        key = (bm.b(g, "s"), m_profile(bm, g))
        keyed.setdefault(key, []).append(g)
    return [keyed[k] for k in sorted(keyed)]


def _min_theta(bm: BasedMatrix, classes: list[list[str]], prune: bool = True):
    # Minimize theta over orderings that keep s first and each class in a
    # contiguous block, searching all within-class permutations.  The DFS
    # places one element at a time and prunes on the contiguous theta
    # prefix known so far: column 1 is fixed by the class layout, and with
    # k elements placed column 2 is known down to row k+1.
    m = bm.size
    B = bm.entries
    index = {lab: bm.index(lab) for lab in bm.labels}
    col1 = tuple(B[index[g]][0] for cls in classes for g in cls)
    best: dict = {"theta": None, "order": None}

    def theta_of(order: list[str]) -> tuple[int, ...]:
        ids = [0] + [index[lab] for lab in order]
        return tuple(
            B[ids[i]][ids[j]] for j in range(m) for i in range(j + 1, m)
        )

    def rec(ci: int, pool: list[str], order: list[str]):
        if prune and best["theta"] is not None and len(order) >= 2:
            ids = [index[lab] for lab in order]
            prefix = col1 + tuple(B[ids[i]][ids[0]] for i in range(1, len(ids)))
            if prefix > best["theta"][: len(prefix)]:
                return
        if not pool:
            if ci + 1 < len(classes):
                rec(ci + 1, list(classes[ci + 1]), order)
            else:
                t = theta_of(order)
                if best["theta"] is None or t < best["theta"]:
                    best["theta"] = t
                    best["order"] = ("s", *order)
            return
        for g in pool:
            rest = [h for h in pool if h != g]
            rec(ci, rest, order + [g])

    if not classes:
        return theta_of([]), ("s",)
    rec(0, list(classes[0]), [])
    return best["theta"], best["order"]


def canonical_form(bm: BasedMatrix) -> CanonicalPBM:
    """phi of the primitive reduction of ``bm`` (reducing defensively)."""
    t, _ = _canonical(bm)
    return t


def canonical_order(bm: BasedMatrix) -> tuple[str, ...]:
    """Element order realizing phi (the first minimizing arrangement)."""
    _, order = _canonical(bm)
    return order


def _canonical(bm: BasedMatrix):
    prim = reduce_based_matrix(bm)
    classes = _element_classes(prim)
    t, order = _min_theta(prim, classes)
    return CanonicalPBM(rho=prim.size - 1, phi=t), order


def string_phi(nw: Nanoword) -> CanonicalPBM:
    """The canonical primitive based matrix of a nanoword."""
    return canonical_form(based_matrix(nw))


def display_theta(bm: BasedMatrix) -> tuple[int, ...]:
    """Theta of the class-sorted matrix with ties kept in element order.

    This is the arrangement the reference tables print.  It skips the
    within-class minimization, so unlike :func:`canonical_form` it is not
    an isomorphism invariant; it coincides with phi except where a class
    holds interchangeable elements whose given order is not the minimal
    one (a single known census entry).  Use it for table display only.
    """
    prim = reduce_based_matrix(bm)
    order = ["s"] + sorted(
        prim.labels[1:], key=lambda g: (prim.b(g, "s"), m_profile(prim, g))
    )
    ids = [prim.index(g) for g in order]
    return theta([[prim.entries[i][j] for j in ids] for i in ids])

