"""Cross-checks between independent computation paths.

The linking layer (rotation simulation) and the based-matrix layer
(span sums of the loops plus reduction) are implemented separately;
these tests pin the identities that tie them together.
"""

import itertools
import random

import pytest

import nanowords.census as cz
import nanowords.moves as mv
from nanowords.invariants import (
    BasedMatrix,
    based_matrix,
    canonical_form,
    reduce_based_matrix,
    string_phi,
    u_polynomial,
)
from nanowords.words import (
    INVERSE,
    MIRROR,
    MIRROR_INVERSE,
    Nanoword,
    flip_type,
    normalize_increasing,
    transform,
)

import golden
from conftest import random_nanoword


def u_from_matrix(bm):
    # the s-column of any reduction stage determines u: single removals
    # only drop elements with b(g,s) = 0 and pair removals drop opposite
    # values, so the signed counts survive to the primitive matrix
    counts = {}
    for g in bm.labels[1:]:
        v = bm.b(g, "s")
        if v > 0:
            counts[v] = counts.get(v, 0) + 1
        elif v < 0:
            counts[-v] = counts.get(-v, 0) - 1
    return tuple(sorted((k, c) for k, c in counts.items() if c))


class TestUFromPrimitiveMatrix:
    def test_on_census(self, census4):
        for rec in census4.records:
            prim = reduce_based_matrix(based_matrix(rec.nanoword))
            assert u_from_matrix(prim) == rec.u.coefficients

    def test_record_u_is_the_words_u(self, census5):
        # a record's u is read off phi[:rho]
        for rec in census5.records:
            assert rec.u == u_polynomial(rec.nanoword), rec.id

    def test_on_random_words(self):
        rng = random.Random(5150)
        for _ in range(400):
            nw = random_nanoword(rng, rng.choice([1, 2, 3, 4, 5, 6]))
            prim = reduce_based_matrix(based_matrix(nw))
            assert u_from_matrix(prim) == u_polynomial(nw).coefficients, nw


def law_images(prim):
    """The entries the transform laws give each image's matrix, from a
    based matrix B over s, g1 ... gk, primitive or not: D(B) keeps s and
    sets D(g, s) = -b(g, s) and D(g, h) = b(g, h) + b(s, g) - b(s, h)."""
    B = prim.entries
    m = len(B)
    D = [[0] * m for _ in range(m)]
    for g in range(1, m):
        D[g][0], D[0][g] = -B[g][0], B[g][0]
        for h in range(1, m):
            if h != g:
                D[g][h] = B[g][h] + B[0][g] - B[0][h]

    def neg(M):
        return tuple(tuple(-v for v in row) for row in M)

    D = tuple(map(tuple, D))
    return {INVERSE: D, MIRROR: neg(D), MIRROR_INVERSE: neg(B)}


def assert_transform_laws(nw):
    # phi(inverse) = canon(D(B)), phi(mirror) = canon(-D(B)) and
    # phi(mirror-inverse) = canon(-B), with B the primitive of nw
    prim = reduce_based_matrix(based_matrix(nw))
    for kind, entries in law_images(prim).items():
        got = canonical_form(BasedMatrix(prim.labels, entries))
        assert got == string_phi(transform(nw, kind)), (str(nw), kind)


class TestTransformLaws:
    def test_on_census5(self, census5):
        assert len(census5.records) == 415
        for rec in census5.records:
            assert_transform_laws(rec.nanoword)

    @pytest.mark.slow
    def test_on_census6(self, census6):
        for rec in census6.records:
            assert_transform_laws(rec.nanoword)

    def test_on_random_words(self):
        rng = random.Random(2024)
        for n in range(10):
            for _ in range(300):
                assert_transform_laws(random_nanoword(rng, n))

    def test_entrywise_on_every_word_up_to_four_letters(self):
        # the laws before reduction and canonicalization: the image's
        # unreduced based matrix over the renaming of its normalization
        words = entries = 0
        for n in range(5):
            for w in cz.increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(w, "".join(bits))
                    B = based_matrix(nw)
                    for kind, expected in law_images(B).items():
                        # words.transform, keeping the renaming
                        word = nw.word if kind == MIRROR else nw.word[::-1]
                        types = nw.types if kind == MIRROR_INVERSE else "".join(map(flip_type, nw.types))
                        image, rename = normalize_increasing(Nanoword(word, types))
                        assert image == transform(nw, kind)
                        C = based_matrix(image)
                        at = [0] + [C.labels.index(rename[x]) for x in B.labels[1:]]
                        assert tuple(tuple(C.entries[i][j] for j in at) for i in at) == expected, (str(nw), kind)
                        entries += len(at) ** 2
                    words += 1
        assert (words, entries) == (1815, 132111)


class TestClassInvariance:
    def test_phi_constant_on_every_class_up_to_four_letters(self):
        # exhaustive: the canonical primitive based matrix is constant on
        # each shift/3-move class of every nanoword with up to 4 letters
        seen: dict = {}
        for n in range(5):
            for word in cz.increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(word, "".join(bits))
                    if nw in seen:
                        continue
                    members = mv.three_class(nw).members
                    phis = {string_phi(m) for m in members}
                    assert len(phis) == 1, (nw, sorted(map(str, members)))
                    for m in members:
                        seen[m] = True

    def test_u_constant_on_sampled_classes(self):
        rng = random.Random(616)
        for _ in range(40):
            nw = random_nanoword(rng, rng.choice([3, 4, 5]))
            members = mv.three_class(nw).members
            assert len({u_polynomial(m).coefficients for m in members}) == 1


class TestInsertionCompleteness:
    def test_instance_counts(self):
        rng = random.Random(92)
        for _ in range(30):
            nw = random_nanoword(rng, rng.choice([0, 1, 2, 3]))
            L = len(nw.word)
            ms = mv.applicable_moves(nw, kinds={"H1"}, allow_insertions=True)
            inserts = [m for m in ms if m.direction == "insert"]
            assert len(inserts) == 2 * (L + 1)
            ms = mv.applicable_moves(nw, kinds={"H2", "H2a"}, allow_insertions=True)
            inserts = [m for m in ms if m.direction == "insert"]
            assert len(inserts) == 2 * 2 * (L + 1) * (L + 2) // 2

    def test_inserted_instances_apply(self):
        rng = random.Random(93)
        for _ in range(20):
            nw = random_nanoword(rng, rng.choice([0, 1, 2]))
            for m in mv.applicable_moves(nw, mv.ALL_KINDS, allow_insertions=True):
                out = mv.apply_move(nw, m)
                for x in out.letters:
                    assert out.word.count(x) == 2
