"""Cross-checks between independent computation paths.

The linking layer (rotation simulation) and the based-matrix layer
(span sums of the loops plus reduction) are implemented separately;
these tests pin the identities that tie them together.
"""

import itertools
import random

import nanowords.census as cz
import nanowords.moves as mv
from nanowords.invariants import (
    based_matrix,
    reduce_based_matrix,
    string_phi,
    u_polynomial,
)
from nanowords.words import Nanoword

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

    def test_on_random_words(self):
        rng = random.Random(5150)
        for _ in range(400):
            nw = random_nanoword(rng, rng.choice([1, 2, 3, 4, 5, 6]))
            prim = reduce_based_matrix(based_matrix(nw))
            assert u_from_matrix(prim) == u_polynomial(nw).coefficients, nw


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
