import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import nanowords.census as cz
import nanowords.invariants as inv
import nanowords.moves as mv
from nanowords.invariants import (
    BasedMatrix,
    InvariantError,
    based_matrix,
    canonical_form,
    canonical_order,
    covering,
    covering_raw,
    display_theta,
    is_primitive,
    linking,
    m_profile,
    n_values,
    phi_string,
    reduce_based_matrix,
    string_phi,
    theta,
    theta_inverse,
    u_polynomial,
)
from nanowords.census import increasing_gauss_words
from nanowords.words import EMPTY, Nanoword, NanowordError, normalize_increasing, parse_nanoword

import golden
from conftest import random_nanoword
from test_words import nanowords


def simulate_linking(nw, x, y):
    """Independent shift-simulation oracle for lk."""
    sub = [c for c in nw.word if c in (x, y)]
    if x == y or sub not in ([x, y, x, y], [y, x, y, x]):
        return 0
    word = list(nw.word)
    types = dict(nw.type_map)
    while not (word[0] == x and types[x] == "a"):
        first = word.pop(0)
        word.append(first)
        types[first] = "b" if types[first] == "a" else "a"
    return 1 if types[y] == "a" else -1


def span_matrix(nw):
    """Independent oracle for the based matrix: the span sum of the
    ``invariants`` docstring, term by term over positions."""
    occ = [None] + [nw.occurrences(x) for x in nw.letters]
    eps = [0] + [1 if nw.type_of(x) == "a" else -1 for x in nw.letters]
    inside = [[1] * len(nw.word)] + [
        [int(x1 < p < x2 if e > 0 else p < x1 or p > x2) for p in range(len(nw.word))]
        for (x1, x2), e in zip(occ[1:], eps[1:])
    ]
    m = len(occ)
    b = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        g, h = inside[i], inside[j]
        v = eps[j] * (g[occ[j][0]] - g[occ[j][1]])
        for k in range(1, m):
            if k not in (i, j):
                z1, z2 = occ[k]
                v += eps[k] * (g[z1] * h[z2] - g[z2] * h[z1])
        b[i][j], b[j][i] = v, -v
    return tuple(tuple(row) for row in b)


@st.composite
def type_variants(draw, max_letters=12):
    """One Gauss word on any uppercase letters, under 1-4 type words.

    The variants share the invariants' per-word table, so an entry that
    kept a type would show as a wrong value on a later variant.
    """
    n = draw(st.integers(min_value=0, max_value=max_letters))
    alphabet = st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
    letters = draw(st.lists(alphabet, min_size=n, max_size=n, unique=True))
    word = "".join(draw(st.permutations(letters * 2)))
    types = draw(st.lists(st.text("ab", min_size=n, max_size=n), min_size=1, max_size=4))
    return [Nanoword(word, t) for t in types]


class TestLinking:
    def test_unlinked(self):
        assert linking(parse_nanoword("ABACBC:aab"), "A", "C") == 0

    def test_positive(self):
        nw = parse_nanoword("ABACBC:aab")
        assert linking(nw, "A", "B") == simulate_linking(nw, "A", "B") == 1

    def test_self_zero(self):
        assert linking(parse_nanoword("AA:a"), "A", "A") == 0

    def test_missing_letter(self):
        with pytest.raises(NanowordError):
            linking(parse_nanoword("AA:a"), "A", "B")

    def test_antisymmetry_random(self):
        rng = random.Random(2)
        for _ in range(150):
            nw = random_nanoword(rng, rng.choice([2, 3, 4, 5, 6]))
            lk = n_values(nw).lk
            for x, y in itertools.combinations(nw.letters, 2):
                assert linking(nw, x, y) == -linking(nw, y, x)
                assert linking(nw, x, y) == simulate_linking(nw, x, y) == lk[x][y]


class TestNValues:
    @pytest.mark.parametrize("text,expected", [(t, n) for t, n, *_ in golden.COVERING_EXAMPLES])
    def test_published_n_values(self, text, expected):
        assert n_values(parse_nanoword(text)).n == expected

    def test_empty(self):
        stats = n_values(EMPTY)
        assert stats.n == {} and stats.lk == {}

    def test_n_is_row_sum(self):
        rng = random.Random(9)
        for _ in range(60):
            nw = random_nanoword(rng, rng.choice([3, 4, 5]))
            stats = n_values(nw)
            for x in nw.letters:
                assert stats.n[x] == sum(stats.lk[x].values())
                assert stats.lk[x][x] == 0

    @settings(deadline=None)
    @given(type_variants())
    def test_table_matches_simulation(self, variants):
        for nw in variants:
            lk = n_values(nw).lk
            assert lk == {
                x: {y: simulate_linking(nw, x, y) for y in nw.letters} for x in nw.letters
            }


class TestUPolynomial:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ABACBC:aab", "-t^2+2t"),
            ("ABACBDCD:abab", "0"),
            ("ABACDBDC:aabb", "-t^3+3t"),
            ("0", "0"),
        ],
    )
    def test_examples(self, text, expected):
        assert str(u_polynomial(parse_nanoword(text))) == expected

    def test_census_column(self, census4):
        for rid, text, u, *_ in golden.TABLE1:
            assert str(u_polynomial(parse_nanoword(text))) == u

    @given(nanowords())
    def test_transform_laws(self, nw):
        # reversal negates the polynomial, a type swap leaves it alone
        from nanowords.words import transform

        u = u_polynomial(nw).as_dict()
        neg = {k: -c for k, c in u.items()}
        assert u_polynomial(transform(nw, "mirror")).as_dict() == u
        assert u_polynomial(transform(nw, "inverse")).as_dict() == neg
        assert u_polynomial(transform(nw, "mirror_inverse")).as_dict() == neg


class TestCovering:
    def test_published_examples(self):
        for text, _, raw, _, _ in golden.COVERING_EXAMPLES:
            assert str(covering_raw(parse_nanoword(text), 2)) == raw

    def test_identity_at_one(self):
        nw = parse_nanoword("BCBECE:aab")
        assert covering(nw, 1) is nw
        assert covering_raw(nw, 1) is nw

    def test_normalized_form(self):
        out = covering(parse_nanoword("ABACBDEDCE:baabb"), 2)
        assert str(out) == "ABACBC:aab"

    def test_bad_radius(self):
        with pytest.raises(InvariantError):
            covering_raw(EMPTY, 0)
        with pytest.raises(InvariantError):
            covering(EMPTY, 0)

    @settings(deadline=None)
    @given(type_variants())
    def test_table_matches_drop_then_normalize(self, variants):
        for nw in variants:
            n = {x: sum(simulate_linking(nw, x, y) for y in nw.letters) for x in nw.letters}
            for r in range(2, 14):
                kept = [x for x in nw.letters if n[x] % r == 0]
                dropped = Nanoword(
                    "".join(c for c in nw.word if c in kept),
                    "".join(nw.type_of(x) for x in kept),
                )
                assert covering(nw, r) == normalize_increasing(dropped)[0]

    def test_lk_and_coverings_pinned_on_every_word_up_to_five_letters(self):
        # The lk table and the 2..6-coverings of 32,055 nanowords, digested.
        lines = []
        for n in range(6):
            for w in increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(w, "".join(bits))
                    lk = n_values(nw).lk
                    rows = [[lk[x][y] for y in nw.letters] for x in nw.letters]
                    covers = [str(covering(nw, r)) for r in range(2, 7)]
                    lines.append(f"{nw} {rows} {covers}")
        assert len(lines) == 32055
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "8bb9eca7391cdc6de2617a115e1ddc2ea2241ed03963a83c76906a7332c758ff"


class TestBasedMatrix:
    def test_worked_example_realized(self):
        bm = based_matrix(parse_nanoword(golden.WORKED_EXAMPLE_REALIZED_BY))
        assert bm.labels == golden.WORKED_EXAMPLE_LABELS
        assert bm.entries == golden.WORKED_EXAMPLE_MATRIX

    def test_census_representative_is_relabelling(self):
        # the census word ABACBC:aab produces the same matrix with the
        # roles of A and C exchanged: an isomorphic based matrix
        bm = based_matrix(parse_nanoword("ABACBC:aab"))
        swap = {"s": "s", "A": "C", "B": "B", "C": "A"}
        reference = BasedMatrix(golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX)
        for g in bm.labels:
            for h in bm.labels:
                assert bm.b(g, h) == reference.b(swap[g], swap[h])
        assert canonical_form(bm) == canonical_form(reference)

    def test_empty(self):
        bm = based_matrix(EMPTY)
        assert bm.labels == ("s",) and bm.entries == ((0,),)

    def test_skew_and_column_consistency(self):
        rng = random.Random(4)
        for _ in range(80):
            nw = random_nanoword(rng, rng.choice([1, 2, 3, 4, 5, 6]))
            bm = based_matrix(nw)
            stats = n_values(nw)
            for i, g in enumerate(bm.labels):
                for j, h in enumerate(bm.labels):
                    assert bm.entries[i][j] == -bm.entries[j][i]
            for x in nw.letters:
                assert bm.b(x, "s") == stats.n[x]

    def test_pinned_on_every_word_up_to_five_letters(self):
        # Every entry of every matrix, digested: 32,055 nanowords.
        lines = [
            f"{nw} {based_matrix(nw).entries}"
            for n in range(6)
            for w in increasing_gauss_words(n)
            for bits in itertools.product("ab", repeat=n)
            for nw in [Nanoword(w, "".join(bits))]
        ]
        assert len(lines) == 32055
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4725a1e8bdb06e63a7368e2b9fd51f2f33ca9e58ec18aaf6ba465dc71be886bb"

    @settings(deadline=None)
    @given(type_variants())
    def test_table_matches_span_formula(self, variants):
        for nw in variants:
            bm = based_matrix(nw)
            assert bm.labels == ("s",) + nw.letters
            assert bm.entries == span_matrix(nw)

    def test_validation(self):
        with pytest.raises(InvariantError):
            BasedMatrix(("s", "A"), ((0, 1), (1, 0)))
        with pytest.raises(InvariantError):
            BasedMatrix(("A", "s"), ((0, 1), (-1, 0)))


class TestTheta:
    def test_sample(self):
        assert theta(golden.THETA_SAMPLE) == golden.THETA_SAMPLE_VALUE

    def test_trivial_sizes(self):
        assert theta(((0,),)) == ()
        assert theta(((0, -7), (7, 0))) == (7,)

    def test_not_skew(self):
        with pytest.raises(InvariantError):
            theta(((0, 1), (1, 0)))

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_bijection(self, size, data):
        entries = data.draw(
            st.lists(
                st.integers(min_value=-5, max_value=5),
                min_size=size * (size - 1) // 2,
                max_size=size * (size - 1) // 2,
            )
        )
        m = theta_inverse(tuple(entries), size)
        assert theta(m) == tuple(entries)


class TestMProfile:
    def setup_method(self):
        self.bm = BasedMatrix(golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX)

    def test_worked_profiles(self):
        assert m_profile(self.bm, "A") == (0, 2, 2, 1)
        assert m_profile(self.bm, "C") == (0, 2, 1, 1)
        assert m_profile(self.bm, "C") < m_profile(self.bm, "A")

    def test_zero_row(self):
        bm = BasedMatrix(
            ("s", "A", "B", "C"),
            ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        )
        assert m_profile(bm, "B") == (0, 3)

    def test_s_rejected(self):
        with pytest.raises(InvariantError):
            m_profile(self.bm, "s")


def reference_canonical(bm):
    """(phi, order, display) of ``bm``'s primitive by an explicit loop over
    every ordering of its elements.  An ordering is admissible when it
    keeps s first and the elements of equal (b(g, s), m-profile) in one
    block, blocks by ascending key.  The first admissible ordering gives
    the display tuple; the first strict minimum of theta gives phi and
    its order."""
    prim = reduce_based_matrix(bm)
    key = {g: (prim.b(g, "s"), m_profile(prim, g)) for g in prim.labels[1:]}
    blocks = sorted(key.values())
    display = best = None
    for perm in itertools.permutations(prim.labels[1:]):
        if [key[g] for g in perm] != blocks:
            continue
        order = ("s",) + perm
        t = theta([[prim.b(g, h) for h in order] for g in order])
        if display is None:
            display = t
        if best is None or t < best[0]:
            best = t, order
    return best[0], best[1], display


class TestCanonicalForm:
    def test_worked_example(self):
        bm = BasedMatrix(golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX)
        cf = canonical_form(bm)
        assert cf.phi == golden.WORKED_EXAMPLE_PHI
        assert cf.rho == 3
        assert canonical_order(bm) == golden.WORKED_EXAMPLE_ORDER

    def test_empty(self):
        cf = canonical_form(based_matrix(EMPTY))
        assert cf.rho == 0 and cf.phi == ()

    def test_phi_length(self):
        rng = random.Random(6)
        for _ in range(40):
            nw = random_nanoword(rng, rng.choice([2, 3, 4, 5]))
            cf = string_phi(nw)
            assert len(cf.phi) == cf.rho * (cf.rho + 1) // 2

    def test_reduced_census_entry(self):
        # a six-element matrix dropping to five elements
        bm = based_matrix(parse_nanoword("ABABCDCEDE:bbaba"))
        assert bm.size == 6 and not is_primitive(bm)
        prim = reduce_based_matrix(bm)
        assert prim.size == 5 and is_primitive(prim)
        cf = canonical_form(bm)
        assert cf.rho == 4
        assert cf == canonical_form(based_matrix(parse_nanoword("ABABCDCD:aabb")))

    def test_canonical_matches_reference_on_seeded_matrices(self):
        rng = random.Random(12)
        for _ in range(150):
            size = rng.choice([2, 3, 4, 5])
            m = [[0] * size for _ in range(size)]
            for j in range(size):
                for i in range(j + 1, size):
                    v = rng.randint(-2, 2)
                    m[i][j], m[j][i] = v, -v
            bm = BasedMatrix(
                tuple(["s"] + [f"e{i}" for i in range(1, size)]),
                tuple(tuple(row) for row in m),
            )
            cf, order, display = inv._canonical(bm)
            assert (cf.phi, order, display) == reference_canonical(bm)

    @settings(deadline=None)
    @given(type_variants())
    def test_display_is_stable_class_sort(self, variants):
        # the display tuple is theta of the primitive with its elements
        # stably sorted by (b(g, s), m-profile)
        for nw in variants:
            bm = based_matrix(nw)
            prim = reduce_based_matrix(bm)
            order = ["s"] + sorted(
                prim.labels[1:], key=lambda g: (prim.b(g, "s"), m_profile(prim, g))
            )
            expected = theta([[prim.b(g, h) for h in order] for g in order])
            assert display_theta(bm) == expected

    def test_display_agrees_except_known_entry(self, census4):
        # the class-sorted display arrangement equals the canonical minimum
        # on every census entry except 4.1, whose published tuple is not
        # the within-class minimum of its (isomorphism class of) matrix
        for rec in census4.records:
            if rec.id == "4.1":
                assert rec.phi < rec.phi_display
                assert rec.phi == (-1, -1, 1, 1, 0, 0, 1, 1, 0, 0)
                assert rec.phi_display == (-1, -1, 1, 1, 0, 1, 0, 0, 1, 0)
            else:
                assert rec.phi == rec.phi_display

    def test_display_differs_only_on_tied_classes(self, census5):
        # up to 5 crossings display and phi differ on six records, and each
        # one's primitive matrix has an element class of two or more: the
        # only case in which the class orderings are enumerated
        differ = [r for r in census5.records if r.phi != r.phi_display]
        assert [r.id for r in differ] == ["4.1", "5.16", "5.21", "5.136", "5.141", "5.156"]
        for rec in differ:
            prim = reduce_based_matrix(based_matrix(rec.nanoword))
            assert max(map(len, inv._element_classes(prim))) >= 2, rec.id

    def test_canonical_matches_search_on_census(self, census5):
        # _canonical enumerates no orderings when every class is a singleton
        for rec in census5.records:
            bm = based_matrix(rec.nanoword)
            cf, order, display = inv._canonical(bm)
            assert (cf.phi, order, display) == reference_canonical(bm), rec.id

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_canonical_matches_search_on_random_matrices(self, size, data):
        # small entries, so that primitive matrices often have tied classes
        entries = data.draw(
            st.lists(
                st.integers(min_value=-1, max_value=1),
                min_size=size * (size - 1) // 2,
                max_size=size * (size - 1) // 2,
            )
        )
        labels = ("s",) + tuple(f"e{i}" for i in range(1, size))
        bm = BasedMatrix(labels, theta_inverse(tuple(entries), size))
        prim = reduce_based_matrix(bm)
        cf, order, display = inv._canonical(bm)
        assert (cf.phi, order, display) == reference_canonical(bm)
        assert cf.rho == prim.size - 1 and cf.phi <= display

    def test_orderings_bounded_by_max_steps(self):
        # two copies of ABACBC:aab keep three tied classes of two elements:
        # 2!^3 = 8 orderings, enumerated under a bound of 8 and refused,
        # before any is tried, under 7
        bm = based_matrix(parse_nanoword("ABACBCDEDFEF:aabaab"))
        assert inv._canonical(bm, mv.Limits(max_steps=8)) == inv._canonical(bm)
        with pytest.raises(mv.TruncationError) as err:
            inv._canonical(bm, mv.Limits(max_steps=7))
        assert err.value.limit == "steps"
        assert str(err.value) == "phi's 8 orderings exceeded max_steps=7"
        assert err.value.partial is None
        # a word outside the census, as a covering's reduction in ``separate``
        with pytest.raises(mv.TruncationError):
            cz.CensusTable().phi_of(parse_nanoword("ABACBCDEDFEF:aabaab"), mv.Limits(max_steps=7))

    @pytest.mark.slow
    def test_pinned_at_seven_crossings(self):
        # rho, phi, its order and the display tuple of the 182,149 depth-7
        # survivors, streamed
        digest, lines = hashlib.sha256(), 0
        for s, _ in cz._survivors(7, mv.Limits()):
            nw = mv._decode(s)
            cf, order, display = inv._canonical(based_matrix(nw))
            digest.update(f"{nw} {cf.rho} {phi_string(cf.phi)} {','.join(order)} {phi_string(display)}\n".encode())
            lines += 1
        assert lines == 182149
        assert digest.hexdigest() == "1831ef0eba7ce005b49b98d9de6acde00642df063803ca7fc95341dc55cfaf5d"


def literal_candidates(bm):
    """The reduction moves as defined: R1 b(g, .) = 0, R2 b(g, .) = b(s, .),
    R3 b(g1, h) + b(g2, h) = b(s, h) for every h in G."""
    G, b = bm.labels, bm.b
    singles = [
        (g,) for g in G[1:]
        if all(b(g, h) == 0 for h in G) or all(b(g, h) == b("s", h) for h in G)
    ]
    pairs = [
        (g1, g2) for g1, g2 in itertools.combinations(G[1:], 2)
        if all(b(g1, h) + b(g2, h) == b("s", h) for h in G)
    ]
    return singles + pairs


def planted_matrix(rng, size):
    """A random skew-symmetric matrix over s, e1, ... with some elements
    planted to satisfy R1, R2 or R3."""
    m = [[0] * size for _ in range(size)]
    for i, j in itertools.combinations(range(size), 2):
        m[i][j] = rng.randint(-2, 2)
        m[j][i] = -m[i][j]

    def put(i, j, v):
        m[i][j], m[j][i] = v, -v

    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["R1", "R2", "R3"])
        if kind == "R1" and size > 1:
            g = rng.randrange(1, size)
            for h in range(size):
                put(g, h, 0)
        elif kind == "R2" and size > 1:
            g = rng.randrange(1, size)
            put(0, g, 0)
            for h in range(1, size):
                if h != g:
                    put(g, h, m[0][h])
        elif kind == "R3" and size > 2:
            g1, g2 = rng.sample(range(1, size), 2)
            for h in range(size):
                if h not in (g1, g2):
                    put(g2, h, m[0][h] - m[g1][h])
            put(g1, g2, m[g1][0])
    labels = ("s",) + tuple(f"e{i}" for i in range(1, size))
    return BasedMatrix(labels, tuple(map(tuple, m)))


def test_reduction_candidates_match_definition():
    rng = random.Random(17)
    seen = {1: 0, 2: 0}
    for _ in range(3000):
        bm = planted_matrix(rng, rng.randint(1, 7))
        found = inv._reduction_candidates(bm)
        assert found == literal_candidates(bm), bm
        for c in found:
            seen[len(c)] += 1
    # the planted elements are found: many R1/R2 singles and R3 pairs
    assert seen[1] > 1000 and seen[2] > 500, seen


class TestReduction:
    def test_moves_never_touch_s(self):
        rng = random.Random(13)
        for _ in range(60):
            nw = random_nanoword(rng, rng.choice([4, 5, 6]))
            prim = reduce_based_matrix(based_matrix(nw))
            assert prim.labels[0] == "s"

    def test_order_independence_on_reduced_entries(self):
        words5 = [
            m
            for members, _, _ in golden.TABLE5
            for m in members
            if parse_nanoword(m).crossings == 5
        ]
        assert len(words5) == 12
        rng = random.Random(99)
        for text in words5:
            bm = based_matrix(parse_nanoword(text))
            reference = canonical_form(bm)
            for _ in range(20):
                prim = reduce_based_matrix(bm, rng=rng)
                assert is_primitive(prim)
                assert canonical_form(prim) == reference

    def test_reduction_validates_only_the_primitive(self, census5, monkeypatch):
        # the same moves as a chain of ``drop`` calls, in both orders, with
        # at most one validated matrix beyond the input, on every census5
        # word, on its 2- and 3-coverings, which mostly reduce, and on
        # planted matrices, where the order of the moves shows
        def drop_chain(bm, rng):
            while found := inv._reduction_candidates(bm):
                bm = bm.drop(set(found[0] if rng is None else found[rng.randrange(len(found))]))
            return bm

        validate, built = BasedMatrix.__post_init__, []
        monkeypatch.setattr(BasedMatrix, "__post_init__", lambda bm: built.append(bm) or validate(bm))
        words = [r.nanoword for r in census5.records] + [m for g in census5.unresolved for m in g.members]
        assert len(words) == 436
        rng = random.Random(18)
        matrices = [based_matrix(covering(nw, r)) for nw in words for r in (1, 2, 3)]
        matrices += [planted_matrix(rng, rng.randint(2, 7)) for _ in range(1000)]
        chains = 0
        for seed, bm in enumerate(matrices):
            for order in (None, random.Random(seed)):
                want = drop_chain(bm, order and random.Random(seed))
                del built[:]
                assert reduce_based_matrix(bm, order) == want, bm
                assert len(built) <= 1
                chains += bm.size - want.size > 1
        assert chains > 1000

    def test_primitive_fixed_point(self):
        bm = BasedMatrix(golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX)
        assert is_primitive(bm)
        assert reduce_based_matrix(bm) == bm
        trivial = based_matrix(EMPTY)
        assert reduce_based_matrix(trivial) == trivial


class TestHomotopyInvariance:
    def test_phi_stable_under_moves(self):
        import nanowords.moves as mv

        rng = random.Random(21)
        for text in ("ABACBC:aab", "ABABCDCD:aabb", "ABCADCBD:aaab"):
            nw = parse_nanoword(text)
            reference = string_phi(nw)
            uref = u_polynomial(nw)
            for _ in range(40):
                cur = nw
                for _ in range(rng.randint(1, 5)):
                    ms = mv.applicable_moves(cur, mv.ALL_KINDS, allow_insertions=True)
                    ms = [
                        m
                        for m in ms
                        if not (
                            m.direction == "insert"
                            and cur.crossings
                            + (1 if m.kind == "H1" else 2)
                            > nw.crossings + 2
                        )
                    ]
                    cur = mv.apply_move(cur, rng.choice(ms))
                assert string_phi(cur) == reference
                assert u_polynomial(cur) == uref
