import collections
import hashlib
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import nanowords.moves as mv
from nanowords.census import _gauss_words, candidates, increasing_gauss_words
from nanowords.moves import (
    ALL_KINDS,
    H3_KINDS,
    MoveError,
    MoveInstance,
    TruncationError,
    _decode,
    _encode,
    _escape_successors,
    _first_removal,
    _h3_matches,
    _neighbors,
    _reducible_state,
    _removable_letters,
    _removals,
    _transform_state,
    _without,
    _word_table,
    applicable_moves,
    apply_move,
    is_reducible,
    reduce_to_irreducible,
    shift_rotate,
    three_class,
)
from nanowords.words import (
    _ALPHA,
    EMPTY,
    TRANSFORM_KINDS,
    Nanoword,
    NanowordError,
    normalize_increasing,
    parse_nanoword,
    transform,
)

from conftest import clear_class_memo, disguise, random_nanoword, random_renaming
from test_words import nanowords


# --- independent oracles -------------------------------------------------

H3_SHAPES = [
    ("H3", "forward", "ABACBC", lambda a, b, c: a == b == c),
    ("H3", "backward", "BACACB", lambda a, b, c: a == b == c),
    ("H3a", "forward", "ABCABC", lambda a, b, c: a == c != b),
    ("H3a", "backward", "BAACCB", lambda a, b, c: a == c != b),
    ("H3b", "forward", "ABCACB", lambda a, b, c: a == b != c),
    ("H3b", "backward", "BAACBC", lambda a, b, c: a == b != c),
    ("H3c", "forward", "ABACCB", lambda a, b, c: b == c != a),
    ("H3c", "backward", "BACABC", lambda a, b, c: b == c != a),
]


def brute_h3_matches(nw):
    """Literal-schema matcher: the letter roles at the six pattern slots."""
    w = nw.word
    out = set()
    for p in range(len(w) - 1):
        for q in range(p + 2, len(w) - 1):
            for r in range(q + 2, len(w) - 1):
                slots = (w[p], w[p + 1], w[q], w[q + 1], w[r], w[r + 1])
                for kind, direction, shape, pred in H3_SHAPES:
                    roles = {}
                    ok = True
                    for ch, role in zip(slots, shape):
                        if roles.setdefault(role, ch) != ch:
                            ok = False
                            break
                    if not ok or len(set(roles.values())) != 3:
                        continue
                    ts = tuple(nw.type_of(roles[k]) for k in "ABC")
                    if pred(*ts):
                        out.add((kind, direction, p, q, r))
    return out


def brute_reducible(nw):
    w = nw.word
    for x in nw.letters:
        i, j = nw.occurrences(x)
        if j == i + 1:
            return True
    for x, y in itertools.permutations(nw.letters, 2):
        if nw.type_of(x) == nw.type_of(y):
            continue
        xi = nw.occurrences(x)
        yi = nw.occurrences(y)
        if yi[0] == xi[0] + 1 and yi[1] in (xi[1] - 1, xi[1] + 1):
            return True
    return False


# --- shift ---------------------------------------------------------------


class TestShift:
    def test_raw_rotation(self):
        out = shift_rotate(parse_nanoword("ABACBC:aab"))
        assert str(out) == "BACBCA:bab"
        assert out.type_of("A") == "b"

    def test_single_letter(self):
        assert str(shift_rotate(parse_nanoword("AA:a"))) == "AA:b"

    def test_normalized_rotation(self):
        out, _ = normalize_increasing(shift_rotate(parse_nanoword("ABACBC:aab")))
        assert str(out) == "ABCACB:abb"

    def test_empty_rejected(self):
        with pytest.raises(NanowordError):
            shift_rotate(EMPTY)

    @given(nanowords(max_letters=5))
    def test_full_orbit_returns(self, nw):
        if not nw.word:
            return
        cur = nw
        for _ in range(len(nw.word)):
            cur = shift_rotate(cur)
        assert cur == nw


class TestStateEncoding:
    def test_layout(self):
        # letter k's type is bit n-1-k of the mask, 1 = b
        assert _encode(parse_nanoword("ABAB:ab")) == ((0, 1, 0, 1), 0b01)

    def test_state_order_is_nanoword_order(self):
        nws = [
            Nanoword(w, "".join(bits))
            for n in range(5)
            for w in increasing_gauss_words(n)
            for bits in itertools.product("ab", repeat=n)
        ]
        random.Random(3).shuffle(nws)
        assert [_decode(s) for s in sorted(map(_encode, nws))] == sorted(nws)

    def test_round_trip_is_increasing_normal_form(self):
        rng = random.Random(13)
        for n in [*range(27), *(rng.randint(0, 26) for _ in range(100))]:
            nw = random_renaming(rng, random_nanoword(rng, n))
            assert _decode(_encode(nw)) == normalize_increasing(nw)[0], nw

    def test_encode_matches_letter_table_reference(self):
        # the one-pass encoding against one built from the type map, on
        # every nanoword of up to 5 letters as written and renamed into
        # A-Z with Z among the letters, and on one word of 26 letters
        def reference(nw):
            return mv._norm(nw.word, {x: t == "b" for x, t in nw.type_map.items()})

        def renamed(nw):
            letters = ["Z", *rng.sample(_ALPHA[:-1], nw.crossings - 1)] if nw.word else []
            rng.shuffle(letters)
            rename = dict(zip(nw.letters, letters))
            types = dict(zip(letters, nw.types))
            return Nanoword("".join(map(rename.get, nw.word)), "".join(types[x] for x in sorted(types)))

        rng = random.Random(29)
        checked = 0
        for n in range(6):
            for w in increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(w, "".join(bits))
                    other = renamed(nw)
                    assert "Z" in other.word or not nw.word
                    assert _encode(nw) == reference(nw), nw
                    assert _encode(other) == reference(other) == _encode(nw), other
                    checked += 1
        assert checked == 32055
        big = random_renaming(rng, random_nanoword(rng, 26))
        assert _encode(big) == reference(big)

    def test_decode_matches_generator_reference(self):
        def reference(state):
            return Nanoword(
                "".join(_ALPHA[x] for x in state[0]),
                "".join("b" if t else "a" for t in mv._types(state)),
            )

        states = [(w, m) for n in range(6) for w in _gauss_words(n, False) for m in range(1 << n)]
        assert len(states) == 32055
        for s in states:
            assert _decode(s) == reference(s), s
        assert str(_decode(((), 0))) == "0"


class TestTransformState:
    @given(nanowords(max_letters=6), st.sampled_from(TRANSFORM_KINDS))
    def test_matches_word_transform(self, nw, kind):
        assert _decode(_transform_state(_encode(nw), kind)) == transform(nw, kind)


# --- pattern matching ----------------------------------------------------


class TestApplicable:
    def test_h2_on_abba(self):
        ms = applicable_moves(parse_nanoword("ABBA:ab"), kinds={"H2"})
        assert len(ms) == 1
        assert ms[0].kind == "H2" and ms[0].letters == ("A", "B")

    def test_census_word_has_no_removals(self):
        assert applicable_moves(parse_nanoword("ABACBC:aab"), kinds={"H1", "H2", "H2a"}) == []

    def test_two_h1_instances(self):
        ms = applicable_moves(parse_nanoword("AABB:ab"), kinds={"H1"})
        assert len(ms) == 2
        assert {m.letters[0] for m in ms} == {"A", "B"}

    def test_shift_single_instance(self):
        ms = applicable_moves(parse_nanoword("ABAB:ab"), kinds={"shift"})
        assert len(ms) == 1
        assert ms[0].kind == "shift"

    def test_h2a_needs_opposite_types(self):
        assert applicable_moves(parse_nanoword("ABAB:aa"), kinds={"H2a"}) == []
        assert len(applicable_moves(parse_nanoword("ABAB:ab"), kinds={"H2a"})) == 1

    @given(nanowords(max_letters=6))
    @example(parse_nanoword("ABCADCBD:aaba"))  # H3 and H3b at p = 0
    @example(parse_nanoword("ABCADEDBCE:ababa"))  # H3a and H3c at p = 0
    @settings(max_examples=300)
    def test_h3_matcher_against_brute(self, nw):
        mine = {
            (m.kind, m.direction, *m.positions)
            for m in applicable_moves(nw, kinds={"H3", "H3a", "H3b", "H3c"})
        }
        assert mine == brute_h3_matches(nw)
        # the state matcher lists each match once, by p and then by schema
        # in H3_KINDS order: the successor order the searches rely on
        raw = _h3_matches(_encode(nw))
        assert set(raw) == mine and len(raw) == len(mine)
        assert raw == sorted(raw, key=lambda m: (m[2], H3_KINDS.index(m[0])))

    @given(nanowords(max_letters=5))
    @settings(max_examples=300)
    def test_reducibility_against_brute(self, nw):
        assert is_reducible(nw) == brute_reducible(nw)


class TestApply:
    def test_h2_to_empty(self):
        nw = parse_nanoword("ABBA:ab")
        (m,) = applicable_moves(nw, kinds={"H2"})
        assert apply_move(nw, m) == EMPTY

    def test_h3_pair_reversal(self):
        # xAByACzBCt with everything of one type: pairs reverse in place
        nw = parse_nanoword("ABACBC:aaa")
        ms = [m for m in applicable_moves(nw, kinds={"H3"}) if m.direction == "forward"]
        assert len(ms) == 1
        out = apply_move(nw, ms[0])
        raw = "BACACB"
        expected, _ = normalize_increasing(Nanoword(raw, "aaa"))
        assert out == expected

    def test_stale_instance(self):
        nw = parse_nanoword("ABBA:ab")
        (m,) = applicable_moves(nw, kinds={"H2"})
        with pytest.raises(MoveError):
            apply_move(parse_nanoword("ABAB:ab"), m)

    @pytest.mark.parametrize(
        "text,move",
        [
            # H1 at the last position would read past the end of the word
            ("ABAB:ab", MoveInstance("H1", "remove", (3,), ("B",))),
            ("ABAB:ab", MoveInstance("H1", "remove", (), ("A",))),
            ("ABBA:ab", MoveInstance("H1", "remove", (1, 2), ())),
            ("ABBA:ab", MoveInstance("H1", "remove", (1, 3), ("B",))),
            ("ABBA:ab", MoveInstance("H2", "remove", (0, 1), ("A", "B"))),
            ("ABAB:ab", MoveInstance("H2a", "remove", (0, 1, 2), ("A", "B"))),
            ("ABBA:ab", MoveInstance("H2", "remove", (0, 1, 2, 3), ("A",))),
            ("ABBA:ab", MoveInstance("H2", "remove", (0, 1, 2, 3), ("A", "C"))),
            # insertions: wrong counts of sites, letters or types, a bad type,
            # a repeated letter
            ("ABAB:ab", MoveInstance("H1", "insert", (0, 1), ("C",), ("a",))),
            ("ABAB:ab", MoveInstance("H1", "insert", (0,), ("C",), ())),
            ("ABAB:ab", MoveInstance("H1", "insert", (0,), ("C",), ("c",))),
            ("ABAB:ab", MoveInstance("H2", "insert", (0, 1), ("C", "D"), ("a",))),
            ("ABAB:ab", MoveInstance("H2", "insert", (0,), ("C", "D"), ("a", "b"))),
            ("ABAB:ab", MoveInstance("H2a", "insert", (0, 1), ("C", "C"), ("a", "b"))),
        ],
    )
    def test_malformed_removal(self, text, move):
        with pytest.raises(MoveError):
            apply_move(parse_nanoword(text), move)

    def test_state_successors_match_public_moves(self):
        # the search successors on encoded states are the public moves,
        # insertions limited to the same letter budget, in the same order
        rng = random.Random(7)
        for _ in range(150):
            nw = random_nanoword(rng, rng.randint(0, 4))
            max_letters = nw.crossings + rng.randint(0, 2)
            expected = [
                _encode(apply_move(nw, m))
                for m in applicable_moves(nw, ALL_KINDS, allow_insertions=True)
                if m.direction != "insert"
                or nw.crossings + len(m.letters) <= max_letters
            ]
            assert _escape_successors(_encode(nw), max_letters) == expected, nw

    def test_state_moves_match_public_moves_on_long_words(self):
        # the lengths identify queries and a 7-crossing search reach, and
        # words whose 2^n type assignments no structure could hold
        rng = random.Random(71)
        for _ in range(200):
            nw = random_nanoword(rng, rng.randint(7, 20))
            s = _encode(nw)
            moved = applicable_moves(nw, {"shift", *H3_KINDS})
            assert {(m.kind, m.direction, *m.positions) for m in moved[1:]} == brute_h3_matches(nw)
            assert _neighbors(s) == [_encode(apply_move(nw, m)) for m in moved], nw
            assert _reducible_state(s) == is_reducible(nw), nw
            for kind in TRANSFORM_KINDS:
                assert _decode(_transform_state(s, kind)) == transform(nw, kind), (nw, kind)

    def test_state_moves_pinned_on_every_word_up_to_five_letters(self):
        # shift, 3-move successors, removals and transforms of all 32,055
        # states of at most five letters, adjacent doubles included, hashed
        # as nanoword text so the pin does not depend on how a state is
        # encoded; the reducibility test agrees with the removals on each
        lines = []
        for n in range(6):
            for w in increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    s = _encode(Nanoword(w, "".join(bits)))
                    assert _reducible_state(s) == bool(list(_removable_letters(s))), s
                    texts = [
                        [_decode(t) for t in ts]
                        for ts in (
                            [s],
                            _neighbors(s),
                            _removals(s),
                            [_transform_state(s, k) for k in TRANSFORM_KINDS],
                        )
                    ]
                    lines.append(f"{texts} {list(_removable_letters(s))}")
        assert len(lines) == 32055
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "95617df260b4f079200174bc96fca34574cbca3afcdcae206e7f647d0acbdf6a"

    def test_letter_count_deltas(self):
        rng = random.Random(11)
        for _ in range(200):
            nw = random_nanoword(rng, rng.choice([2, 3, 4]))
            for m in applicable_moves(nw, ALL_KINDS, allow_insertions=True):
                out = apply_move(nw, m)
                delta = out.crossings - nw.crossings
                if m.kind == "shift" or m.kind.startswith("H3"):
                    assert delta == 0
                elif m.kind == "H1":
                    assert delta == (1 if m.direction == "insert" else -1)
                else:
                    assert delta == (2 if m.direction == "insert" else -2)

    def test_removal_insertion_undo(self):
        # removing a pattern and re-inserting it at the vacated sites gives
        # back an isomorphic nanoword
        rng = random.Random(23)
        checked = 0
        while checked < 120:
            nw = random_nanoword(rng, rng.choice([2, 3, 4]))
            for m in applicable_moves(nw, kinds={"H1", "H2", "H2a"}):
                out = apply_move(nw, m)
                if m.kind == "H1":
                    p = m.positions[0]
                    sites, types = (p,), (nw.type_of(m.letters[0]),)
                elif m.kind == "H2":
                    p, q = m.positions[0], m.positions[3]
                    sites = (p, q - 3)
                    types = tuple(nw.type_of(x) for x in m.letters)
                else:
                    p, q = m.positions[0], m.positions[2]
                    sites = (p, q - 2)
                    types = tuple(nw.type_of(x) for x in m.letters)
                back = [
                    i
                    for i in applicable_moves(out, kinds={m.kind}, allow_insertions=True)
                    if i.direction == "insert" and i.positions == sites and i.new_types == types
                ]
                assert back, (nw, m)
                restored = apply_move(out, back[0])
                assert restored == normalize_increasing(nw)[0]
                checked += 1

    def test_h3_undo(self):
        rng = random.Random(31)
        checked = 0
        while checked < 150:
            nw = random_nanoword(rng, rng.choice([3, 4, 5]))
            for m in applicable_moves(nw, kinds={"H3", "H3a", "H3b", "H3c"}):
                out = apply_move(nw, m)
                # the reverse instance sits at the same pair positions
                rev = [
                    i
                    for i in applicable_moves(out, kinds={m.kind})
                    if i.positions == m.positions and i.direction != m.direction
                ]
                assert rev
                assert apply_move(out, rev[0]) == normalize_increasing(nw)[0]
                checked += 1


class TestWordTables:
    def test_word_table_decides_as_public_removals(self):
        # the walk tests reducibility by a word's table, everything else
        # by the table-free scan: on a random type mask both decide as the
        # public removals do
        rng = random.Random(16)
        words = [_encode(Nanoword(w, "a" * n))[0] for n in range(6) for w in increasing_gauss_words(n)]
        words += [_encode(random_nanoword(rng, rng.randint(7, 20)))[0] for _ in range(200)]
        assert len(words) == 1070 + 200
        for word in words:
            table = _word_table.__wrapped__(word)
            s = (word, rng.getrandbits(len(word) // 2))
            reducible = is_reducible(_decode(s))
            assert _reducible_state(s, lambda w: table) == (_first_removal(s) is not None) == reducible, s

    @pytest.mark.parametrize("text", ["ABBA:ab", "ABAB:ba", "ABCDDCBA:abab", "ABCDCDAB:abab"])
    def test_reducible_starts_build_no_move_table(self, text):
        # every start on the way down is reducible, so each round scans
        # its start and removes on the spot: with the empty word's class
        # filed, no word table is built or even read
        reduce_to_irreducible(EMPTY)
        before = _word_table.cache_info()
        assert reduce_to_irreducible(parse_nanoword(text)) == EMPTY
        assert _word_table.cache_info() == before


def _removal_agreement(max_letters):
    """Check the table-free removal against the tables on every state of
    at most ``max_letters`` letters, and count the states."""
    count = 0
    for n in range(max_letters + 1):
        for word in _gauss_words(n, False):
            for m in range(1 << n):
                s = (word, m)
                removable = _removable_letters(s)
                assert _first_removal(s) == (removable[0] if removable else None), s
                for letters in removable:
                    # the reference renumbering: drop, then renormalize
                    want = mv._norm([x for x in word if x not in letters], mv._types(s))
                    assert _without(s, letters) == want, (s, letters)
                count += 1
    return count


class TestFirstRemoval:
    def test_agrees_with_tables_up_to_five_letters(self):
        assert _removal_agreement(5) == 32055

    @pytest.mark.slow
    def test_agrees_with_tables_up_to_six_letters(self):
        assert _removal_agreement(6) == 697335


# --- 3-classes -----------------------------------------------------------


class TestThreeClass:
    def test_empty(self):
        tc = three_class(EMPTY)
        assert tc.members == frozenset({EMPTY})
        assert not tc.reducible and not tc.truncated

    def test_single_letter(self):
        tc = three_class(parse_nanoword("AA:a"))
        assert {str(m) for m in tc.members} == {"AA:a", "AA:b"}
        assert tc.reducible

    def test_census_string(self):
        tc = three_class(parse_nanoword("ABACBC:aab"))
        assert str(tc.min_member) == "ABACBC:aab"
        assert not tc.reducible

    def test_membership_exploration_independent(self):
        rng = random.Random(3)
        for _ in range(25):
            nw = random_nanoword(rng, rng.choice([2, 3]))
            members = three_class(nw).members
            for m in members:
                assert three_class(m).members == members

    def test_reducible_by_its_members_up_to_four_letters(self, monkeypatch):
        # a class is reducible iff a member it admitted is, also when a
        # limit cut it short; its members are scanned, so a word table is
        # built only for a word whose state it expanded
        expanded = set()
        expand = mv._neighbors

        def neighbors(s):
            expanded.add(s[0])
            return expand(s)

        monkeypatch.setattr(mv, "_neighbors", neighbors)
        words = [
            Nanoword(w, "".join(bits))
            for n in range(5)
            for w in increasing_gauss_words(n)
            for bits in itertools.product("ab", repeat=n)
        ]
        assert len(words) == 1815
        for limits in ({}, {"max_members": 2}, {"max_steps": 3}):
            seen = collections.Counter()
            for nw in words:
                expanded.clear()
                _word_table.cache_clear()
                tc = three_class(nw, **limits)
                assert tc.reducible == any(is_reducible(m) for m in tc.members), (nw, limits)
                built = _word_table.cache_info()
                assert built.currsize == built.misses == len(expanded - {()}), (nw, limits)
                seen[tc.reducible, tc.truncated] += 1
            assert seen[False, False] and seen[True, False], limits
            assert bool(limits) == bool(seen[False, True] and seen[True, True]), limits

    def test_truncation_reported(self):
        tc = three_class(parse_nanoword("ABACBC:aab"), max_members=2)
        assert tc.truncated and tc.limit_hit == "members"
        tc = three_class(parse_nanoword("ABACBC:aab"), max_steps=3)
        assert tc.truncated and tc.limit_hit == "steps"

    def test_reduce_truncation_carries_partial(self):
        with pytest.raises(TruncationError) as err:
            reduce_to_irreducible(parse_nanoword("ABACBC:aab"), max_steps=2)
        assert err.value.partial is not None
        assert err.value.limit == "steps"
        assert "max_steps=2" in str(err.value)

    @pytest.mark.parametrize(
        "search",
        [
            lambda m: three_class(parse_nanoword("ABACBC:aab"), max_members=m).limit_hit,
            lambda m: reduce_to_irreducible(parse_nanoword("ABACBC:aab"), max_members=m) and None,
            lambda m: candidates(3, max_members=m) and None,
        ],
        ids=["three_class", "reduce_to_irreducible", "candidates"],
    )
    def test_member_limit_counts_distinct_states(self, search):
        # the 3-class of ABACBC:aab has exactly 6 members
        def limit_hit(max_members):
            try:
                return search(max_members)
            except TruncationError as err:
                assert "max_members=5" in str(err)
                return err.limit

        assert limit_hit(6) is None
        assert limit_hit(5) == "members"

    def test_stale_h3_instance(self):
        nw = parse_nanoword("ABACBC:aaa")
        (m,) = [
            i for i in applicable_moves(nw, kinds={"H3"}) if i.direction == "forward"
        ]
        with pytest.raises(MoveError):
            apply_move(parse_nanoword("ABACBC:aab"), m)


class TestReduce:
    def test_examples(self):
        assert reduce_to_irreducible(parse_nanoword("BCDCDB:baa")) == EMPTY
        assert str(reduce_to_irreducible(parse_nanoword("BCBECE:aab"))) == "ABACBC:aab"
        assert reduce_to_irreducible(parse_nanoword("ABBA:ab")) == EMPTY

    def test_already_irreducible(self):
        assert str(reduce_to_irreducible(parse_nanoword("ABACBC:abb"))) == "ABACBC:abb"

    def test_insertion_search_truncation(self):
        # ABACBC:aab is irreducible, so the insertion search runs, and its
        # move graph within one extra letter holds more than 20 states
        with pytest.raises(TruncationError) as err:
            reduce_to_irreducible(parse_nanoword("ABACBC:aab"), max_extra_letters=1, max_members=20)
        assert err.value.limit == "members"
        assert str(err.value) == "insertion search from ABACBC:aab exceeded max_members=20"

    def test_truncation_same_on_a_warm_memo(self):
        # ABACBC:aab is irreducible, and its 3-class has 6 members with one
        # step each; a class its search filed answers only under limits
        # that a fresh search would not hit, so every error is unchanged
        nw = parse_nanoword("ABACBC:aab")

        def outcome(limits):
            try:
                return str(reduce_to_irreducible(nw, **limits))
            except TruncationError as err:
                return err.limit, str(err), err.partial

        grid = [{}, *({"max_members": m} for m in range(1, 9)), *({"max_steps": s} for s in range(1, 9))]
        grid += [{"max_members": m, "max_steps": s} for m, s in itertools.product(range(1, 9), repeat=2)]
        for limits in grid:
            members, steps = limits.get("max_members", 10**6), limits.get("max_steps", 10**7)
            if members >= 6 and steps >= 6:
                want = "ABACBC:aab"
            else:
                limit, value = ("members", members) if members < 6 and members <= steps else ("steps", steps)
                want = limit, f"3-class of ABACBC:aab exceeded max_{limit}={value}", nw
            clear_class_memo()
            cold = outcome(limits)
            reduce_to_irreducible(nw)
            assert _encode(nw) in mv._CLASS_MEMO
            assert outcome(limits) == cold == want, limits

    def test_memo_holds_whole_classes_within_its_cap(self, monkeypatch):
        # the irreducible 3-classes of the 5-crossing candidates have 2 to
        # 30 members; under a cap of 25 states the memo is cleared many
        # times and never files the classes that alone pass it
        monkeypatch.setattr(mv, "_CLASS_MEMO_SIZE", 25)
        clear_class_memo()
        sizes, cleared = [], 0
        for nw in candidates(5):
            before = len(mv._CLASS_MEMO)
            assert reduce_to_irreducible(nw) == nw
            cleared += len(mv._CLASS_MEMO) < before
            assert len(mv._CLASS_MEMO) <= 25
            classes = collections.defaultdict(set)
            for s, entry in mv._CLASS_MEMO.items():
                classes[entry].add(s)
            for (least, size, steps), members in classes.items():
                assert members == {_encode(m) for m in three_class(least).members}
                assert (size, steps) == (len(members), sum(len(_neighbors(s)) for s in members))
            size = len(three_class(nw).members)
            assert (_encode(nw) in mv._CLASS_MEMO) == (size <= 25)
            sizes.append(size)
        assert cleared > 10 and min(sizes) < 25 < max(sizes)

    @pytest.mark.parametrize("text", ["ABCDDCBA:abab", "ABCDCDAB:abab"])
    def test_reducible_starts_never_truncate(self, text):
        # every round starts on a reducible word, removed before any
        # search, and the empty word's search takes no step
        clear_class_memo()
        assert reduce_to_irreducible(parse_nanoword(text), max_members=1, max_steps=0) == EMPTY

    def test_reductions_pinned(self, census5):
        # every nanoword of up to four letters and 2,000 disguised census5
        # records, hashed with their reductions: the removal order decides
        # which irreducible 3-class a word reaches
        clear_class_memo()
        words = [
            Nanoword(w, "".join(bits))
            for n in range(5)
            for w in increasing_gauss_words(n)
            for bits in itertools.product("ab", repeat=n)
        ]
        rng = random.Random(28)
        records = rng.choices(census5.records, k=2000)
        words += [random_renaming(rng, disguise(rng, r.nanoword, i % 4)) for i, r in enumerate(records)]
        lines = [f"{nw} {reduce_to_irreducible(nw)}" for nw in words]
        assert len(lines) == 3815
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "665b4e37defaec1bfd4edb5c490f6595e308e91d4f894418c3b9306be67274c9"

    def test_gauss_validity_preserved_along_reductions(self):
        rng = random.Random(17)
        for _ in range(60):
            nw = random_nanoword(rng, rng.choice([3, 4, 5]))
            out = reduce_to_irreducible(nw)
            assert out.crossings <= nw.crossings

    def test_census_words_recovered_after_random_moves(self):
        # perturbing a tabulated string by random moves (insertions within
        # a two-letter budget) and reducing lands back on the same word,
        # or at worst on a word with the same canonical primitive based
        # matrix: distinct irreducible 3-classes of one homotopy class are
        # not known to be impossible, so word equality alone is not owed
        import golden
        from nanowords.invariants import string_phi

        rng = random.Random(41)
        words = [parse_nanoword(t) for _, t, *_ in golden.TABLE1]
        for nw in words:
            reference = string_phi(nw)
            for _ in range(10):
                cur = nw
                for _ in range(rng.randint(1, 6)):
                    ms = applicable_moves(cur, ALL_KINDS, allow_insertions=True)
                    ms = [
                        m
                        for m in ms
                        if not (
                            m.direction == "insert"
                            and cur.crossings + (1 if m.kind == "H1" else 2)
                            > nw.crossings + 2
                        )
                    ]
                    cur = apply_move(cur, rng.choice(ms))
                back = reduce_to_irreducible(cur)
                assert back == nw or string_phi(back) == reference
