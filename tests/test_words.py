import math
import re

import pytest
from hypothesis import given, strategies as st

from nanowords.words import (
    EMPTY,
    GAUSS,
    INCREASING_GAUSS,
    NANOWORDS,
    Nanoword,
    NanowordError,
    compare,
    count,
    format_nanoword,
    is_increasing,
    normalize_increasing,
    parse_nanoword,
    transform,
)

import golden


@st.composite
def nanowords(draw, max_letters=5, min_letters=0):
    n = draw(st.integers(min_value=min_letters, max_value=max_letters))
    symbols = []
    for i in range(n):
        symbols += [chr(65 + i)] * 2
    symbols = draw(st.permutations(symbols))
    types = "".join(draw(st.sampled_from("ab")) for _ in range(n))
    return normalize_increasing(Nanoword("".join(symbols), types))[0]


class TestParseFormat:
    def test_parse_example(self):
        nw = parse_nanoword("ABACBC:aab")
        assert nw.word == "ABACBC"
        assert nw.type_of("A") == "a"
        assert nw.type_of("B") == "a"
        assert nw.type_of("C") == "b"

    def test_empty(self):
        assert parse_nanoword("0") == EMPTY
        assert format_nanoword(EMPTY) == "0"

    def test_arity_error(self):
        with pytest.raises(NanowordError):
            parse_nanoword("ABAB:a")

    @pytest.mark.parametrize(
        "text",
        ["", "abab:ab", "ABAB", "ABAB:", "AB:ab", "ABAC:ab", "AABBA:ab", "ABAB:ac"],
    )
    def test_malformed(self, text):
        with pytest.raises(NanowordError):
            parse_nanoword(text)

    @pytest.mark.parametrize(
        "word, types, message",
        [
            ("ABAB", "a", "bad arity"),
            ("ABBB", "ab", "letter 'A' occurs 1 times"),
            ("AAAB", "ab", "letter 'A' occurs 3 times"),
            ("AAAb", "ab", "letter 'A' occurs 3 times"),
            ("aabb", "ab", "letter 'a' is not an uppercase letter"),
            ("1A1A", "ab", "letter '1' is not an uppercase letter"),
            ("ABAB", "ac", "bad type character 'c'"),
            ("ABAB", "xc", "bad type character 'x'"),
        ],
    )
    def test_validation_names_the_first_fault(self, word, types, message):
        # faults are reported in the order arity, letters alphabetically
        # (case before count), then types
        with pytest.raises(NanowordError, match=re.escape(message)):
            Nanoword(word, types)

    def test_format_types_in_letter_order(self):
        nw = Nanoword("ABCBAC", "aab")
        assert format_nanoword(nw) == "ABCBAC:aab"
        assert format_nanoword(Nanoword("ABACBDCD", "abab")) == "ABACBDCD:abab"

    def test_non_initial_letters_accepted(self):
        nw = parse_nanoword("BCBECE:aab")
        assert nw.letters == ("B", "C", "E")
        assert nw.type_of("E") == "b"

    def test_roundtrip_on_census(self):
        for _, text, *_ in golden.TABLE1:
            assert format_nanoword(parse_nanoword(text)) == text
        for pair1, pair2, _ in golden.TABLE4:
            for text, _ in (pair1, pair2):
                assert format_nanoword(parse_nanoword(text)) == text
        for members, _, _ in golden.TABLE5:
            for text in members:
                assert format_nanoword(parse_nanoword(text)) == text

    @given(nanowords())
    def test_roundtrip_random(self, nw):
        assert parse_nanoword(format_nanoword(nw)) == nw


class TestNormalize:
    def test_proof_map_oracle(self):
        # the relabelling map sends the i-th new letter of the word to the
        # i-th alphabet letter; computed here independently and frozen
        word = "CACBAB"
        order = []
        for x in word:
            if x not in order:
                order.append(x)
        f = {x: chr(65 + i) for i, x in enumerate(order)}
        assert f == {"C": "A", "A": "B", "B": "C"}
        expected = "".join(f[x] for x in word)
        assert expected == "ABACBC"
        nw, bij = normalize_increasing(Nanoword("CACBAB", "aaa"))
        assert nw.word == expected
        assert bij == f

    def test_identity_on_increasing(self):
        nw = parse_nanoword("ABACBC:aab")
        out, bij = normalize_increasing(nw)
        assert out == nw
        assert bij == {"A": "A", "B": "B", "C": "C"}

    def test_covering_word(self):
        out, _ = normalize_increasing(parse_nanoword("BCBECE:aab"))
        assert format_nanoword(out) == "ABACBC:aab"

    def test_letter_cap(self):
        # the full 26-letter alphabet round-trips; anything larger cannot
        # even be written in the single-character textual layer
        base = [chr(65 + i) for i in range(26)]
        big = Nanoword("".join(base + base[::-1]), "a" * 26)
        out, _ = normalize_increasing(big)
        assert out.crossings == 26
        import nanowords.census as cz

        with pytest.raises(ValueError):
            next(cz.increasing_gauss_words(27))

    @given(nanowords())
    def test_idempotent(self, nw):
        once, _ = normalize_increasing(nw)
        twice, bij = normalize_increasing(once)
        assert once == twice
        assert all(k == v for k, v in bij.items())
        assert is_increasing(once)

    @given(nanowords())
    def test_preserves_gap_type_multiset(self, nw):
        def profile(w):
            out = []
            for x in w.letters:
                i, j = w.occurrences(x)
                out.append((j - i, w.type_of(x)))
            return sorted(out)

        out, _ = normalize_increasing(nw)
        assert profile(out) == profile(nw)


class TestCompare:
    def test_word_order(self):
        assert compare(parse_nanoword("BCACBA:aaa"), parse_nanoword("BCCABA:aaa")) == -1
        assert compare(parse_nanoword("BCACBA:aaa"), parse_nanoword("BCACAB:aaa")) == 1

    def test_type_tiebreak(self):
        assert parse_nanoword("ABACBC:bba") < parse_nanoword("ABCBCA:aab")
        assert parse_nanoword("ABACBC:bba") > parse_nanoword("ABACBC:aab")

    def test_mixed_size(self):
        assert parse_nanoword("ABAB:aa") < parse_nanoword("ABACBC:aab")
        assert EMPTY < parse_nanoword("AA:a")

    @given(st.lists(nanowords(), min_size=1, max_size=6))
    def test_total_order(self, batch):
        for x in batch:
            assert compare(x, x) == 0
        for x in batch:
            for y in batch:
                assert compare(x, y) == -compare(y, x)
                for z in batch:
                    if compare(x, y) <= 0 and compare(y, z) <= 0:
                        assert compare(x, z) <= 0


class TestTransform:
    def test_inverse_of_census_string(self):
        assert str(transform(parse_nanoword("ABACBC:aab"), "inverse")) == "ABACBC:abb"

    def test_mirror_typeswap(self):
        assert str(transform(parse_nanoword("ABACBC:aab"), "mirror")) == "ABACBC:bba"

    @given(nanowords())
    def test_involutions(self, nw):
        for kind in ("mirror", "inverse", "mirror_inverse"):
            assert transform(transform(nw, kind), kind) == nw

    @given(nanowords())
    def test_commutation(self, nw):
        mi = transform(nw, "mirror_inverse")
        assert transform(transform(nw, "mirror"), "inverse") == mi
        assert transform(transform(nw, "inverse"), "mirror") == mi

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            transform(EMPTY, "rotate")


class TestCount:
    def test_increasing_gauss_by_enumeration_oracle(self):
        # independent oracle: all distinct arrangements of AABBCC, filtered
        # to increasing first occurrences
        import itertools

        total = 0
        for perm in set(itertools.permutations("AABBCC")):
            seen = []
            for x in perm:
                if x not in seen:
                    seen.append(x)
            if seen == sorted(seen):
                total += 1
        assert total == 15
        assert count(3, INCREASING_GAUSS) == 15

    def test_formula_values(self):
        assert count(0, NANOWORDS) == 1
        assert count(4, NANOWORDS) == math.factorial(8) // math.factorial(4) == 1680
        # oracle: the distinct arrangements of AABB
        import itertools

        assert count(2, GAUSS) == len(set(itertools.permutations("AABB"))) == 6
        assert count(0, INCREASING_GAUSS) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            count(-1, GAUSS)
        with pytest.raises(ValueError):
            count(2, "words")
