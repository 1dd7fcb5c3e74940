import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nanowords.census as cz
import nanowords.cli as cli
import nanowords.moves as mv
from nanowords.invariants import covering, n_values, string_phi, u_polynomial
from nanowords.words import (
    EMPTY,
    INVERSE,
    MIRROR,
    MIRROR_INVERSE,
    TRANSFORM_KINDS,
    Nanoword,
    count,
    normalize_increasing,
    parse_nanoword,
    transform,
)

import golden
from conftest import clear_class_memo, disguise, random_nanoword, random_renaming


class TestGenerator:
    def test_counts_match_closed_forms(self):
        for n in range(7):
            got = sum(1 for _ in cz.increasing_gauss_words(n))
            assert got == count(n, "increasing_gauss")
            assert count(n, "nanowords") == got * 2**n

    def test_listing_n2(self):
        assert list(cz.increasing_gauss_words(2)) == ["AABB", "ABAB", "ABBA"]

    def test_n0(self):
        assert list(cz.increasing_gauss_words(0)) == [""]

    def test_ascending_and_unique(self):
        words = list(cz.increasing_gauss_words(4))
        assert words == sorted(words)
        assert len(set(words)) == len(words)

    def test_skip_adjacent_doubles(self):
        kept = list(cz.increasing_gauss_words(3, skip_adjacent_doubles=True))
        everything = list(cz.increasing_gauss_words(3))
        assert set(kept) == {w for w in everything if all(a != b for a, b in zip(w, w[1:]))}

    @pytest.mark.parametrize("n", [-1, 27])
    def test_depth_out_of_range(self, n):
        for call in (cz.candidates, cz.build_census, lambda n: list(cz.increasing_gauss_words(n))):
            with pytest.raises(ValueError, match="n must be between 0 and 26"):
                call(n)

    def test_adjacent_doubles_reducible(self):
        # the optimization never discards an irreducible class
        for n in (2, 3, 4):
            for w in cz.increasing_gauss_words(n):
                if all(a != b for a, b in zip(w, w[1:])):
                    continue
                for bits in itertools.product("ab", repeat=n):
                    assert mv.is_reducible(Nanoword(w, "".join(bits)))


class TestCandidates:
    def test_small_counts(self):
        assert [str(x) for x in cz.candidates(0)] == ["0"]
        assert cz.candidates(1) == []
        assert cz.candidates(2) == []
        assert [str(x) for x in cz.candidates(3)] == ["ABACBC:aab", "ABACBC:abb"]

    def test_four_crossings(self):
        got = [str(x) for x in cz.candidates(4)]
        assert got == [text for _, text, *_ in golden.TABLE1 if text.startswith("AB") and len(text) == 13]
        assert len(got) == 26

    def test_soundness_post_hoc(self):
        # every candidate is minimal in an irreducible 3-class
        for n in (3, 4):
            for nw in cz.candidates(n):
                tc = mv.three_class(nw)
                assert not tc.reducible
                assert tc.min_member == nw

    def test_complete_against_three_classes(self):
        # close every nanoword of up to five letters that no earlier class
        # holds, adjacent doubles included: each irreducible class gives
        # its minimal member as a candidate, yielded with the whole class
        for n in range(6):
            classes = {}
            covered = set()
            for w in cz.increasing_gauss_words(n):
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(w, "".join(bits))
                    if nw in covered:
                        continue
                    tc = mv.three_class(nw)
                    assert not tc.truncated
                    covered |= tc.members
                    if not tc.reducible:
                        classes[tc.min_member] = {mv._encode(m) for m in tc.members}
            assert cz.candidates(n) == sorted(classes), n
            for s, cls in cz._survivors(n, mv.Limits()):
                assert cls == classes[mv._decode(s)], mv._decode(s)

    def test_walk_builds_each_table_once(self, monkeypatch):
        # the walk owns its word tables and leaves the bounded cache alone
        built = []
        build = mv._word_table.__wrapped__
        monkeypatch.setattr(mv._word_table, "__wrapped__", lambda word: built.append(word) or build(word))
        before = mv._word_table.cache_info()
        assert list(cz._survivors(5, mv.Limits()))
        assert built and len(built) == len(set(built))
        assert mv._word_table.cache_info() == before

    def test_skipped_words_carry_no_candidate(self):
        # brute force: on a word with a smaller rotation, or with equal
        # first and last letters, every 3-class is reducible or has a
        # smaller member
        kinds = set()
        for n in range(2, 6):
            closed = {}
            for w in cz.increasing_gauss_words(n, skip_adjacent_doubles=True):
                if w in rotation_minimal_words(n):
                    continue
                kinds.add(w[0] == w[-1])
                for bits in itertools.product("ab", repeat=n):
                    nw = Nanoword(w, "".join(bits))
                    if nw not in closed:
                        tc = mv.three_class(nw)
                        assert not tc.truncated
                        closed.update(dict.fromkeys(tc.members, tc))
                    tc = closed[nw]
                    assert tc.reducible or tc.min_member < nw, nw
        assert kinds == {True, False}

    def test_searches_start_on_rotation_minimal_words(self, monkeypatch):
        starts = []
        explore = mv._explore
        monkeypatch.setattr(mv, "_explore", lambda start, *rest: starts.append(start) or explore(start, *rest))
        for n, walked in ((5, 36), (6, 300)):
            del starts[:]
            assert list(cz._survivors(n, mv.Limits()))
            words = {mv._decode((w, 0)).word for w, _ in starts}
            assert words <= rotation_minimal_words(n)
            assert len(words) == len(rotation_minimal_words(n)) == walked

    @pytest.mark.slow
    def test_pinned_walk_at_seven_crossings(self):
        # 182,149 survivors with 3,019,626 class members, streamed
        digest, survivors, members = hashlib.sha256(), 0, 0
        for s, cls in cz._survivors(7, mv.Limits()):
            digest.update(f"{mv._decode(s)} {len(cls)}\n".encode())
            survivors, members = survivors + 1, members + len(cls)
        assert (survivors, members) == (182149, 3019626)
        assert digest.hexdigest() == "bc10926a3bfb9f849cf7712f193d3c1ae893a11e36c7890ddee8bd1858628283"

    @pytest.mark.parametrize(
        "n, limit, runs",
        [
            # (first value, last value, survivors yielded, word of the
            # truncated 3-class or None), every value from 1 covered
            (4, "members", [(1, 3, 0, "ABABCDCD:aaaa"), (4, 7, 1, "ABABCDCD:aabb"), (8, 15, 4, "ABACBDCD:aaab"), (16, 17, 26, None)]),
            (4, "steps", [(1, 3, 0, "ABABCDCD:aaaa"), (4, 7, 1, "ABABCDCD:aabb"), (8, 25, 4, "ABACBDCD:aaab"), (26, 40, 26, None)]),
            (5, "members", [(1, 19, 0, "ABABCDCEDE:aaaaa"), (20, 29, 7, "ABABCDCEDE:aabbb"), (30, 31, 400, None)]),
            (5, "steps", [(1, 33, 0, "ABABCDCEDE:aaaaa"), (34, 57, 7, "ABABCDCEDE:aabbb"), (58, 70, 400, None)]),
        ],
    )
    def test_pinned_truncations(self, n, limit, runs):
        # the walk yields the same survivors before the same error under
        # every small limit; pinned from the walk that searched each class
        for first, last, yielded, word in runs:
            for value in range(first, last + 1):
                limits = mv.Limits(**{f"max_{limit}": value})
                got = []
                with pytest.raises(mv.TruncationError) if word else contextlib.nullcontext() as err:
                    got.extend(cz._survivors(n, limits))
                assert len(got) == yielded, (limit, value)
                if word:
                    assert err.value.limit == limit
                    assert str(err.value) == f"3-class of {word} exceeded max_{limit}={value}"
                    assert err.value.partial is None

    def test_walk_closed_under_mirror(self, walks):
        # the complement of a yielded class's type masks is the class of
        # its mirror, and is yielded too
        for n, (survivors, _) in walks.items():
            full = (1 << n) - 1
            classes = {frozenset(cls) for _, cls in survivors}
            for cls in classes:
                image = frozenset((w, m ^ full) for w, m in cls)
                assert image in classes, n
                if n <= 5:
                    assert image == {mv._encode(transform(mv._decode(s), MIRROR)) for s in cls}

    def test_search_counts(self, monkeypatch):
        # one search for each mirror pair of classes, and none from the
        # mirror of a start rejected at a smaller word or a reducible member
        searched = []
        explore = mv._explore
        monkeypatch.setattr(mv, "_explore", lambda *args: searched.append(args[0]) or explore(*args))
        for n, count in ((5, 361), (6, 5630)):
            del searched[:]
            assert list(cz._survivors(n, mv.Limits()))
            assert len(searched) == count, n

    def test_walk_classes_disjoint(self, walks):
        # each class is yielded once, from its minimal member
        for n, (survivors, _) in walks.items():
            walked = set()
            for s, cls in survivors:
                assert min(cls) == s and walked.isdisjoint(cls), (n, s)
                walked |= cls

    def test_pinned_walk_at_six_crossings(self, walks):
        survivors, _ = walks[6]
        lines = "\n".join(f"{mv._decode(s)} {len(cls)}" for s, cls in survivors)
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "c442ed53892ae09868ecfa538b47842fc51020052b8ef3ba424edb61688554aa"
        )

    def test_pinned_candidates_at_six_crossings(self):
        # candidates() decodes the survivors itself, one text per Gauss word
        texts = [str(nw) for nw in cz.candidates(6)]
        assert texts == sorted(texts) and len(texts) == 7825
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "0b87f808ed70ed576f13d842e369947a00ed120adca952020658a874fe218607"
        )


class TestIdentify:
    def test_examples(self, census4):
        assert cz.identify(parse_nanoword("BCBECE:aab"), census4) == "3.1"
        assert cz.identify(EMPTY, census4) == "0"
        assert cz.identify(parse_nanoword("ABACBC:bba"), census4) == "3.1"

    def test_unknown_for_bigger_strings(self, census4):
        assert cz.identify(parse_nanoword("ABACBDEDCE:baabb"), census4) == "unknown"

    def test_long_disguises_of_census5_records(self, census5):
        # 8 H2/H2a insertions, shift rotations and a renaming give 21
        # letters: nothing on the way may be sized by the 2^21 type masks
        rng = random.Random(5)
        records = [r for r in census5.records if r.crossings == 5]
        start = time.process_time()
        for rec in rng.sample(records, 10):
            nw = random_renaming(rng, disguise(rng, rec.nanoword, 8))
            assert nw.crossings == 21
            assert cz.identify(nw, census5) == rec.id, nw
        assert time.process_time() - start < 1.0

    def test_query_letter_tables_stay_unbuilt(self, census5):
        # a query is encoded from its word and type word alone: identify
        # fills neither cached letter table of the parsed Nanoword
        rng = random.Random(29)
        records = [r for r in census5.records if r.crossings == 5]
        for rec in rng.sample(records, 20):
            nw = parse_nanoword(str(random_renaming(rng, disguise(rng, rec.nanoword, 2))))
            assert cz.identify(nw, census5) == rec.id, nw
            assert "letters" not in nw.__dict__ and "type_map" not in nw.__dict__, nw

    def test_move_tables_only_for_expanded_words(self, census5, monkeypatch):
        # identify scans far more words for a removal than it expands,
        # and builds a word table only for a word whose state it expands
        rng = random.Random(16)
        records = rng.choices(census5.records, k=200)
        queries = [random_renaming(rng, disguise(rng, r.nanoword, i % 4)) for i, r in enumerate(records)]
        want = [cz.identify(r.nanoword, census5) for r in records]
        expanded, scanned = set(), set()
        expand, scan = mv._neighbors, mv._first_removal

        def neighbors(s):
            expanded.add(s[0])
            return expand(s)

        def first_removal(s):
            scanned.add(s[0])
            return scan(s)

        monkeypatch.setattr(mv, "_neighbors", neighbors)
        monkeypatch.setattr(mv, "_first_removal", first_removal)
        clear_class_memo()
        mv._word_table.cache_clear()
        assert [cz.identify(nw, census5) for nw in queries] == want
        moved = mv._word_table.cache_info()
        expanded.discard(())  # the empty word has no moves and no table
        # no table was evicted, so each miss built a distinct word's table
        assert moved.currsize == moved.misses == len(expanded)
        assert expanded < scanned

    def test_warm_memo_answers_as_cold(self, census5, monkeypatch):
        # a filed class answers exactly as the search it replaces, also
        # when an insertion escape runs from it
        rng = random.Random(26)
        records = rng.choices(census5.records, k=200)
        queries = [
            (random_renaming(rng, disguise(rng, r.nanoword, i % 4)), int(i % 40 == 0))
            for i, r in enumerate(records)
        ]
        searches = []
        explore = mv._explore
        monkeypatch.setattr(mv, "_explore", lambda *args: searches.append(args[0]) or explore(*args))
        cold = []
        for nw, budget in queries:
            clear_class_memo()
            cold.append(mv.reduce_to_irreducible(nw, budget))
        cold_searches = len(searches)
        warm = [mv.reduce_to_irreducible(nw, budget) for nw, budget in queries]
        assert warm == cold
        assert len(searches) - cold_searches < cold_searches
        want = [cz.identify(r.nanoword, census5) for r in records]
        assert [cz.identify(nw, census5, insert_budget=b) for nw, b in queries] == want

    def test_ambiguous_against_census5(self, census5):
        name = cz.identify(parse_nanoword("ABABCDCEDE:aaaba"), census5)
        assert name.startswith("ambiguous(")
        assert "ABABCDCD:aaaa" in name and "ABABCDCEDE:aaaba" in name


@functools.cache
def rotation_minimal_words(n):
    """The n-letter Gauss words, without adjacent doubles, that are least
    among the normal forms of their shift rotations and do not begin and
    end with one letter."""
    out = set()
    for w in cz.increasing_gauss_words(n, skip_adjacent_doubles=True):
        nw, rotations = Nanoword(w, "a" * n), set()
        for _ in range(2 * n):
            nw = mv.shift_rotate(nw)
            rotations.add(normalize_increasing(nw)[0].word)
        if w == min(rotations) and w[0] != w[-1]:
            out.add(w)
    return out


@pytest.fixture(scope="module")
def walks():
    """Each depth's survivors with their 3-classes, and their images."""
    out = {}
    for n in range(7):
        decoded = list(cz._decoded(n, mv.Limits()))
        out[n] = [(s, cls) for _, s, cls in decoded], cz._image_minima(decoded)
    return out


def stub_record(rid):
    return cz.StringRecord(rid, EMPTY, 0, (), ((),), ())


class StubCensus:
    """Answers ``entry_of`` for the transform kinds, in their order."""

    def __init__(self, entries):
        self.entry_of = dict(zip(TRANSFORM_KINDS, entries)).__getitem__


class TestSymmetry:
    def test_row_4_6(self, census4):
        rec = census4.by_id("4.6")
        s = rec.symmetry
        assert (s.mirror_id, s.inverse_id, s.mirror_inverse_id, s.sym_type) == (
            "4.15",
            "4.14",
            "4.7",
            "c",
        )

    def test_row_4_8(self, census4):
        s = census4.by_id("4.8").symmetry
        assert (s.mirror_id, s.inverse_id, s.mirror_inverse_id, s.sym_type) == (
            "4.13",
            "4.8",
            "4.13",
            "i",
        )

    @pytest.mark.parametrize(
        "fixed, sym_type",
        [
            (TRANSFORM_KINDS, cz.ALL_SYMMETRIC),
            ((MIRROR,), cz.MIRROR_ONLY),
            ((INVERSE,), cz.INVERSE_ONLY),
            ((MIRROR_INVERSE,), cz.MIRROR_INVERSE_ONLY),
            ((), cz.CHIRAL),
        ],
    )
    def test_classify_fixed_kinds(self, fixed, sym_type):
        ids = ["5.1" if k in fixed else f"5.{i}" for i, k in enumerate(TRANSFORM_KINDS, 2)]
        got = cz.symmetry_classify(
            stub_record("5.1"), StubCensus(map(stub_record, ids)), TRANSFORM_KINDS
        )
        assert got == cz.Symmetry(*ids, sym_type)

    @pytest.mark.parametrize("free", TRANSFORM_KINDS)
    def test_classify_two_fixed_kinds_raise(self, free):
        ids = ["5.2" if k == free else "5.1" for k in TRANSFORM_KINDS]
        with pytest.raises(AssertionError, match="two operations fix 5.1"):
            cz.symmetry_classify(
                stub_record("5.1"), StubCensus(map(stub_record, ids)), TRANSFORM_KINDS
            )

    @pytest.mark.parametrize("at", range(3))
    def test_classify_unset_by_a_group_image(self, at):
        group = cz.UnresolvedGroup((EMPTY,), 0, (), ((),), ())
        entries = [group if k == at else stub_record("5.1") for k in range(3)]
        record = stub_record("5.1")
        got = cz.symmetry_classify(record, StubCensus(entries), TRANSFORM_KINDS)
        assert got is None and record.symmetry is None

    def test_image_minima_match_transformed_classes(self, walks):
        for n, (survivors, images) in walks.items():
            assert list(images) == [mv._decode(s) for s, _ in survivors], n
            for s, cls in survivors:
                nw = mv._decode(s)
                if n <= 5:
                    want = [mv.three_class(transform(nw, k)).min_member for k in TRANSFORM_KINDS]
                else:
                    # the minimum of the transformed members
                    want = [
                        mv._decode(min(mv._transform_state(m, k) for m in cls))
                        for k in TRANSFORM_KINDS
                    ]
                assert images[nw] == tuple(want), nw
                assert all(images[image][i] == nw for i, image in enumerate(want)), nw

    @given(st.integers(3, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_image_minima_of_random_words(self, walks, n, rng):
        # a walked class of 3-6 letters in disguise: no word of 1 or 2
        # letters is irreducible, so every draw is used
        s, _ = rng.choice(walks[n][0])
        red = mv.reduce_to_irreducible(disguise(rng, mv._decode(s), rng.randint(1, 2)))
        images = walks[red.crossings][1][mv.three_class(red).min_member]
        for kind, image in zip(TRANSFORM_KINDS, images):
            assert image == mv.three_class(transform(red, kind)).min_member

    def test_image_minima_refuse_a_missing_class(self, walks):
        # a chiral class's three images wait for it in vain
        survivors, images = walks[4]
        chiral = next(k for k, (nw, row) in enumerate(images.items()) if nw not in row)
        rest = survivors[:chiral] + survivors[chiral + 1 :]
        with pytest.raises(RuntimeError, match="^3 images were not walked$"):
            cz._image_minima((mv._decode(s), s, cls) for s, cls in rest)

    def test_transforms_identify_consistently(self, census4):
        rng = random.Random(8)
        for rec in rng.sample(census4.records, 8):
            for kind in ("mirror", "inverse", "mirror_inverse"):
                image = transform(rec.nanoword, kind)
                assert cz.identify(image, census4) == getattr(
                    rec.symmetry, f"{kind}_id"
                )


class TestCensusTables:
    def test_ids_sorted_and_stable(self, census4):
        ids = [r.id for r in census4.records]
        assert ids == [rid for rid, *_ in golden.TABLE1]
        words = [r.nanoword for r in census4.records]
        assert words == sorted(words, key=lambda nw: (nw.crossings, nw))

    def test_table1(self, census4):
        rows = cz.table1(census4)
        for row, (rid, text, u, rho, phi) in zip(rows, golden.TABLE1):
            assert row["id"] == rid
            assert row["nanoword"] == text
            assert row["u"] == u
            assert row["rho"] == rho
            assert row["phi"] == phi

    def test_table2(self, census4):
        assert cz.table2(census4) == golden.TABLE2

    def test_table3(self, census4):
        rows = cz.table3(census4)
        got = [(r["id"], r["mirror"], r["inverse"], r["mirror_inverse"], r["type"]) for r in rows]
        assert got == golden.TABLE3

    def test_table4_empty_below_five(self, census4):
        assert cz.table4(census4) == []

    def test_coverings_all_trivial_but_4_26(self, census4):
        for rec in census4.records:
            if rec.crossings != 4:
                continue
            for r, name in rec.coverings.items():
                if rec.id == "4.26" and r == 2:
                    assert name == "self"
                else:
                    assert name == "0", (rec.id, r, name)

    def test_phi_injective_on_records(self, census4):
        seen = {}
        for rec in census4.records:
            assert rec.phi not in seen
            seen[rec.phi] = rec.id

    def test_no_cross_count_collisions_up_to_four(self, census4):
        msgs = []
        census = cz.build_census(4, warn=msgs.append)
        assert msgs == []
        assert census.unresolved == []


class TestCensus5:
    def test_records_share_their_gauss_words_text(self, census5):
        # a build decodes each survivor once, joining each Gauss word's
        # text once: the records on one Gauss word share one string
        texts = {}
        for rec in census5.records:
            texts.setdefault(rec.nanoword.word, []).append(rec.nanoword.word)
        shared = [same for same in texts.values() if len(same) > 1]
        assert len(shared) > 1
        assert all(text is same[0] for same in shared for text in same)

    def test_published_groups_present(self, census5):
        got = {
            (frozenset(str(m) for m in g.members), g.rho, ",".join(map(str, g.phi_display)))
            for g in census5.unresolved
        }
        for members, rho, phi in golden.TABLE5:
            assert (frozenset(members), rho, phi) in got

    def test_extra_pair_reported(self, census5):
        pair = frozenset(golden.EXTRA_UNRESOLVED_PAIR)
        matches = [
            g for g in census5.unresolved if frozenset(str(m) for m in g.members) == pair
        ]
        assert len(matches) == 1

    def test_table4_pairs(self, census5):
        grid = cz.table4(census5)
        assert len(grid) == 4
        for rows, ((w1, c1), (w2, c2), phi) in zip(grid, golden.TABLE4):
            assert [r["nanoword"] for r in rows] == [w1, w2]
            assert [r["cover2"] for r in rows] == [c1, c2]
            assert {r["phi"] for r in rows} == {phi}

    def test_all_group_members_share_invariants(self, census5):
        for g in census5.unresolved:
            phis = {string_phi(m).phi for m in g.members}
            assert len(phis) == 1
            assert {str(u_polynomial(m)) for m in g.members} == {"0"}

    def test_identify_idempotent_on_records(self, census5):
        assert_identify_idempotent(census5)

    def test_every_small_nanoword_identifies(self, census5):
        # each nanoword of up to 5 letters has crossing number at most 5,
        # so it names a record or an unresolved group, never nothing
        words = [
            Nanoword(w, "".join(bits))
            for n in range(6)
            for w in cz.increasing_gauss_words(n)
            for bits in itertools.product("ab", repeat=n)
        ]
        assert len(words) == sum(count(n, "nanowords") for n in range(6)) == 32055
        unknown = [nw for nw in words if cz.identify(nw, census5) == "unknown"]
        assert unknown == []

    def test_shared_covering_reductions(self, census5):
        # one covering -> reduced dict across many words, as distinguish
        # shares it, changes no separation
        reduced = {}
        reductions = 0
        for rec in census5.records:
            shared = cz.separate(rec.nanoword, census5, reduced=reduced)
            fresh = cz.separate(rec.nanoword, census5)
            assert (shared.key, shared.covers) == (fresh.key, fresh.covers), rec.id
            reductions += sum(red is not None for red in fresh.covers.values())
        # 52 distinct coverings among 920 reductions
        assert len(reduced) < reductions / 10
        for state, red in reduced.items():
            assert red == mv.reduce_to_irreducible(mv._decode(state))

    @pytest.mark.parametrize(
        "rid,text,key,covers",
        [
            (
                "5.326",
                "KEMKEUBMUB:aaaaa",
                (5, (-2, 0, 0, 0, 2, 2, 1, 1, 1, 1, -1, 2, -1, 1, 1),
                 ((-2, 0, 0, 0, 2, 2, 1, 1, 1, 1, -1, 2, -1, 1, 1), ())),
                {2: "ABCABDECDE:aaaaa", 3: "0"},
            ),
            (
                "5.327",
                "CRDCRLSDLS:aabab",
                (5, (-4, 0, 0, 2, 2, 3, 1, 4, 2, -1, 1, 1, 1, 1, 1),
                 ((-4, 0, 0, 2, 2, 3, 1, 4, 2, -1, 1, 1, 1, 1, 1), (), (-2, 1, 1, 1, 2, 0), ())),
                {2: "ABCABDECDE:aaabb", 3: "0", 4: "ABACBC:aab"},
            ),
            (
                "5.3",
                "SDSDHUHBUB:baaab",
                (5, (-1, -1, -1, 1, 2, 0, -1, 1, 2, 0, 0, 1, 1, 1, -1), ((),)),
                {2: "0", 3: "0"},
            ),
        ],
    )
    def test_separate_word_not_in_normal_form(self, census5, rid, text, key, covers):
        # a letter-renamed copy of a record: a covering keeping every
        # letter is the normalized word, not the copy's text, so it is
        # reduced rather than None (5.326 and 5.327 at r = 2)
        nw = parse_nanoword(text)
        sep = cz.separate(nw, census5)
        assert sep.key == key == census5.by_id(rid).key
        assert {r: str(red) for r, red in sep.covers.items()} == covers
        own = cz.separate(census5.by_id(rid).nanoword, census5).covers
        assert own.keys() == covers.keys()
        assert [r for r, red in own.items() if red is None] == (
            [2] if rid in ("5.326", "5.327") else []
        )

    def test_coverings_of_words_not_in_normal_form(self, census5):
        # census5 records and nonempty reduced random words, each with a
        # random renaming: a covering is None exactly when it is the word
        # itself, and otherwise its reduction; a renamed copy keeps the
        # word's key.  The 10 records whose n-values share a factor r >= 2,
        # and so have an r-covering keeping every letter, are all drawn.
        rng = random.Random(33)
        whole = [r.nanoword for r in census5.records if math.gcd(*n_values(r.nanoword).n.values()) > 1]
        rest = [r.nanoword for r in census5.records if r.nanoword not in whole]
        drawn = whole + rng.sample(rest, 100 - len(whole))
        while len(drawn) < 200:
            if (nw := mv.reduce_to_irreducible(random_nanoword(rng, rng.randint(1, 8)))).crossings:
                drawn.append(nw)
        selves = whole_reduced = 0
        for nw in drawn:
            copy = random_renaming(rng, nw)
            assert cz.separate(copy, census5).key == cz.separate(nw, census5).key, (nw, copy)
            for word in (nw, copy):
                for r, red in cz.separate(word, census5).covers.items():
                    cover = covering(word, r)
                    if cover == word:
                        assert red is None, (word, r)
                        selves += 1
                    else:
                        assert red == mv.reduce_to_irreducible(cover), (word, r)
                        whole_reduced += cover.crossings == word.crossings
        # both branches are met, and a whole covering of a renamed copy is reduced
        assert len(whole) == 10 and selves == whole_reduced == 10


def census_digest(census):
    tables = cz.build_tables(census)
    return hashlib.sha256(repr((census.records, census.unresolved, tables)).encode()).hexdigest()


def test_pinned_census_at_five_crossings():
    assert census_digest(cz.build_census(5)) == (
        "f6b435fb921cc7e51d333599695c23bd7907f29fde6f174535312f1899836a58"
    )


CENSUS6_DIGEST = "511736b1257b1e4601738bc81d55501056cd589f69f9abeb67f20dac6ac08fdd"


def test_pinned_census_at_six_crossings(census6):
    assert census_digest(census6) == CENSUS6_DIGEST


@pytest.mark.slow
def test_census_independent_of_the_hash_seed():
    # str hashes are salted per process: a census built under either seed
    # gives the pinned digest, so no output follows a set or dict of text
    script = "import test_census as t; print(t.census_digest(t.cz.build_census(6, warn=lambda m: None)))"
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(cz.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script], cwd=Path(__file__).parent, env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == CENSUS6_DIGEST, seed


def test_pinned_cache_bytes_at_five_crossings(tmp_path):
    # the version-3 file without its u fields, with symmetry keyed by the
    # Symmetry field names, at version 4, in compact JSON
    cli.save_census(cz.build_census(5), tmp_path)
    assert hashlib.sha256((tmp_path / "census_n5.json").read_bytes()).hexdigest() == (
        "227e55d452be39494f0b2aad29e581bcf10c15f4d84390b497e29dd37bb87e70"
    )


def assert_identify_idempotent(census):
    # every record outside the unresolved groups identifies as itself and
    # has its symmetry set; a group member comes back ambiguous with the
    # members of the last group holding it, each named once
    last = {m: g for g in census.unresolved for m in g.members}
    for rec in census.records:
        name = cz.identify(rec.nanoword, census)
        group = last.get(rec.nanoword)
        if group is None:
            assert name == rec.id, (rec.id, name)
            assert rec.symmetry is not None, rec.id
        else:
            names = sorted(str(m) for m in group.members)
            assert len(set(names)) == len(names), group
            assert name == "ambiguous(" + "|".join(names) + ")", (rec.id, name)


def test_identify_idempotent_at_six_crossings(census6):
    assert_identify_idempotent(census6)


def test_symmetry_orbit_laws_at_six_crossings(census6):
    types = {
        frozenset(TRANSFORM_KINDS): cz.ALL_SYMMETRIC,
        frozenset({MIRROR}): cz.MIRROR_ONLY,
        frozenset({INVERSE}): cz.INVERSE_ONLY,
        frozenset({MIRROR_INVERSE}): cz.MIRROR_INVERSE_ONLY,
        frozenset(): cz.CHIRAL,
    }
    unset = []
    for rec in census6.records:
        s = rec.symmetry
        if s is None:
            unset.append(rec)
            continue
        assert census6.by_id(s.mirror_id).symmetry.mirror_id == rec.id
        assert census6.by_id(s.inverse_id).symmetry.mirror_id == s.mirror_inverse_id
        ids = (s.mirror_id, s.inverse_id, s.mirror_inverse_id)
        fixed = frozenset(k for k, rid in zip(TRANSFORM_KINDS, ids) if rid == rec.id)
        assert s.sym_type == types[fixed], rec.id
    # a record's symmetry is unset when an image lands in an unresolved group
    assert len(unset) == 48
    for rec in unset:
        entries = [cz.lookup(transform(rec.nanoword, k), census6) for k in TRANSFORM_KINDS]
        assert any(isinstance(e, cz.UnresolvedGroup) for e in entries), rec.id


class TestIndex:
    @pytest.mark.parametrize("reload", [False, True], ids=["built", "reloaded"])
    def test_lookups_match_list_scans(self, census5, tmp_path, reload):
        census = census5
        if reload:
            cli.save_census(census5, tmp_path)
            census = cli.load_census(tmp_path, 5)
        phis = {r.phi for r in census.records} | {g.phi for g in census.unresolved}
        for phi in phis:
            assert census.by_phi(phi) == [r for r in census.records if r.phi == phi]
            assert census.groups_by_phi(phi) == [
                g for g in census.unresolved if g.phi == phi
            ]
        for rec in census.records:
            assert census.by_id(rec.id) is next(r for r in census.records if r.id == rec.id)
            assert census.phi_of(rec.nanoword) == rec.phi == string_phi(rec.nanoword).phi
            # the symmetry taken from the image classes agrees with a full
            # lookup of each transform, and is unset exactly when one of
            # them is not a record
            entries = [
                cz.lookup(transform(rec.nanoword, kind), census)
                for kind in TRANSFORM_KINDS
            ]
            s = census.by_id(rec.id).symmetry
            if all(isinstance(e, cz.StringRecord) for e in entries):
                assert (s.mirror_id, s.inverse_id, s.mirror_inverse_id) == tuple(
                    e.id for e in entries
                ), rec.id
            else:
                assert s is None, rec.id
        with pytest.raises(KeyError):
            census.by_id("9.9")
        assert census.by_phi((9,)) == [] and census.groups_by_phi((9,)) == []

    def test_keys_survive_cache(self, census5, tmp_path):
        cli.save_census(census5, tmp_path)
        loaded = cli.load_census(tmp_path, 5)
        assert loaded.records == census5.records
        assert loaded.unresolved == census5.unresolved
        for g in census5.unresolved:
            assert loaded.entry(g.key) == g
            assert all(loaded.entry_of(m) == g for m in g.members)
        # a file of the previous cache version is a miss
        path = tmp_path / "census_n5.json"
        data = json.loads(path.read_text())
        data["version"] = 2
        path.write_text(json.dumps(data))
        assert cli.load_census(tmp_path, 5) is None

    def test_group_takes_over_a_record_key(self):
        w1, w2, w3 = map(parse_nanoword, ("ABACBC:aab", "ABACBC:abb", "ABACBC:bbb"))
        rec = cz.StringRecord("3.1", w1, 0, (1,), ((1,),), (1,))
        group = cz.UnresolvedGroup((w1, w2), 0, (1,), ((1,),), (1,))
        other = cz.UnresolvedGroup((w1, w3), 0, (2,), ((2,),), (2,))
        census = cz.CensusTable(3)
        census.add([rec])
        census.add(unresolved=[group, other])
        assert census.entry(rec.key) is group
        assert census.by_id("3.1") is rec
        # w1 keeps the record's key, which now names the group
        assert census.entry_of(w1) is group and census.phi_of(w1) == (1,)
        assert census.entry_of(w3) is other and census.phi_of(w3) == (2,)

    def test_group_members_indexed(self, census5):
        for g in census5.unresolved:
            assert g in census5.groups_by_phi(g.phi)
            for m in g.members:
                assert census5.phi_of(m) == g.phi
