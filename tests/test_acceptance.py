"""Acceptance suite: one test per acceptance criterion, in gate order.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run).  Criterion 6 is expected to fail: the enumeration
finds one genuine unresolved pair beyond the published list; the failure
message and README "Acceptance status" carry the analysis.  Everything
else must be green at zero tolerance.
"""

import itertools
import random
import time

import pytest

import nanowords.census as cz
import nanowords.invariants as inv
import nanowords.moves as mv
from nanowords.invariants import (
    BasedMatrix,
    based_matrix,
    canonical_form,
    canonical_order,
    covering,
    n_values,
    phi_string,
    string_phi,
    theta,
    u_polynomial,
)
from nanowords.words import Nanoword, parse_nanoword

import golden


def _report(num, name):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE CRITERION {num} ({name}): {status}", flush=True)
            return False

    return Reporter()


def _all_nanowords(max_n):
    for n in range(max_n + 1):
        for word in cz.increasing_gauss_words(n):
            for bits in itertools.product("ab", repeat=n):
                yield Nanoword(word, "".join(bits))


@pytest.fixture(scope="session")
def calibration_gate():
    """Criterion 4, checked before the census criteria run.

    The pairing convention must reproduce the worked 4x4 example exactly
    and satisfy b(X, s) = n(X) for every letter of every nanoword with up
    to 4 letters.  The worked example is realized entry-for-entry by the
    computed matrix of ABACBC:bba; the census representative ABACBC:aab
    yields the same matrix with the roles of A and C exchanged (an
    isomorphism, hence equal canonical form).
    """
    with _report(4, "calibration gate"):
        reference = BasedMatrix(
            golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX
        )
        realized = based_matrix(parse_nanoword(golden.WORKED_EXAMPLE_REALIZED_BY))
        assert realized.labels == reference.labels
        assert realized.entries == reference.entries

        census_rep = based_matrix(parse_nanoword("ABACBC:aab"))
        swap = {"s": "s", "A": "C", "B": "B", "C": "A"}
        for g in census_rep.labels:
            for h in census_rep.labels:
                assert census_rep.b(g, h) == reference.b(swap[g], swap[h])
        assert canonical_form(census_rep) == canonical_form(reference)

        for nw in _all_nanowords(4):
            bm = based_matrix(nw)
            stats = n_values(nw)
            for x in nw.letters:
                assert bm.b(x, "s") == stats.n[x], (nw, x)
    return True


def test_criterion_4_calibration_gate(calibration_gate):
    assert calibration_gate


def test_criterion_1_census_counts(calibration_gate, census4):
    with _report(1, "census counts"):
        assert cz.table2(census4) == {0: 1, 1: 0, 2: 0, 3: 2, 4: 26}
        assert census4.limits["build_seconds"] < 300


def test_criterion_2_table1_reproduction(calibration_gate, census4):
    with _report(2, "census table byte-identical"):
        rows = cz.table1(census4)
        assert len(rows) == 29
        for row, (rid, text, u, rho, phi) in zip(rows, golden.TABLE1):
            assert row["nanoword"] == text
            assert row["u"] == u
            assert row["rho"] == rho
            assert row["phi"] == phi
            assert row["id"] == rid


def test_criterion_3_worked_canonicalization():
    with _report(3, "worked canonicalization example"):
        bm = BasedMatrix(golden.WORKED_EXAMPLE_LABELS, golden.WORKED_EXAMPLE_MATRIX)
        cf = canonical_form(bm)
        assert cf.phi == golden.WORKED_EXAMPLE_PHI
        assert canonical_order(bm) == golden.WORKED_EXAMPLE_ORDER
        assert theta(golden.THETA_SAMPLE) == golden.THETA_SAMPLE_VALUE


def test_criterion_5_coverings(census4, census5):
    with _report(5, "covering identifications"):
        for text, nvals, raw, ident, ucov in golden.COVERING_EXAMPLES:
            nw = parse_nanoword(text)
            assert n_values(nw).n == nvals
            raw_cover = inv.covering_raw(nw, 2)
            assert str(raw_cover) == raw
            assert cz.identify(raw_cover, census4) == ident
            assert str(u_polynomial(raw_cover)) == ucov

        grid = cz.table4(census5)
        assert len(grid) == 4
        for rows, ((w1, c1), (w2, c2), phi) in zip(grid, golden.TABLE4):
            assert [r["nanoword"] for r in rows] == [w1, w2]
            assert [r["cover2"] for r in rows] == [c1, c2]
            assert all(r["phi"] == phi for r in rows)

        for rec in census4.records:
            if rec.crossings != 4:
                continue
            for r, name in rec.coverings.items():
                expected = "self" if (rec.id == "4.26" and r == 2) else "0"
                assert name == expected, (rec.id, r, name)


def test_criterion_6_unresolved_groups_as_published(census5):
    """Expected red: the published list provably omits one genuine pair.

    Every published group is reproduced exactly (members, rho, tuple) and
    the run completes untruncated well inside the time budget.  The final
    exact-set assertion fails because the enumeration also finds the
    mirror pair ABCADCEDBE:abaaa / ABCADCEDBE:babbb, whose primitive
    based matrices are isomorphic (equal canonical form), whose
    u-polynomial is 0 and whose coverings are all the identity, so no
    invariant in the calculus separates them.  Their class-sorted matrix
    arrangements differ, which is exactly what a tabulation comparing
    non-minimized arrangements would have counted as "distinguished" --
    see README "Acceptance status" for the full analysis.
    """
    with _report(6, "unresolved groups exactly as published"):
        assert census5.limits["build_seconds"] < 1800

        got = {
            (frozenset(str(m) for m in g.members), g.rho, phi_string(g.phi_display))
            for g in census5.unresolved
        }
        published = {
            (frozenset(members), rho, phi) for members, rho, phi in golden.TABLE5
        }
        missing = published - got
        assert not missing, f"published groups not reproduced: {missing}"

        extras = got - published
        assert not extras, (
            "the enumeration finds additional genuine unresolved groups the "
            f"published census omits: {sorted(extras)}; members of each extra "
            "group share a primitive based matrix up to isomorphism and all "
            'other invariants (see README "Acceptance status")'
        )


def test_criterion_6_companion_extra_pair_analysis(census5):
    """The mechanism behind the extra pair, verified from first principles."""
    a, b = (parse_nanoword(t) for t in golden.EXTRA_UNRESOLVED_PAIR)
    # mirror images of one another
    from nanowords.words import transform

    assert transform(a, "mirror") == b

    # both are genuine candidates: minimal in irreducible 3-classes
    for nw in (a, b):
        tc = mv.three_class(nw)
        assert not tc.reducible
        assert tc.min_member == nw

    # isomorphic primitive based matrices, trivial u, identity coverings
    bma, bmb = based_matrix(a), based_matrix(b)
    assert inv.is_primitive(bma) and inv.is_primitive(bmb)
    assert canonical_form(bma) == canonical_form(bmb)
    assert str(u_polynomial(a)) == str(u_polynomial(b)) == "0"
    assert all(v == 0 for v in n_values(a).n.values())
    assert all(v == 0 for v in n_values(b).n.values())
    # every r-covering keeps all letters, so coverings cannot separate
    assert covering(a, 2) == a and covering(b, 7) == b

    # the class-sorted arrangements differ: a comparison based on them
    # wrongly separates the pair
    assert inv.display_theta(bma) != inv.display_theta(bmb)


def test_criterion_7_symmetry_table(census4):
    with _report(7, "symmetry classification"):
        rows = cz.table3(census4)
        got = [
            (r["id"], r["mirror"], r["inverse"], r["mirror_inverse"], r["type"])
            for r in rows
        ]
        assert got == golden.TABLE3
        by_count = {}
        for r in rows:
            n = 0 if r["id"] == "0" else int(r["id"].split(".")[0])
            by_count[n] = by_count.get(n, 0) + 1
        assert by_count == {0: 1, 3: 1, 4: 11}


# --- criterion 8: property suites -----------------------------------------


def _random_insertion(nw, rng):
    L = len(nw.word)
    kind = rng.choice(["H1", "H2", "H2a"])
    if kind == "H1":
        (x,) = mv._fresh_letters(nw, 1)
        return mv.MoveInstance(
            "H1", "insert", (rng.randint(0, L),), (x,), (rng.choice("ab"),)
        )
    x, y = mv._fresh_letters(nw, 2)
    u = rng.randint(0, L)
    v = rng.randint(u, L)
    ta = rng.choice("ab")
    tb = "b" if ta == "a" else "a"
    return mv.MoveInstance(kind, "insert", (u, v), (x, y), (ta, tb))


def test_criterion_8a_gauss_validity_bulk():
    with _report("8a", "move applications preserve Gauss validity (1e5)"):
        rng = random.Random(2024)
        applications = 0
        nw = parse_nanoword("ABACBC:aab")
        while applications < 100_000:
            insertable = nw.crossings <= 4
            if nw.word and (not insertable or rng.random() < 0.7):
                ms = mv.applicable_moves(nw, mv.ALL_KINDS)
                m = rng.choice(ms)
            else:
                m = _random_insertion(nw, rng)
            out = mv.apply_move(nw, m)  # constructor re-validates Gauss-ness
            for x in out.letters:
                assert out.word.count(x) == 2
            applications += 1
            nw = out
            if nw.crossings > 6 or not nw.word:
                nw = parse_nanoword("ABACBC:aab")


def test_criterion_8b_lk_antisymmetry_exhaustive():
    with _report("8b", "lk antisymmetry for every nanoword up to 4 letters"):
        for nw in _all_nanowords(4):
            stats = n_values(nw)
            for x in nw.letters:
                for y in nw.letters:
                    assert stats.lk[x][y] == -stats.lk[y][x]


def test_criterion_8c_skew_symmetry():
    with _report("8c", "skew-symmetry of computed based matrices"):
        rng = random.Random(31337)
        words = [parse_nanoword(t) for _, t, *_ in golden.TABLE1]
        from conftest import random_nanoword

        words += [random_nanoword(rng, rng.choice([1, 2, 3, 4, 5, 6])) for _ in range(120)]
        for nw in words:
            bm = based_matrix(nw)
            m = bm.size
            for i in range(m):
                for j in range(m):
                    assert bm.entries[i][j] == -bm.entries[j][i]


def _perturb(nw, rng, extra=2, steps=6):
    cur = nw
    for _ in range(rng.randint(1, steps)):
        if cur.word and rng.random() < 0.65:
            ms = mv.applicable_moves(cur, mv.ALL_KINDS)
            cur = mv.apply_move(cur, rng.choice(ms))
        elif cur.crossings + 2 <= nw.crossings + extra:
            cur = mv.apply_move(cur, _random_insertion(cur, rng))
    return cur


def test_criterion_8d_invariance_under_perturbations():
    with _report("8d", "phi, u and covering invariance under random moves"):
        rng = random.Random(424242)
        for _, text, *_ in golden.TABLE1:
            nw = parse_nanoword(text)
            ref_phi = string_phi(nw)
            ref_u = u_polynomial(nw)
            ref_cover = {
                r: string_phi(mv.reduce_to_irreducible(covering(nw, r)))
                for r in (2, 3)
            }
            for _ in range(100):
                p = _perturb(nw, rng)
                assert string_phi(p) == ref_phi, (text, p)
                assert u_polynomial(p) == ref_u, (text, p)
                for r in (2, 3):
                    reduced = mv.reduce_to_irreducible(covering(p, r))
                    assert string_phi(reduced) == ref_cover[r], (text, p, r)


def test_criterion_8e_reduction_order_independence():
    with _report("8e", "reduction-order independence on six-element inputs"):
        rng = random.Random(777)
        words = [
            m
            for members, _, _ in golden.TABLE5
            for m in members
            if parse_nanoword(m).crossings == 5
        ]
        assert len(words) == 12
        for text in words:
            bm = based_matrix(parse_nanoword(text))
            assert bm.size == 6
            reference = canonical_form(bm)
            for _ in range(30):
                prim = inv.reduce_based_matrix(bm, rng=rng)
                assert canonical_form(prim) == reference


def test_criterion_8f_generator_counts():
    with _report("8f", "generator counts match closed forms"):
        from nanowords.words import count

        for n in range(7):
            assert sum(1 for _ in cz.increasing_gauss_words(n)) == count(
                n, "increasing_gauss"
            )
