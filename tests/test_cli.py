import json
import re

import pytest

import nanowords.cli as cli

import golden


REPEATED_PIECES = "ABACBCDEDFEFGHGIHIJKJLKLMNMONOPQPRQR:aabaabaabaabaabaab"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariantsCommand:
    def test_census_string(self, capsys):
        code, out, _ = run(capsys, "invariants", "ABACBC:aab")
        assert code == 0
        assert "u-polynomial: -t^2+2t" in out
        assert "rho: 3" in out
        assert "phi: -2,1,1,1,2,0" in out

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "invariants", "0")
        assert code == 0
        assert "u-polynomial: 0" in out
        assert "rho: 0" in out
        assert "phi: \n" in out

    def test_another_row(self, capsys):
        code, out, _ = run(capsys, "invariants", "ABACDBDC:aabb")
        assert code == 0
        assert "u-polynomial: -t^3+3t" in out
        assert "rho: 4" in out
        assert "phi: -3,1,1,1,1,2,3,0,0,0" in out

    def test_phi_orderings_truncated(self, capsys):
        # six copies of ABACBC:aab: phi would enumerate 6!^3 orderings
        code, out, err = run(capsys, "invariants", REPEATED_PIECES)
        assert (code, out) == (2, "")
        assert err == "error: truncated: phi's 373248000 orderings exceeded max_steps=10000000\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "ABACBC:aab", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["u_text"] == "-t^2+2t"
        assert data["rho"] == 3
        assert data["phi"] == [-2, 1, 1, 1, 2, 0]
        assert data["n_values"] == {"A": 1, "B": -2, "C": 1}

    def test_parse_error(self, capsys, tmp_path):
        for argv in (
            ["invariants", "ABAB:a"],
            ["cover", "ABAB:ab", "--r", "0", "--cache", str(tmp_path)],
            ["identify", "ABAB:ab", "--crossings", "-1", "--cache", str(tmp_path)],
            ["tables", "1", "--crossings", "-2", "--cache", str(tmp_path)],
            ["identify", "ABAB:ab", "--crossings", "27", "--cache", str(tmp_path)],
            ["identify", "ABAB:ab", "--crossings", "3", "--insert-budget", "-1",
             "--cache", str(tmp_path), "--compute"],
            ["enumerate", "--crossings", "3", "--max-members", "-3", "--cache", str(tmp_path)],
            ["enumerate", "--crossings", "3", "--max-members", "0", "--cache", str(tmp_path)],
            ["enumerate", "--crossings", "3", "--max-steps", "-1", "--cache", str(tmp_path)],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert err.startswith("error: ")
            assert "Traceback" not in err


class TestEnumerateCommand:
    def test_three_crossings(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path)
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + two rows
        assert "3.1" in lines[1] and "ABACBC:aab" in lines[1]
        assert "3.2" in lines[2]

    def test_zero_crossings(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--crossings", "0", "--cache", str(tmp_path)
        )
        assert code == 0
        rows = [l.split() for l in out.splitlines()[1:] if l.strip()]
        assert [r[0] for r in rows] == ["0"]

    def test_two_crossings_empty(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "enumerate", "--crossings", "2", "--cache", str(tmp_path)
        )
        assert code == 0
        rows = [l for l in out.splitlines()[1:] if l.strip()]
        assert rows == []

    def test_truncation_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "enumerate",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--max-members",
            "2",
        )
        assert code == 2
        assert "truncated" in err
        assert "max_members=2" in err

    def test_cache_roundtrip(self, capsys, tmp_path):
        run(capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path))
        first = {p.name: p.read_text() for p in tmp_path.glob("*.json")}
        assert set(first) == {"census_n3.json"}
        census = cli.load_census(tmp_path, 3)
        assert census is not None
        cli.save_census(census, tmp_path)
        second = {p.name: p.read_text() for p in tmp_path.glob("*.json")}
        assert second == first

    def test_corrupt_cache_is_a_miss(self, capsys, tmp_path):
        run(capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path))
        path = tmp_path / "census_n3.json"
        path.write_text(path.read_text()[:40])
        code, _, err = run(
            capsys, "identify", "BCBECE:aab", "--crossings", "3", "--cache", str(tmp_path)
        )
        assert code == 1
        assert "not cached" in err
        assert err.startswith("error: census up to ") and err.count("\n") == 1
        assert "Traceback" not in err
        code, out, err = run(
            capsys,
            "identify",
            "BCBECE:aab",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--compute",
        )
        assert code == 0
        assert out.strip() == "3.1"
        assert "Traceback" not in err
        assert json.loads(path.read_text())["crossings"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["census_n3.json"]

    @pytest.mark.parametrize(
        "field, value",
        [("phi", [[1]]), ("rho", [3]), ("id", ["3.1"]), ("cover_phis", [[[1]]])],
        ids=["phi", "rho", "id", "cover_phis"],
    )
    def test_malformed_record_is_a_miss(self, capsys, tmp_path, field, value):
        # JSON that parses but holds a list where a scalar or tuple belongs
        run(capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path))
        path = tmp_path / "census_n3.json"
        data = json.loads(path.read_text())
        data["records"][1][field] = value
        path.write_text(json.dumps(data))
        args = ["identify", "ABACBC:aab", "--crossings", "3", "--cache", str(tmp_path)]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "not cached" in err
        assert err.startswith("error: census up to ") and err.count("\n") == 1
        assert "Traceback" not in err
        code, out, _ = run(capsys, *args, "--compute")
        assert (code, out.strip()) == (0, "3.1")
        assert cli.load_census(tmp_path, 3).by_id("3.1").phi == (-2, 1, 1, 1, 2, 0)

    def test_empty_symmetry_reads_as_unset(self, capsys, tmp_path):
        run(capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path))
        path = tmp_path / "census_n3.json"
        data = json.loads(path.read_text())
        data["records"][1]["symmetry"] = {}
        path.write_text(json.dumps(data))
        census = cli.load_census(tmp_path, 3)
        assert census.by_id("3.1").symmetry is None
        assert census.by_id("3.2").symmetry is not None

    def test_version_3_file_is_a_miss(self, capsys, tmp_path):
        run(capsys, "enumerate", "--crossings", "3", "--cache", str(tmp_path))
        path = tmp_path / "census_n3.json"
        data = json.loads(path.read_text())
        assert data["version"] == 4 and "u" not in data["records"][1]
        assert set(data["records"][1]["symmetry"]) == {
            "mirror_id", "inverse_id", "mirror_inverse_id", "sym_type"
        }
        data["version"] = 3
        path.write_text(json.dumps(data))
        assert cli.load_census(tmp_path, 3) is None

    def test_unusable_cache_path(self, capsys, tmp_path):
        # a regular file where the cache directory, or one of its parents,
        # should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        for argv in (
            ["enumerate", "--crossings", "2", "--cache", str(blocker)],
            ["tables", "2", "--compute", "--cache", str(blocker / "sub")],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(blocker) in err
        assert blocker.read_text() == ""

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["id"] for r in rows] == ["3.1", "3.2"]

    def test_csv_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,nanoword,u,rho,phi"
        assert lines[1].startswith("3.1,ABACBC:aab,-t^2+2t,3,")


@pytest.fixture(scope="module")
def cache5(tmp_path_factory):
    """A cache directory holding the census built to 5 crossings."""
    path = tmp_path_factory.mktemp("cache5")
    assert cli.main(["enumerate", "--crossings", "5", "--cache", str(path)]) == 0
    return path


class TestTablesCommand:
    def test_table2(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tables", "2", "--crossings", "4", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        assert out.strip() == "0:1, 1:0, 2:0, 3:2, 4:26"

    def test_table2_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tables", "2", "--cache", str(tmp_path), "--compute", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {str(n): c for n, c in golden.TABLE2.items()}

    def test_table2_csv(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tables", "2", "--cache", str(tmp_path), "--compute", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["crossings,count"] + [f"{n},{c}" for n, c in golden.TABLE2.items()]

    def test_table2_builds_no_other_table(self, capsys, tmp_path, monkeypatch):
        def fail(census):
            raise AssertionError("built a table that was not asked for")

        for n in (1, 3, 4, 5):
            monkeypatch.setattr(cli.cz, f"table{n}", fail)
        expected = {
            "text": "0:1, 1:0, 2:0, 3:2, 4:26\n",
            "csv": "crossings,count\r\n0,1\r\n1,0\r\n2,0\r\n3,2\r\n4,26\r\n",
            "json": '{"0": 1, "1": 0, "2": 0, "3": 2, "4": 26}\n',
        }
        for fmt, text in expected.items():
            code, out, _ = run(
                capsys, "tables", "2", "--cache", str(tmp_path), "--compute", "--format", fmt
            )
            assert (code, out) == (0, text)

    def test_table4(self, capsys, cache5):
        code, out, _ = run(capsys, "tables", "4", "--cache", str(cache5))
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 2 * len(golden.TABLE4)
        firsts, seconds = rows[::2], rows[1::2]
        assert [r[2] for r in seconds] == [r[2] for r in firsts]
        assert [
            ((w1, c1), (w2, c2), phi)
            for (_, w1, phi, c1), (_, w2, _, c2) in zip(firsts, seconds)
        ] == golden.TABLE4

    def test_table5(self, capsys, cache5):
        # the published groups, and the one extra pair the census reports
        code, out, _ = run(capsys, "tables", "5", "--cache", str(cache5))
        assert code == 0
        got = set()
        for line in out.splitlines()[1:]:
            members, rho, phi = re.split(r" {2,}", line)
            got.add((frozenset(members.split(" | ")), int(rho), phi))
        published = {(frozenset(members), rho, phi) for members, rho, phi in golden.TABLE5}
        assert published <= got
        (extra,) = got - published
        assert extra[0] == frozenset(golden.EXTRA_UNRESOLVED_PAIR)

    def test_missing_cache_without_compute(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "tables", "2", "--crossings", "4", "--cache", str(tmp_path)
        )
        assert code == 1
        assert "not cached" in err
        assert err.startswith("error: census up to ") and err.count("\n") == 1

    def test_table3(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tables", "3", "--crossings", "4", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[1].split() == ["0", "=", "=", "=", "a"]

    def test_shallower_table_is_not_read_from_deeper_cache(self, capsys, tmp_path):
        # a 5-crossing build leaves 4.1, 4.2, 4.4 and 4.9 without symmetry
        # (their images fall in 5-crossing groups); the 4-crossing table
        # comes from a 4-crossing build
        assert cli.main(["enumerate", "--crossings", "5", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        args = ["tables", "3", "--crossings", "4", "--cache", str(tmp_path)]
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "not cached" in err
        assert err.startswith("error: census up to ") and err.count("\n") == 1
        code, out, _ = run(capsys, *args, "--compute")
        assert code == 0
        assert [tuple(line.split()) for line in out.splitlines()[1:]] == golden.TABLE3

    def test_table1_matches_enumerate(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "tables",
            "1",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--compute",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["id"] for r in rows] == ["0", "3.1", "3.2"]


class TestIdentifyCommand:
    def test_covering_word(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "identify", "BCBECE:aab", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        assert out.strip() == "3.1"

    def test_trivial(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "identify", "0", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        assert out.strip() == "0"

    def test_unknown_is_not_an_error(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "identify",
            "ABACBDEDCE:baabb",
            "--cache",
            str(tmp_path),
            "--compute",
        )
        assert code == 0
        assert out.strip() == "unknown"

    def test_insertion_search_truncated(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "identify",
            "ABACBC:aab",
            "--crossings",
            "3",
            "--cache",
            str(tmp_path),
            "--compute",
            "--insert-budget",
            "1",
            "--max-members",
            "20",
        )
        assert (code, out) == (2, "")
        assert err == "error: truncated: insertion search from ABACBC:aab exceeded max_members=20\n"

    def test_insert_budget_from_a_word_that_reduces_to_empty(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "identify",
            "ABAB:ab",
            "--insert-budget",
            "7",
            "--crossings",
            "2",
            "--cache",
            str(tmp_path),
            "--compute",
        )
        assert (code, out) == (0, "0\n")

    def test_phi_orderings_truncated(self, capsys, tmp_path):
        # six copies of ABACBC:aab: phi would enumerate 6!^3 orderings
        code, out, err = run(
            capsys, "identify", REPEATED_PIECES, "--crossings", "4", "--compute", "--cache", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err == "error: truncated: phi's 373248000 orderings exceeded max_steps=10000000\n"

    def test_insert_budget_accepted(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "identify",
            "BCBECE:aab",
            "--cache",
            str(tmp_path),
            "--compute",
            "--insert-budget",
            "1",
        )
        assert code == 0
        assert out.strip() == "3.1"


class TestSymmetryCommand:
    def test_row_4_6(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "symmetry", "ABACBDCD:aaba", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        assert out.strip() == "4.6: type c, mirror 4.15, inverse 4.14, mirror-inverse 4.7"

    def test_symmetry_not_determined(self, capsys, tmp_path):
        # at 5 crossings the images of 4.2 land in an unresolved group, and
        # so does 4.2 itself: the word answers with that group
        assert cli.main(["enumerate", "--crossings", "5", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli.load_census(tmp_path, 5).by_id("4.2").symmetry is None
        code, out, _ = run(
            capsys, "symmetry", "ABABCDCD:aabb", "--crossings", "5", "--cache", str(tmp_path)
        )
        assert code == 0
        assert out.strip() == "ambiguous(ABABCDCD:aabb|ABABCDCEDE:aabab|ABABCDCEDE:bbaba)"
        # a record cached without symmetry says so
        path = tmp_path / "census_n5.json"
        data = json.loads(path.read_text())
        next(r for r in data["records"] if r["id"] == "3.1")["symmetry"] = None
        path.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "symmetry", "ABACBC:aab", "--crossings", "5", "--cache", str(tmp_path)
        )
        assert code == 0
        assert out.strip() == "3.1: symmetry not determined"


class TestCoverCommand:
    def test_published_example(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cover",
            "ABACDECDBE:bbaaa",
            "--r",
            "2",
            "--cache",
            str(tmp_path),
            "--compute",
        )
        assert code == 0
        assert out.strip() == "BCDCDB:baa, identified 0"

    def test_other_published_example(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cover",
            "ABACBDEDCE:baabb",
            "--r",
            "2",
            "--cache",
            str(tmp_path),
            "--compute",
        )
        assert code == 0
        assert out.strip() == "BCBECE:aab, identified 3.1"


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_bad_table(self, capsys):
        assert cli.main(["tables", "9"]) == 1
