import json

import nanowords.cli as cli

import golden


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


class TestTablesCommand:
    def test_table2(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tables", "2", "--crossings", "4", "--cache", str(tmp_path), "--compute"
        )
        assert code == 0
        assert out.strip() == "0:1, 1:0, 2:0, 3:2, 4:26"

    def test_missing_cache_without_compute(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "tables", "2", "--crossings", "4", "--cache", str(tmp_path)
        )
        assert code == 1
        assert "not cached" in err

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
