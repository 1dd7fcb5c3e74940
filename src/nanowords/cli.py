"""Command-line frontend: invariant queries, census runs, table output.

Exit codes: 0 success, 1 usage or parse error, 2 truncated computation.
A census is cached as one JSON file per depth it was built to, under the
cache directory (default ``./census_cache``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import census as cz
from . import invariants, moves, words
from .words import NanowordError, parse_nanoword

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRUNCATED = 2

CACHE_VERSION = 4
DEFAULT_CACHE = "census_cache"


def _record_to_json(rec: cz.StringRecord) -> dict:
    return {
        "id": rec.id,
        "nanoword": str(rec.nanoword),
        "rho": rec.rho,
        "phi": list(rec.phi),
        "phi_display": list(rec.phi_display),
        "cover_phis": [list(p) for p in rec.cover_phis],
        "coverings": {str(r): v for r, v in sorted(rec.coverings.items())},
        "symmetry": None if rec.symmetry is None else dataclasses.asdict(rec.symmetry),
    }


def _record_from_json(d: dict) -> cz.StringRecord:
    s = d.get("symmetry")
    return cz.StringRecord(
        id=d["id"],
        nanoword=parse_nanoword(d["nanoword"]),
        rho=d["rho"],
        phi=tuple(d["phi"]),
        phi_display=tuple(d["phi_display"]),
        cover_phis=tuple(map(tuple, d["cover_phis"])),
        coverings={int(r): v for r, v in d.get("coverings", {}).items()},
        symmetry=cz.Symmetry(**s) if s else None,
    )


def census_to_json(census: cz.CensusTable) -> dict:
    return {
        "version": CACHE_VERSION,
        "crossings": census.max_crossings,
        "records": [_record_to_json(r) for r in census.records],
        "unresolved": [
            {
                "members": [str(m) for m in g.members],
                "rho": g.rho,
                "phi": list(g.phi),
                "phi_display": list(g.phi_display),
                "cover_phis": [list(p) for p in g.cover_phis],
            }
            for g in census.unresolved
        ],
        "meta": {"limits": census.limits},
    }


def _cache_file(cache_dir: Path, n: int) -> Path:
    return cache_dir / f"census_n{n}.json"


def save_census(census: cz.CensusTable, cache_dir: Path) -> None:
    """Write the whole census to the file of its depth, replaced atomically."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = _cache_file(cache_dir, census.max_crossings)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    payload = census_to_json(census)
    try:
        tmp.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _group_from_json(g: dict) -> cz.UnresolvedGroup:
    return cz.UnresolvedGroup(
        members=tuple(parse_nanoword(t) for t in g["members"]),
        rho=g["rho"],
        phi=tuple(g["phi"]),
        phi_display=tuple(g["phi_display"]),
        cover_phis=tuple(map(tuple, g["cover_phis"])),
    )


def load_census(cache_dir: Path, max_n: int) -> cz.CensusTable | None:
    """The census built to ``max_n`` crossings from its cache file, or None.

    A missing, unreadable or malformed file, one of another cache version,
    or one built to another depth is a miss.
    """
    try:
        data = json.loads(_cache_file(cache_dir, max_n).read_text())
        if data.get("version") != CACHE_VERSION or data.get("crossings") != max_n:
            return None
        records = [_record_from_json(d) for d in data["records"]]
        groups = [_group_from_json(g) for g in data.get("unresolved", [])]
        return cz.CensusTable(max_n, records, groups, data.get("meta", {}).get("limits", {}))
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return None


def obtain_census(args, max_n: int) -> cz.CensusTable:
    cache_dir = Path(args.cache)
    cached = load_census(cache_dir, max_n)
    if cached is not None:
        return cached
    if not getattr(args, "compute", True):
        raise SystemExit(
            f"census up to {max_n} crossings not cached in {cache_dir}; "
            "run 'nanowords enumerate' or pass --compute"
        )
    census = cz.build_census(
        max_n,
        max_members=args.max_members,
        max_steps=args.max_steps,
        warn=lambda m: print(f"warning: {m}", file=sys.stderr),
    )
    save_census(census, cache_dir)
    return census


# ---------------------------------------------------------------------------
# Rendering helpers.
# ---------------------------------------------------------------------------


def _emit_rows(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(rows, out, indent=1)
        out.write("\n")
        return
    if fmt == "csv":
        import csv

        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})
        return
    widths = {c: max([len(c)] + [len(str(r[c])) for r in rows]) for c in columns}
    out.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(str(row[c]).ljust(widths[c]) for c in columns).rstrip() + "\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_invariants(args) -> int:
    nw = parse_nanoword(args.nanoword)
    stats = invariants.n_values(nw)
    u = invariants.u_of(stats.n.values())
    cf, _, display = invariants._canonical(invariants.based_matrix(nw, stats))
    covers = {
        r: str(invariants.covering_raw(nw, r, stats))
        for r, *_ in cz._covering_radii(stats).values()
    }
    if args.json:
        json.dump(
            {
                "nanoword": str(nw),
                "n_values": {x: stats.n[x] for x in nw.letters},
                "u": [[k, c] for k, c in u.coefficients],
                "u_text": str(u),
                "rho": cf.rho,
                "phi": list(cf.phi),
                "phi_display": list(display),
                "coverings": {str(r): c for r, c in covers.items()},
            },
            sys.stdout,
            indent=1,
        )
        print()
        return EXIT_OK
    print(f"nanoword: {nw}")
    if nw.letters:
        print("n-values:", ", ".join(f"n({x})={stats.n[x]}" for x in nw.letters))
    print(f"u-polynomial: {u}")
    print(f"rho: {cf.rho}")
    print(f"phi: {invariants.phi_string(cf.phi)}")
    for r, c in covers.items():
        print(f"covering r={r}: {c}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    census = obtain_census(args, args.crossings)
    rows = [
        row
        for rec, row in zip(census.records, cz.table1(census))
        if rec.crossings == args.crossings
    ]
    _emit_rows(rows, ["id", "nanoword", "u", "rho", "phi"], args.format, sys.stdout)
    return EXIT_OK


def cmd_tables(args) -> int:
    max_n = {1: 4, 2: 4, 3: 4, 4: 5, 5: 5}[args.table]
    if args.crossings is not None:
        max_n = args.crossings
    census = obtain_census(args, max_n)
    table = (cz.table1, cz.table2, cz.table3, cz.table4, cz.table5)[args.table - 1](census)
    if args.table == 1:
        _emit_rows(table, ["id", "nanoword", "u", "rho", "phi"], args.format, sys.stdout)
    elif args.table == 2:
        if args.format == "json":
            print(json.dumps(table))
        elif args.format == "csv":
            rows = [{"crossings": n, "count": c} for n, c in table.items()]
            _emit_rows(rows, ["crossings", "count"], args.format, sys.stdout)
        else:
            print(", ".join(f"{n}:{c}" for n, c in table.items()))
    elif args.table == 3:
        columns = ["id", "mirror", "inverse", "mirror_inverse", "type"]
        _emit_rows(table, columns, args.format, sys.stdout)
    elif args.table == 4:
        rows = [r for grp in table for r in grp]
        _emit_rows(rows, ["id", "nanoword", "phi", "cover2"], args.format, sys.stdout)
    else:
        rows = [
            {"members": " | ".join(g["members"]), "rho": g["rho"], "phi": g["phi"]}
            for g in table
        ]
        _emit_rows(rows, ["members", "rho", "phi"], args.format, sys.stdout)
    return EXIT_OK


def cmd_identify(args) -> int:
    nw = parse_nanoword(args.nanoword)
    census = obtain_census(args, args.crossings)
    print(cz.identify(nw, census, args.max_members, args.max_steps, args.insert_budget))
    return EXIT_OK


def cmd_symmetry(args) -> int:
    nw = parse_nanoword(args.nanoword)
    census = obtain_census(args, args.crossings)
    rec = cz.lookup(nw, census, args.max_members, args.max_steps, args.insert_budget)
    if not isinstance(rec, cz.StringRecord):
        print(cz.entry_name(rec))
    elif rec.symmetry is None:
        print(f"{rec.id}: symmetry not determined")
    else:
        s = rec.symmetry
        print(
            f"{rec.id}: type {s.sym_type}, mirror {s.mirror_id}, "
            f"inverse {s.inverse_id}, mirror-inverse {s.mirror_inverse_id}"
        )
    return EXIT_OK


def cmd_cover(args) -> int:
    raw = invariants.covering_raw(parse_nanoword(args.nanoword), args.r)
    census = obtain_census(args, args.crossings)
    name = cz.identify(raw, census, args.max_members, args.max_steps, args.insert_budget)
    print(f"{raw}, identified {name}")
    return EXIT_OK


def _add_census_options(p, default_crossings=4):
    p.add_argument("--crossings", type=int, default=default_crossings,
                   help="census depth (default %(default)s)")
    p.add_argument("--cache", default=DEFAULT_CACHE, help="census cache directory")
    p.add_argument("--max-members", type=int, default=moves.DEFAULT_MAX_MEMBERS)
    p.add_argument("--max-steps", type=int, default=moves.DEFAULT_MAX_STEPS)
    p.add_argument("--insert-budget", type=int, default=0,
                   help="extra letters the identification search may insert")
    p.add_argument("--compute", action="store_true",
                   help="build the census if not cached")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanowords",
        description="Virtual strings as nanowords: invariants and census tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="n-values, u-polynomial, rho, phi, coverings")
    p.add_argument("nanoword")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("enumerate", help="enumerate the census at a crossing number")
    _add_census_options(p)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=cmd_enumerate, compute=True)

    p = sub.add_parser("tables", help="print census tables 1-5")
    p.add_argument("table", type=int, choices=[1, 2, 3, 4, 5])
    _add_census_options(p)
    p.set_defaults(crossings=None)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("identify", help="identify a nanoword against the census")
    p.add_argument("nanoword")
    _add_census_options(p)
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("symmetry", help="mirror/inverse classification of a nanoword")
    p.add_argument("nanoword")
    _add_census_options(p)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("cover", help="r-covering of a nanoword plus identification")
    p.add_argument("nanoword")
    p.add_argument("--r", type=int, required=True)
    _add_census_options(p)
    p.set_defaults(fn=cmd_cover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    if not 0 <= (getattr(args, "crossings", None) or 0) <= words.MAX_LETTERS:
        return _usage_error(f"--crossings must be between 0 and {words.MAX_LETTERS}")
    if getattr(args, "insert_budget", 0) < 0:
        return _usage_error("--insert-budget must not be negative")
    if getattr(args, "max_members", 1) < 1:
        return _usage_error("--max-members must be at least 1")
    if getattr(args, "max_steps", 0) < 0:
        return _usage_error("--max-steps must not be negative")
    try:
        return args.fn(args)
    except moves.TruncationError as e:
        print(f"error: truncated: {e}", file=sys.stderr)
        return EXIT_TRUNCATED
    except (NanowordError, invariants.InvariantError, OSError, SystemExit) as e:
        return _usage_error(e)


if __name__ == "__main__":
    sys.exit(main())
