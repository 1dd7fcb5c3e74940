"""The three benchmark workloads and the checks on their outputs.

Each workload drives nanowords only through the public functions of its
modules, in this one process.  ``setup`` returns the seconds spent in
program calls; ``step`` performs one operation and returns its samples,
each timed around the program call alone (imports, input generation and
output checks stay outside the timed region).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from queries import query_stream
from speed import probe_cpu

MODULES = ("words", "moves", "invariants", "census", "cli")

CENSUS_DEPTH = 5
CANDIDATES_DEPTH = 6
CANDIDATES6_COUNT = 7825
# sha256 of the sorted candidate texts of candidates(6), one per line,
# as produced by the program when this benchmark was written.
CANDIDATES6_DIGEST = "0b87f808ed70ed576f13d842e369947a00ed120adca952020658a874fe218607"
# sha256 of table 1 of build_census(5), all 415 rows, same provenance.
TABLE1_DIGEST = "e04445bd28d9880861a438d194e306caa6049dc0b0a8da568c58def70accf2de"
# Every CLI_EVERY-th query of the stream also goes through ``cli.main``.
CLI_EVERY = 8


@dataclass
class Sample:
    kind: str  # "op" (the workload's operation) or "cli" (CLI identify)
    cpu: float  # CPU seconds of the process, its threads and its reaped children
    wall: float  # seconds of wall-clock time
    ok: bool
    error: str | None = None


def cpu_seconds() -> float:
    """CPU time of this process (all threads but the speed probe's) and of
    its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() - probe_cpu() + children.ru_utime + children.ru_stime


def timed(fn, *args):
    """``fn(*args)`` with the CPU and wall-clock seconds it took.

    The CPU time counts every thread of the process and every child
    process reaped during the call, so work handed to a thread or a
    process pool is charged to the operation.
    """
    w0, c0 = time.perf_counter(), cpu_seconds()
    result = fn(*args)
    return result, cpu_seconds() - c0, time.perf_counter() - w0


class Program:
    """The nanowords package under ``<root>/src``, imported afresh on demand.

    A fresh import discards any state the package keeps at module level,
    so an operation run after ``load`` starts from scratch.
    """

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "nanowords" / "__init__.py").is_file():
            raise FileNotFoundError(f"no nanowords package under {src}")
        sys.path.insert(0, str(src))
        self.tracer = None
        self.traced = False
        self.mods = None

    def load(self) -> SimpleNamespace:
        for name in [m for m in sys.modules if m.split(".")[0] == "nanowords"]:
            del sys.modules[name]
        mods = SimpleNamespace(
            MODULES=MODULES,
            package=importlib.import_module("nanowords"),
            **{m: importlib.import_module(f"nanowords.{m}") for m in MODULES},
        )
        self.mods = mods
        if self.traced:
            self.tracer.attach(mods)
        return mods

    def region(self, name: str):
        """A root span ``name`` while traced, else nothing."""
        return self.tracer.span(name) if self.traced else contextlib.nullcontext()

    def set_traced(self, traced: bool) -> None:
        self.traced = traced
        if traced and self.mods is not None:
            self.tracer.attach(self.mods)
        elif not traced and self.tracer is not None:
            self.tracer.detach()

    @contextlib.contextmanager
    def untraced(self):
        """Run the benchmark's own checks without recording their calls."""
        traced = self.traced
        self.set_traced(False)
        try:
            yield
        finally:
            self.set_traced(traced)


def load_golden(root: Path):
    path = root / "tests" / "golden.py"
    if not path.is_file():
        raise FileNotFoundError(f"no reference tables at {path}")
    spec = importlib.util.spec_from_file_location("perfbench_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def table1_digest(cz, census) -> str:
    return _digest(
        f"{r['id']} {r['nanoword']} {r['u']} {r['rho']} {r['phi']}"
        for r in cz.table1(census)
    )


def check_census5(mods, census, golden) -> list[str]:
    """Problems with a depth-5 census against the reference data."""
    cz, inv = mods.census, mods.invariants
    problems = []
    rows = [
        (r["id"], r["nanoword"], r["u"], r["rho"], r["phi"]) for r in cz.table1(census)
    ]
    if rows[: len(golden.TABLE1)] != golden.TABLE1:
        problems.append("table 1 differs from TABLE1")
    if table1_digest(cz, census) != TABLE1_DIGEST:
        problems.append("table 1 (all 415 rows) differs from the pinned digest")
    if cz.table2(census) != {**golden.TABLE2, 5: 386}:
        problems.append(f"table 2 reads {cz.table2(census)}")
    problems += _check_table3(cz, census, golden)
    grid = cz.table4(census)
    want4 = [([w1, w2], [c1, c2], phi) for (w1, c1), (w2, c2), phi in golden.TABLE4]
    got4 = [
        ([r["nanoword"] for r in g], [r["cover2"] for r in g], g[0]["phi"]) for g in grid
    ]
    if got4 != want4 or any(r["phi"] != g[0]["phi"] for g in grid for r in g):
        problems.append("table 4 differs from TABLE4")
    got5 = {
        frozenset(str(m) for m in g.members): (g.rho, inv.phi_string(g.phi_display))
        for g in census.unresolved
    }
    want5 = {frozenset(members): (rho, phi) for members, rho, phi in golden.TABLE5}
    extra = frozenset(golden.EXTRA_UNRESOLVED_PAIR)
    if set(got5) != set(want5) | {extra} or any(got5[k] != v for k, v in want5.items()):
        problems.append("unresolved groups differ from TABLE5 plus the extra pair")
    return problems


def _check_table3(cz, census, golden) -> list[str]:
    """Table 3 rows up to 4 crossings against TABLE3.

    Every row printed must equal the published one.  A published row may
    be missing only when a record of its orbit is not identified as
    itself: ``symmetry_classify`` leaves such records unset, which at
    depth 5 happens to the 4-crossing records that share a matrix with an
    unresolved group.  Once ``identify`` names every record, all rows are
    required.
    """
    got = {
        r["id"]: (r["id"], r["mirror"], r["inverse"], r["mirror_inverse"], r["type"])
        for r in cz.table3(census)
    }
    problems = []
    for row in golden.TABLE3:
        if row[0] in got:
            if got[row[0]] != row:
                problems.append(f"table 3 row {got[row[0]]} differs from {row}")
            continue
        orbit = {row[0]} | {rid for rid in row[1:4] if rid != "="}
        if all(
            cz.identify(census.by_id(rid).nanoword, census) == rid for rid in orbit
        ):
            problems.append(f"table 3 lacks row {row[0]} though its orbit is identified")
    return problems


def check_answers(census, expected: dict[str, str]) -> list[str]:
    """Problems with the answers for the census records themselves.

    A record must be named by its own id, or reported ambiguous: either
    among records that include it, or with exactly the members of the
    unresolved groups that share its phi.
    """
    problems = []
    for r in census.records:
        got = expected[str(r.nanoword)]
        if got == r.id:
            continue
        if got.startswith("ambiguous(") and got.endswith(")"):
            names = got[len("ambiguous("):-1].split("|")
            group = sorted(str(m) for g in census.unresolved if g.phi == r.phi for m in g.members)
            if r.id in names or (group and names == group):
                continue
        problems.append(f"record {r.id} ({r.nanoword}) is identified as {got}")
    return problems


def _failure() -> str:
    return traceback.format_exc(limit=-3)


class _FromScratch:
    """A workload whose every operation runs on a fresh import.

    Its set-up is that import; its input is fixed, so the seed is unused.
    """

    setup_reps = 41
    fresh_per_op = True
    block = 1  # operations per block when tracing alternates

    def __init__(self, prog: Program, golden, seed: int, out_dir: Path):
        self.prog, self.golden = prog, golden

    def setup(self) -> float:
        gc.collect()
        return timed(self.prog.load)[1]

    def step(self) -> list[Sample]:
        mods = self.prog.load()
        gc.collect()  # the previous operation's garbage is not this one's cost
        try:
            with self.prog.region("op"):
                result, cpu, wall = timed(self.operation, mods)
        except Exception:
            return [Sample("op", 0.0, 0.0, False, _failure())]
        with self.prog.untraced():
            problems = self.check(mods, result)
        return [Sample("op", cpu, wall, not problems, "; ".join(problems) or None)]

    def close(self) -> None:
        pass


class Census5(_FromScratch):
    """build_census(5): all three stages run."""

    name = "census5"

    def operation(self, mods):
        return mods.census.build_census(CENSUS_DEPTH)

    def check(self, mods, census) -> list[str]:
        return check_census5(mods, census, self.golden)


class Candidates6(_FromScratch):
    """candidates(6) alone: word construction and the 3-class search."""

    name = "candidates6"

    def operation(self, mods):
        return mods.census.candidates(CANDIDATES_DEPTH)

    def check(self, mods, found) -> list[str]:
        problems = []
        if len(found) != CANDIDATES6_COUNT:
            problems.append(f"{len(found)} candidates, expected {CANDIDATES6_COUNT}")
        if _digest(sorted(str(nw) for nw in found)) != CANDIDATES6_DIGEST:
            problems.append("candidate texts differ from the pinned digest")
        return problems


class IdentifyStream:
    """One closed-loop client identifying disguised census records.

    Set-up builds the depth-5 census, saves it with ``cli.save_census``
    and loads it back with ``cli.load_census``; queries go to
    ``census.identify`` on the loaded census, and every ``CLI_EVERY``-th
    one also to ``cli.main(["identify", ...])`` against the saved cache.
    """

    name = "identify_stream"
    setup_reps = 5
    fresh_per_op = False
    block = CLI_EVERY

    def __init__(self, prog: Program, golden, seed: int, out_dir: Path):
        self.prog, self.golden, self.seed = prog, golden, seed
        self.cache_dir = out_dir / f"cache-{os.getpid()}"
        self.letters: dict[int, int] = {}
        self.count = 0

    def setup(self) -> float:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        gc.collect()
        mods = self.prog.load()
        built, spent, _ = timed(mods.census.build_census, CENSUS_DEPTH)
        with self.prog.untraced():
            problems = check_census5(mods, built, self.golden)
        census, cpu, _ = timed(self._save_and_load, mods, built)
        spent += cpu
        with self.prog.untraced():
            if census is None or mods.census.build_tables(census) != mods.census.build_tables(built):
                problems.append("the census read back from the cache differs from the one saved")
        if problems:
            raise RuntimeError("; ".join(problems))
        self.expected, cpu, _ = timed(self._answers, mods, census)
        spent += cpu
        problems = check_answers(census, self.expected)
        if problems:
            raise RuntimeError("; ".join(problems[:5]))
        self.mods, self.census = mods, census
        self.cache_bytes = sum(p.stat().st_size for p in self.cache_dir.iterdir())
        self.stream = query_stream(sorted(self.expected), self.seed)
        self.letters.clear()
        self.count = 0
        return spent

    def _save_and_load(self, mods, built):
        mods.cli.save_census(built, self.cache_dir)
        return mods.cli.load_census(self.cache_dir, CENSUS_DEPTH)

    @staticmethod
    def _answers(mods, census) -> dict[str, str]:
        return {str(r.nanoword): mods.census.identify(r.nanoword, census) for r in census.records}

    def step(self) -> list[Sample]:
        q = next(self.stream)
        self.count += 1
        self.letters[q.letters] = self.letters.get(q.letters, 0) + 1
        want = self.expected[q.record]
        try:
            nw = self.mods.words.parse_nanoword(q.text)
            with self.prog.region("op"):
                got, cpu, wall = timed(self.mods.census.identify, nw, self.census)
        except Exception:
            return [Sample("op", 0.0, 0.0, False, f"{q.text}: {_failure()}")]
        error = None if got == want else f"{q.text}: {got} != {want}"
        out = [Sample("op", cpu, wall, error is None, error)]
        if self.count % CLI_EVERY == 1:
            out.append(self._cli(q.text, want))
        return out

    def _cli(self, text: str, want: str) -> Sample:
        argv = ["identify", text, "--crossings", str(CENSUS_DEPTH), "--cache", str(self.cache_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with self.prog.region("cli"):
                    code, cpu, wall = timed(self.mods.cli.main, argv)
        except Exception:
            return Sample("cli", 0.0, 0.0, False, f"cli {text}: {_failure()}")
        got = stdout.getvalue().strip()
        if code != 0 or got != want:
            error = f"cli {text}: exit {code}, {got!r} != {want!r}; {stderr.getvalue().strip()}"
            return Sample("cli", cpu, wall, False, error)
        return Sample("cli", cpu, wall, True)

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Census5, Candidates6, IdentifyStream)}
