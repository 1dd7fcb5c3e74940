"""In-memory spans and counters around the layer entry points of nanowords.

The wrappers live here, in the benchmark, not in the program: ``attach``
rebinds each entry point in every package module that holds it, and
``detach`` puts the originals back.  A span is ``[name, start, end,
parent]`` with ``parent`` the index of the enclosing span (-1 for a root);
a layer's self time is its spans' durations minus the time their child
spans cover.  Counters are plain call counts for functions called too
often to span, kept apart for each named root span (``span``) that was
open when they fired; calls outside any of them count under ``""``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function, span name).  One function may be bound under its
# name in several modules (``from .words import parse_nanoword``);
# ``attach`` rebinds every binding of the same object.
SPANNED = (
    ("census", "candidates", "census.candidates"),
    ("census", "distinguish", "census.distinguish"),
    ("census", "symmetry_classify", "census.symmetry"),
    ("census", "identify", "census.identify"),
    ("moves", "reduce_to_irreducible", "moves.reduce"),
    ("invariants", "based_matrix", "invariants.based_matrix"),
    ("invariants", "canonical_form", "invariants.canonical_form"),
    ("invariants", "n_values", "invariants.n_values"),
    ("invariants", "covering", "invariants.covering"),
    ("words", "parse_nanoword", "words.parse"),
    ("cli", "load_census", "cli.load_census"),
    ("cli", "save_census", "cli.save_census"),
)
# CensusTable lookups: the record and group scans that an index replaces.
LOOKUPS = ("by_phi", "groups_by_phi", "by_id")
# (module, attribute path, counter name).  A counter whose function no
# longer exists is not installed and reports as absent.
COUNTED = (
    ("moves", "_neighbors", "moves.states_expanded"),
    ("words", "Nanoword.__post_init__", "words.validate.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        # root span name -> counter name -> calls; ``installed`` holds the
        # counters whose function exists.
        self.counters: dict[str, dict[str, int]] = {}
        self.installed: set[str] = set()
        self.root = ""
        self._active = [self._root_counters("")]
        # Sharing within one memo scope (a fresh import for the census
        # workloads, the whole measured phase for the query stream),
        # among calls under "op" root spans only.
        self.based_inputs: set = set()
        self.based_distinct = 0
        self.reduce_outputs: set = set()
        self.reduce_repeats = 0
        # Nanowords the candidate generator walks, counted from the public
        # increasing_gauss_words, and the candidates it keeps.
        self.candidate_inputs = 0
        self.candidate_found = 0
        self._inputs_at: dict[int, int] = {}
        self._census = None
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark; at the top level it is a root
        that the counters and the sharing records are kept under."""
        outer = self.root
        if self.stack[-1] < 0:
            self.root = name
            self._active[0] = self._root_counters(name)
        rec = [name, time.perf_counter(), 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()
            self.root = outer
            self._active[0] = self._root_counters(outer)

    def _root_counters(self, root: str) -> dict[str, int]:
        return self.counters.setdefault(root, {})

    def count(self, root: str, key: str) -> int | None:
        """Calls of counter ``key`` under ``root``; None if not installed."""
        return self.counters.get(root, {}).get(key, 0) if key in self.installed else None

    def _spanned(self, fn, name, hook=None):
        # span() inlined: these wrappers run up to 10^5 times per run, and
        # a generator-based context manager would double their overhead.
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        active = self._active
        self.installed.add(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = active[0]
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_based_matrix(self, args, result):
        if self.root == "op" and args[0] not in self.based_inputs:
            self.based_inputs.add(args[0])
            self.based_distinct += 1

    def _on_candidates(self, args, result):
        if self.root != "op":
            return
        n = args[0]
        if n not in self._inputs_at:
            words = sum(1 for _ in self._census.increasing_gauss_words(n, True))
            self._inputs_at[n] = words * 2**n
        self.candidate_inputs += self._inputs_at[n]
        self.candidate_found += len(result)

    def _on_reduce(self, args, result):
        if self.root != "op":
            return
        if result in self.reduce_outputs:
            self.reduce_repeats += 1
        else:
            self.reduce_outputs.add(result)

    # -- installing wrappers -------------------------------------------------

    def attach(self, mods) -> None:
        """Wrap the entry points of a freshly imported package."""
        self.detach()
        modules = [getattr(mods, name) for name in mods.MODULES] + [mods.package]
        self._census = mods.census
        hooks = {
            "census.candidates": self._on_candidates,
            "invariants.based_matrix": self._on_based_matrix,
            "moves.reduce": self._on_reduce,
        }
        for mod_name, fn_name, span_name in SPANNED:
            fn = getattr(getattr(mods, mod_name), fn_name)
            wrapper = self._spanned(fn, span_name, hooks.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, wrapper)
        table = mods.census.CensusTable
        for attr in LOOKUPS:
            self._rebind(table, attr, self._spanned(getattr(table, attr), "census.lookup"))
        for mod_name, path, key in COUNTED:
            owner = getattr(mods, mod_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if hasattr(owner, attr):
                self._rebind(owner, attr, self._counted(getattr(owner, attr), key))

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def detach(self) -> None:
        """Put back every original the last ``attach`` replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def new_scope(self) -> None:
        """Forget the words seen so far; the counts keep accumulating."""
        self.based_inputs.clear()
        self.reduce_outputs.clear()

    def reset_counts(self) -> None:
        for counts in self.counters.values():
            counts.clear()
        self.new_scope()
        self.based_distinct = 0
        self.reduce_repeats = 0
        self.candidate_inputs = 0
        self.candidate_found = 0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                f,
            )


def span_totals(spans: list[list], root: str | None) -> dict[str, dict[str, float]]:
    """Per span name under root spans named ``root``: calls, total, self time.

    ``root=None`` takes the spans under every root.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly in one thread, so children never
    overlap each other.
    """
    child_time = [0.0] * len(spans)
    roots = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        roots[i] = i if parent < 0 else roots[parent]
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if root is not None and spans[roots[i]][0] != root:
            continue
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
    return out
