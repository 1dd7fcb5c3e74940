"""Census pipeline: enumerate virtual string candidates and classify them.

The generator visits the nanowords over increasing Gauss words in
ascending order and keeps one when it is minimal in its 3-class and that
class is irreducible.  Only a Gauss word least among its rotations is
walked, and a reducible start is rejected without a search.  The
mirror of a state keeps its Gauss word, complements its type mask and
keeps reducibility, so one search serves a class and its mirror; the
mirror's search would take the same steps, so truncation is unchanged
(see ``_survivors``).  A class's mirror, inverse and mirror-inverse are
classes of the same walk, each found by looking one member's transform
up among the later classes.
Candidates are separated by one key: rho, the canonical primitive based
matrix phi, and the phi of each reduced r-covering.  The same key names
a word in ``identify``.  Candidates sharing a key, with each other or
with an earlier entry, are reported as an unresolved group, never merged
(whether its members are homotopic is an open question, and a group may
pair a candidate with a smaller-crossing record, since uniqueness of
irreducible 3-classes is unproven).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import invariants, moves, words
from .moves import DEFAULT_MAX_MEMBERS, DEFAULT_MAX_STEPS
from .words import _ALPHA, Nanoword

MIRROR_ONLY = "+"
INVERSE_ONLY = "i"
MIRROR_INVERSE_ONLY = "-"
ALL_SYMMETRIC = "a"
CHIRAL = "c"


def increasing_gauss_words(n: int, skip_adjacent_doubles: bool = False):
    """Yield the increasing Gauss words on n letters, in ascending order.

    With ``skip_adjacent_doubles`` words containing a doubled letter XX
    are dropped while generating: every nanoword over such a word loses
    the pair to a crossing-reducing move, so the census never needs them.
    """
    for word in _gauss_words(n, skip_adjacent_doubles):
        yield "".join([_ALPHA[x] for x in word])


def _gauss_words(n: int, skip_adjacent_doubles: bool):
    """:func:`increasing_gauss_words` as letter-index tuples, state words.

    Raises ``ValueError`` on the call itself unless 0 <= n <= 26.
    """
    if not 0 <= n <= words.MAX_LETTERS:
        raise ValueError(f"n must be between 0 and {words.MAX_LETTERS}")
    word: list[int] = []
    opened: list[int] = []  # letters that occurred once, ascending

    def rec(started: int):
        if len(word) == 2 * n:
            yield tuple(word)
            return
        for i, x in enumerate(opened):
            if skip_adjacent_doubles and word[-1] == x:
                continue
            word.append(opened.pop(i))
            yield from rec(started)
            opened.insert(i, word.pop())
        if started < n:
            word.append(started)
            opened.append(started)
            yield from rec(started + 1)
            word.pop()
            opened.pop()

    return rec(0)


def candidates(
    n: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> list[Nanoword]:
    """All n-letter nanowords that are minimal in an irreducible 3-class.

    Raises :class:`TruncationError` if any 3-class exploration hits the
    limits; the census must always run untruncated.
    """
    return sorted(nw for nw, _, _ in _decoded(n, max_members, max_steps))


def _decoded(n, max_members, max_steps):
    """Yield each survivor of :func:`_survivors` as ``(nanoword, state,
    class)``.  Survivors arrive grouped by Gauss word, so each word's text
    is joined once and shared by the nanowords of all its masks."""
    last, text = None, ""
    for state, cls in _survivors(n, max_members, max_steps):
        word, mask = state
        if word != last:
            last, text = word, "".join([_ALPHA[x] for x in word])
        yield Nanoword(text, moves._type_word(mask, n)), state, cls


def _survivors(n, max_members, max_steps):
    """Yield each candidate's ``State`` with the members of its 3-class.

    After p shift moves a state's word is ``_relabel(word[p:] + word[:p])``,
    so a candidate's word is the least of its rotations.  Words ascend: the
    first word met from a rotation orbit is its least, and files the rest
    in ``rotated`` to be skipped.  A word with ``word[0] == word[-1]`` is
    skipped too, as one shift gives it an adjacent XX.  A reducible start
    is no candidate.  ``tables`` holds the walk's word tables, each
    dropped once the walk passes its word.

    The mirror ``(w, m ^ full)`` keeps a state's word, maps its shift
    and 3-moves, in order, to the mirror's, and keeps reducibility (H1
    takes any types, H2/H2a opposite ones).  So in ``mirrored`` a class
    C found from ``mask`` files its mirror under the mirror's least mask,
    ``full ^ max{m : (word, m) in C}``, to be yielded there with no test
    or search, and a start stopped at a smaller word or a reducible
    member files its mirror start as rejected; an entry at a mask passed
    already is never read.  A skipped search would take as many steps as
    its source's, or stop no later, so truncation is unchanged.
    """
    rotated: set[tuple[int, ...]] = set()
    tables = moves._Tables()
    table_of = tables.__getitem__
    for word in _gauss_words(n, skip_adjacent_doubles=True):
        if word not in rotated and not (word and word[0] == word[-1]):
            rotated.update(moves._relabel(word[p:] + word[:p])[0] for p in range(1, len(word)))
            mirrored: dict[int, set | None] = {}
            full = (1 << n) - 1
            for mask in range(full + 1):
                state = (word, mask)
                if mask in mirrored:
                    if (cls := mirrored.pop(mask)) is not None:
                        yield state, {(w, m ^ full) for w, m in cls}
                elif not moves._reducible_state(state, table_of):
                    cls, found = _minimal_irreducible_class(state, table_of, max_members, max_steps)
                    if found is None:
                        yield state, cls
                        mirrored[full ^ max(m for w, m in cls if w == word)] = cls
                    elif found[0] < word or moves._reducible_state(found, table_of):
                        mirrored[mask ^ full] = None
        rotated.discard(word)
        tables.pop(word, None)


def _minimal_irreducible_class(start, table_of, max_members, max_steps):
    """Guarded 3-class exploration from ``start``: the states admitted,
    and the member that stopped it or None when they are the whole class.

    Stops as soon as a member smaller than ``start`` or a reducible
    member appears, before reading that member's table.
    """
    def stop(s):
        return s < start or moves._reducible_state(s, table_of)

    local, found, limit, _ = moves._explore(
        start, lambda s: moves._neighbors(s, table_of), stop, max_members, max_steps
    )
    if limit is not None:
        raise moves._truncation(f"3-class of {moves._decode(start)}", limit, max_members, max_steps)
    return local, found


def _image_minima(decoded) -> dict[Nanoword, tuple[Nanoword, ...]]:
    """Each survivor of one depth's walk, as :func:`_decoded` yields it,
    mapped to the minimal members of its class's images under
    ``words.TRANSFORM_KINDS``.  Each kind pairs the walk's classes: a class
    files one member's image in ``waiting``, and the class holding that
    image claims it."""
    images: dict[Nanoword, list] = {}
    waiting: dict[moves.State, list[tuple[Nanoword, int]]] = {}
    for nw, s, cls in decoded:
        row = images[nw] = [None] * len(words.TRANSFORM_KINDS)
        for m in cls:
            for other, k in waiting.pop(m, ()):
                row[k] = other
                images[other][k] = nw
        for k, kind in enumerate(words.TRANSFORM_KINDS):
            if row[k] is None:
                image = moves._transform_state(s, kind)
                if image in cls:
                    row[k] = nw
                else:
                    waiting.setdefault(image, []).append((nw, k))
    if waiting:
        raise RuntimeError(f"{sum(map(len, waiting.values()))} images were not walked")
    return {nw: tuple(row) for nw, row in images.items()}


# ---------------------------------------------------------------------------
# Census records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Symmetry:
    mirror_id: str
    inverse_id: str
    mirror_inverse_id: str
    sym_type: str


@dataclass
class StringRecord:
    """One tabulated virtual string; ``u`` is read off ``phi[:rho]``."""

    id: str
    nanoword: Nanoword
    u: invariants.UPolynomial = field(init=False)
    rho: int
    phi: tuple[int, ...]
    cover_phis: tuple[tuple[int, ...], ...]
    phi_display: tuple[int, ...]
    coverings: dict[int, str] = field(default_factory=dict)
    symmetry: Symmetry | None = None

    def __post_init__(self):
        self.u = invariants.u_of(self.phi[: self.rho])

    @property
    def crossings(self) -> int:
        return self.nanoword.crossings

    @property
    def key(self) -> tuple:
        return self.rho, self.phi, self.cover_phis


@dataclass(frozen=True)
class UnresolvedGroup:
    """Nanowords sharing every computed invariant; possibly homotopic.

    Members may include a record of smaller crossing number: a candidate
    indistinguishable from it cannot be registered as new, nor discarded.
    """

    members: tuple[Nanoword, ...]
    rho: int
    phi: tuple[int, ...]
    cover_phis: tuple[tuple[int, ...], ...]
    phi_display: tuple[int, ...]

    @property
    def key(self) -> tuple:
        return self.rho, self.phi, self.cover_phis


@dataclass
class CensusTable:
    """Records and unresolved groups, with lookups by id, key and word.

    Fill the lists through :meth:`add`, which indexes what it appends.
    A record is final when filed, but for its ``symmetry``, which the
    symmetry stage sets in place on the indexed object.  A separation
    key names at most one entry: a group wins over a record, and a later
    group over an earlier one.  A word filed in several places keeps the
    key of the first.
    """

    max_crossings: int = -1
    records: list[StringRecord] = field(default_factory=list)
    unresolved: list[UnresolvedGroup] = field(default_factory=list)
    limits: dict = field(default_factory=dict)

    def __post_init__(self):
        self._record_of: dict[str, StringRecord] = {}
        self._entry_at: dict[tuple, StringRecord | UnresolvedGroup] = {}
        self._word_key: dict[Nanoword, tuple] = {}
        self._index(self.records, self.unresolved)

    def add(self, records=(), unresolved=()) -> None:
        """Append records and unresolved groups, keeping the indexes in step."""
        records, unresolved = list(records), list(unresolved)
        self.records += records
        self.unresolved += unresolved
        self._index(records, unresolved)

    def _index(self, records, unresolved) -> None:
        for r in records:
            self._record_of.setdefault(r.id, r)
            self._entry_at.setdefault(r.key, r)
            self._word_key.setdefault(r.nanoword, r.key)
        for g in unresolved:
            self._entry_at[g.key] = g
            for m in g.members:
                self._word_key.setdefault(m, g.key)

    def by_id(self, rid: str) -> StringRecord:
        return self._record_of[rid]

    def by_phi(self, phi: tuple[int, ...]) -> list[StringRecord]:
        return [r for r in self.records if r.phi == phi]

    def groups_by_phi(self, phi: tuple[int, ...]) -> list[UnresolvedGroup]:
        return [g for g in self.unresolved if g.phi == phi]

    def entry(self, key: tuple) -> StringRecord | UnresolvedGroup | None:
        """The record or unresolved group filed under a separation key."""
        return self._entry_at.get(key)

    def entry_of(self, nw, max_members=DEFAULT_MAX_MEMBERS, max_steps=DEFAULT_MAX_STEPS):
        """The entry for an irreducible ``nw``'s key, stored or computed."""
        key = self._word_key.get(nw) or separate(nw, self, max_members, max_steps).key
        return self.entry(key)

    def phi_of(self, nw: Nanoword) -> tuple[int, ...]:
        """phi of ``nw``: stored for a census word, computed otherwise."""
        key = self._word_key.get(nw)
        return invariants.string_phi(nw).phi if key is None else key[1]


def _record_id(n: int, k: int) -> str:
    return "0" if n == 0 else f"{n}.{k}"


def _covering_radii(stats: invariants.LetterStats) -> dict[tuple[str, ...], list[int]]:
    """The radii r = 2 .. max|n(X)|+1, grouped by the letters X their
    r-covering keeps (r | n(X), alphabetical), in order of first radius.

    Every r past max|n(X)| keeps what max|n(X)|+1 keeps.  Empty when
    every n-value is 0: each covering is then the word itself.
    """
    top = max(map(abs, stats.n.values()), default=0)
    radii: dict[tuple[str, ...], list[int]] = {}
    for r in range(2, top + 2):
        radii.setdefault(invariants._kept(stats.nanoword, r, stats), []).append(r)
    return radii


class Separation(NamedTuple):
    """What :func:`separate` computes for one irreducible word."""

    key: tuple
    display: tuple[int, ...]
    covers: dict[int, Nanoword | None]


def separate(
    nw: Nanoword,
    census: CensusTable,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    reduced: dict[tuple[str, str], Nanoword] | None = None,
) -> Separation:
    """Invariants and separation key ``(rho, phi, cover_phis)`` of ``nw``.

    ``nw`` is irreducible.  ``cover_phis`` is r -> phi of the reduced
    r-covering for r = 2, 3, ..., with phi read from ``census`` for a
    census word.  The sequence is constant past max|n(X)|, so trailing
    repeats are trimmed; a word whose n-values are all 0 keeps the one
    element ``(phi,)``.  ``covers`` maps the first radius of each
    distinct covering to that covering reduced, or to None where its
    text is that of ``nw``.  Words with different keys are different
    strings.

    ``reduced`` maps the ``(word, types)`` text of normalized coverings
    to their reductions under the same limits; it is read and filled,
    so callers separating many words can share it.
    """
    if reduced is None:
        reduced = {}
    stats = invariants.n_values(nw)
    cf, _, display = invariants._canonical(invariants.based_matrix(nw, stats))
    covers: dict[int, Nanoword | None] = {}
    phis: dict[int, tuple[int, ...]] = {}
    for keep, radii in _covering_radii(stats).items():
        text = invariants._covering_text(nw, keep)
        if text == (nw.word, nw.types):
            red = None
        elif (red := reduced.get(text)) is None:
            red = reduced[text] = moves.reduce_to_irreducible(Nanoword(*text), 0, max_members, max_steps)
        covers[radii[0]] = red
        phis.update(dict.fromkeys(radii, cf.phi if red is None else census.phi_of(red)))
    seq = [phis[r] for r in sorted(phis)] or [cf.phi]
    while len(seq) > 1 and seq[-1] == seq[-2]:
        seq.pop()
    return Separation((cf.rho, cf.phi, tuple(seq)), display, covers)


def lookup(
    nw: Nanoword,
    census: CensusTable,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    insert_budget: int = 0,
) -> StringRecord | UnresolvedGroup | None:
    """The census entry sharing the separation key of ``nw``, if any.

    ``nw`` is first reduced to an irreducible representative; a nonzero
    ``insert_budget`` lets the reduction hunt for crossing-count escapes
    through temporarily larger words.
    """
    reduced = moves.reduce_to_irreducible(nw, insert_budget, max_members, max_steps)
    return census.entry_of(reduced, max_members, max_steps)


def entry_name(entry: StringRecord | UnresolvedGroup | None) -> str:
    """A record's id, ``ambiguous(...)`` with a group's members, or ``unknown``."""
    if entry is None:
        return "unknown"
    if isinstance(entry, UnresolvedGroup):
        return "ambiguous(" + "|".join(sorted(str(m) for m in entry.members)) + ")"
    return entry.id


def identify(
    nw: Nanoword,
    census: CensusTable,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    insert_budget: int = 0,
) -> str:
    """Name a nanoword by its census entry (:func:`lookup`, :func:`entry_name`).

    An unresolved group is reported as ambiguous: equal invariants do not
    prove homotopy.
    """
    return entry_name(lookup(nw, census, max_members, max_steps, insert_budget))


def distinguish(
    cands: list[Nanoword],
    prior: CensusTable,
    crossings: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    warn=None,
) -> tuple[list[StringRecord], list[UnresolvedGroup]]:
    """Separate same-count candidates into records and unresolved groups.

    Candidates are bucketed by separation key (:func:`separate`).  A
    lone candidate whose key no prior entry has becomes a record.  Any
    other bucket becomes an unresolved group, which also holds the
    members of the prior record or group with its key: such a collision
    means the candidate is either homotopic to the smaller string,
    contradicting Step 5 of the generator, or a genuinely new string
    sharing the invariants; nothing in the calculus decides which, so
    the group is reported rather than treated as an error.
    """
    reduced: dict[tuple[str, str], Nanoword] = {}
    seps = {nw: separate(nw, prior, max_members, max_steps, reduced) for nw in cands}
    buckets: dict[tuple, list[Nanoword]] = {}
    for nw in cands:
        buckets.setdefault(seps[nw].key, []).append(nw)

    lone: list[Nanoword] = []
    unresolved: list[UnresolvedGroup] = []
    for key in sorted(buckets):
        group = sorted(buckets[key])
        old = prior.entry(key)
        if old is None and len(group) == 1:
            lone.append(group[0])
            continue
        if old is not None and warn:
            warn(
                f"candidates {[str(g) for g in group]} share every computed "
                f"invariant with {entry_name(old)}: either the move search "
                "missed a reduction or a new string shares the invariants"
            )
        if isinstance(old, StringRecord):
            group.append(old.nanoword)
        elif old is not None:
            group.extend(old.members)
        members = tuple(sorted(group))
        # a first member that is no candidate is the prior record's word
        # or the prior group's first member
        first = members[0]
        display = seps[first].display if first in seps else old.phi_display
        unresolved.append(UnresolvedGroup(members, *key, display))

    records = [
        _make_record(_record_id(crossings, k), nw, seps[nw], prior, max_members, max_steps)
        for k, nw in enumerate(sorted(lone), 1)
    ]
    unresolved.sort(key=lambda g: (g.rho, g.phi, g.members))
    return records, unresolved


def _make_record(rid, nw, sep, prior, max_members, max_steps):
    coverings = {
        r: "self" if red is None else entry_name(prior.entry_of(red, max_members, max_steps))
        for r, red in sep.covers.items()
    }
    return StringRecord(rid, nw, *sep.key, sep.display, coverings)


def build_census(
    max_n: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    warn=None,
) -> CensusTable:
    """Run the full pipeline for crossing numbers 0..max_n."""
    _gauss_words(max_n, True)  # ValueError unless 0 <= max_n <= 26
    census = CensusTable(
        max_crossings=max_n,
        limits={"max_members": max_members, "max_steps": max_steps},
    )
    images: dict[Nanoword, tuple[Nanoword, ...]] = {}
    for n in range(max_n + 1):
        found = _image_minima(_decoded(n, max_members, max_steps))
        images.update(found)
        records, unresolved = distinguish(
            sorted(found), census, n, max_members, max_steps, warn
        )
        census.add(records, unresolved)
    # After the last depth: a later group may take over an earlier record's key.
    for rec in census.records:
        rec.symmetry = symmetry_classify(rec, census, images[rec.nanoword])
    return census


# The symmetry type of each set of operations fixing a homotopy class.
# Two fixed operations force the third, so no other set occurs.
_SYM_TYPES = {
    frozenset(words.TRANSFORM_KINDS): ALL_SYMMETRIC,
    frozenset({words.MIRROR}): MIRROR_ONLY,
    frozenset({words.INVERSE}): INVERSE_ONLY,
    frozenset({words.MIRROR_INVERSE}): MIRROR_INVERSE_ONLY,
    frozenset(): CHIRAL,
}


def symmetry_classify(
    record: StringRecord,
    census: CensusTable,
    images: tuple[Nanoword, ...],
) -> Symmetry | None:
    """The record's mirror, inverse and mirror-inverse ids and its type.

    ``images`` are the minimal members of the 3-classes of the record's
    mirror, inverse and mirror-inverse, which :func:`_image_minima` finds
    among the classes of the same walk; each is a candidate of the
    record's crossing number, so its entry is found by its stored key.
    The type is read from ``_SYM_TYPES`` by the operations that give
    back the record's own id; two of them raise ``AssertionError``.  If
    an image's entry is not a record (it may be an unresolved group) the
    symmetry is unset: None.
    """
    ids = []
    for image in images:
        entry = census.entry_of(image)
        if not isinstance(entry, StringRecord):
            return None
        ids.append(entry.id)
    fixed = frozenset(k for k, rid in zip(words.TRANSFORM_KINDS, ids) if rid == record.id)
    if fixed not in _SYM_TYPES:
        raise AssertionError(
            f"two operations fix {record.id} but the third does not: {ids}"
        )
    return Symmetry(*ids, _SYM_TYPES[fixed])


# ---------------------------------------------------------------------------
# Table assembly.
# ---------------------------------------------------------------------------


def table1(census: CensusTable) -> list[dict]:
    """Census rows: id, nanoword, u(t), rho, based matrix (display form)."""
    return [
        {
            "id": r.id,
            "nanoword": str(r.nanoword),
            "u": str(r.u),
            "rho": r.rho,
            "phi": invariants.phi_string(r.phi_display) or "0",
        }
        for r in census.records
    ]


def table2(census: CensusTable) -> dict[int, int]:
    counts = Counter(r.crossings for r in census.records)
    return {n: counts.get(n, 0) for n in range(census.max_crossings + 1)}


def table3(census: CensusTable) -> list[dict]:
    """Unoriented classes: lowest id representative plus its orbit ids.
    Records are stored in id order, so an orbit's first is its lowest."""
    out = []
    done: set[str] = set()
    for rec in census.records:
        if rec.id in done or rec.symmetry is None:
            continue
        s = rec.symmetry
        done |= {rec.id, s.mirror_id, s.inverse_id, s.mirror_inverse_id}

        def show(rid):
            return "=" if rid == rec.id else rid

        out.append(
            {
                "id": rec.id,
                "mirror": show(s.mirror_id),
                "inverse": show(s.inverse_id),
                "mirror_inverse": show(s.mirror_inverse_id),
                "type": s.sym_type,
            }
        )
    return out


def table4(census: CensusTable) -> list[list[dict]]:
    """Same-matrix record pairs separated by coverings, with covering ids."""
    groups: dict[tuple, list[StringRecord]] = {}
    for rec in census.records:
        groups.setdefault((rec.crossings, rec.rho, rec.phi), []).append(rec)
    out = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.nanoword)
        if len(members) < 2:
            continue
        rows = []
        for rec in members:
            cover2 = rec.coverings.get(2, "self")
            rows.append(
                {
                    "id": rec.id,
                    "nanoword": str(rec.nanoword),
                    "phi": invariants.phi_string(rec.phi_display),
                    "cover2": rec.id if cover2 == "self" else cover2,
                }
            )
        out.append(rows)
    return out


def table5(census: CensusTable) -> list[dict]:
    return [
        {
            "members": [str(m) for m in g.members],
            "rho": g.rho,
            "phi": invariants.phi_string(g.phi_display),
        }
        for g in census.unresolved
    ]


def build_tables(census: CensusTable) -> dict:
    return {
        "table1": table1(census),
        "table2": table2(census),
        "table3": table3(census),
        "table4": table4(census),
        "table5": table5(census),
    }
