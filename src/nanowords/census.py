"""Census pipeline: enumerate virtual string candidates and classify them.

The generator walks increasing Gauss words in alphabetical order, expands
the 2^n type assignments, and keeps a nanoword when it is alphabetically
minimal in its 3-class and that class is irreducible.  Candidates are
separated by their canonical primitive based matrices; groups sharing a
matrix are refined by identifying r-coverings; anything still unseparated
is reported as an unresolved group, never merged (whether its members are
homotopic is an open question, and a group may pair a candidate with a
smaller-crossing record, since uniqueness of irreducible 3-classes is
unproven).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from . import invariants, moves, words
from .moves import DEFAULT_MAX_MEMBERS, DEFAULT_MAX_STEPS
from .words import _ALPHA, Nanoword, parse_nanoword

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
    if not 0 <= n <= 26:
        raise ValueError("n must be between 0 and 26")
    word: list[str] = []
    open_counts: dict[str, int] = {}

    def rec(started: int):
        if len(word) == 2 * n:
            yield "".join(word)
            return
        choices = sorted(x for x, c in open_counts.items() if c == 1)
        if started < n:
            choices.append(_ALPHA[started])
        for x in choices:
            closing = open_counts.get(x, 0) == 1
            if closing and skip_adjacent_doubles and word and word[-1] == x:
                continue
            word.append(x)
            open_counts[x] = open_counts.get(x, 0) + 1
            yield from rec(started + (0 if closing else 1))
            word.pop()
            open_counts[x] -= 1
            if open_counts[x] == 0:
                del open_counts[x]

    yield from rec(0)


def candidates(
    n: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    jobs: int = 1,
) -> list[Nanoword]:
    """All n-letter nanowords that are minimal in an irreducible 3-class.

    Raises :class:`TruncationError` if any 3-class exploration hits the
    limits; the census must always run untruncated.
    """
    if n == 0:
        return [words.EMPTY]
    if jobs > 1:
        return _candidates_parallel(n, max_members, max_steps, jobs)
    out: list[Nanoword] = []
    seen: set[moves.State] = set()
    for word in increasing_gauss_words(n, skip_adjacent_doubles=True):
        out.extend(_survivors_of_word(word, seen, max_members, max_steps))
    out.sort()
    return out


def _survivors_of_word(word, seen, max_members, max_steps):
    # An increasing Gauss word is already in the encoded normal form:
    # letter k is the k-th alphabet letter, and its type is bit k.
    letters = tuple(_ALPHA.index(x) for x in word)
    out = []
    for types in itertools.product((0, 1), repeat=len(word) // 2):
        state = (letters, types)
        if state in seen:
            # already visited inside some earlier class: that class was
            # either discarded or produced its (smaller) minimal member
            continue
        if _is_minimal_irreducible(state, seen, max_members, max_steps):
            out.append(moves._decode(state))
    return out


def _is_minimal_irreducible(start, seen, max_members, max_steps):
    """Guarded 3-class exploration from ``start``.

    Aborts as soon as a member smaller than ``start`` or a reducible
    member appears.  All discovered members are added to ``seen``; any of
    them starting a later exploration would be rejected for the same
    reason, so each 3-class is explored at most once per run.
    """
    local, found, limit = moves._explore(
        start,
        moves._neighbors,
        lambda s: s < start or moves._reducible_state(s),
        max_members,
        max_steps,
    )
    if limit is not None:
        raise moves._truncation(
            f"3-class of {moves._decode(start)}", limit, max_members, max_steps
        )
    seen.update(local)
    return found is None


def _candidate_chunk(args):
    word, max_members, max_steps = args
    seen: set = set()
    return [str(nw) for nw in _survivors_of_word(word, seen, max_members, max_steps)]


def _candidates_parallel(n, max_members, max_steps, jobs):
    from concurrent.futures import ProcessPoolExecutor

    work = [(w, max_members, max_steps) for w in increasing_gauss_words(n, True)]
    out: list[Nanoword] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for chunk in pool.map(_candidate_chunk, work, chunksize=8):
            out.extend(parse_nanoword(t) for t in chunk)
    out.sort()
    return out


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
    """One tabulated virtual string."""

    id: str
    nanoword: Nanoword
    u: invariants.UPolynomial
    rho: int
    phi: tuple[int, ...]
    phi_display: tuple[int, ...]
    coverings: dict[int, str] = field(default_factory=dict)
    symmetry: Symmetry | None = None

    @property
    def crossings(self) -> int:
        return self.nanoword.crossings


@dataclass(frozen=True)
class UnresolvedGroup:
    """Nanowords sharing every computed invariant; possibly homotopic.

    Members may include a record of smaller crossing number: a candidate
    indistinguishable from it cannot be registered as new, nor discarded.
    """

    members: tuple[Nanoword, ...]
    rho: int
    phi: tuple[int, ...]
    phi_display: tuple[int, ...]


@dataclass
class CensusTable:
    """Records and unresolved groups, with lookups by id, phi and word.

    Fill the lists through :meth:`add`, which indexes what it appends.
    The indexes hold list positions, so a record replaced in place by one
    with the same id and phi (as the symmetry stage does) is what the
    lookups return.
    """

    max_crossings: int = -1
    records: list[StringRecord] = field(default_factory=list)
    unresolved: list[UnresolvedGroup] = field(default_factory=list)
    limits: dict = field(default_factory=dict)

    def __post_init__(self):
        self._record_at: dict[str, int] = {}
        self._records_at: dict[tuple, list[int]] = {}
        self._groups_at: dict[tuple, list[int]] = {}
        self._word_phi: dict[Nanoword, tuple] = {}
        self._index(0, 0)

    def add(self, records=(), unresolved=()) -> None:
        """Append records and unresolved groups, keeping the indexes in step."""
        start = len(self.records), len(self.unresolved)
        self.records.extend(records)
        self.unresolved.extend(unresolved)
        self._index(*start)

    def _index(self, first_record: int, first_group: int) -> None:
        # A word in several places has one phi, so the first entry stands.
        for k in range(first_record, len(self.records)):
            r = self.records[k]
            self._record_at.setdefault(r.id, k)
            self._records_at.setdefault(r.phi, []).append(k)
            self._word_phi.setdefault(r.nanoword, r.phi)
        for k in range(first_group, len(self.unresolved)):
            g = self.unresolved[k]
            self._groups_at.setdefault(g.phi, []).append(k)
            for m in g.members:
                self._word_phi.setdefault(m, g.phi)

    def by_id(self, rid: str) -> StringRecord:
        return self.records[self._record_at[rid]]

    def by_phi(self, phi: tuple[int, ...]) -> list[StringRecord]:
        return [self.records[k] for k in self._records_at.get(phi, ())]

    def groups_by_phi(self, phi: tuple[int, ...]) -> list[UnresolvedGroup]:
        return [self.unresolved[k] for k in self._groups_at.get(phi, ())]

    def phi_of(self, nw: Nanoword) -> tuple[int, ...]:
        """phi of ``nw``: stored for a census word, computed otherwise."""
        phi = self._word_phi.get(nw)
        return invariants.string_phi(nw).phi if phi is None else phi

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.crossings] = out.get(r.crossings, 0) + 1
        return out


def _record_id(n: int, k: int) -> str:
    return "0" if n == 0 else f"{n}.{k}"


def _covering_radii(stats: invariants.LetterStats) -> list[int]:
    # r beyond max|n(X)| all delete the same letters (those with n != 0),
    # so one representative past the maximum suffices; identical deletion
    # sets inside the range are deduplicated as well.
    if not stats.n:
        return []
    top = max(abs(v) for v in stats.n.values())
    if top == 0:
        return []
    radii = []
    seen_sets = set()
    for r in range(2, top + 2):
        dropped = frozenset(x for x, v in stats.n.items() if v % r != 0)
        if dropped not in seen_sets:
            seen_sets.add(dropped)
            radii.append(r)
    return radii


def identify(
    nw: Nanoword,
    census: CensusTable,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    insert_budget: int = 0,
) -> str:
    """Name a nanoword against the census by invariants.

    Reduces to an irreducible representative, then matches the canonical
    primitive based matrix: a unique record gives its id, a match with an
    unresolved group is reported as ambiguous (phi equality does not
    prove homotopy), anything else is unknown.  A nonzero
    ``insert_budget`` lets the reduction hunt for crossing-count escapes
    through temporarily larger words.
    """
    reduced = moves.reduce_to_irreducible(
        nw,
        max_extra_letters=insert_budget,
        max_members=max_members,
        max_steps=max_steps,
    )
    phi = census.phi_of(reduced)
    groups = census.groups_by_phi(phi)
    if groups:
        names = sorted(str(m) for g in groups for m in g.members)
        return "ambiguous(" + "|".join(names) + ")"
    hits = census.by_phi(phi)
    if len(hits) == 1:
        return hits[0].id
    if len(hits) > 1:
        # records sharing a primitive based matrix were separated by their
        # coverings; refine the same way
        def signature(word):
            stats = invariants.n_values(word)
            top = max((abs(v) for v in stats.n.values()), default=0)
            return tuple(
                census.phi_of(
                    moves.reduce_to_irreducible(
                        invariants.covering_of(word, stats, r),
                        max_members=max_members,
                        max_steps=max_steps,
                    )
                )
                for r in range(2, top + 2)
            )
        target = signature(reduced)
        refined = [rec for rec in hits if signature(rec.nanoword) == target]
        if len(refined) == 1:
            return refined[0].id
        if refined:
            return "ambiguous(" + "|".join(sorted(r.id for r in refined)) + ")"
    return "unknown"


def distinguish(
    cands: list[Nanoword],
    prior: CensusTable,
    crossings: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    warn=None,
) -> tuple[list[StringRecord], list[UnresolvedGroup]]:
    """Separate same-count candidates into records and unresolved groups.

    Candidates are grouped by canonical primitive based matrix; every
    group additionally absorbs prior-census records with the same matrix
    (such a collision means the candidate is either homotopic to the
    smaller string, contradicting Step 5 of the generator, or a genuinely
    new string sharing the invariant; nothing in the calculus decides
    which, so the group is reported rather than treated as an error).
    Groups are then refined by the reduced r-coverings; surviving
    singleton candidates become records.
    """
    keyed: dict[tuple, list[Nanoword]] = {}
    stats, bms, cfs = {}, {}, {}
    for nw in cands:
        stats[nw] = invariants.n_values(nw)
        bms[nw] = invariants.based_matrix(nw)
        cfs[nw] = cf = invariants.canonical_form(bms[nw])
        keyed.setdefault((cf.rho, cf.phi), []).append(nw)

    def record(nw):
        return _make_record(nw, stats[nw], bms[nw], cfs[nw], prior, max_members, max_steps)

    records: list[StringRecord] = []
    unresolved: list[UnresolvedGroup] = []
    pending: list[tuple[tuple, list[Nanoword], list[StringRecord]]] = []
    for key in sorted(keyed):
        group = sorted(keyed[key])
        prior_hits = prior.by_phi(key[1])
        if prior_hits and warn:
            warn(
                f"candidates {[str(g) for g in group]} share a primitive based "
                f"matrix with {[r.id for r in prior_hits]}: either the move "
                "search missed a reduction or a new string shares the invariant"
            )
        pending.append((key, group, prior_hits))

    for (rho, phi), group, prior_hits in pending:
        if len(group) == 1 and not prior_hits:
            records.append(record(group[0]))
            continue
        refined = _refine_by_coverings(
            group, prior_hits, stats, prior, max_members, max_steps
        )
        for bucket_cands, bucket_priors in refined:
            if len(bucket_cands) == 1 and not bucket_priors:
                records.append(record(bucket_cands[0]))
            elif bucket_cands:
                members = tuple(
                    sorted([r.nanoword for r in bucket_priors] + bucket_cands)
                )
                first = members[0]
                disp = invariants.display_theta(
                    bms[first] if first in bms else invariants.based_matrix(first)
                )
                unresolved.append(
                    UnresolvedGroup(members=members, rho=rho, phi=phi, phi_display=disp)
                )

    records.sort(key=lambda r: r.nanoword)
    records = [
        replace(r, id=_record_id(crossings, k + 1)) for k, r in enumerate(records)
    ]
    unresolved.sort(key=lambda g: (g.rho, g.phi, g.members))
    return records, unresolved


def _make_record(nw, stats, bm, cf, prior, max_members, max_steps):
    # stats, bm and cf are the n-values, based matrix and canonical form
    # of nw that distinguish has already computed.
    coverings = {}
    for r in _covering_radii(stats):
        cov = invariants.covering_of(nw, stats, r)
        if cov == nw:
            coverings[r] = "self"
        else:
            coverings[r] = identify(cov, prior, max_members, max_steps)
    return StringRecord(
        id="?",
        nanoword=nw,
        u=invariants.u_of(stats),
        rho=cf.rho,
        phi=cf.phi,
        phi_display=invariants.display_theta(bm),
        coverings=coverings,
    )


def _refine_by_coverings(group, prior_hits, stats, prior, max_members, max_steps):
    """Split a phi-group by the invariants of its members' coverings."""
    all_stats = dict(stats)
    for rec in prior_hits:
        all_stats[rec.nanoword] = invariants.n_values(rec.nanoword)
    members = [(nw, True) for nw in group] + [
        (rec.nanoword, False) for rec in prior_hits
    ]
    tops = [
        max((abs(v) for v in all_stats[nw].n.values()), default=0)
        for nw, _ in members
    ]
    radii = list(range(2, max(tops, default=0) + 2))
    buckets: dict[tuple, tuple[list, list]] = {}
    prior_by_word = {rec.nanoword: rec for rec in prior_hits}
    for nw, is_cand in members:
        sig = []
        for r in radii:
            cov = invariants.covering_of(nw, all_stats[nw], r)
            reduced = moves.reduce_to_irreducible(
                cov, max_members=max_members, max_steps=max_steps
            )
            sig.append(prior.phi_of(reduced))
        bucket = buckets.setdefault(tuple(sig), ([], []))
        if is_cand:
            bucket[0].append(nw)
        else:
            bucket[1].append(prior_by_word[nw])
    return [buckets[k] for k in sorted(buckets)]


def build_census(
    max_n: int,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
    jobs: int = 1,
    warn=None,
    with_symmetry: bool = True,
) -> CensusTable:
    """Run the full pipeline for crossing numbers 0..max_n."""
    census = CensusTable(
        max_crossings=max_n,
        limits={"max_members": max_members, "max_steps": max_steps},
    )
    for n in range(max_n + 1):
        cands = candidates(n, max_members, max_steps, jobs)
        records, unresolved = distinguish(
            cands, census, n, max_members, max_steps, warn
        )
        census.add(records, unresolved)
    if with_symmetry:
        for i, rec in enumerate(census.records):
            census.records[i] = symmetry_classify(rec, census, max_members, max_steps)
    return census


def symmetry_classify(
    record: StringRecord,
    census: CensusTable,
    max_members: int = DEFAULT_MAX_MEMBERS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> StringRecord:
    """Fill in mirror/inverse ids and the five-way symmetry type.

    Types: a if all three operations fix the homotopy class, i/+/- if
    only inversion / reflection / inverted reflection does, c if none.
    Two fixed operations force the third, so those are the only cases.
    If any transform cannot be identified (possible once unresolved
    groups exist) the symmetry is left unset.
    """
    ids = {}
    for kind in words.TRANSFORM_KINDS:
        image = words.transform(record.nanoword, kind)
        name = identify(image, census, max_members, max_steps)
        if name in ("unknown",) or name.startswith("ambiguous"):
            return record
        ids[kind] = name
    fixed = {k for k, v in ids.items() if v == record.id}
    if len(fixed) == 3:
        sym = ALL_SYMMETRIC
    elif fixed == {words.MIRROR}:
        sym = MIRROR_ONLY
    elif fixed == {words.INVERSE}:
        sym = INVERSE_ONLY
    elif fixed == {words.MIRROR_INVERSE}:
        sym = MIRROR_INVERSE_ONLY
    elif not fixed:
        sym = CHIRAL
    else:
        raise AssertionError(
            f"two operations fix {record.id} but the third does not: {ids}"
        )
    return replace(
        record,
        symmetry=Symmetry(
            mirror_id=ids[words.MIRROR],
            inverse_id=ids[words.INVERSE],
            mirror_inverse_id=ids[words.MIRROR_INVERSE],
            sym_type=sym,
        ),
    )


# ---------------------------------------------------------------------------
# Table assembly.
# ---------------------------------------------------------------------------


def _id_key(rid: str) -> tuple[int, int]:
    if rid == "0":
        return (0, 1)
    n, k = rid.split(".")
    return (int(n), int(k))


def table1(census: CensusTable) -> list[dict]:
    """Census rows: id, nanoword, u(t), rho, based matrix (display form)."""
    out = []
    for r in census.records:
        out.append(
            {
                "id": r.id,
                "nanoword": str(r.nanoword),
                "u": str(r.u),
                "rho": r.rho,
                "phi": invariants.phi_string(r.phi_display) or "0",
            }
        )
    return out


def table2(census: CensusTable) -> dict[int, int]:
    counts = census.counts()
    return {n: counts.get(n, 0) for n in range(census.max_crossings + 1)}


def table3(census: CensusTable) -> list[dict]:
    """Unoriented classes: lowest id representative plus its orbit ids."""
    out = []
    done: set[str] = set()
    for rec in sorted(census.records, key=lambda r: _id_key(r.id)):
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
    out = []
    for g in census.unresolved:
        out.append(
            {
                "members": [str(m) for m in g.members],
                "rho": g.rho,
                "phi": invariants.phi_string(g.phi_display),
            }
        )
    return out


def build_tables(census: CensusTable) -> dict:
    return {
        "table1": table1(census),
        "table2": table2(census),
        "table3": table3(census),
        "table4": table4(census),
        "table5": table5(census),
    }
