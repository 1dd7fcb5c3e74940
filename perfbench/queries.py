"""Seeded identification queries: census records in disguise.

Each query takes one census record, inserts k opposite-type letter pairs
by the H2 or H2a schema (``xAByBAz`` / ``xAByABz``), applies random shift
rotations (first letter to the end, its type flipped) and finally renames
the letters by a random injection into A-Z.  Every step is a homotopy
move or a relabelling, so a correct ``identify`` answers a query exactly
as it answers the record itself.

The string code here is the benchmark's own: it does not call
``nanowords.moves``, so a defect in the move code cannot hide itself by
producing matching disguises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
INSERTION_COUNTS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Query:
    text: str
    record: str  # the record's nanoword text, the key of the expected answer
    insertions: int

    @property
    def letters(self) -> int:
        return 0 if self.text == "0" else len(self.text.split(":")[1])


def _flip(t: str) -> str:
    return "b" if t == "a" else "a"


def split_text(text: str) -> tuple[list[str], dict[str, str]]:
    """``WORD:TYPES`` (or ``0``) as a letter list and a letter -> type map."""
    if text == "0":
        return [], {}
    word, types = text.split(":")
    return list(word), dict(zip(sorted(set(word)), types))


def join_text(word: list[str], types: dict[str, str]) -> str:
    if not word:
        return "0"
    return "".join(word) + ":" + "".join(types[x] for x in sorted(types))


def disguise(text: str, k: int, rng: random.Random) -> str:
    """``text`` after k random H2/H2a insertions, rotations and renaming."""
    word, types = split_text(text)
    for _ in range(k):
        x, y = rng.sample([c for c in ALPHABET if c not in types], 2)
        types[x] = rng.choice("ab")
        types[y] = _flip(types[x])
        u = rng.randint(0, len(word))
        v = rng.randint(u, len(word))
        second = [x, y] if rng.random() < 0.5 else [y, x]  # H2a, else H2
        word[v:v] = second
        word[u:u] = [x, y]
    for _ in range(rng.randrange(2 * len(word)) if word else 0):
        x = word.pop(0)
        word.append(x)
        types[x] = _flip(types[x])
    rename = dict(zip(sorted(types), rng.sample(ALPHABET, len(types))))
    return join_text(
        [rename[x] for x in word], {rename[x]: t for x, t in types.items()}
    )


def query_stream(records: list[str], seed: int):
    """Yield distinct queries forever, the same sequence for the same seed.

    Insertion counts cycle through 0..3, so each count has an equal share
    of any prefix of the stream.  A disguise already produced is drawn
    again from the same generator.
    """
    rng = random.Random(seed)
    seen: set[str] = set()
    i = 0
    while True:
        k = INSERTION_COUNTS[i % len(INSERTION_COUNTS)]
        record = rng.choice(records)
        text = disguise(record, k, rng)
        if text in seen:
            continue
        seen.add(text)
        i += 1
        yield Query(text, record, k)
