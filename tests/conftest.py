import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nanowords import census as cz
from nanowords import moves as mv
from nanowords.words import _ALPHA, Nanoword, normalize_increasing


@pytest.fixture(scope="session")
def census4():
    t0 = time.monotonic()
    census = cz.build_census(4)
    census.limits["build_seconds"] = time.monotonic() - t0
    return census


@pytest.fixture(scope="session")
def census5():
    t0 = time.monotonic()
    census = cz.build_census(5, warn=lambda m: None)
    census.limits["build_seconds"] = time.monotonic() - t0
    return census


@pytest.fixture(scope="session")
def census6():
    return cz.build_census(6, warn=lambda m: None)


def clear_class_memo() -> None:
    """Empty the memo of irreducible 3-classes that reductions fill, so a
    test that counts searches or table builds starts from none."""
    mv._CLASS_MEMO.clear()


def random_nanoword(rng: random.Random, n: int) -> Nanoword:
    symbols = []
    for i in range(n):
        symbols += [chr(65 + i)] * 2
    rng.shuffle(symbols)
    types = "".join(rng.choice("ab") for _ in range(n))
    nw, _ = normalize_increasing(Nanoword("".join(symbols), types))
    return nw


def random_renaming(rng: random.Random, nw: Nanoword) -> Nanoword:
    """``nw`` with its letters renamed by a random injection into A-Z."""
    rename = dict(zip(nw.letters, rng.sample(_ALPHA, nw.crossings)))
    types = dict(zip(map(rename.get, nw.letters), nw.types))
    return Nanoword("".join(map(rename.get, nw.word)), "".join(types[x] for x in sorted(types)))


def disguise(rng: random.Random, nw: Nanoword, k: int) -> Nanoword:
    """``nw`` after k rounds of one random H2/H2a insertion followed by
    random shift rotations: a word homotopic to ``nw``, not normalized."""
    for _ in range(k):
        found = mv.applicable_moves(nw, {"H2", "H2a"}, allow_insertions=True)
        nw = mv.apply_move(nw, rng.choice([m for m in found if m.direction == "insert"]))
        for _ in range(rng.randrange(len(nw.word))):
            nw = mv.shift_rotate(nw)
    return nw
