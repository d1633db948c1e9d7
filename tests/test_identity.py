"""Identity gate: every field of all three solutions, as float.hex, over a
seeded corpus, hashed per solver and family.  A change that should leave
the solvers' arithmetic alone must leave every digest alone; a change
that moves a bit anywhere must say which solves moved and why."""

import hashlib

import numpy as np
import pytest

from upkeep import (
    AgentType,
    DegenerateDistributionError,
    TypeDistribution,
    solve_first_best,
    solve_participation,
    solve_screening,
)
from conftest import KINDS, kinded_distribution
from test_sweep import _hexed

SOLVERS = {
    "first_best": solve_first_best,
    "participation": solve_participation,
    "screening": solve_screening,
}

DIGESTS = {
    "first_best/integer": "dfd481b4422423f86dbdb0cd66ce54ef77c545578e2e65b09bd8489bdecfe903",
    "first_best/plain": "1b8b464cfe8cf8af40c89a0e4f3cb7c84ab4067dff79407ba8fb73e5f9160822",
    "first_best/tied_cost": "32b25cac1bf87dea1c03a57bb623666bbb6c3e04d75fbc4b1a3734351f1b01f2",
    "first_best/tied_nu": "30adff01e9a911e9edd25d63cb679be5ee74051d2da032e3957e25de9c196ea1",
    "first_best/zero_mass": "4114cbb6ae50830d7ea082b9027e0f8668fe6711b83eae3da193d07a3916cf6e",
    "participation/integer": "f8c9bc45d01b398154f0c5ac29211eead35e3fd4976d5cacdd85da014832c98f",
    "participation/plain": "ad2e02fd2cc462750060351067fc7dc72062a694347058cb5ae5a8a9efd222e5",
    "participation/tied_cost": "6915d5e5fb8457b2d3e8664fb81fcf0e70109b7df98d4a3d8c284bb5ea17c44f",
    "participation/tied_nu": "29c9292b6e1eb545883120ffdd73a08b60d79f03c50e13591d36641fc6b5e373",
    "participation/zero_mass": "b852cbf7df864615aa592cebc88eb43201b7a28accc9c44eeb865c486a4d9f49",
    "screening/integer": "57abc82a5e2ef582d7c4a5bcbdd7f2fc332977f91ce0d268a2d3d3b9b5d4f095",
    "screening/plain": "abe34340f9143a0efa460e88d85d57e231363f8bb2f8fa4eed17b0e47970c8d0",
    "screening/tied_cost": "21a8635d603f0bfd51d0f5fce1155d3953e046d5d1803f6836d00e2c22265c12",
    "screening/tied_nu": "def31eba0e58d54112ac1b3404839d58277413fdd16a671226a7baa576bb78bf",
    "screening/zero_mass": "ceb3812ec4eaad92a269ea8278005f68afecd3110ca1d97e2df9ad9ff26a0d4e",
}


def _kinded(kind, rng):
    """Nine draws of each n = 1-29 at rho = total mass x 10^U(-3, 3);
    draws without mass are skipped."""
    for n in range(1, 30):
        for _ in range(9):
            try:
                d = kinded_distribution(rng, kind, n)
            except DegenerateDistributionError:
                continue
            yield d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


def _integer_tables():
    """400 small integer tables with tied costs, tied valuations and
    zero masses, at integer rho; tables without mass are skipped."""
    rng = np.random.default_rng(99)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        rows = [
            (int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            for _ in range(n)
        ]
        if not any(m for _, _, m in rows):
            continue
        d = TypeDistribution(
            tuple(
                AgentType(f"T{i}", float(u), float(c), float(m))
                for i, (u, c, m) in enumerate(rows)
            )
        )
        yield d, float(rng.integers(1, 8))


def corpus():
    """(family, distribution, rho) over the whole corpus."""
    rng = np.random.default_rng(20261019)
    for kind in KINDS:
        for d, rho in _kinded(kind, rng):
            yield kind, d, rho
    for d, rho in _integer_tables():
        yield "integer", d, rho


def solves():
    """(solver, family, corpus index, fields, bytes) per solve: fields is
    every solution field as float.hex (screening's copy of the
    distribution left out), and the bytes are rho and the fields."""
    for index, (family, d, rho) in enumerate(corpus()):
        for name, solve in SOLVERS.items():
            fields = _hexed(solve(d, rho))
            fields.pop("d", None)
            yield name, family, index, fields, repr((rho.hex(), fields)).encode()


def digests() -> dict[str, str]:
    """sha256 per solver and family of every solve's bytes."""
    hashes = {}
    for name, family, _, _, text in solves():
        hashes.setdefault(f"{name}/{family}", hashlib.sha256()).update(text)
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_corpus_size():
    families = [family for family, _, _ in corpus()]
    assert len(families) == 1422
    assert families.count("integer") == 387


@pytest.fixture(scope="module")
def computed():
    return digests()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_solutions_are_bit_identical(computed, key):
    assert computed[key] == DIGESTS[key]


def test_every_solver_and_family_is_pinned(computed):
    assert sorted(computed) == sorted(DIGESTS)


if __name__ == "__main__":
    # One line per solve with a short hash of its bytes and its W, Q and
    # threshold y as float.hex: `diff` between the listings of two
    # checkouts names the moved solves with their values before and
    # after.  Run from the repository root as
    # `PYTHONPATH=src python tests/test_identity.py`.
    for name, family, index, fields, text in solves():
        end = "fb" if name == "first_best" else "star"
        print(
            name, index, family, hashlib.sha256(text).hexdigest()[:16],
            "W", fields[f"W_{end}"], "Q", fields[f"Q_{end}"], "y", fields[f"y_{end}"],
        )
