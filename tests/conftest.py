import numpy as np
import pytest

from upkeep import AgentType, TypeDistribution


@pytest.fixture
def lmh():
    """Three-type economy with heterogeneous costs, unit weights."""
    return TypeDistribution(
        (
            AgentType("L", 3.0, 3.0, 1.0),
            AgentType("M", 4.0, 2.0, 1.0),
            AgentType("H", 10.0, 1.25, 1.0),
        )
    )


@pytest.fixture
def equal_cost():
    """Three-type economy with a common cost and spread benefits."""
    return TypeDistribution(
        (
            AgentType("H", 5.0, 1.0, 1.0 / 3.0),
            AgentType("M", 1.0, 1.0, 1.0 / 3.0),
            AgentType("L", 0.1, 1.0, 1.0 / 3.0),
        )
    )


def random_distribution(rng: np.random.Generator, n_min=2, n_max=6) -> TypeDistribution:
    n = int(rng.integers(n_min, n_max + 1))
    return TypeDistribution(
        tuple(
            AgentType(
                f"T{i}",
                float(rng.uniform(0.1, 10.0)),
                float(rng.uniform(0.1, 10.0)),
                float(rng.uniform(0.1, 1.5)),
            )
            for i in range(n)
        )
    )


KINDS = ("plain", "tied_cost", "tied_nu", "zero_mass")


def kinded_distribution(rng: np.random.Generator, kind: str, n: int) -> TypeDistribution:
    """n types of one kind: plain random draws, costs drawn from two
    values, valuations drawn from n // 2 values, or a third of the types
    with zero mass."""
    u = rng.uniform(0.1, 10.0, n)
    c = rng.uniform(0.1, 10.0, n)
    mass = rng.uniform(0.1, 1.5, n)
    if kind == "tied_cost":
        c = rng.choice(rng.uniform(0.1, 10.0, 2), n)
    elif kind == "tied_nu":
        u = rng.choice(rng.uniform(0.05, 8.0, max(1, n // 2)), n) * c
    elif kind == "zero_mass":
        mass[rng.choice(n, max(1, n // 3), replace=False)] = 0.0
    elif kind != "plain":
        raise ValueError(f"unknown kind {kind!r}")
    return TypeDistribution(
        tuple(
            AgentType(f"T{i}", float(u[i]), float(c[i]), float(mass[i]))
            for i in range(n)
        )
    )
