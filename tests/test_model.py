import dataclasses
import math

import numpy as np
import pytest

from upkeep import (
    AgentType,
    DegenerateDistributionError,
    GridSpec,
    MarkovPolicy,
    Mechanism,
    PhysicalParams,
    TypeDistribution,
    agent_utility,
    balance_residual,
    bounded_monopoly_solve,
    check_feasible,
    check_reduced_form,
    primal_grid_welfare,
    welfare,
)
from conftest import random_distribution


def test_agent_utility_values():
    m = AgentType("M", 4.0, 2.0, 1.0)
    assert agent_utility(m, 4.0 / 15.0, 11.0 / 15.0) == pytest.approx(-0.4, abs=1e-12)
    h = AgentType("H", 10.0, 1.25, 1.0)
    assert agent_utility(h, 2.0 / 7.0, 5.0 / 7.0) == pytest.approx(13.75 / 7.0, abs=1e-12)
    assert agent_utility(h, 0.0, 0.0) == 0.0


def test_valuation():
    assert AgentType("H", 10.0, 1.25, 1.0).nu == pytest.approx(8.0)
    assert AgentType("A", 1.0, 1.0, 1.0).nu == pytest.approx(1.0)
    assert AgentType("L", 0.1, 1.0, 1.0).nu == pytest.approx(0.1)


def test_type_validation():
    with pytest.raises(ValueError):
        AgentType("A", 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AgentType("A", 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        AgentType("A", 1.0, 1.0, -0.5)
    for massless in ((), (AgentType("A", 1, 1, 0.0),)):
        with pytest.raises(DegenerateDistributionError):
            TypeDistribution(massless)
    with pytest.raises(ValueError):
        TypeDistribution((AgentType("A", 1, 1, 1.0), AgentType("A", 2, 1, 1.0)))


@pytest.mark.parametrize(
    "types",
    [
        # each mass is finite, their sum is not
        (AgentType("A", 1.0, 1.0, 1e308), AgentType("B", 2.0, 1.0, 1e308)),
        # finite masses whose mass * u or mass * c overflows
        (AgentType("A", 10.0, 1.0, 1e308),),
        (AgentType("A", 1.0, 10.0, 1e308),),
    ],
)
def test_distribution_rejects_non_finite_aggregates(types):
    with pytest.raises(ValueError, match="must be finite"):
        TypeDistribution(types)


def test_aggregates_are_cached_type_order_sums():
    # total_mass, u_bar and c_bar are summed once, in type order, and are
    # not fields: eq, hash and repr see the types alone, and replace sums
    # the new types.
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = random_distribution(rng, 1, 9)
        fresh = (
            sum(t.mass for t in d.types),
            sum(t.mass * t.u for t in d.types),
            sum(t.mass * t.c for t in d.types),
        )
        assert [x.hex() for x in (d.total_mass, d.u_bar, d.c_bar)] == [x.hex() for x in fresh]
        assert vars(d).keys() >= {"total_mass", "u_bar", "c_bar"}
        assert [f.name for f in dataclasses.fields(d)] == ["types"]
        twin = TypeDistribution(d.types)
        assert twin == d and hash(twin) == hash(d) and repr(d) == f"TypeDistribution(types={d.types!r})"
        head = d.types[0]
        bigger = AgentType(head.id, head.u, head.c, head.mass + 1.0)
        grown = dataclasses.replace(d, types=(bigger, *d.types[1:]))
        assert grown.total_mass == sum(t.mass for t in grown.types) != d.total_mass
        assert grown.u_bar == sum(t.mass * t.u for t in grown.types)
        assert grown.c_bar == sum(t.mass * t.c for t in grown.types)


def test_aggregates_are_plain_attributes_set_at_validation():
    # The sums are set once by __post_init__, not computed on first
    # access: the class holds no attribute of their names, each instance
    # holds its own, and they stay frozen like the fields.
    names = ("total_mass", "u_bar", "c_bar")
    d = TypeDistribution((AgentType("a", 2.0, 1.0, 0.5), AgentType("b", 3.0, 4.0, 0.25)))
    assert not set(names) & vars(TypeDistribution).keys()
    assert [vars(d)[name] for name in names] == [0.75, 1.75, 1.5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.u_bar = 0.0
    # Not fields: eq, hash and repr see the types alone, and replace sums
    # the new types.
    assert [f.name for f in dataclasses.fields(d)] == ["types"]
    twin = TypeDistribution(d.types)
    assert twin == d and hash(twin) == hash(d) and repr(d) == f"TypeDistribution(types={d.types!r})"
    head = dataclasses.replace(d, types=d.types[:1])
    assert [getattr(head, name) for name in names] == [0.5, 1.0, 0.5]


def test_welfare_participation_optimum(lmh):
    q = 2.0 / 7.0
    mech = Mechanism(
        Q=q,
        R={t.id: q for t in lmh.types},
        P={"L": 2.0 / 7.0, "M": 4.0 / 7.0, "H": 5.0 / 7.0},
    )
    assert welfare(mech, lmh) == pytest.approx(13.75 / 7.0, abs=1e-12)


def test_welfare_zero_mechanism(lmh):
    assert welfare(Mechanism.zero(lmh), lmh) == 0.0


def test_welfare_screening_optimum(equal_cost):
    mech = Mechanism(
        Q=0.3,
        R={"H": 0.3, "M": 0.2, "L": 0.0},
        P={"H": 0.7, "M": 0.2, "L": 0.0},
    )
    assert welfare(mech, equal_cost) == pytest.approx(0.8 / 3.0, abs=1e-12)


def test_balance_residual_first_best(lmh):
    mech = Mechanism(
        Q=4.0 / 15.0,
        R={t.id: 4.0 / 15.0 for t in lmh.types},
        P={"L": 0.0, "M": 11.0 / 15.0, "H": 11.0 / 15.0},
    )
    assert balance_residual(mech, lmh, 5.5) == pytest.approx(0.0, abs=1e-12)
    assert balance_residual(Mechanism.zero(lmh), lmh, 1.0) == 0.0
    single = TypeDistribution((AgentType("A", 1, 1, 1.0),))
    half = Mechanism(Q=0.5, R={"A": 0.0}, P={"A": 0.0})
    assert balance_residual(half, single, 1.0) == pytest.approx(0.5)


def test_check_feasible_first_best_fails_participation(lmh):
    mech = Mechanism(
        Q=4.0 / 15.0,
        R={t.id: 4.0 / 15.0 for t in lmh.types},
        P={"L": 0.0, "M": 11.0 / 15.0, "H": 11.0 / 15.0},
    )
    rep = check_feasible(mech, lmh, 5.5, families={"participation"})
    assert not rep.ok
    assert rep.participation_utility["M"] == pytest.approx(-0.4, abs=1e-12)


def test_check_feasible_screening_all_families(equal_cost):
    mech = Mechanism(
        Q=0.3,
        R={"H": 0.3, "M": 0.2, "L": 0.0},
        P={"H": 0.7, "M": 0.2, "L": 0.0},
    )
    rep = check_feasible(mech, equal_cost, 1.0)
    assert rep.ok
    # the high type is exactly indifferent to the partial tier
    assert rep.ic_worst_slack == pytest.approx(0.0, abs=1e-12)


def test_check_feasible_zero_mechanism(lmh):
    rep = check_feasible(Mechanism.zero(lmh), lmh, 5.5)
    assert rep.ok


def test_welfare_linear_in_mechanism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_distribution(rng)
        q = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))

        def rand_mech():
            return Mechanism(
                Q=q,
                R={t.id: float(rng.uniform(0, q)) for t in d.types},
                P={t.id: float(rng.uniform(0, 1 - q)) for t in d.types},
            )

        m1, m2 = rand_mech(), rand_mech()
        mix = Mechanism(
            Q=q,
            R={k: alpha * m1.R[k] + (1 - alpha) * m2.R[k] for k in m1.R},
            P={k: alpha * m1.P[k] + (1 - alpha) * m2.P[k] for k in m1.P},
        )
        expected = alpha * welfare(m1, d) + (1 - alpha) * welfare(m2, d)
        assert welfare(mix, d) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_balance_residual_linear_in_p_and_q():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 5.0))
        q1, q2 = sorted(rng.uniform(0.0, 1.0, size=2))
        p1 = {t.id: float(rng.uniform(0, 0.5)) for t in d.types}
        p2 = {t.id: float(rng.uniform(0, 0.5)) for t in d.types}
        zeros = {t.id: 0.0 for t in d.types}
        alpha = float(rng.uniform(0, 1))
        mix_p = {k: alpha * p1[k] + (1 - alpha) * p2[k] for k in p1}
        r1 = balance_residual(Mechanism(Q=q1, R=zeros, P=p1), d, rho)
        r2 = balance_residual(Mechanism(Q=q1, R=zeros, P=p2), d, rho)
        rmix = balance_residual(Mechanism(Q=q1, R=zeros, P=mix_p), d, rho)
        assert rmix == pytest.approx(alpha * r1 + (1 - alpha) * r2, abs=1e-12)
        rq1 = balance_residual(Mechanism(Q=q1, R=zeros, P=p1), d, rho)
        rq2 = balance_residual(Mechanism(Q=q2, R=zeros, P=p1), d, rho)
        qmix = alpha * q1 + (1 - alpha) * q2
        rqmix = balance_residual(Mechanism(Q=qmix, R=zeros, P=p1), d, rho)
        assert rqmix == pytest.approx(alpha * rq1 + (1 - alpha) * rq2, abs=1e-12)


def test_ic_implies_equal_nu_equal_utility():
    # two types with equal valuation must get utility-equal bundles under
    # any mechanism passing the incentive check
    d = TypeDistribution(
        (AgentType("A", 2.0, 1.0, 1.0), AgentType("B", 4.0, 2.0, 1.0))
    )
    q = 0.4
    mech = Mechanism(Q=q, R={"A": 0.4, "B": 0.4}, P={"A": 0.3, "B": 0.3})
    rep = check_feasible(mech, d, rho=1.0, families={"ic"}, tol=1e-9)
    assert rep.ok
    for t in d.types:
        own = mech.R[t.id] * t.u - mech.P[t.id] * t.c
        for other in d.types:
            cross = mech.R[other.id] * t.u - mech.P[other.id] * t.c
            assert abs(own - cross) <= 1e-9 * max(1.0, t.c / min(x.c for x in d.types))


def test_simplex_bounds_reported_per_type(lmh):
    mech = Mechanism(
        Q=0.2,
        R={"L": 0.25, "M": 0.1, "H": 0.2},
        P={"L": 0.0, "M": 0.9, "H": 0.5},
    )
    rep = check_feasible(mech, lmh, 5.5, families={"simplex"})
    assert not rep.ok
    assert rep.simplex["L"] == pytest.approx(0.05)
    assert rep.simplex["M"] == pytest.approx(0.1)
    assert rep.simplex["H"] <= 1e-12


_A = AgentType("A", 2.0, 1.0, 1.0)
_ONE = TypeDistribution((_A,))
_IDLE = Mechanism.zero(_ONE)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: AgentType("", 1.0, 1.0, 1.0),
                     "type id must be a nonempty string", id="empty-id"),
        pytest.param(lambda: AgentType("A", math.inf, 1.0, 1.0),
                     "type 'A': u must be finite", id="u-inf"),
        pytest.param(lambda: AgentType("A", 1.0, math.nan, 1.0),
                     "type 'A': c must be finite", id="c-nan"),
        pytest.param(lambda: AgentType("A", 1.0, 1.0, math.inf),
                     "type 'A': mass must be finite", id="mass-inf"),
        pytest.param(lambda: _ONE.by_id("B"), "'B'", id="unknown-id"),
        pytest.param(lambda: PhysicalParams(0.0),
                     "rho must be a positive finite real", id="params-rho"),
        pytest.param(lambda: PhysicalParams(1.0, lifespan="uniform"),
                     "lifespan must be one of ('exponential', 'deterministic')",
                     id="params-lifespan"),
        pytest.param(lambda: PhysicalParams(1.0, quantum="uniform"),
                     "quantum must be one of ('exponential', 'deterministic')",
                     id="params-quantum"),
        pytest.param(lambda: Mechanism(Q=1.5, R={}, P={}),
                     "Q must lie in [0, 1]", id="mechanism-Q"),
        pytest.param(lambda: Mechanism(Q=0.5, R={"A": -0.1}, P={"A": 0.0}),
                     "R['A'] must lie in [0, 1]", id="mechanism-R"),
        pytest.param(lambda: Mechanism(Q=0.5, R={"A": 0.5}, P={"A": 1.5}),
                     "P['A'] must lie in [0, 1]", id="mechanism-P"),
        pytest.param(lambda: Mechanism(Q=0.5, R={"A": 0.5}, P={"B": 0.5}),
                     "R and P must cover the same type ids", id="mechanism-ids"),
        pytest.param(lambda: check_feasible(_IDLE, _ONE, 1.0, tol=0.0),
                     "tol must be > 0", id="feasible-tol"),
        pytest.param(lambda: check_feasible(_IDLE, _ONE, 1.0, tol=math.inf),
                     "tol must be > 0 and finite", id="feasible-tol-inf"),
        pytest.param(lambda: check_feasible(_IDLE, _ONE, 1.0, tol=math.nan),
                     "tol must be > 0 and finite", id="feasible-tol-nan"),
        pytest.param(lambda: check_feasible(_IDLE, _ONE, 1.0, {"budget"}),
                     "unknown constraint families: ['budget']", id="feasible-family"),
        pytest.param(lambda: MarkovPolicy({"A": 1.5}, {}),
                     "sigma_W['A'] must be a probability", id="policy-W"),
        pytest.param(lambda: MarkovPolicy({}, {"A": -0.5}),
                     "sigma_B['A'] must be a probability", id="policy-B"),
        pytest.param(lambda: check_reduced_form(None, _IDLE, 0.5),
                     "sigma_mult must be >= 1", id="sigma-mult"),
        pytest.param(lambda: check_reduced_form(None, _IDLE, math.inf),
                     "sigma_mult must be >= 1 and finite", id="sigma-mult-inf"),
        pytest.param(lambda: check_reduced_form(None, _IDLE, math.nan),
                     "sigma_mult must be >= 1 and finite", id="sigma-mult-nan"),
        pytest.param(lambda: GridSpec(refine_rounds=-1),
                     "refine_rounds must be >= 0", id="grid-rounds"),
        pytest.param(lambda: primal_grid_welfare(_ONE, 1.0, "screening"),
                     "mode must be 'first_best' or 'participation'", id="oracle-mode"),
        pytest.param(lambda: bounded_monopoly_solve([(1.0, -1.0, 0.0)]),
                     "surplus weights must be >= 0", id="menu-surplus-weight"),
    ],
)
def test_every_input_check_fires(call, message):
    with pytest.raises((ValueError, KeyError)) as info:
        call()
    assert message in str(info.value)


def test_edge_inputs_that_are_not_errors():
    # One type has no pair to misreport to: the IC family passes with
    # slack 0 and no worst pair.  An empty sale sells nothing.
    report = check_feasible(_IDLE, _ONE, 1.0, {"ic"})
    assert report.ok
    assert report.ic_worst_slack == 0.0 and report.ic_worst_pair is None
    sale = bounded_monopoly_solve([])
    assert (sale.r, sale.p, sale.value) == ((), (), 0.0)
