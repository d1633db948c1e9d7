import io
import math

import pytest

from upkeep import (
    AgentType,
    Mechanism,
    PhysicalParams,
    TypeDistribution,
    build_policy,
    check_reduced_form,
    simulate_fluid,
    simulate_poisson,
    solve_participation,
)
from upkeep.sim import TRACE_HEADER


def screening_mechanism():
    return Mechanism(
        Q=0.3,
        R={"H": 0.3, "M": 0.2, "L": 0.0},
        P={"H": 0.7, "M": 0.2, "L": 0.0},
    )


def test_build_policy_screening():
    pol = build_policy(screening_mechanism())
    assert pol.sigma_W["H"] == pytest.approx(1.0)
    assert pol.sigma_W["M"] == pytest.approx(2.0 / 3.0)
    assert pol.sigma_W["L"] == 0.0
    assert pol.sigma_B["H"] == pytest.approx(1.0)
    assert pol.sigma_B["M"] == pytest.approx(2.0 / 7.0)
    assert pol.sigma_B["L"] == 0.0


def test_build_policy_degenerate_uptime():
    zero = Mechanism(Q=0.0, R={"A": 0.0}, P={"A": 0.0})
    pol = build_policy(zero)
    assert pol.sigma_W["A"] == 0.0 and pol.sigma_B["A"] == 0.0


def test_build_policy_first_best(lmh):
    mech = Mechanism(
        Q=4.0 / 15.0,
        R={t.id: 4.0 / 15.0 for t in lmh.types},
        P={"L": 0.0, "M": 11.0 / 15.0, "H": 11.0 / 15.0},
    )
    pol = build_policy(mech)
    assert all(v == pytest.approx(1.0) for v in pol.sigma_W.values())
    assert pol.sigma_B["L"] == 0.0
    assert pol.sigma_B["M"] == pytest.approx(1.0)
    assert pol.sigma_B["H"] == pytest.approx(1.0)


def test_seed_required(equal_cost):
    pol = build_policy(screening_mechanism())
    with pytest.raises(ValueError):
        simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 100.0, None)
    with pytest.raises(ValueError):
        simulate_fluid(pol, equal_cost, PhysicalParams(1.0), 100.0, None)


def test_poisson_uptime_matches_renewal_arithmetic(equal_cost):
    # broken periods end at rate sum(prob * sigma_B) = 3/7, so uptime is
    # 1 / (1 + 7/3) = 0.3
    pol = build_policy(screening_mechanism())
    stats = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 1e5, seed=1)
    assert abs(stats.Q_hat - 0.3) <= 4.0 * stats.ci_Q
    rep = check_reduced_form(stats, screening_mechanism(), 4.0)
    assert rep.passed, rep.failures


def test_poisson_never_fixed_when_nobody_contributes(equal_cost):
    pol = build_policy(
        Mechanism(Q=0.4, R={t.id: 0.4 for t in equal_cost.types},
                  P={t.id: 0.0 for t in equal_cost.types})
    )
    stats = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 5e3, seed=2)
    assert stats.Q_hat <= 0.01


def test_poisson_pasta_usage(equal_cost):
    # with certain usage, per-type usage frequency estimates the uptime
    d = equal_cost
    pol = build_policy(
        Mechanism(Q=0.3, R={t.id: 0.3 for t in d.types},
                  P={"H": 0.7, "M": 0.2, "L": 0.0})
    )
    stats = simulate_poisson(pol, d, PhysicalParams(1.0), 1e5, seed=3)
    for t in d.types:
        assert abs(stats.R_hat[t.id] - stats.Q_hat) <= 5.0 * stats.ci_R[t.id]


def test_fluid_uptime_matches_renewal_arithmetic(equal_cost):
    pol = build_policy(screening_mechanism())
    stats = simulate_fluid(pol, equal_cost, PhysicalParams(1.0), 1e5, seed=4)
    assert abs(stats.Q_hat - 0.3) <= 4.0 * stats.ci_Q
    rep = check_reduced_form(stats, screening_mechanism(), 4.0)
    assert rep.passed, rep.failures


def test_fluid_deterministic_cycle():
    d = TypeDistribution((AgentType("A", 2.0, 1.0, 1.0),))
    pol = build_policy(Mechanism(Q=0.5, R={"A": 0.5}, P={"A": 0.5}))
    phys = PhysicalParams(1.0, lifespan="deterministic", quantum="deterministic")
    stats = simulate_fluid(pol, d, phys, horizon=20.0, seed=5)
    assert stats.Q_hat == pytest.approx(0.5, abs=1e-12)
    assert stats.lifespan_mean == pytest.approx(1.0, abs=1e-12)


def test_fluid_example_one_participation(lmh):
    # aggregate contribution rate 11/5 gives mean broken time 5/11 and
    # uptime (1/5.5) / (1/5.5 + 5/11) = 2/7
    sol = solve_participation(lmh, 5.5)
    pol = build_policy(sol.mechanism)
    stats = simulate_fluid(pol, lmh, PhysicalParams(5.5), 1e5 / 5.5, seed=6)
    assert abs(stats.Q_hat - 2.0 / 7.0) <= 4.0 * stats.ci_Q
    rep = check_reduced_form(stats, sol.mechanism, 4.0)
    assert rep.passed, rep.failures


def test_check_reduced_form_rejects_wrong_target(equal_cost):
    pol = build_policy(screening_mechanism())
    stats = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 1e5, seed=7)
    wrong = Mechanism(
        Q=0.4,
        R={"H": 0.3, "M": 0.2, "L": 0.0},
        P={"H": 0.7, "M": 0.2, "L": 0.0},
    )
    assert not check_reduced_form(stats, wrong, 4.0).passed


def test_check_reduced_form_zero_policy(equal_cost):
    zero = Mechanism.zero(equal_cost)
    pol = build_policy(zero)
    stats = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 5e3, seed=8)
    rep = check_reduced_form(stats, zero, 4.0)
    assert rep.passed, rep.failures


def test_seeded_runs_reproduce(equal_cost):
    pol = build_policy(screening_mechanism())
    a = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 2e3, seed=42)
    b = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 2e3, seed=42)
    assert a.Q_hat == b.Q_hat
    assert a.n_breaks == b.n_breaks
    assert dict(a.R_hat) == dict(b.R_hat)
    c = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 2e3, seed=43)
    assert a.Q_hat != c.Q_hat


def test_masses_need_not_be_probabilities(lmh):
    # unit-mass economies simulate with aggregate arrival rate equal to
    # the total mass, so balance matches the analytic mechanism
    sol = solve_participation(lmh, 5.5)
    pol = build_policy(sol.mechanism)
    stats = simulate_poisson(pol, lmh, PhysicalParams(5.5), 1e5 / 5.5, seed=9)
    assert abs(stats.Q_hat - 2.0 / 7.0) <= 4.0 * stats.ci_Q
    agg = sum(stats.masses[tid] * stats.P_hat[tid] for tid in stats.masses)
    assert abs(5.5 * stats.Q_hat - agg) <= rep_allowance(stats)


def rep_allowance(stats):
    return 4.0 * math.sqrt(
        (stats.rho * stats.ci_Q) ** 2
        + sum((stats.masses[tid] * stats.ci_P[tid]) ** 2 for tid in stats.masses)
    )


def test_breaks_per_time_matches_balance(equal_cost):
    pol = build_policy(screening_mechanism())
    stats = simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 1e5, seed=10)
    rate = stats.n_breaks / stats.measured_time
    ci_rate = 4.0 * math.sqrt(stats.n_breaks) / stats.measured_time
    assert abs(rate - stats.rho * stats.Q_hat) <= ci_rate + 4.0 * stats.rho * stats.ci_Q
    agg = sum(stats.masses[tid] * stats.P_hat[tid] for tid in stats.masses)
    assert abs(rate - agg) <= ci_rate + rep_allowance(stats)


def test_lifespan_mean_flag(equal_cost):
    pol = build_policy(screening_mechanism())
    for phys in (PhysicalParams(1.0), PhysicalParams(1.0, lifespan="deterministic")):
        stats = simulate_poisson(pol, equal_cost, phys, 2e4, seed=11)
        assert stats.admissibility.lifespan_mean_ok
        assert abs(stats.lifespan_mean - 1.0) <= 0.05


def test_trace_format_and_admissibility(equal_cost):
    pol = build_policy(screening_mechanism())
    buf = io.StringIO()
    simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 200.0, seed=12, trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRACE_HEADER
    state = "W"
    kinds = set()
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == 4
        float(cells[0])
        kind, tid, after = cells[1], cells[2], cells[3]
        kinds.add(kind)
        assert after in ("W", "B")
        if kind == "USE":
            assert state == "W"
        if kind == "CONTRIBUTE":
            assert state == "B"
        if kind in ("BREAK",):
            state = "B"
        if kind in ("FIX",):
            state = "W"
    assert {"ARRIVAL", "BREAK", "FIX"} <= kinds


def test_fluid_trace(equal_cost):
    pol = build_policy(screening_mechanism())
    buf = io.StringIO()
    simulate_fluid(pol, equal_cost, PhysicalParams(1.0), 200.0, seed=13, trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == TRACE_HEADER
    kinds = [line.split("\t")[1] for line in lines[1:]]
    # strict alternation of breakdowns and repairs
    for a, b in zip(kinds, kinds[1:]):
        assert a != b
    assert set(kinds) <= {"BREAK", "FIX"}


@pytest.mark.parametrize("engine", [simulate_poisson, simulate_fluid])
@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
def test_engines_reject_non_finite_horizon(equal_cost, engine, horizon):
    # A NaN or infinite horizon never ends the event loop.
    pol = build_policy(screening_mechanism())
    with pytest.raises(ValueError, match="horizon"):
        engine(pol, equal_cost, PhysicalParams(1.0), horizon, seed=1)
