import bisect
import dataclasses
import io
import math
import tracemalloc
from array import array

import numpy as np
import pytest

import upkeep.sim

from upkeep import (
    Admissibility,
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
from upkeep.sim import (
    TRACE_HEADER,
    _admissible,
    _binomial_ci,
    _count_at_or_below,
    _lifespan_flag,
    _PoissonDraws,
    _run_poisson,
    _type_edges,
)


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
    # At Q = 1 there is no downtime to contribute in.
    pol = build_policy(Mechanism(Q=1.0, R={"A": 1.0, "B": 0.5}, P={"A": 0.0, "B": 0.3}))
    assert pol.sigma_W == {"A": 1.0, "B": 0.5}
    assert pol.sigma_B == {"A": 0.0, "B": 0.0}


def test_build_policy_clamps_levels_just_below_zero():
    # Mechanism accepts levels up to 1e-9 outside its box.
    pol = build_policy(Mechanism(Q=0.5, R={"A": -1e-10}, P={"A": -1e-10}))
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


def _massless_round_trip():
    # lmh plus a massless type Z, which no arrival ever draws.
    d = TypeDistribution(
        (
            AgentType("L", 3.0, 3.0, 1.0),
            AgentType("M", 4.0, 2.0, 1.0),
            AgentType("H", 10.0, 1.25, 1.0),
            AgentType("Z", 2.0, 1.0, 0.0),
        )
    )
    mech = solve_participation(d, 5.5).mechanism
    stats = simulate_poisson(build_policy(mech), d, PhysicalParams(5.5), 2e3, seed=3)
    assert check_reduced_form(stats, mech, 4.0).passed
    return stats, mech


def test_check_reduced_form_fails_on_admissibility_alone():
    stats, mech = _massless_round_trip()
    bad = dataclasses.replace(stats, admissibility=Admissibility(True, False, True))
    assert check_reduced_form(bad, mech, 4.0).failures == ("admissibility flags failed",)


def test_check_reduced_form_fails_on_the_balance_gap_alone():
    # Every level sits 0.9 of its radius off target, uptime up and
    # contributions down, so each passes but their gaps add up.
    stats, mech = _massless_round_trip()
    sigma = 4.0
    Q_hat = mech.Q + 0.9 * sigma * stats.ci_Q
    P_hat = {
        tid: mech.P[tid] - 0.9 * sigma * stats.ci_P[tid] if mass > 0.0 else stats.P_hat[tid]
        for tid, mass in stats.masses.items()
    }
    rep = check_reduced_form(dataclasses.replace(stats, Q_hat=Q_hat, P_hat=P_hat), mech, sigma)
    assert len(rep.failures) == 1 and rep.failures[0].startswith("balance: ")


def test_check_reduced_form_skips_massless_types():
    stats, mech = _massless_round_trip()
    far = dataclasses.replace(stats, R_hat={**stats.R_hat, "Z": mech.R["Z"] + 10.0})
    assert check_reduced_form(far, mech, 4.0).passed


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


def test_deterministic_lifespans_pass_the_flag_at_small_rho():
    # Identical lifespans of 1 / rho have se 0, and near 1e5 one ulp of
    # their mean exceeds the flag's absolute 1e-12.
    rho = 7e-6
    d = TypeDistribution((AgentType("A", 2.0, 1.0, rho), AgentType("B", 3.0, 2.0, rho)))
    mech = solve_participation(d, rho).mechanism
    pol = build_policy(mech)
    phys = PhysicalParams(rho, lifespan="deterministic")
    horizon = 300.0 / (rho * mech.Q)
    for seed in range(10):
        for engine in (simulate_poisson, simulate_fluid):
            stats = engine(pol, d, phys, horizon, seed)
            assert stats.admissibility.lifespan_mean_ok, (engine.__name__, seed)
    # The flag still fails lifespans one part in 1e9 off their target.
    x = 1.0 / rho
    assert not _lifespan_flag(array("d", [x * (1.0 + 1e-9)] * 100), x)


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


# --- the block engine against the per-event loop it replaced ---------------


class _PreDrawn:
    """Pre-drawn Poisson streams, handed to the block engine in its blocks
    (the last block may be short)."""

    def __init__(self, gaps, u_type, u_dec, lifespans):
        self._arrivals = (gaps, u_type, u_dec)
        self._lifespans = lifespans
        self._i = self._j = 0

    def arrivals(self, n):
        i, self._i = self._i, self._i + n
        assert i < len(self._arrivals[0]), "pre-drawn arrivals ran out"
        return tuple(a[i : i + n] for a in self._arrivals)

    def lifespans(self, n):
        j, self._j = self._j, self._j + n
        assert j < len(self._lifespans), "pre-drawn lifespans ran out"
        return self._lifespans[j : j + n]


def _seeded_arrays(seed, n_arrivals):
    draws = _PoissonDraws(seed)
    return (*draws.arrivals(n_arrivals), draws.lifespans(n_arrivals))


def _reference_poisson(pol, d, phys, horizon, gaps, u_type, u_dec, lifespans):
    """The per-event loop of earlier versions, one arrival, break or fix
    per step, reading pre-drawn arrays in place of a generator.  Returns
    the windowed working time and per-type counts."""
    order = d.types
    rate = d.total_mass
    cum = np.cumsum(np.array([t.mass for t in order]) / rate).tolist()
    sig_w = [pol.sigma_W[t.id] for t in order]
    sig_b = [pol.sigma_B[t.id] for t in order]
    lives = iter(lifespans.tolist())

    def lifespan():
        if phys.lifespan == "deterministic":
            return phys.lifespan_mean
        return phys.lifespan_mean * next(lives)

    w_start = 10.0 / phys.rho
    w_end = w_start + horizon
    arrivals = [0] * len(order)
    uses = [0] * len(order)
    contribs = [0] * len(order)
    working_time = 0.0
    n_breaks = 0
    working = True
    state_since = 0.0
    next_break = lifespan()
    i = 0
    next_arrival = 0.0 + gaps[0] * (1.0 / rate)
    while True:
        next_machine = next_break if working else math.inf
        t = min(next_arrival, next_machine)
        if working:
            a, b = max(state_since, w_start), min(t, w_end)
            if b > a:
                working_time += b - a
        state_since = t
        if t >= w_end:
            break
        in_window = w_start <= t
        if next_machine <= next_arrival:
            working = False
            n_breaks += in_window
            continue
        k = min(bisect.bisect_right(cum, u_type[i]), len(order) - 1)
        u = u_dec[i]
        i += 1
        next_arrival = t + gaps[i] * (1.0 / rate)
        arrivals[k] += in_window
        if working:
            uses[k] += in_window and u < sig_w[k]
        elif u < sig_b[k]:
            contribs[k] += in_window
            working = True
            next_break = t + lifespan()
    return working_time, arrivals, uses, contribs, n_breaks


def _idle(d):
    return Mechanism(
        Q=0.4, R={t.id: 0.4 for t in d.types}, P={t.id: 0.0 for t in d.types}
    )


ZERO_MASS = TypeDistribution(
    (
        AgentType("H", 5.0, 1.0, 0.5),
        AgentType("Z", 2.0, 1.0, 0.0),
        AgentType("L", 0.1, 1.0, 0.5),
    )
)

# name: (distribution or None for equal_cost, mechanism of the
# distribution, physics, horizon)
REFERENCE_CASES = {
    "exponential": (None, lambda d: screening_mechanism(), PhysicalParams(1.0), 2e4),
    "deterministic": (
        None,
        lambda d: screening_mechanism(),
        PhysicalParams(1.0, lifespan="deterministic"),
        2e4,
    ),
    "zero_mass": (
        ZERO_MASS,
        lambda d: Mechanism(
            Q=0.3, R={"H": 0.3, "Z": 0.3, "L": 0.1}, P={"H": 0.6, "Z": 0.7, "L": 0.1}
        ),
        PhysicalParams(1.0),
        2e4,
    ),
    "never_fixed": (None, _idle, PhysicalParams(1.0), 2e4),
    "zero_uptime": (None, Mechanism.zero, PhysicalParams(1.0), 2e4),
    "shorter_than_a_block": (
        None, lambda d: screening_mechanism(), PhysicalParams(1.0), 50.0
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_poisson_matches_per_event_reference(equal_cost, case):
    d, mechanism, phys, horizon = REFERENCE_CASES[case]
    d = d or equal_cost
    pol = build_policy(mechanism(d))
    arrays = _seeded_arrays(17, 40_000)
    stats = _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), None)
    working, arrivals, uses, contribs, n_breaks = _reference_poisson(
        pol, d, phys, horizon, *arrays
    )
    assert stats.n_breaks == n_breaks
    assert stats.n_arrivals == sum(arrivals)
    assert stats.n_uses == sum(uses)
    assert stats.n_contributions == stats.n_fixes == sum(contribs)
    for i, t in enumerate(d.types):
        n = arrivals[i]
        assert stats.R_hat[t.id] == (uses[i] / n if n else 0.0)
        assert stats.P_hat[t.id] == (contribs[i] / n if n else 0.0)
        assert stats.ci_R[t.id] == _binomial_ci(uses[i], n)
        assert stats.ci_P[t.id] == _binomial_ci(contribs[i], n)
    assert stats.Q_hat == pytest.approx(working / horizon, rel=1e-12, abs=0.0)
    assert stats.admissibility.usage_only_while_working
    assert stats.admissibility.contribution_only_while_broken
    # The pre-drawn arrays are the streams simulate_poisson draws itself.
    assert _hexed(stats) == _hexed(simulate_poisson(pol, d, phys, horizon, 17))
    if case == "never_fixed":
        assert n_breaks == 0 and stats.Q_hat == 0.0 and sum(arrivals) > 0


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_poisson_in_tiny_blocks_matches_per_event_reference(equal_cost, case, monkeypatch):
    # Blocks of at most 7 arrivals: the lifespans a block leaves unused
    # carry to the next, and most broken periods span blocks.
    monkeypatch.setattr(upkeep.sim, "_BLOCK", 7)
    test_poisson_matches_per_event_reference(equal_cost, case)


def _quarter_stream(seed, n, horizon):
    """Gaps of exactly 1/4, a deterministic unit lifespan and rho 1, so
    every event time is a multiple of 1/4: an arrival lands on every
    break, and the window opens at w_start = 10 on an arrival."""
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    pol = build_policy(Mechanism(Q=0.5, R={"A": 0.5}, P={"A": 0.25}))
    phys = PhysicalParams(1.0, lifespan="deterministic")
    u = np.random.default_rng(seed).random((2, n))
    return pol, d, phys, horizon, (np.full(n, 0.25), u[0], u[1], np.empty(0))


def test_break_wins_a_tie_with_an_arrival():
    # The arrival on each break finds the machine broken and may fix it.
    pol, d, phys, _, arrays = _quarter_stream(3, 2000, 400.0)
    buf = io.StringIO()
    stats = _run_poisson(pol, d, phys, 400.0, _PreDrawn(*arrays), buf)
    working, arrivals, uses, contribs, n_breaks = _reference_poisson(
        pol, d, phys, 400.0, *arrays
    )
    assert (stats.n_breaks, stats.n_arrivals, stats.n_uses, stats.n_fixes) == (
        n_breaks, arrivals[0], uses[0], contribs[0]
    )
    assert stats.Q_hat == working / 400.0
    assert stats.admissibility.ok
    lines = buf.getvalue().splitlines()[1:]
    breaks = [i for i, line in enumerate(lines) if "\tBREAK\t" in line]
    assert len(breaks) > 100
    for i in breaks:
        t = lines[i].split("\t")[0]
        arrival = lines[i + 1].split("\t")
        assert arrival[:2] == [t, "ARRIVAL"] and arrival[3] == "B"


@pytest.mark.parametrize("block", ["default", 7])
def test_events_at_the_window_start_are_inside_it(block, monkeypatch):
    # At seed 4 a fix at 9 puts a break at w_start = 10, and the arrival
    # at 10 fixes the machine.  That arrival, the break and the fix (a
    # broken period of length 0) all count; the trace prints them exactly.
    if block != "default":
        monkeypatch.setattr(upkeep.sim, "_BLOCK", block)
    pol, d, phys, horizon, arrays = _quarter_stream(4, 400, 50.0)
    buf = io.StringIO()
    stats = _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), buf)
    at_start = {
        cells[1]
        for cells in (line.split("\t") for line in buf.getvalue().splitlines()[1:])
        if float(cells[0]) == 10.0
    }
    assert {"ARRIVAL", "BREAK", "FIX"} <= at_start
    working, arrivals, uses, contribs, n_breaks = _reference_poisson(
        pol, d, phys, horizon, *arrays
    )
    assert (stats.n_breaks, stats.n_arrivals, stats.n_uses, stats.n_fixes) == (
        n_breaks, arrivals[0], uses[0], contribs[0]
    )
    assert stats.Q_hat == working / horizon
    # The downtime of 0 at w_start is in ci_Q's cycles.  Pinned when the
    # window tests were boolean masks.
    assert (stats.ci_Q.hex(), stats.lifespan_mean.hex()) == (
        "0x1.f3c7e428e7d05p-5", "0x1.0000000000000p+0"
    )


def _unit_types(masses):
    """Types T0, T1, ... with u = c = 1 and the given masses."""
    return TypeDistribution(
        tuple(AgentType(f"T{i}", 1.0, 1.0, float(m)) for i, m in enumerate(masses))
    )


def test_type_draw_matches_searchsorted():
    # The branch-free search on 1-40 types, a third of them massless (tied
    # edges), with uniforms drawn and uniforms on the edges themselves.
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        mass = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.67)
        mass[rng.integers(n)] = 1.0
        edges = _type_edges(_unit_types(mass))
        shares = edges[: n - 1]
        assert np.isinf(edges[n - 1 :]).all()
        u = np.concatenate((rng.random(200), shares, [0.0]))
        assert np.array_equal(_count_at_or_below(edges, u), shares.searchsorted(u, "right"))


def _tied_stream():
    """Gaps of 1e17 and a deterministic unit lifespan, so t + 1 == t: each
    break after the first lands on the instant of the fix before it."""
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    pol = build_policy(Mechanism(Q=0.5, R={"A": 0.5}, P={"A": 0.25}))
    phys = PhysicalParams(1.0, lifespan="deterministic")
    n, horizon = 2000, 1e20
    u = np.random.default_rng(4).random((2, n))
    arrays = (np.full(n, 1e17), u[0], u[1], np.empty(0))
    assert 1e17 + 1.0 == 1e17
    return pol, d, phys, horizon, arrays


def test_break_at_its_fix_instant_falls_after_the_fix():
    # Each break falls after its fix's arrival and before the next one,
    # and the fix's contribution is read as falling while broken.
    pol, d, phys, horizon, arrays = _tied_stream()
    buf = io.StringIO()
    stats = _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), buf)
    working, arrivals, uses, contribs, n_breaks = _reference_poisson(
        pol, d, phys, horizon, *arrays
    )
    assert (stats.n_breaks, stats.n_arrivals, stats.n_uses, stats.n_fixes) == (
        n_breaks, arrivals[0], uses[0], contribs[0]
    )
    assert stats.n_breaks > 100 and stats.n_arrivals > 500
    assert stats.Q_hat == working / horizon
    assert stats.admissibility.ok
    lines = buf.getvalue().splitlines()[1:]
    fixes = [i for i, line in enumerate(lines) if "\tFIX\t" in line]
    assert len(fixes) == stats.n_fixes
    for i in fixes:
        t = lines[i].split("\t")[0]
        assert lines[i + 1].split("\t")[:2] == [t, "BREAK"]


def test_tied_stream_admissibility_can_fail(monkeypatch):
    # The engine's own event arrays of the tied stream, with positions.
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return _admissible(*args, **kwargs)

    monkeypatch.setattr(upkeep.sim, "_admissible", record)
    pol, d, phys, horizon, arrays = _tied_stream()
    _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), None)
    args, kwargs = calls[0]
    breaks, fixes, uses, working = args
    at_break, at_fix = kwargs["positions"]
    assert working
    assert breaks[0] == 1.0 < fixes[0] == breaks[1]
    assert _admissible(*args, **kwargs) == (True, True)
    # A break placed before the arrival of the fix at its instant.
    early = at_break.copy()
    early[1] = at_fix[0]
    assert _admissible(*args, positions=(early, at_fix)) == (False, False)


def test_contribution_flag_fails_when_a_contributor_is_skipped(equal_cost, monkeypatch):
    # The search for the break after each fix (the bisect from lo = c + 1)
    # returns one past the first contributing arrival after the break, so
    # the next fix skips that arrival's contribution.  Breaks and fixes
    # still alternate and every use still falls while working; only the
    # arrivals' own contribution draws show the skipped contributor.
    def one_late(a, x, lo=0):
        return min(bisect.bisect_left(a, x, lo) + (lo > 0), len(a))

    pol = build_policy(screening_mechanism())
    run = (pol, equal_cost, PhysicalParams(1.0), 300.0, 12)
    assert simulate_poisson(*run).admissibility.ok
    monkeypatch.setattr(upkeep.sim, "bisect_left", one_late)
    flags = simulate_poisson(*run).admissibility
    assert flags.usage_only_while_working and flags.lifespan_mean_ok
    assert not flags.contribution_only_while_broken


def test_tied_stream_flags_fail_when_a_break_may_precede_its_fix(monkeypatch):
    # The search for the break after each fix starts at the fixing
    # arrival (lo = c) rather than past it (lo = c + 1).  On the tied
    # stream t + lifespan == t, so each break lands on its own fix's
    # arrival: by time alone breaks and fixes still alternate, and only
    # the positions in the stream show each break before its fix.
    def from_the_fix(a, x, lo=0):
        return bisect.bisect_left(a, x, lo - (lo > 0))

    pol, d, phys, horizon, arrays = _tied_stream()
    assert _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), None).admissibility.ok
    monkeypatch.setattr(upkeep.sim, "bisect_left", from_the_fix)
    flags = _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), None).admissibility
    assert (flags.usage_only_while_working, flags.contribution_only_while_broken) == (False, False)


def _hexed(stats):
    def hexed(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, dict):
            return {k: hexed(v) for k, v in x.items()}
        return x

    return hexed(dataclasses.asdict(stats))


@pytest.mark.parametrize("engine", [simulate_poisson, simulate_fluid])
def test_block_size_does_not_change_outputs(equal_cost, lmh, engine, monkeypatch):
    sol = solve_participation(lmh, 5.5)
    runs = [
        (build_policy(screening_mechanism()), equal_cost, PhysicalParams(1.0), 3e3, 21),
        (build_policy(sol.mechanism), lmh, PhysicalParams(5.5), 500.0, 22),
        (build_policy(_idle(equal_cost)), equal_cost, PhysicalParams(1.0), 3e3, 23),
    ]
    default = [_hexed(engine(*run)) for run in runs]
    monkeypatch.setattr(upkeep.sim, "_BLOCK", 7)
    assert [_hexed(engine(*run)) for run in runs] == default


def test_poisson_memory_does_not_hold_the_horizon(lmh):
    # At this horizon a run sees about 54k arrivals and 28k repair cycles.
    # It traces about 1.26 MB in blocks of 4096 arrivals, with the
    # per-cycle lifespans and downtimes held as 8-byte floats; holding
    # every arrival at once took about 10 MB.
    sol = solve_participation(lmh, 5.5)
    pol = build_policy(sol.mechanism)
    phys = PhysicalParams(5.5)
    simulate_poisson(pol, lmh, phys, 10.0, seed=1)
    tracemalloc.start()
    try:
        stats = simulate_poisson(pol, lmh, phys, 1e5 / 5.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_arrivals > 50_000
    assert peak < 2.5e6


# --- admissibility from the event arrays -----------------------------------


def _events(equal_cost):
    """One block's event arrays from the Poisson engine, as the engine
    hands them to _admissible."""
    pol = build_policy(screening_mechanism())
    buf = io.StringIO()
    simulate_poisson(pol, equal_cost, PhysicalParams(1.0), 300.0, seed=12, trace=buf)
    times = {kind: [] for kind in ("BREAK", "FIX", "USE")}
    for line in buf.getvalue().splitlines()[1:]:
        t, kind, _, _ = line.split("\t")
        if kind in times:
            times[kind].append(float(t))
    return {kind: np.array(ts) for kind, ts in times.items()}


def test_admissibility_fails_on_corrupted_events(equal_cost):
    ev = _events(equal_cost)
    breaks, fixes, uses = ev["BREAK"], ev["FIX"], ev["USE"]
    assert len(breaks) > 10 and len(uses) > 10
    assert _admissible(breaks, fixes, uses, True) == (True, True)
    # a use moved into a broken interval, and onto a break instant
    for t in (0.5 * (breaks[3] + fixes[3]), breaks[3]):
        moved = np.sort(np.append(uses[1:], t))
        assert _admissible(breaks, fixes, moved, True) == (True, False)
    # a dropped fix, a fix before its break, a fix past the next break and
    # a dropped break each break the alternation
    early, late = fixes.copy(), fixes.copy()
    early[3] = breaks[3] - 1e-3
    late[3] = breaks[4] + 1e-3
    for b, f in (
        (breaks, np.delete(fixes, 3)),
        (breaks, early),
        (breaks, late),
        (np.delete(breaks, 3), fixes),
    ):
        assert _admissible(b, f, uses, True) == (False, False)
    # the same stretch read as starting broken does not alternate
    assert _admissible(breaks, fixes, uses, False) == (False, False)


# name: (breaks, fixes, starts working, uses, expected flags)
BROKEN_INTERVAL_CASES = {
    "use_at_fix": ([1.0], [2.0], True, [0.5, 2.0, 2.5], (True, True)),
    "use_after_trailing_break": ([1.0, 3.0], [2.0], True, [0.5, 4.0], (True, False)),
    "use_at_trailing_break": ([1.0, 3.0], [2.0], True, [2.5, 3.0], (True, False)),
    "starts_broken_use_before_fix": ([], [2.0], False, [1.0], (True, False)),
    "starts_broken_use_at_fix": ([], [2.0], False, [2.0, 2.5], (True, True)),
    "stays_broken_one_use": ([], [], False, [1.0], (True, False)),
    "stays_broken_no_use": ([], [], False, [], (True, True)),
    "zero_length_broken_period": ([1.0], [1.0], True, [1.0], (True, True)),
    "fix_tied_with_next_break": ([1.0, 2.0], [2.0, 3.0], True, [2.0], (True, False)),
    "fix_tied_no_use_at_tie": ([1.0, 2.0], [2.0, 3.0], True, [0.5, 3.0], (True, True)),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INTERVAL_CASES))
def test_admissibility_per_broken_interval(case):
    # The machine is broken on [break, fix), and on [break, inf) when the
    # stretch ends broken.
    breaks, fixes, working, uses, expected = BROKEN_INTERVAL_CASES[case]
    args = (np.array(breaks), np.array(fixes), np.array(uses), working)
    assert _admissible(*args) == expected


def test_event_counts(equal_cost):
    pol = build_policy(screening_mechanism())
    phys = PhysicalParams(1.0)
    s = simulate_poisson(pol, equal_cost, phys, 2e3, seed=31)
    assert s.n_arrivals > s.n_uses + s.n_contributions > 0
    assert s.n_contributions == s.n_fixes
    assert abs(s.n_breaks - s.n_fixes) <= 1
    assert s.n_arrivals == pytest.approx(equal_cost.total_mass * 2e3, rel=0.1)
    f = simulate_fluid(pol, equal_cost, phys, 2e3, seed=32)
    assert (f.n_arrivals, f.n_uses, f.n_contributions) == (0, 0, 0)
    assert abs(f.n_breaks - f.n_fixes) <= 1 and f.n_breaks > 0


# --- bit-identity listing ---------------------------------------------------


def _random_run(rng):
    """A random policy on 1-5 types (zero and 1e-3 masses among them;
    probabilities 0, below 0.01, uniform and 1), rho 0.05-20, either
    lifespan shape, and a horizon of about 3,000 arrivals."""
    n = int(rng.integers(1, 6))
    masses = rng.choice([0.0, 1e-3, 1.0, 2.0], n) * rng.uniform(0.1, 1.5, n)
    masses[rng.integers(n)] = rng.uniform(0.1, 3.0)
    d = _unit_types(masses)

    def probs():
        kind = rng.integers(4, size=n)
        x = rng.random(n)
        levels = np.choose(kind, [0.0, 0.01 * x, x, 1.0]).tolist()
        return dict(zip([t.id for t in d.types], levels))

    rho = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    shape = ("exponential", "deterministic")[rng.integers(2)]
    pol = upkeep.sim.MarkovPolicy(probs(), probs())
    return pol, d, PhysicalParams(rho, lifespan=shape), 3e3 / d.total_mass


def identity_runs():
    """(case, engine, thunk) per run of the bit-identity listing: the
    reference cases, the streams with ties and 40 seeded random policies.
    Each thunk returns the run's stats and its trace (empty for untraced
    runs)."""
    equal_cost = TypeDistribution(
        tuple(AgentType(tid, u, 1.0, 1.0 / 3.0) for tid, u in (("H", 5.0), ("M", 1.0), ("L", 0.1)))
    )
    engines = {"poisson": simulate_poisson, "fluid": simulate_fluid}

    def traced(engine, *run):
        buf = io.StringIO()
        return engine(*run, trace=buf), buf.getvalue()

    for case in sorted(REFERENCE_CASES):
        d, mechanism, phys, horizon = REFERENCE_CASES[case]
        d = d or equal_cost
        run = (build_policy(mechanism(d)), d, phys, horizon, 17)
        for name, engine in engines.items():
            yield case, name, lambda e=engine, r=run: (e(*r), "")
            yield case + "+trace", name, lambda e=engine, r=run: traced(e, *r)

    ties = {
        "quarter_gaps": _quarter_stream(3, 2000, 400.0),
        "window_edge": _quarter_stream(4, 400, 50.0),
        "tied_stream": _tied_stream(),
    }
    for case, (pol, d, phys, horizon, arrays) in ties.items():
        def tie_run(pol=pol, d=d, phys=phys, horizon=horizon, arrays=arrays):
            buf = io.StringIO()
            return _run_poisson(pol, d, phys, horizon, _PreDrawn(*arrays), buf), buf.getvalue()

        yield case, "poisson", tie_run

    rng = np.random.default_rng(20261019)
    for i in range(40):
        run = (*_random_run(rng), 1000 + i)
        for name, engine in engines.items():
            yield f"random_{i}", name, lambda e=engine, r=run: (e(*r), "")


if __name__ == "__main__":
    # One line per run: case, engine, block size and a short hash of the
    # stats as float.hex and of the trace.  `diff` between the listings of
    # two checkouts shows whether the engines' outputs moved by one bit.
    # Run from the repository root as `PYTHONPATH=src python tests/test_sim.py`.
    import hashlib

    default_block = upkeep.sim._BLOCK
    for block in (default_block, 7):
        upkeep.sim._BLOCK = block
        for case, engine, thunk in identity_runs():
            stats, text = thunk()
            digest = hashlib.sha256(repr((_hexed(stats), text)).encode()).hexdigest()[:16]
            print(case, engine, "default" if block == default_block else block, digest)
    upkeep.sim._BLOCK = default_block
