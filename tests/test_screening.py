import math

import numpy as np
import pytest

from upkeep import (
    AgentType,
    GridSpec,
    TypeDistribution,
    bounded_monopoly_solve,
    check_feasible,
    ic_lagrangian,
    lp_screening_welfare,
    menu_grid_oracle,
    solve_first_best,
    solve_participation,
    solve_screening,
    verify_structure,
)
from conftest import KINDS, kinded_distribution, random_distribution
from upkeep.model import kink_uptimes
from upkeep.screening import _kink_table, _row_line


def test_bounded_monopoly_two_tier_menu():
    # valuations scaled for 0.3 uptime; the optimum splits the middle
    # type onto a cheaper partial tier and prices the top at the cap
    y = 2.4
    vals = [
        (0.3 / 7.0, 1.0 / 3.0, y / 3.0),
        (3.0 / 7.0, 1.0 / 3.0, y / 3.0),
        (15.0 / 7.0, 1.0 / 3.0, y / 3.0),
    ]
    sol = bounded_monopoly_solve(vals)
    assert sol.r == pytest.approx((0.0, 2.0 / 3.0, 1.0), abs=1e-9)
    assert sol.p == pytest.approx((0.0, 2.0 / 7.0, 1.0), abs=1e-9)


def test_bounded_monopoly_posted_price_at_cap():
    sol = bounded_monopoly_solve([(2.0, 0.0, 1.0)])
    assert sol.r == (1.0,)
    assert sol.p == (1.0,)
    assert sol.value == pytest.approx(1.0)


def test_bounded_monopoly_posted_price_below_cap():
    sol = bounded_monopoly_solve([(0.5, 0.0, 1.0)])
    assert sol.r == (1.0,)
    assert sol.p == pytest.approx((0.5,))
    assert sol.value == pytest.approx(0.5)


def test_bounded_monopoly_rejects_bad_input():
    with pytest.raises(ValueError):
        bounded_monopoly_solve([(-0.1, 1.0, 1.0)])
    with pytest.raises(ValueError):
        bounded_monopoly_solve([(2.0, 1.0, 0.0), (1.0, 1.0, 0.0)])


@pytest.mark.parametrize(
    "vals, cap",
    [
        ([(1.0, 1.0, 1.0)], math.nan),
        ([(1.0, 1.0, 1.0)], math.inf),
        ([(math.nan, 1.0, 1.0)], 1.0),
        ([(math.inf, 1.0, 1.0)], 1.0),
        ([(1.0, math.nan, 1.0)], 1.0),
        ([(1.0, math.inf, 1.0)], 1.0),
        ([(1.0, 1.0, math.nan)], 1.0),
        ([(0.5, 1.0, 1.0), (1.0, 1.0, -math.inf)], 1.0),
    ],
)
def test_bounded_monopoly_rejects_non_finite_input(vals, cap):
    with pytest.raises(ValueError):
        bounded_monopoly_solve(vals, cap)


@pytest.mark.parametrize("solver", [solve_first_best, solve_participation, solve_screening])
@pytest.mark.parametrize(
    "rho, tol", [(math.nan, 1e-9), (math.inf, 1e-9), (1.0, math.nan), (1.0, math.inf)]
)
def test_solvers_reject_non_finite_rho_and_tol(equal_cost, solver, rho, tol):
    with pytest.raises(ValueError):
        solver(equal_cost, rho, tol)


def test_bounded_monopoly_free_tier_with_negative_weights():
    # charging the cap to the top type requires excluding a middle type
    # whose payments the seller dislikes; a free partial tier does it
    vals = [(1.5, 0.1, -5.0), (3.0, 0.0, 1.0)]
    sol = bounded_monopoly_solve(vals)
    assert sol.value == pytest.approx(1.1, abs=1e-9)
    assert sol.p[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.p[1] == pytest.approx(1.0, abs=1e-12)
    assert sol.r[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_ic_lagrangian_degenerate_uptimes(equal_cost):
    value, menu = ic_lagrangian(0.0, 3.0, equal_cost, 1.0)
    assert value == 0.0
    assert all(v == 0.0 for v in menu.p.values())
    value, _ = ic_lagrangian(1.0, 3.0, equal_cost, 1.0)
    assert value == pytest.approx(-3.0)


def test_ic_lagrangian_free_allocation_at_zero_threshold():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    value, menu = ic_lagrangian(0.5, 0.0, d, 1.0)
    assert value == pytest.approx(0.5, abs=1e-12)
    assert menu.r["A"] == pytest.approx(1.0)
    assert menu.p["A"] == pytest.approx(0.0)


def test_ic_lagrangian_saddle_value(equal_cost):
    sol = solve_screening(equal_cost, 1.0)
    value, _ = ic_lagrangian(sol.Q_star, sol.y_star, equal_cost, 1.0)
    assert value == pytest.approx(sol.W_star, abs=1e-6)


def test_solve_screening_two_tier(equal_cost):
    sol = solve_screening(equal_cost, 1.0)
    assert sol.Q_star == pytest.approx(0.3, abs=1e-3)
    assert sol.W_star == pytest.approx(0.8 / 3.0, abs=1e-4)
    assert sol.mechanism.R["H"] == pytest.approx(0.3, abs=1e-6)
    assert sol.mechanism.R["M"] == pytest.approx(0.2, abs=1e-6)
    assert sol.mechanism.R["L"] == pytest.approx(0.0, abs=1e-9)
    assert sol.mechanism.P["H"] == pytest.approx(0.7, abs=1e-6)
    assert sol.mechanism.P["M"] == pytest.approx(0.2, abs=1e-6)
    assert sol.assignment["L"] is None
    assert check_feasible(sol.mechanism, equal_cost, 1.0, tol=1e-8).ok


def test_solve_screening_singleton_matches_participation():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    ic = solve_screening(d, 0.5)
    part = solve_participation(d, 0.5)
    assert ic.Q_star == pytest.approx(part.Q_star, abs=1e-6)
    assert ic.W_star == pytest.approx(part.W_star, abs=1e-8)


def test_solve_screening_pools_equal_valuations():
    d = TypeDistribution(
        (AgentType("A", 2.0, 1.0, 0.7), AgentType("B", 6.0, 3.0, 0.5))
    )
    sol = solve_screening(d, 1.0)
    rep = check_feasible(sol.mechanism, d, 1.0, tol=1e-8)
    assert rep.ok
    assert sol.mechanism.R["A"] == pytest.approx(sol.mechanism.R["B"], abs=1e-9)
    assert sol.mechanism.P["A"] == pytest.approx(sol.mechanism.P["B"], abs=1e-9)


def test_verify_structure_golden(equal_cost):
    sol = solve_screening(equal_cost, 1.0)
    assert verify_structure(sol)


def test_verify_structure_rejects_three_bundles(equal_cost):
    from upkeep.screening import MenuTier, ScreeningSolution
    from upkeep import Mechanism

    sol = ScreeningSolution(
        y_star=1.0,
        Q_star=0.4,
        W_star=0.0,
        mechanism=Mechanism(
            Q=0.4,
            R={"H": 0.4, "M": 0.2, "L": 0.1},
            P={"H": 0.6, "M": 0.3, "L": 0.1},
        ),
        tiers=(MenuTier(1.0, 1.0), MenuTier(0.5, 0.5), MenuTier(0.25, 1.0 / 6.0)),
        assignment={"H": 0, "M": 1, "L": 2},
        iterations=0,
        rho=1.0,
        d=equal_cost,
    )
    assert not verify_structure(sol)


def test_verify_structure_zero_menu(equal_cost):
    sol = solve_screening(equal_cost, 100.0)
    assert sol.Q_star == pytest.approx(0.0, abs=1e-9)
    assert verify_structure(sol)


def test_screening_weakly_below_participation():
    rng = np.random.default_rng(41)
    for _ in range(15):
        d = random_distribution(rng, n_max=5)
        rho = float(rng.uniform(0.1, 10.0))
        ic = solve_screening(d, rho)
        part = solve_participation(d, rho)
        assert ic.W_star <= part.W_star + 1e-8
        assert check_feasible(ic.mechanism, d, rho, tol=1e-8).ok
        assert verify_structure(ic, 1e-8)


def test_menu_monotone_in_valuation():
    rng = np.random.default_rng(43)
    for _ in range(15):
        d = random_distribution(rng, n_max=5)
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_screening(d, rho)
        by_nu = sorted(d.types, key=lambda t: t.nu)
        for a, b in zip(by_nu, by_nu[1:]):
            assert sol.mechanism.R[b.id] >= sol.mechanism.R[a.id] - 1e-9
            assert sol.mechanism.P[b.id] >= sol.mechanism.P[a.id] - 1e-9


def test_lp_oracle_agreement():
    rng = np.random.default_rng(47)
    grid = GridSpec(q_points=61, refine_rounds=3)
    cases = []
    for _ in range(8):
        d = random_distribution(rng, n_max=5)
        cases.append((d, float(rng.uniform(0.1, 10.0))))
    for kind in ("tied_cost", "tied_nu", "zero_mass"):
        for n in (3, 5):
            d = kinded_distribution(rng, kind, n)
            cases.append((d, d.total_mass * float(10 ** rng.uniform(-1.3, 1.3))))
    for d, rho in cases:
        sol = solve_screening(d, rho)
        w, _ = lp_screening_welfare(d, rho, grid)
        assert abs(sol.W_star - w) <= 2e-3


def _dual_certificate_cases():
    rng = np.random.default_rng(59)
    for kind in KINDS:
        for n in (3, 4, 5, 6):
            d = kinded_distribution(rng, kind, n)
            yield d, d.total_mass * float(10 ** rng.uniform(-1.3, 1.3)), None
    for n in (12, 24):
        d = random_distribution(rng, n, n)
        yield d, 0.2 * d.total_mass, False
        yield d, 20.0 * d.total_mass, True
    # Balance puts Q within 1e-8 of 1; the top tier must still charge
    # exactly the full downtime.
    d = TypeDistribution((AgentType("A", 4.0, 3.2, 1e6), AgentType("Z", 3.0, 7.2, 0.0)))
    yield d, 0.01, False


def test_screening_dual_certificate():
    # Weak duality: g(y) = max over Q of ic_lagrangian(Q, y) bounds every
    # balanced mechanism's welfare, so g(y_star) <= W_star certifies both.
    for d, rho, infinite in _dual_certificate_cases():
        sol = solve_screening(d, rho)
        if infinite is not None:
            assert math.isinf(sol.y_star) == infinite
        assert check_feasible(sol.mechanism, d, rho, tol=1e-8).ok
        assert verify_structure(sol)
        assert sol.W_star <= solve_participation(d, rho).W_star + 1e-8
        if math.isinf(sol.y_star):
            continue
        qs = [i / 200 for i in range(201)] + kink_uptimes(d)
        g = max(ic_lagrangian(q, sol.y_star, d, rho)[0] for q in qs)
        g = max(g, d.u_bar - rho * sol.y_star)
        assert g <= sol.W_star + 1e-9 * max(1.0, abs(sol.W_star))


def test_monopoly_matches_grid_oracle_random():
    rng = np.random.default_rng(53)
    for _ in range(6):
        nus = np.sort(rng.uniform(0.0, 3.0, size=4))
        sws = rng.uniform(0.0, 2.0, size=4)
        pws = rng.uniform(-2.0, 2.0, size=4)
        vals = [(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)]
        sol = bounded_monopoly_solve(vals)
        oracle = menu_grid_oracle(vals, 1.0, 1e-3)
        scale = sum(abs(b) + abs(c) for _, b, c in vals) * max(1.0, float(nus.max()))
        assert abs(sol.value - oracle) <= 1e-3 * max(scale, 1.0)


def _crafted_ties():
    # Every valuation below is exactly 1.0 once scaled at its own kink, so
    # every buyer sits on the cap there; T1/T2 tie in nu and T2 has no
    # mass.
    d = TypeDistribution(
        (
            AgentType("T0", 0.75, 1.0, 1.0),
            AgentType("T1", 2.0, 2.0, 0.5),
            AgentType("T2", 3.0, 3.0, 0.0),
            AgentType("T3", 1.5, 1.0, 0.7),
            AgentType("T4", 6.0, 2.0, 1.2),
            AgentType("T5", 4.0, 1.0, 0.3),
        )
    )
    for t in d.types:
        q = 1.0 / (1.0 + t.nu)
        assert t.nu * (q / (1.0 - q)) == 1.0
    return d


def _table_cases():
    rng = np.random.default_rng(71)
    for kind in KINDS:
        for n in range(2, 9):
            d = kinded_distribution(rng, kind, n)
            yield d, d.total_mass * float(10 ** rng.uniform(-1.3, 1.3))
    d = _crafted_ties()
    for f in (0.05, 0.3, 1.0, 5.0):
        yield d, f * d.total_mass
    # At L's kink (scaled valuations 1 and 20) and 0.5 < y < 9.5 the best
    # menu gives L a free partial tier and charges H the cap.
    d = TypeDistribution((AgentType("L", 5.0, 10.0, 1.0), AgentType("H", 1.0, 0.1, 1.0)))
    yield d, 1.0


def test_kink_table_matches_inner_solve_and_menus():
    # Each table line is checked against the line of its menu assigned
    # buyer by buyer (_row_line), and each kink's best line at y > 0
    # against the independent inner solve in ic_lagrangian.
    rng = np.random.default_rng(73)
    free_tier_best = 0
    for d, rho in _table_cases():
        tab = _kink_table(d, rho)
        scale = max(1.0, rho, d.total_mass, d.u_bar, d.c_bar)
        for i in range(tab.W.size):
            line = _row_line(tab, i, d, rho)
            assert line.Q == tab.qs[tab.kink[i]]
            assert abs(line.W - tab.W[i]) <= 1e-12 * scale
            assert abs(line.S - tab.S[i]) <= 1e-12 * scale
        for y in 10 ** rng.uniform(-2.0, 2.0, 4):
            values = tab.W + y * tab.S
            for k, q in enumerate(tab.qs):
                rows = np.flatnonzero(tab.kink == k)
                best = rows[np.argmax(values[rows])]
                ref, _ = ic_lagrangian(float(q), float(y), d, rho)
                assert abs(values[best] - ref) <= 1e-12 * max(1.0, abs(ref))
                free_tier_best += int(tab.lo[best] == 0 and tab.hi[best] >= 0)
    # Some kink's best menu has a free partial tier (low atom at 0).
    assert free_tier_best > 0


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("f_rho, infinite", [(0.2, False), (20.0, True)])
def test_screening_at_scale(n, f_rho, infinite):
    d = kinded_distribution(np.random.default_rng(5), "plain", n)
    rho = f_rho * d.total_mass
    sol = solve_screening(d, rho)
    assert math.isinf(sol.y_star) == infinite
    assert check_feasible(sol.mechanism, d, rho, tol=1e-8).ok
    assert verify_structure(sol)
    assert sol.W_star <= solve_participation(d, rho).W_star + 1e-8
    if infinite or n > 48:
        return
    # Weak duality, with g from the inner solve at every kink and the
    # Q -> 1 limit line.
    g = max(ic_lagrangian(q, sol.y_star, d, rho)[0] for q in kink_uptimes(d))
    g = max(g, d.u_bar - rho * sol.y_star)
    assert g <= sol.W_star + 1e-9 * max(1.0, abs(sol.W_star))
