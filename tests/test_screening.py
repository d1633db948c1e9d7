import dataclasses
import math

import numpy as np
import pytest

from upkeep import (
    AgentType,
    GridSpec,
    TypeDistribution,
    bounded_monopoly_solve,
    check_feasible,
    lp_screening_welfare,
    menu_grid_oracle,
    solve_first_best,
    solve_participation,
    solve_screening,
    verify_structure,
)
from conftest import KINDS, kinded_distribution, random_distribution
from reference import ic_lagrangian, table_row_menu
from test_identity import corpus
from upkeep.model import Mechanism, kink_uptimes, slack_scale
from upkeep.screening import MenuTier, ScreeningSolution, _Line, _kink_table, _mix, _table_line


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


_SOLVERS = (solve_first_best, solve_participation, solve_screening)


@pytest.mark.parametrize("solver", _SOLVERS)
@pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -1.0])
def test_solvers_reject_invalid_rho(equal_cost, solver, rho):
    with pytest.raises(ValueError):
        solver(equal_cost, rho)


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


def _two_tier_solve():
    # H, M and M2 take the top tier, L the low one; M and M2 tie in nu.
    d = TypeDistribution(
        (
            AgentType("H", 5.0, 1.0, 1.0 / 3.0),
            AgentType("M", 1.0, 1.0, 1.0 / 3.0),
            AgentType("M2", 2.0, 2.0, 1.0 / 3.0),
            AgentType("L", 0.1, 1.0, 1.0 / 3.0),
        )
    )
    sol = solve_screening(d, 0.5)
    assert sol.assignment == {"H": 0, "M": 0, "M2": 0, "L": 1}
    return sol


def _perturbed(sol, case):
    top, low = sol.tiers
    one = {tid: None if k is None else 0 for tid, k in sol.assignment.items()}
    if case == "top-tier-charges-half":
        return dataclasses.replace(sol, tiers=(MenuTier(top.r, 0.5), low))
    if case == "top-tier-charges-1e-12-short":
        return dataclasses.replace(sol, tiers=(MenuTier(top.r, top.p - 1e-12), low))
    if case == "single-tier-half-access":
        return dataclasses.replace(sol, tiers=(MenuTier(0.5, top.p), low), assignment=one)
    if case == "single-tier-1e-12-short-of-full-access":
        tiers = (MenuTier(top.r - 1e-12, top.p), low)
        return dataclasses.replace(sol, tiers=tiers, assignment=one)
    if case == "higher-nu-lower-tier":
        return dataclasses.replace(sol, assignment={**sol.assignment, "H": 1})
    gap = {"tied-nu-usage-differs": 1e-6, "tied-nu-usage-differs-by-1e-12": 1e-12}[case]
    mech = sol.mechanism
    R = {**mech.R, "M2": mech.R["M2"] - gap}
    return dataclasses.replace(sol, mechanism=dataclasses.replace(mech, R=R))


@pytest.mark.parametrize(
    "case",
    [
        "top-tier-charges-half",
        "top-tier-charges-1e-12-short",
        "single-tier-half-access",
        "single-tier-1e-12-short-of-full-access",
        "higher-nu-lower-tier",
        "tied-nu-usage-differs",
        "tied-nu-usage-differs-by-1e-12",
    ],
)
def test_verify_structure_rejects_each_broken_shape(case):
    # Each case breaks one of verify_structure's checks on a real solve.
    sol = _two_tier_solve()
    assert verify_structure(sol)
    assert not verify_structure(_perturbed(sol, case))


def test_verify_structure_ties_valuations_exactly_1e_12_apart():
    # B's valuation is exactly 1e-12 above A's, at the edge of the tie
    # tolerance, so the two are tied and must share their levels: A
    # opting out while B takes a lone full-access tier fails the check.
    u = 2.0**-44
    d = TypeDistribution((AgentType("A", u, 1.0, 1.0), AgentType("B", u + 1e-12, 1.0, 1.0)))
    assert d.types[1].nu - d.types[0].nu == 1e-12 * max(1.0, d.types[0].nu)
    mech = Mechanism(Q=0.5, R={"A": 0.0, "B": 0.5}, P={"A": 0.0, "B": 0.5})
    sol = ScreeningSolution(
        math.inf, 0.5, 0.0, mech, (MenuTier(1.0, 1.0),), {"A": None, "B": 0}, 0, 1.0, d
    )
    assert not verify_structure(sol)


def test_screening_weakly_below_participation():
    rng = np.random.default_rng(41)
    for _ in range(15):
        d = random_distribution(rng, n_max=5)
        rho = float(rng.uniform(0.1, 10.0))
        ic = solve_screening(d, rho)
        part = solve_participation(d, rho)
        assert ic.W_star <= part.W_star + 1e-8
        assert check_feasible(ic.mechanism, d, rho, tol=1e-8).ok
        assert verify_structure(ic)


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


def _tied_zero_mass(rng: np.random.Generator, n: int) -> TypeDistribution:
    # T1 is T0 with u and c doubled, so their valuations tie exactly, and
    # T1 has no mass: no mass-weighted tie rule can move it.
    types = list(kinded_distribution(rng, "plain", n).types)
    t0 = types[0]
    types[1] = AgentType("T1", 2.0 * t0.u, 2.0 * t0.c, 0.0)
    return TypeDistribution(tuple(types))


def test_tied_valuations_share_a_bundle_at_zero_mass():
    rng = np.random.default_rng(79)
    for i in range(300):
        d = _tied_zero_mass(rng, 2 + i % 5)
        rho = d.total_mass * float(10 ** rng.uniform(-1.3, 1.3))
        sol = solve_screening(d, rho)
        assert verify_structure(sol)
        assert check_feasible(sol.mechanism, d, rho, tol=1e-8).ok
        assert sol.assignment["T1"] == sol.assignment["T0"]
        assert sol.mechanism.R["T1"] == sol.mechanism.R["T0"]
        assert sol.mechanism.P["T1"] == sol.mechanism.P["T0"]


# A tie of k pieces (u * a, c * a, mass * w): sum(w) = sum(w * a) = 1,
# so the pieces' summed mass, mass * u and mass * c are the merged
# type's, exactly at dyadic masses and even u and c.
_PIECES = {
    2: ((0.5, 0.5), (0.5, 1.5)),
    3: ((0.25, 0.25, 0.5), (0.5, 1.5, 1.0)),
    4: ((0.25, 0.25, 0.25, 0.25), (0.5, 1.5, 1.5, 0.5)),
}


def _tie_and_merged(rng: np.random.Generator) -> tuple[TypeDistribution, TypeDistribution, dict]:
    """A family with a tie group of 2-4 types, the same family with the
    tie merged into one type X, and the id map from the first to the
    second.  Every valuation but the last two is at most 12, and those
    two, P and its successor P1, are one ulp apart."""
    n = int(rng.integers(1, 7))
    u, c, m = rng.integers(1, 13, n + 1), rng.integers(1, 7, n + 1), rng.integers(0, 9, n + 1) / 8
    merged = [AgentType(f"T{i}", float(u[i]), float(c[i]), float(m[i])) for i in range(n)]
    x = AgentType("X", 2.0 * (u[n] // 2 + 1), 2.0 * (c[n] // 2 + 1), float(m[n]))
    w, a = _PIECES[int(rng.integers(2, 5))]
    tied = list(merged)
    for j in range(len(w)):
        piece = AgentType(f"X{j}", x.u * a[j], x.c * a[j], x.mass * w[j])
        tied.insert(int(rng.integers(0, len(tied) + 1)), piece)
    merged.insert(int(rng.integers(0, n + 1)), x)
    # P and P1 sort last, after every sum over the tie.
    v = float(rng.uniform(13.0, 20.0))
    ulp = [AgentType("P", v, 1.0, 0.5), AgentType("P1", math.nextafter(v, math.inf), 1.0, 0.25)]
    ids = {t.id: "X" if t.id.startswith("X") else t.id for t in tied + ulp}
    return TypeDistribution(tuple(tied + ulp)), TypeDistribution(tuple(merged + ulp)), ids


def test_a_tie_group_scores_as_one_type():
    # Tied valuations share a bundle, so a tie of k types is one column
    # of the table: it scores as one type with the summed mass, mass * u
    # and mass * c, bit for bit, and each row gives each of its types
    # the merged type's normalized levels exactly.  Valuations one ulp apart
    # are not tied and stay two columns.  The solves walk the same rows;
    # their final lines sum W and S type by type, so the mix weights and
    # so the levels agree to rounding.
    rng = np.random.default_rng(47)
    for _ in range(40):
        tied, merged, ids = _tie_and_merged(rng)
        a, b = _kink_table(tied), _kink_table(merged)
        for field in ("W", "rev", "kink", "lo", "hi", "cut", "top0", "top1", "pad", "qs"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), field
        assert a.pad.shape[1] == len({t.nu for t in tied.types}) + 2
        place = [merged.ids.index(ids[i]) for i in tied.ids]
        assert a.rank.tolist() == b.rank[place].tolist()
        assert a.rank[-1] == a.rank[-2] + 1
        for i in range(a.W.size):
            x, y = _table_line(a, i, tied, 1.0), _table_line(b, i, merged, 1.0)
            assert x.Q == y.Q and (x.r == y.r[place]).all() and (x.p == y.p[place]).all()
        for f in (0.05, 0.3, 1.0, 5.0):
            rho = f * merged.total_mass
            s, t = solve_screening(tied, rho), solve_screening(merged, rho)
            assert s.iterations == t.iterations
            assert s.W_star == pytest.approx(t.W_star, rel=1e-12, abs=1e-15)
            for i in tied.ids:
                m, n = s.mechanism, t.mechanism
                level = (n.R[ids[i]], n.P[ids[i]])
                assert (m.R[i], m.P[i]) == pytest.approx(level, rel=1e-12, abs=1e-15)


# At L's kink (scaled valuations 1 and 20) and 0.5 < y < 9.5 the best
# menu gives L a free partial tier and charges H the cap.
FREE_TIER = TypeDistribution((AgentType("L", 5.0, 10.0, 1.0), AgentType("H", 1.0, 0.1, 1.0)))


def _table_cases():
    rng = np.random.default_rng(71)
    for kind in KINDS:
        for n in range(2, 9):
            d = kinded_distribution(rng, kind, n)
            yield d, d.total_mass * float(10 ** rng.uniform(-1.3, 1.3))
    d = _crafted_ties()
    for f in (0.05, 0.3, 1.0, 5.0):
        yield d, f * d.total_mass
    yield FREE_TIER, 1.0
    for n in range(2, 7):
        d = _tied_zero_mass(rng, n)
        yield d, d.total_mass * float(10 ** rng.uniform(-1.3, 1.3))


def test_kink_table_matches_inner_solve_and_menus():
    # Each table row's buyers, as the solver assigns them (_table_line)
    # from its tie groups' bundles, must take exactly the bundles that
    # the buyer-by-buyer reference gives them, and the row's line must
    # match the reference's; each
    # kink's best line at y > 0 is checked against the independent inner
    # solve in ic_lagrangian and, at each interior kink, against the LP
    # over all direct mechanisms (menu_grid_oracle), which does not assume
    # two tiers.  The table does not involve rho; the slopes S are formed
    # at each case's rho.
    rng = np.random.default_rng(73)
    free_tier_best = lp_checks = 0
    for d, rho in _table_cases():
        tab = _kink_table(d)
        S_tab = tab.slack(rho)
        scale = max(1.0, rho, d.total_mass, d.u_bar, d.c_bar)
        for i in range(tab.W.size - 1):
            q, W, S, menu = table_row_menu(tab, i, d, rho)
            line = _table_line(tab, i, d, rho)
            assert line.Q == q
            assert line.r.tolist() == [menu.r[t.id] for t in d.types]
            assert line.p.tolist() == [menu.p[t.id] for t in d.types]
            assert abs(W - tab.W[i]) <= 1e-12 * scale
            assert abs(S - S_tab[i]) <= 1e-12 * scale
        ys = 10 ** rng.uniform(-2.0, 2.0, 4)
        if d is FREE_TIER:
            # a y where L's kink has its free tier, wherever the shared
            # draws land
            ys = np.append(ys, 2.0)
        order = sorted(d.types, key=lambda t: t.nu)
        for y in ys:
            values = tab.W + y * S_tab
            for k, q in enumerate(tab.qs[:-1].tolist()):
                rows = np.flatnonzero(tab.kink == k)
                best = rows[np.argmax(values[rows])]
                ref, _ = ic_lagrangian(q, float(y), d, rho)
                assert abs(values[best] - ref) <= 1e-12 * max(1.0, abs(ref))
                free_tier_best += int(tab.lo[best] == 0 and tab.hi[best] >= 0)
                if k == 0:
                    continue
                # A buyer's own-kink valuation is exactly 1, as in the table.
                ratio = q / (1.0 - q)
                vals = [
                    (1.0 if q == 1.0 / (1.0 + t.nu) else t.nu * ratio, t.mass * t.c, t.mass * y)
                    for t in order
                ]
                lp = (1.0 - q) * menu_grid_oracle(vals, 1.0, 1e-3) - rho * q * y
                assert abs(values[best] - lp) <= 1e-12 * max(1.0, abs(lp))
                lp_checks += 1
    # Some kink's best menu has a free partial tier (low atom at 0).
    assert free_tier_best > 0
    assert lp_checks == 634


def _tables():
    """(distribution, rho, its kink table) over _table_cases() and the
    identity corpus."""
    for d, rho in _table_cases():
        yield d, rho, _kink_table(d)
    for _, d, rho in corpus():
        yield d, rho, _kink_table(d)


def test_stored_pads_are_each_kinks_padded_valuations():
    # _table_line reads its atoms from tab.pad, so each interior kink's
    # row must be the padded valuations that scored it, one per tie group
    # (distinct valuation), recomputed here as table_row_menu forms them:
    # exactly 1 at a buyer's own kink.
    for d, _, tab in _tables():
        nus = sorted({t.nu for t in d.types})
        assert tab.pad.shape == (tab.qs.size, len(nus) + 2)
        for k in range(1, tab.qs.size - 1):
            q = tab.qs.item(k)
            ratio = q / (1.0 - q)
            pad = [0.0] + [1.0 if q == 1.0 / (1.0 + nu) else nu * ratio for nu in nus] + [1.0]
            assert tab.pad[k].tolist() == pad


def test_limit_row_names_free_full_access():
    # The limit row is the posted price 0 at Q = 1, which every buyer
    # takes: every tie group is cut to full access for free, with welfare
    # u_bar and slack -rho.
    for d, rho, tab in _tables():
        n, last = len(d.types), tab.W.size - 1
        groups = len({t.nu for t in d.types})
        assert tab.kink[last] == tab.qs.size - 1 and tab.qs[-1] == 1.0
        stored = (tab.lo[last], tab.hi[last], tab.cut[last], tab.top0[last], tab.top1[last])
        assert stored == (0, -1, 0, 0, groups)
        assert tab.pad[-1, 0] == 0.0
        line = _table_line(tab, last, d, rho)
        assert line.Q == 1.0
        assert line.r.tolist() == [1.0] * n and line.p.tolist() == [0.0] * n
        assert line.W == d.u_bar and line.S == -rho


def test_row_0_names_the_free_posted_price_nobody_takes():
    # Row 0 is the posted price 0 at Q = 0, which no buyer takes: every
    # tie group is cut out, so nobody has access and welfare and slack are
    # 0.  It is read like every other row, with no opt-out branch.
    for d, rho, tab in _tables():
        n, groups = len(d.types), len({t.nu for t in d.types})
        assert tab.kink[0] == 0 and tab.qs[0] == 0.0
        stored = (tab.lo[0], tab.hi[0], tab.cut[0], tab.top0[0], tab.top1[0])
        assert stored == (0, -1, groups, groups, groups)
        assert tab.pad[0, 0] == 0.0
        line = _table_line(tab, 0, d, rho)
        assert line.Q == 0.0
        assert line.r.tolist() == [0.0] * n and line.p.tolist() == [0.0] * n
        assert line.W == 0.0 and line.S == 0.0
        assert tab.lo.min() == 0


def test_posted_prices_run_over_the_valuations_up_to_1():
    # The sale caps payments at 1, so a posted price above 1 would only
    # repeat the price 1: each kink posts every padded valuation up to 1
    # as a price, and no other.
    rng = np.random.default_rng(29)
    above = 0
    for kind in KINDS:
        for n in range(2, 13):
            tab = _kink_table(kinded_distribution(rng, kind, n))
            posted = tab.hi < 0
            assert (tab.pad[tab.kink[posted], tab.lo[posted]] <= 1.0).all()
            for k in range(1, tab.qs.size - 1):
                prices = tab.pad[k, tab.lo[posted & (tab.kink == k)]]
                assert set(prices.tolist()) == set(tab.pad[k][tab.pad[k] <= 1.0].tolist())
            above += int((tab.pad > 1.0).sum())
    # Some kinks have valuations above 1, which post no price.
    assert above > 0


def test_a_buyer_within_tolerance_of_a_free_bundle_opts_out():
    # At B's kink Q = 1/3, A's valuation 5e-15 is within the tie tolerance
    # of the free posted price, which charges nothing: A takes the
    # seller-preferred opt-out, and B, at valuation 1, takes the price 0.
    d = TypeDistribution((AgentType("A", 1e-14, 1.0, 1.0), AgentType("B", 2.0, 1.0, 1.0)))
    tab = _kink_table(d)
    k = tab.qs.tolist().index(1.0 / 3.0)
    (i,) = np.flatnonzero((tab.kink == k) & (tab.lo == 0) & (tab.hi < 0))
    line = _table_line(tab, int(i), d, 1.0)
    assert line.r.tolist() == [0.0, 1.0] and line.p.tolist() == [0.0, 0.0]


def test_solve_path_never_scores_menus_buyer_by_buyer(monkeypatch):
    # The table's cut rule is the only buyer assignment on the solve path.
    def forbidden(*args):
        raise AssertionError("_score_menu called on the solve path")

    monkeypatch.setattr("upkeep.screening._score_menu", forbidden)
    for d, rho in _table_cases():
        sol = solve_screening(d, rho)
        assert check_feasible(sol.mechanism, d, rho, tol=1e-8).ok
        assert verify_structure(sol)


def _hex_fields(sol):
    h = float.hex
    tiers = [(h(t.r), h(t.p)) for t in sol.tiers]
    return h(sol.W_star), h(sol.Q_star), h(sol.y_star), tiers, dict(sol.assignment)


def _solve_from(tab, d, rho, monkeypatch):
    """solve_screening at rho, its table build patched to return tab."""
    monkeypatch.setattr("upkeep.screening._kink_table", lambda _: tab)
    return solve_screening(d, rho)


def test_final_menus_are_read_from_the_stored_cuts(monkeypatch):
    # The table stores each row's cut indices, so once it is built the
    # solve path never cuts buyers again: with _cuts gone, every solve
    # from a built table matches an unpatched solve bit for bit.
    solves = []
    for d, rho in _table_cases():
        tab = _kink_table(d)
        for r in (rho, 0.2 * d.total_mass, 20.0 * d.total_mass):
            solves.append((tab, d, r, _hex_fields(solve_screening(d, r))))

    def forbidden(*args):
        raise AssertionError("_cuts called on the solve path")

    monkeypatch.setattr("upkeep.screening._cuts", forbidden)
    infinite = set()
    for tab, d, rho, expect in solves:
        sol = _solve_from(tab, d, rho, monkeypatch)
        assert _hex_fields(sol) == expect
        infinite.add(math.isinf(sol.y_star))
    assert infinite == {False, True}


class _Chosen(Exception):
    pass


@pytest.mark.parametrize("narrow, wide", [(np.int8, np.int16), (np.int16, np.int32)])
def test_index_dtype_is_chosen_before_any_block_is_scored(monkeypatch, narrow, wide):
    # n types at the edge of narrow's range: the table's index dtype holds
    # n + 2, and it is fixed before the first block's O(n^2) grid exists.
    def stop(qs, nu, cum, dtype):
        raise _Chosen(dtype)

    monkeypatch.setattr("upkeep.screening._score_kinks", stop)
    top = int(np.iinfo(narrow).max)
    for n, dtype in ((top - 2, narrow), (top - 1, wide)):
        d = TypeDistribution(tuple(AgentType(f"T{i}", 1.0 + i, 1.0, 1.0) for i in range(n)))
        with pytest.raises(_Chosen) as chosen:
            _kink_table(d)
        assert chosen.value.args[0] == np.dtype(dtype)


def test_index_columns_do_not_wrap_past_int8():
    # At n = 127 the largest kink and posted-price index, n + 1, are past
    # int8's range: a table cast to int8 would wrap them negative.
    n = int(np.iinfo(np.int8).max)
    d = kinded_distribution(np.random.default_rng(3), "plain", n)
    tab = _kink_table(d)
    columns = (tab.kink, tab.lo, tab.hi, tab.cut, tab.top0, tab.top1)
    assert {x.dtype for x in columns} == {np.dtype(np.int16)}
    assert tab.kink.max() == tab.qs.size - 1 == n + 1
    assert tab.lo.max() == n + 1
    assert min(x.min() for x in columns) == -1
    assert max(x.max() for x in (tab.cut, tab.top0, tab.top1)) == n


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


@pytest.mark.parametrize("rho", [1e-13, 1e-14])
def test_stored_limit_row_is_never_an_answer(rho):
    # Masses so small that no menu's slack clears the tolerance: the
    # infinite branch scans for balanced rows.  The stored limit row's
    # slack -rho lies within the scan's balance tolerance, and its welfare
    # u_bar beats every menu's, but Q = 1 with nobody contributing is not
    # a mechanism: the scan must skip it.
    d = TypeDistribution(
        (AgentType("A", 1e12, 1.0, 1e-15), AgentType("B", 5e11, 2.0, 2e-15))
    )
    sol = solve_screening(d, rho)
    assert math.isinf(sol.y_star)
    assert sol.Q_star < 1.0
    assert check_feasible(sol.mechanism, d, rho).ok


def test_infinite_branch_takes_the_welfare_best_balanced_row(monkeypatch):
    # The premise of the infinite branch: no row's slack is positive
    # beyond eps_bal, so the answer is the best balanced row.
    solves = 0
    for _, d, rho in corpus():
        tab = _kink_table(d)
        sol = _solve_from(tab, d, rho, monkeypatch)
        if not math.isinf(sol.y_star):
            continue
        S, eps_bal = tab.slack(rho), 1e-12 * slack_scale(d, rho)
        assert S.max() <= eps_bal
        best = tab.W[:-1][np.abs(S[:-1]) <= eps_bal].max()
        assert abs(sol.W_star - best) <= eps_bal
        solves += 1
    assert solves == 628


def test_infinite_branch_keeps_the_first_of_rows_tied_within_eps_bal():
    # The balanced rows sit at Q = 0 and 1/3 with W = 0, and at Q = 0.4
    # with W = 4.4e-16, which is rounding of 0.  Scanned kink by kink, a
    # row replaces the best so far only if its welfare is higher by more
    # than eps_bal, so Q = 0 stays.
    d = TypeDistribution((AgentType("T0", 3.0, 2.0, 2.0), AgentType("T1", 2.0, 1.0, 0.0)))
    sol = solve_screening(d, 3.0)
    assert math.isinf(sol.y_star)
    assert sol.Q_star == 0.0


@pytest.mark.parametrize(
    "rows, rho, out",
    [
        (((4, 1, 2), (2, 3, 1), (3, 2, 0), (3, 1, 2), (4, 1, 1)), 4.0, set()),
        (((5, 2, 0), (3, 2, 0), (1, 3, 1), (5, 2, 1), (2, 3, 2)), 2.0, {"T2"}),
    ],
)
def test_levels_a_few_ulps_apart_share_one_tier(rows, rho, out):
    # Items 51 and 145 (from 0) of test_identity._integer_tables(), (u,
    # c, mass) per row.  The final pair's mixing weight is within rounding
    # of 0, so _mix takes the heavy member alone: its levels are exactly
    # (1, 1), and tiers, keyed on the exact levels, stay one tier.
    d = TypeDistribution(
        tuple(AgentType(f"T{i}", float(u), float(c), float(m)) for i, (u, c, m) in enumerate(rows))
    )
    sol = solve_screening(d, rho)
    assert sol.tiers == (MenuTier(1.0, 1.0),)
    assert sol.assignment == {tid: None if tid in out else 0 for tid in d.ids}
    assert verify_structure(sol)


def test_a_member_with_slack_exactly_eps_bal_stands_alone():
    # a's slack is exactly eps_bal, so it counts as balanced and _mix
    # returns it as it is, not a mix with b.
    d = TypeDistribution((AgentType("A", 2.0, 1.0, 1.0),))
    one = np.array([1.0])
    a = _Line(1.0, 1e-12, 0.5, one, one, [0.5], [0.5])
    b = _Line(0.0, -1.0, 0.75, one, one, [0.75], [0.25])
    assert _mix(a, b, 1e-12, d, 1.0) is a


def test_a_buyer_values_its_own_kink_at_exactly_1():
    # At a buyer's own kink 1 / (1 + nu) its valuation ratio * nu is 1,
    # but the product rounds off 1 for most corpus types.  A padded
    # valuation of exactly 1 is neither a low atom (< 1) nor a high atom
    # (> 1), so no two-atom row puts an atom on it, and the posted price
    # at it charges exactly 1.  The pads are the tie groups' distinct
    # valuations.
    posted = 0
    for _, d, rho in corpus():
        tab, nu = _kink_table(d), np.unique([t.nu for t in d.types])
        n = nu.size
        # own[j] is the kink of pad index j, -1 for the pads 0 and 1.
        own = np.full(n + 2, -1)
        own[1:-1] = tab.qs.searchsorted(1.0 / (1.0 + nu))
        pair = tab.hi >= 0
        assert not np.any(own[tab.lo[pair]] == tab.kink[pair])
        assert not np.any(own[tab.hi[pair]] == tab.kink[pair])
        for i in np.flatnonzero(~pair & (tab.lo >= 0) & (own[tab.lo] == tab.kink)):
            assert _table_line(tab, int(i), d, rho).p.max() == 1.0
            posted += 1
    assert posted > 0


def test_tiers_are_the_distinct_exact_levels():
    # A type opts out iff its levels are exactly (0, 0), and two types
    # share a tier iff their levels are exactly equal.
    for _, d, rho in corpus():
        sol = solve_screening(d, rho)
        m, tier = sol.mechanism, sol.assignment
        level = {tid: (m.R[tid], m.P[tid]) for tid in d.ids}
        for a in d.ids:
            assert (tier[a] is None) == (level[a] == (0.0, 0.0))
            for b in d.ids:
                assert (tier[a] == tier[b]) == (level[a] == level[b])
        assert verify_structure(sol)


@pytest.mark.parametrize(
    "nu_a, nu_b, nu_z",
    [
        ("0x1.d22321b32605ap+2", "0x1.d22321b32605bp+2", 9.0),
        ("0x1.ec002c9b09e35p+0", "0x1.ec002c9b09e36p+0", 0.01),
    ],
)
def test_pair_atoms_lie_strictly_either_side_of_1(nu_a, nu_b, nu_z):
    # A and B are one ulp apart.  At the kink of one of them, the other's
    # valuation ratio * nu rounds to the far side of 1 from the kink's
    # exact 1, so the padded valuations are not sorted there: in the first
    # case a low atom could land on 1 (and _cuts divide by 1 - low), in
    # the second a high atom (and _cuts divide by r = 0).
    d = TypeDistribution(
        (
            AgentType("A", float.fromhex(nu_a), 1.0, 1.0),
            AgentType("B", float.fromhex(nu_b), 1.0, 1.0),
            AgentType("Z", nu_z, 1.0, 1.0),
        )
    )
    tab, nu = _kink_table(d), np.sort([t.nu for t in d.types])
    n = nu.size

    def pad(i: int, j: int) -> float:
        q = float(tab.qs[tab.kink[i]])
        if j == 0 or j == n + 1:
            return float(j > 0)
        v = float(nu[j - 1])
        return 1.0 if q == 1.0 / (1.0 + v) else q / (1.0 - q) * v

    pairs = np.flatnonzero(tab.hi >= 0)
    assert pairs.size > 0
    for i in pairs:
        assert pad(i, tab.lo[i]) < 1.0 < pad(i, tab.hi[i])


def _ordered_family(
    rng: np.random.Generator, sizes: range
) -> tuple[TypeDistribution, float]:
    """n types, n drawn from sizes, listed by descending cost with
    nondecreasing valuations (up to the rounding of u / c), each drawn
    from n // 2 values (ties) in half the families, a third of the masses
    0 in half of them; rho is the total mass x 10^U(-3, 3)."""
    n = int(rng.integers(sizes.start, sizes.stop))

    def draws(lo: float, hi: float) -> np.ndarray:
        if rng.random() < 0.5:
            return np.sort(rng.choice(rng.uniform(lo, hi, max(1, n // 2)), n))
        return np.sort(rng.uniform(lo, hi, n))

    c, nu = draws(0.1, 10.0)[::-1], draws(0.05, 8.0)
    mass = rng.uniform(0.1, 1.5, n)
    if rng.random() < 0.5:
        mass[rng.choice(n, n // 3, replace=False)] = 0.0
    if not mass.any():
        mass[0] = 1.0
    d = TypeDistribution(
        tuple(
            AgentType(f"T{i}", float(nu[i] * c[i]), float(c[i]), float(mass[i]))
            for i in range(n)
        )
    )
    return d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


def test_verify_structure_on_ordered_families():
    # The paper's ordered types: costs descending while valuations rise,
    # with tied costs, tied valuations and zero masses.  Every optimum
    # uses at most two tiers, monotone in valuation.
    rng = np.random.default_rng(4)
    sizes = set()
    for _ in range(400):
        d, rho = _ordered_family(rng, range(1, 41))
        sizes.add(len(d.types))
        assert verify_structure(solve_screening(d, rho))
    assert min(sizes) == 1 and max(sizes) == 40
    # Then 8 families at each larger n, on both branches.
    rng = np.random.default_rng(41)
    finite = 0
    for n in (60, 80, 100, 120, 150):
        for _ in range(8):
            sol = solve_screening(*_ordered_family(rng, range(n, n + 1)))
            finite += math.isfinite(sol.y_star)
            assert verify_structure(sol)
    assert 0 < finite < 40
