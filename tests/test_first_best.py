import math
from fractions import Fraction

import numpy as np
import pytest

from upkeep import (
    AgentType,
    TypeDistribution,
    check_feasible,
    primal_grid_welfare,
    solve_first_best,
    welfare,
)
from upkeep.envelope import minimize
from upkeep.model import ATOM_SNAP
from conftest import KINDS, kinded_distribution, random_distribution
from reference import (
    fb_dual_value, fb_threshold_gap, first_best_lines, first_best_via_participation,
)
from test_identity import corpus
from test_participation import _tiny_mass_tables
from test_sweep import _hexed


def test_threshold_gap_values(lmh):
    assert fb_threshold_gap(2.7, lmh, 5.5) == pytest.approx(0.0, abs=1e-12)
    assert fb_threshold_gap(0.0, lmh, 5.5) == pytest.approx(lmh.u_bar)
    single = TypeDistribution((AgentType("A", 1, 1, 1.0),))
    assert fb_threshold_gap(4.0 / 3.0, single, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_threshold_gap_strictly_decreasing(lmh):
    ys = np.linspace(0.0, 4.0, 50)
    gaps = [fb_threshold_gap(float(y), lmh, 5.5) for y in ys]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_dual_value(lmh):
    assert fb_dual_value(2.7, lmh, 5.5) == pytest.approx(2.15, abs=1e-12)
    assert fb_dual_value(0.0, lmh, 5.5) == pytest.approx(17.0)
    assert fb_dual_value(3.0, lmh, 5.5) == pytest.approx(2.75, abs=1e-12)


def test_solve_three_types(lmh):
    sol = solve_first_best(lmh, 5.5)
    assert sol.y_fb == pytest.approx(2.7, abs=1e-9)
    assert sol.Q_fb == pytest.approx(4.0 / 15.0, abs=1e-9)
    assert sol.W_fb == pytest.approx(2.15, abs=1e-9)
    assert sol.mechanism.P["L"] == 0.0
    assert sol.mechanism.P["M"] == pytest.approx(11.0 / 15.0, abs=1e-9)
    assert sol.mechanism.P["H"] == pytest.approx(11.0 / 15.0, abs=1e-9)
    rep = check_feasible(sol.mechanism, lmh, 5.5, families={"balance", "simplex"})
    assert rep.ok
    assert welfare(sol.mechanism, lmh) == pytest.approx(sol.W_fb, abs=1e-9)


def test_solve_equal_costs(equal_cost):
    sol = solve_first_best(equal_cost, 1.0)
    assert sol.Q_fb == pytest.approx(0.5, abs=1e-9)
    for t in equal_cost.types:
        assert sol.mechanism.P[t.id] == pytest.approx(0.5, abs=1e-9)


def test_solve_singleton_idle():
    d = TypeDistribution((AgentType("A", 1.0, 2.0, 1.0),))
    sol = solve_first_best(d, 1.0)
    assert sol.y_fb == pytest.approx(1.0, abs=1e-9)
    assert sol.Q_fb == 0.0
    assert sol.W_fb == pytest.approx(0.0, abs=1e-12)
    assert sol.mechanism.P["A"] == 0.0


def test_root_sign_change(lmh):
    sol = solve_first_best(lmh, 5.5)
    eps = 1e-6
    assert fb_threshold_gap(sol.y_fb - eps, lmh, 5.5) > 0
    assert fb_threshold_gap(sol.y_fb + eps, lmh, 5.5) < 0


def test_dual_minimized_at_threshold(lmh):
    sol = solve_first_best(lmh, 5.5)
    assert fb_dual_value(sol.y_fb, lmh, 5.5) == pytest.approx(sol.W_fb, abs=1e-9)
    for y in np.linspace(0.0, 4.0, 41):
        assert fb_dual_value(float(y), lmh, 5.5) >= sol.W_fb - 1e-9


def test_monotone_in_breakage_rate():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = random_distribution(rng)
        rhos = np.geomspace(0.1, 20.0, 8)
        sols = [solve_first_best(d, float(r)) for r in rhos]
        for a, b in zip(sols, sols[1:]):
            assert a.y_fb > b.y_fb
            assert a.Q_fb >= b.Q_fb - 1e-12
            if a.Q_fb > 0:
                assert a.Q_fb > b.Q_fb - 1e-12 and (b.Q_fb == 0 or a.Q_fb > b.Q_fb)


def test_grid_oracle_agreement():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_first_best(d, rho)
        w, _, _ = primal_grid_welfare(d, rho, "first_best")
        assert abs(sol.W_fb - w) <= 1e-3


def test_singleton_aggregate_contributions_rise():
    # aggregate contributions rho * Q need not fall with the breakage
    # rate; for a homogeneous group at small rates they rise
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    values = [rho * solve_first_best(d, rho).Q_fb for rho in (0.1, 0.2)]
    assert values[1] > values[0]


def test_degenerate_tolerance_rejected(lmh):
    with pytest.raises(ValueError):
        solve_first_best(lmh, 0.0)


def test_walk_stops_when_rounding_lifts_a_pair_member():
    # Nobody is cheap enough to contribute, so the walk ends on the flat
    # opt-out line and the limit line, crossing at u_bar / rho.  There the
    # limit line evaluates to about 1e-10 from rounding, above the
    # crossing's value 0 by more than the walk's tolerance; the walk must
    # still stop, since the line on top is already one of the pair.
    d = TypeDistribution(
        (
            AgentType("A", 8.139545256325638, 8.130855482706215, 136.81618498642626),
            AgentType("B", 2.142212297609924, 2.7568011786055195, 353033.99532888446),
        )
    )
    rho = d.total_mass
    assert d.u_bar - rho * (d.u_bar / rho) > 1e-12
    sol = solve_first_best(d, rho)
    assert sol.y_fb == d.u_bar / rho
    assert sol.y_fb == pytest.approx(2.1445356272531284, rel=1e-15)
    assert sol.Q_fb == 0.0
    assert all(p == 0.0 for p in sol.mechanism.P.values())


def test_large_mass_welfare_is_the_mechanisms():
    # With masses of 1e4 to 1e6 and rho up to 1e3 times the total mass,
    # u_bar - rho * y_fb cancels to an ulp of u_bar, which can be negative
    # or far from the oracle; the mechanism's own welfare cannot.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = kinded_distribution(rng, KINDS[seed % 4], int(rng.integers(2, 9)))
        scales = 10.0 ** rng.uniform(4.0, 6.0, len(d.types))
        d = TypeDistribution(
            tuple(AgentType(t.id, t.u, t.c, t.mass * s) for t, s in zip(d.types, scales))
        )
        rho = d.total_mass * 10.0 ** float(rng.uniform(0.0, 3.0))
        sol = solve_first_best(d, rho)
        oracle = primal_grid_welfare(d, rho, "first_best")[0]
        assert sol.W_fb >= 0.0
        assert abs(sol.W_fb - oracle) <= 1e-12 * max(1.0, abs(sol.W_fb))


def test_each_type_contributes_the_downtime_or_nothing():
    # Past Q = 0 the uptime is where the types below the threshold
    # balance by themselves, so _balanced_point gives the types at the
    # threshold a share of exactly 0.  At Q = 0 the residual without them
    # is >= 0, so the clamped share is +0.0 there too.
    # Computing their balancing share at interpolated uptimes gives
    # corpus item 1233 (integer) shares of about 3e-16; at Q = 0,
    # clamping with max(-rm / gap, 0.0) gives -0.0, which the fb mode
    # prints as -0.
    for _, d, rho in corpus():
        sol = solve_first_best(d, rho)
        levels = {0.0.hex(), (1.0 - sol.Q_fb).hex()}
        assert {p.hex() for p in sol.mechanism.P.values()} <= levels


def _tenths_tables():
    """Small integer tables in tenths: u, c, mass and rho are integers
    over 10, with tied costs, tied valuations and zero masses.  A crossing
    that falls on a cost in exact arithmetic lands on it in floats only up
    to rounding, which integers would not show."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        rows = [tuple(int(rng.integers(lo, hi)) for lo, hi in ((1, 9), (1, 5), (0, 4))) for _ in range(n)]
        if any(m for _, _, m in rows):
            types = (AgentType(f"T{i}", u / 10, c / 10, m / 10) for i, (u, c, m) in enumerate(rows))
            d = TypeDistribution(tuple(types))
            yield from ((d, rho / 10) for rho in range(1, 9))


def test_own_finish_matches_participations_finish():
    # First best's closed-form finish against participation's general one
    # on first best's table, every field as float.hex.  On the tenths
    # tables many thresholds sit on a cost with positive mass and Q > 0,
    # where taking the column with the threshold's types (bisect_right)
    # moves Q; many are snapped there from a crossing a few ulps off,
    # where leaving out the ATOM_SNAP scan moves y_fb.
    on_cost = snapped = 0
    for d, rho in [(d, rho) for _, d, rho in corpus()] + list(_tenths_tables()):
        sol = solve_first_best(d, rho)
        assert _hexed(sol) == _hexed(first_best_via_participation(d, rho))
        lines = first_best_lines(d)
        snapped += minimize(lines.W.ravel(), lines.slack(rho).ravel(), 0.0)[3] != sol.y_fb
        on_cost += sol.Q_fb > 0.0 and any(t.c == sol.y_fb and t.mass > 0.0 for t in d.types)
    assert (on_cost, snapped) == (52, 70)


def _scaled(d: TypeDistribution, rho: float, j: int) -> tuple[TypeDistribution, float]:
    """d and rho with every mass and rho times 2^j: the same problem in
    other units, so the same threshold, uptime and levels, and welfare
    times 2^j, with every product and sum exact."""
    types = (AgentType(t.id, t.u, t.c, math.ldexp(t.mass, j)) for t in d.types)
    return TypeDistribution(tuple(types)), math.ldexp(rho, j)


def test_first_best_is_scale_free():
    # A change of units must move no bit: a walk whose tolerance is
    # absolute below |v| = 1 stops early at small masses and rho, on the
    # full prefix's crossing.  The unscaled solve is checked against the
    # exact oracle, so a solve that is wrong at every scale fails too.
    rng = np.random.default_rng(45)
    for i in range(200):
        d = kinded_distribution(rng, KINDS[i % 4], int(rng.integers(2, 10)))
        rho = d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))
        base = solve_first_best(d, rho)
        oracle = primal_grid_welfare(d, rho, "first_best")[0]
        assert abs(base.W_fb - oracle) <= 1e-12 * max(1.0, abs(oracle))
        for j in range(-60, 61, 4):
            sol = solve_first_best(*_scaled(d, rho, j))
            assert sol.y_fb.hex() == base.y_fb.hex()
            assert sol.Q_fb.hex() == base.Q_fb.hex()
            assert _hexed(sol.mechanism) == _hexed(base.mechanism)
            assert sol.W_fb == math.ldexp(base.W_fb, j)


def _mixed_mass_tables():
    """2000 tables of 1-6 types with masses 10^U(-13, 6), u in [0.5, 5]
    and c in [0.5, 3], at rho = total mass x 10^U(-3, 3)."""
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        mass = 10.0 ** rng.uniform(-13.0, 6.0, n)
        u, c = rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 3.0, n)
        d = TypeDistribution(
            tuple(AgentType(f"T{i}", float(u[i]), float(c[i]), float(mass[i])) for i in range(n))
        )
        yield d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


def test_first_best_threshold_is_the_exact_minimum():
    # The dual's minimum min_j (u_bar + C_j) / (M_j + rho) over the
    # prefixes of the cost-sorted types, in exact arithmetic.  Every term
    # of the float sums is positive, so the solver's threshold is within a
    # few ulps of it, or on a cost within the snap's tolerance.
    for d, rho in [*_tiny_mass_tables(), *_mixed_mass_tables()]:
        y = solve_first_best(d, rho).y_fb
        num = sum(Fraction(t.mass) * Fraction(t.u) for t in d.types)
        den, exact = Fraction(rho), num / Fraction(rho)
        for t in sorted(d.types, key=lambda t: t.c):
            num += Fraction(t.mass) * Fraction(t.c)
            den += Fraction(t.mass)
            exact = min(exact, num / den)
        gap = abs(Fraction(y) - exact)
        on_cost = any(t.c == y for t in d.types)
        assert gap <= 2e-15 * exact or (on_cost and gap <= ATOM_SNAP * max(1.0, y))
