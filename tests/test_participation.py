import math

import numpy as np
import pytest

import upkeep.cli
import upkeep.participation
from upkeep import (
    AgentType,
    NotOrderedError,
    TypeDistribution,
    balance_residual,
    check_feasible,
    classify_interval,
    primal_grid_welfare,
    solve_first_best,
    solve_participation,
    welfare,
)
from upkeep.envelope import minimize
from upkeep.model import kink_uptimes, slack_scale
from conftest import KINDS, kinded_distribution, random_distribution
from reference import inner_max_Q, reduced_lagrangian, slater_gap
from test_identity import corpus

Y_STAR = 45.0 / 14.0
W_STAR = 13.75 / 7.0


def test_reduced_lagrangian_values(lmh):
    assert reduced_lagrangian(2.0 / 7.0, Y_STAR, lmh, 5.5) == pytest.approx(
        W_STAR, abs=1e-12
    )
    assert reduced_lagrangian(0.0, 1.7, lmh, 5.5) == 0.0
    assert reduced_lagrangian(1.0, 2.0, lmh, 5.5) == pytest.approx(17.0 - 11.0)


def test_inner_max_value(lmh):
    q, value = inner_max_Q(Y_STAR, lmh, 5.5)
    assert value == pytest.approx(W_STAR, abs=1e-9)
    # the maximum is flat between the capping points of the high and
    # middle types; the smallest maximizer is the left edge
    assert q == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert reduced_lagrangian(q, Y_STAR, lmh, 5.5) == pytest.approx(value, abs=1e-9)


def test_inner_max_zero_for_hopeless_threshold():
    # the repair value is so high that running the machine at all is a
    # net loss, so idling dominates
    d = TypeDistribution((AgentType("A", 0.5, 5.0, 1.0),))
    q, value = inner_max_Q(1.0, d, 10.0)
    assert q == 0.0
    assert value == pytest.approx(0.0, abs=1e-12)


def test_inner_max_singleton_first_best_threshold():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    q, value = inner_max_Q(4.0 / 3.0, d, 0.5)
    # flat maximum from the capping point up to full uptime
    assert q == pytest.approx(0.5, abs=1e-9)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_slater_gap_values(lmh):
    assert slater_gap(lmh, 5.5) > 0
    single = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    assert slater_gap(single, 3.0) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_distribution(rng)
        heavy = sum(t.mass * t.nu for t in d.types) + 1.0
        assert slater_gap(d, heavy) <= 1e-12


def test_solve_three_types(lmh):
    sol = solve_participation(lmh, 5.5)
    assert sol.y_star == pytest.approx(Y_STAR, abs=1e-9)
    assert sol.Q_star == pytest.approx(2.0 / 7.0, abs=1e-9)
    assert sol.W_star == pytest.approx(W_STAR, abs=1e-9)
    assert sol.mechanism.P["L"] == pytest.approx(2.0 / 7.0, abs=1e-9)
    assert sol.mechanism.P["M"] == pytest.approx(4.0 / 7.0, abs=1e-9)
    assert sol.mechanism.P["H"] == pytest.approx(5.0 / 7.0, abs=1e-9)
    assert dict(sol.classes) == {"L": "BOUND", "M": "BOUND", "H": "FULL"}
    rep = check_feasible(
        sol.mechanism, lmh, 5.5, families={"balance", "simplex", "participation"}
    )
    assert rep.ok


def test_solve_singleton_matches_first_best():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    fb = solve_first_best(d, 0.5)
    sol = solve_participation(d, 0.5)
    assert sol.y_star == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert sol.Q_star == pytest.approx(fb.Q_fb, abs=1e-9)
    assert sol.W_star == pytest.approx(fb.W_fb, abs=1e-9)
    assert sol.mechanism.P["A"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_solve_infinite_branch_idle():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    sol = solve_participation(d, 3.0)
    assert math.isinf(sol.y_star)
    assert sol.Q_star == 0.0
    assert sol.W_star == 0.0
    assert sol.mechanism.P["A"] == 0.0


def test_bound_types_have_zero_utility():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_participation(d, rho)
        for t in d.types:
            u = sol.mechanism.R[t.id] * t.u - sol.mechanism.P[t.id] * t.c
            assert u >= -1e-9
            if sol.classes[t.id] == "BOUND":
                assert abs(u) <= 1e-8 * max(1.0, t.u)


def test_saddle_identity_on_grid(lmh):
    sol = solve_participation(lmh, 5.5)
    ell_star = reduced_lagrangian(sol.Q_star, sol.y_star, lmh, 5.5)
    for y in np.linspace(0.0, 2.0 * sol.y_star, 100):
        assert reduced_lagrangian(sol.Q_star, float(y), lmh, 5.5) >= ell_star - 1e-9
    for q in np.linspace(0.0, 1.0, 100):
        assert reduced_lagrangian(float(q), sol.y_star, lmh, 5.5) <= ell_star + 1e-9


def test_threshold_dominates_first_best():
    rng = np.random.default_rng(19)
    for _ in range(40):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        fb = solve_first_best(d, rho)
        sol = solve_participation(d, rho)
        assert sol.y_star >= fb.y_fb - 1e-8
        assert sol.W_star <= fb.W_fb + 1e-8
        if sol.W_star < fb.W_fb - 1e-6:
            assert sol.y_star > fb.y_fb + 1e-6


def test_uptime_monotone_in_breakage_rate():
    rng = np.random.default_rng(23)
    for _ in range(8):
        d = random_distribution(rng)
        rhos = np.geomspace(0.05, 50.0, 12)
        qs = [solve_participation(d, float(r)).Q_star for r in rhos]
        for a, b in zip(qs, qs[1:]):
            assert a >= b - 1e-8


def test_oracle_agreement():
    rng = np.random.default_rng(29)
    for _ in range(12):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_participation(d, rho)
        w, _, _ = primal_grid_welfare(d, rho, "participation")
        assert abs(sol.W_star - w) <= 1e-3


def test_classify_interval_three_types(lmh):
    sol = solve_participation(lmh, 5.5)
    report = classify_interval(sol, lmh)
    assert report.order == ("L", "M", "H")
    assert set(report.bound_ids) == {"L", "M"}
    assert report.contiguous
    assert report.cost_span == (2.0, 3.0)
    assert report.contains_fb_threshold
    assert not report.fb_welfare_attained
    assert report.holds


def test_classify_interval_singleton_vacuous():
    d = TypeDistribution((AgentType("A", 1.0, 1.0, 1.0),))
    sol = solve_participation(d, 0.5)
    report = classify_interval(sol, d)
    assert report.bound_ids == ()
    assert report.fb_welfare_attained
    assert report.holds


def test_classify_interval_two_types_contiguous():
    d = TypeDistribution(
        (AgentType("A", 1.0, 2.0, 1.0), AgentType("B", 1.0, 1.0, 1.0))
    )
    sol = solve_participation(d, 0.1)
    report = classify_interval(sol, d)
    assert report.order == ("A", "B")
    assert report.contiguous


def test_classify_interval_rejects_unordered():
    # descending costs give decreasing valuations here
    d = TypeDistribution(
        (AgentType("A", 9.0, 3.0, 1.0), AgentType("B", 1.0, 1.0, 1.0))
    )
    sol = solve_participation(d, 1.0)
    with pytest.raises(NotOrderedError):
        classify_interval(sol, d)


def test_classify_interval_contiguous_on_random_ordered():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        costs = np.sort(rng.uniform(0.2, 5.0, size=n))[::-1]
        nus = np.sort(rng.uniform(0.2, 5.0, size=n))
        d = TypeDistribution(
            tuple(
                AgentType(f"T{i}", float(c * v), float(c), float(rng.uniform(0.2, 1.0)))
                for i, (c, v) in enumerate(zip(costs, nus))
            )
        )
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_participation(d, rho)
        report = classify_interval(sol, d)
        assert report.contiguous


def vanishing_sweep_distribution():
    """Triangular (vanishing at zero) cost weights on a 50-point grid.

    The total weight and the uniform benefit level are scaled so the
    dual threshold stays finite until the last sweep point and the
    participation wedge dominates the drift of the unconstrained
    threshold.
    """
    n = 50
    total = 1e6
    benefit = 7e-5
    types = []
    for i in range(n):
        c = (i + 0.5) / n
        types.append(AgentType(f"T{i}", benefit, c, total * 2.0 * c / n))
    return TypeDistribution(tuple(types))


def diverging_sweep_distribution():
    """Inverse square root (diverging at zero) cost weights, unit mass."""
    n = 50
    cs = [(i + 0.5) / n for i in range(n)]
    raw = [c ** -0.5 for c in cs]
    s = sum(raw)
    return TypeDistribution(
        tuple(
            AgentType(f"T{i}", 150.0, c, w / s)
            for i, (c, w) in enumerate(zip(cs, raw))
        )
    )


RHO_SWEEP = (1.0, 10.0, 100.0, 1000.0)


def test_tail_sweep_vanishing_density_threshold_rises():
    d = vanishing_sweep_distribution()
    ys = [solve_participation(d, rho).y_star for rho in RHO_SWEEP]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_tail_sweep_diverging_density_threshold_falls():
    d = diverging_sweep_distribution()
    ys = [solve_participation(d, rho).y_star for rho in RHO_SWEEP]
    assert all(math.isfinite(y) for y in ys)
    assert all(a > b for a, b in zip(ys, ys[1:]))


def test_welfare_equals_mechanism_welfare():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = random_distribution(rng)
        rho = float(rng.uniform(0.1, 10.0))
        sol = solve_participation(d, rho)
        assert sol.W_star == pytest.approx(welfare(sol.mechanism, d), abs=1e-12)


def test_pair_on_one_kink_with_a_crossing_off_every_atom():
    # The walk stops on the prefix-6 and prefix-8 lines of one kink: the
    # prefix-7 line adds only T7, of mass 2.3e-5, and sits above the pair
    # by less than the walk's tolerance.  The crossing lands 8.6e-12
    # relative below T10's cost, off every cost atom, so T7 and T10 share
    # the threshold's contribution fraction.  T12, of mass 0, costs less
    # than T7 and sits among the types the pair's prefixes differ by; the
    # band spans only the costs of types with mass, so with T12 added
    # nothing else moves, and T12 contributes its whole cap like every
    # type below the threshold.
    family = (
        AgentType("T0", 0.6319245800397523, 1.7428406064503703, 0.04041542014971688),
        AgentType("T1", 0.1425044564043586, 3.1373438557627584, 0.0),
        AgentType("T2", 8.09481807461232, 9.394333308623683, 0.0),
        AgentType("T3", 0.18716689940556974, 7.945371438047126, 0.0),
        AgentType("T4", 4.067158157207728, 3.3067200566244135, 0.0),
        AgentType("T5", 3.5370833121568146, 4.921705169107913, 217469.21803728107),
        AgentType("T6", 1.8411732340497908, 9.982569425853479, 33747.34478857572),
        AgentType("T7", 6.547262143519833, 7.671442934450312, 2.3356089531842506e-05),
        AgentType("T8", 0.6415712915446843, 4.522553142920323, 0.00749438573980715),
        AgentType("T9", 2.406292958174756, 8.60089565636767, 0.007177905219169574),
        AgentType("T10", 9.336585514934104, 7.8638501034698045, 66292.8465418976),
        AgentType("T11", 0.7791480307902442, 5.859953880996061, 1134277.8330234622),
    )
    rho = 182421.3835584369
    for extra in ((), (AgentType("T12", 7.0, 7.0, 0.0),)):
        d = TypeDistribution(family + extra)
        sol = solve_participation(d, rho)
        assert d.by_id("T7").c < sol.y_star < d.by_id("T10").c
        assert (sol.y_star, sol.marginal_fraction) == (7.863850103402023, 0.3053090360016809)
        tol = 1e-9 * max(1.0, rho, d.total_mass)
        assert check_feasible(
            sol.mechanism, d, rho, {"balance", "simplex", "participation"}, tol=tol
        ).ok
        oracle = primal_grid_welfare(d, rho, "participation")[0]
        assert abs(sol.W_star - oracle) <= 1e-12 * max(1.0, abs(oracle))
    assert sol.classes["T12"] == "FULL"
    assert sol.mechanism.P["T12"] == 0.11735744399510328


def test_integer_tables_are_feasible_and_optimal():
    # Small integer tables tie costs and valuations and flatten the dual
    # and the maximizer face, where the threshold is a cost atom only up
    # to rounding.
    rng = np.random.default_rng(59)
    for _ in range(600):
        n = int(rng.integers(2, 7))
        mass = rng.integers(0, 3, n)
        mass[-1] += mass.sum() == 0
        d = TypeDistribution(
            tuple(
                AgentType(f"T{i}", float(u), float(c), float(m))
                for i, (u, c, m) in enumerate(
                    zip(rng.integers(1, 6, n), rng.integers(1, 4, n), mass)
                )
            )
        )
        rho = float(rng.integers(1, 11)) / 2.0
        sol = solve_participation(d, rho)
        assert check_feasible(
            sol.mechanism, d, rho, {"balance", "simplex", "participation"}
        ).ok
        oracle = primal_grid_welfare(d, rho, "participation")[0]
        assert abs(sol.W_star - oracle) <= 1e-9 * max(1.0, abs(oracle))


def _integer_table(rows):
    """A table of (u, c, mass) rows as types T0, T1, ..."""
    return TypeDistribution(
        tuple(
            AgentType(f"T{i}", float(u), float(c), float(m))
            for i, (u, c, m) in enumerate(rows)
        )
    )


def test_uptime_lands_on_the_pair_kink():
    # The final pair's lower kink is T2's, 1 / (1 + 0.75), and it
    # balances; a wider scan past the pair's kinks stopped 8 ulps below.
    d = _integer_table(
        [(5, 1, 3), (2, 2, 3), (3, 4, 1), (3, 3, 1), (5, 4, 3), (1, 2, 3), (2, 1, 3)]
    )
    assert solve_participation(d, 9.0).Q_star == 1.0 / (1.0 + 0.75)


def test_flat_face_table_keeps_its_smallest_uptime():
    # The maximizer face is flat from Q = 2/7 to 1; the balanced uptime
    # between the final pair's kinks is its left end.
    d = _integer_table([(1, 3, 2), (1, 3, 2), (5, 2, 2), (3, 3, 1)])
    assert solve_participation(d, 5.0).Q_star.hex() == "0x1.2492492492492p-2"


def _pair_cases():
    """Seeded integer tables with tied costs, tied valuations and zero
    masses, then the four kinds at rho from 1e-3 to 1e3 times the mass."""
    rng = np.random.default_rng(83)
    for _ in range(3000):
        n = int(rng.integers(1, 8))
        mass = rng.integers(0, 4, n)
        mass[-1] += mass.sum() == 0
        rows = zip(rng.integers(1, 7, n), rng.integers(1, 5, n), mass)
        yield _integer_table(rows), float(rng.integers(1, 21)) / float(rng.integers(1, 5))
    for k in range(800):
        d = kinded_distribution(rng, KINDS[k % 4], int(rng.integers(2, 30)))
        yield d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


def test_uptime_lies_between_the_final_pair_kinks(monkeypatch):
    pairs = []

    def recording(W, S, eps):
        found = minimize(W, S, eps)
        pairs.append(found)
        return found

    monkeypatch.setattr(upkeep.envelope, "minimize", recording)
    finite = 0
    for d, rho in _pair_cases():
        pairs.clear()
        sol = solve_participation(d, rho)
        (found,) = pairs
        if found is not None:
            finite += 1
            kinks = kink_uptimes(d)
            rows = [i // (len(d.types) + 1) for i in found[:2]]
            assert kinks[min(rows)] <= sol.Q_star <= kinks[max(rows)]
        scale = max(1.0, rho, d.total_mass)
        assert abs(balance_residual(sol.mechanism, d, rho)) <= 1e-12 * scale
        oracle = primal_grid_welfare(d, rho, "participation")[0]
        assert abs(sol.W_star - oracle) <= 1e-12 * max(1.0, abs(oracle))
    assert finite > 2000


def test_residual_columns_are_concave_and_saturated_welfare_convex():
    # The premise of the closed form in _balanced_point: every residual
    # column of the table is 0 at Q = 0 and concave in Q.  Welfare along
    # the saturated column is convex (each cap is concave and each cost
    # positive).  Both are piecewise linear, so checking each interior kink against
    # the chord of its neighbours suffices.  Taking max for min in
    # _kink_lines' caps fails this test.
    for _, d, rho in corpus():
        lines = upkeep.participation._kink_lines(d)
        S, W = lines.slack(rho), lines.W[:, -1:]
        assert not S[0].any() and not W[0].any()
        q = lines.qs[:, None]
        lo, hi = q[1:-1] - q[:-2], q[2:] - q[1:-1]

        def above_chord(f):
            return f[1:-1] - (hi * f[:-2] + lo * f[2:]) / (lo + hi)

        assert above_chord(S).min(initial=0.0) >= -1e-14 * slack_scale(d, rho)
        assert above_chord(W).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(W).max())


def test_classes_read_from_each_types_share():
    # A type contributes all of its cap min(1 - Q, Q * nu), a fraction of
    # it (a threshold type), or none of it.  Item 33 (plain) rations T0 at
    # the threshold.
    items = list(corpus())
    _, d, rho = items[33]
    sol = solve_participation(d, rho)
    assert sol.classes["T0"] == "MARGINAL"
    assert sol.mechanism.P["T0"] == pytest.approx(0.042, abs=5e-4)
    assert sol.marginal_fraction == pytest.approx(0.504, abs=5e-4)
    seen = set()
    for _, d, rho in items:
        sol = solve_participation(d, rho)
        Q = sol.Q_star
        for t in d.types:
            cap, p, label = min(1.0 - Q, Q * t.nu), sol.mechanism.P[t.id], sol.classes[t.id]
            seen.add(label)
            assert (label == "NONE") == (p == 0.0)
            assert (label == "MARGINAL") == (0.0 < p < cap)
            if label in ("FULL", "BOUND"):
                assert p == cap
                assert (label == "FULL") == (Q >= 1.0 / (1.0 + t.nu))
    assert seen == {"NONE", "MARGINAL", "FULL", "BOUND"}


# name: (rows (u, c, mass), rho, the threshold type, its share, its class)
NOISE_SHARES = {
    "none": (
        [(7.3, 3.8, 0.0), (7.8, 5.0, 0.1), (7.9, 0.7, 0.5), (3.9, 1.7, 1.5), (1.0, 3.0, 1.3)],
        1.1, "T1", 0.0, "NONE",
    ),
    "full": (
        [(1.2, 0.8, 1.6), (4.2, 2.8, 0.5), (8.6, 3.3, 1.8), (4.2, 2.4, 0.1), (8.2, 4.2, 1.0)],
        7.5, "T4", 1.0, "FULL",
    ),
}


@pytest.mark.parametrize("case", sorted(NOISE_SHARES))
def test_a_residual_of_rounding_noise_gives_no_share_or_a_full_one(case):
    # At the balanced kink the residual without (none) or with (full) the
    # threshold's types is 0 in exact arithmetic and about 1e-16 in
    # floats.  Balancing the two residuals gave shares of 4e-15 and
    # 1 - 8e-16, and both types read MARGINAL.
    rows, rho, tid, share, label = NOISE_SHARES[case]
    d = _integer_table(rows)
    sol = solve_participation(d, rho)
    assert sol.marginal_fraction == share
    assert sol.classes[tid] == label
    assert abs(balance_residual(sol.mechanism, d, rho)) <= 1e-12 * max(1.0, rho)


_EPS = 2.0**-40

# Calls that put one value exactly on its tolerance, which counts as
# within it, and what they return.  The _balanced_point calls have one
# kink at Q = 0.5, where the residuals without and with the threshold's
# types are the row of S.
ON_THE_TOLERANCE = {
    # The crossing is exactly ATOM_SNAP * max(1, c) from the only cost.
    "snap": (
        lambda: upkeep.participation._snapped(
            1e-12, TypeDistribution((AgentType("A", 1.0, 2e-12, 1.0),))
        ),
        2e-12,
    ),
    # The residual without the threshold's types is exactly eps: the
    # kink balances, with no share.
    "without": (
        lambda: upkeep.participation._balanced_point(
            np.array([0.5]), np.array([[1e-12, 1.0]]), 0, 1, 0, 0, 1e-12
        ),
        (0.5, 0.0),
    ),
    # The residual with them is exactly eps: a full share.
    "with": (
        lambda: upkeep.participation._balanced_point(
            np.array([0.5]), np.array([[-1.0, 1e-12]]), 0, 1, 0, 0, 1e-12
        ),
        (0.5, 1.0),
    ),
    # The residuals are exactly eps apart, and balancing them would give
    # a share of 3 before the clamp: no share.
    "gap": (
        lambda: upkeep.participation._balanced_point(
            np.array([0.5]), np.array([[-3.0 * _EPS, -2.0 * _EPS]]), 0, 1, 0, 0, _EPS
        ),
        (0.5, 0.0),
    ),
}


@pytest.mark.parametrize("case", sorted(ON_THE_TOLERANCE))
def test_a_value_exactly_on_its_tolerance_is_within_it(case):
    call, expected = ON_THE_TOLERANCE[case]
    assert call() == expected


def _tiny_mass_tables():
    """300 tables of 1-5 types with masses 10^U(-13, -8), u in [0.5, 5]
    and c in [0.5, 3], at rho = total mass x 10^U(-3, 3).  Every slack
    is then below the branch test's floor of 1e-9, so most solves take
    the infinite branch."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        mass = 10.0 ** rng.uniform(-13.0, -8.0, n)
        u, c = rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 3.0, n)
        d = TypeDistribution(
            tuple(
                AgentType(f"T{i}", float(u[i]), float(c[i]), float(mass[i]))
                for i in range(n)
            )
        )
        yield d, d.total_mass * 10.0 ** float(rng.uniform(-3.0, 3.0))


def test_tiny_masses_never_beat_the_oracle():
    # An answer above the exact oracle is infeasible: Q = 1 with nobody
    # contributing, or an uptime past the balanced ones.  Answers below
    # it remain, where the branch test's absolute floor sends a solve
    # with positive slack to the infinite branch.
    for d, rho in _tiny_mass_tables():
        sol = solve_participation(d, rho)
        oracle = primal_grid_welfare(d, rho, "participation")[0]
        assert sol.W_star <= oracle + 1e-12 * abs(oracle)
        assert abs(balance_residual(sol.mechanism, d, rho)) <= 1e-12 * max(1.0, rho)


def test_infinite_branch_takes_the_welfare_best_balanced_row():
    # On the infinite branch every type saturates its cap, so the answer
    # is a row of the table's saturated column: one whose slack is within
    # eps_bal of 0, below the limit row, and whose welfare is within
    # eps_bal of the best such row's.  On the corpus an interpolated
    # uptime lands on the same rows; at tiny masses it does not.
    counts = []
    for cases in ([(d, rho) for _, d, rho in corpus()], _tiny_mass_tables()):
        solves = 0
        for d, rho in cases:
            lines = upkeep.participation._kink_lines(d)
            sol = solve_participation(d, rho)
            if not math.isinf(sol.y_star):
                continue
            W, S = lines.W[:-1, -1], lines.slack(rho)[:-1, -1]
            eps_bal = 1e-12 * slack_scale(d, rho)
            balanced = np.abs(S) <= eps_bal
            Q, kinks = sol.Q_star, lines.qs.tolist()
            assert Q in kinks[:-1] and balanced[kinks.index(Q)]
            assert abs(sol.W_star - W[balanced].max()) <= eps_bal
            assert all(sol.mechanism.P[t.id] == min(1.0 - Q, Q * t.nu) for t in d.types)
            solves += 1
        counts.append(solves)
    assert counts == [545, 268]


def test_no_level_or_share_is_negative_zero(tmp_path, capsys):
    # A threshold share of exactly 0 is +0.0.  Clamping -rm / gap with
    # max(-rm / gap, 0.0) kept the -0.0 of a residual rm of exactly +0.0,
    # and the part mode printed those levels as -0 (corpus item 1128).
    for _, d, rho in corpus():
        fb, part = solve_first_best(d, rho), solve_participation(d, rho)
        for value in (
            *fb.mechanism.P.values(), *fb.mechanism.R.values(),
            *part.mechanism.P.values(), *part.mechanism.R.values(),
            part.marginal_fraction,
        ):
            assert math.copysign(1.0, value) == 1.0
    inp = tmp_path / "types.csv"
    inp.write_text("id,u,c,mass\nT0,4,3,2\nT1,5,3,0\nT2,3,1,1\n")
    assert upkeep.cli.main(["--mode", "part", "--input", str(inp), "--rho", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert [row.split(",")[6] for row in rows] == ["0", "0"]
