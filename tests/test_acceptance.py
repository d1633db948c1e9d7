"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines alongside the pytest report.
"""

import math
import time

import numpy as np

from upkeep import (
    AgentType,
    GridSpec,
    PhysicalParams,
    TypeDistribution,
    bounded_monopoly_solve,
    build_policy,
    check_feasible,
    check_reduced_form,
    classify_interval,
    lp_screening_welfare,
    menu_grid_oracle,
    primal_grid_welfare,
    simulate_fluid,
    simulate_poisson,
    solve_first_best,
    solve_participation,
    solve_screening,
    verify_structure,
)
from conftest import random_distribution


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def example_one() -> TypeDistribution:
    return TypeDistribution(
        (
            AgentType("L", 3.0, 3.0, 1.0),
            AgentType("M", 4.0, 2.0, 1.0),
            AgentType("H", 10.0, 1.25, 1.0),
        )
    )


def example_two() -> TypeDistribution:
    third = 1.0 / 3.0
    return TypeDistribution(
        (
            AgentType("H", 5.0, 1.0, third),
            AgentType("M", 1.0, 1.0, third),
            AgentType("L", 0.1, 1.0, third),
        )
    )


def test_criterion_1_first_best_golden():
    d = example_one()
    solve_first_best(d, 5.5)  # warm-up
    t0 = time.perf_counter()
    sol = solve_first_best(d, 5.5)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(sol.y_fb - 2.7) <= 1e-6
        and abs(sol.Q_fb - 4.0 / 15.0) <= 1e-6
        and abs(sol.W_fb - 2.15) <= 1e-6
        and elapsed < 0.010
    )
    verdict(1, "first-best golden values", ok)


def test_criterion_2_participation_golden():
    d = example_one()
    sol = solve_participation(d, 5.5)
    expected_p = {"L": 2.0 / 7.0, "M": 4.0 / 7.0, "H": 5.0 / 7.0}
    ok = (
        abs(sol.y_star - 45.0 / 14.0) <= 1e-6
        and abs(sol.Q_star - 2.0 / 7.0) <= 1e-6
        and abs(sol.W_star - 13.75 / 7.0) <= 1e-6
        and all(abs(sol.mechanism.P[k] - v) <= 1e-6 for k, v in expected_p.items())
        and sol.classes["L"] == "BOUND"
        and sol.classes["M"] == "BOUND"
    )
    for tid in ("L", "M"):
        t = d.by_id(tid)
        utility = sol.mechanism.R[tid] * t.u - sol.mechanism.P[tid] * t.c
        ok = ok and abs(utility) <= 1e-8
    report = classify_interval(sol, d)
    ok = (
        ok
        and report.contiguous
        and report.cost_span == (2.0, 3.0)
        and report.contains_fb_threshold
    )
    verdict(2, "participation golden values", ok)


def test_criterion_3_screening_golden():
    d = example_two()
    fb = solve_first_best(d, 1.0)
    ok = abs(fb.Q_fb - 0.5) <= 1e-6 and all(
        abs(fb.mechanism.P[t.id] - 0.5) <= 1e-6 for t in d.types
    )
    ic = solve_screening(d, 1.0)
    ok = (
        ok
        and abs(ic.Q_star - 0.3) <= 1e-3
        and abs(ic.W_star - 0.8 / 3.0) <= 1e-4
    )
    bundles = {
        "H": (0.3, 0.7),
        "M": (0.2, 0.2),
        "L": (0.0, 0.0),
    }
    for tid, (r, p) in bundles.items():
        ok = ok and abs(ic.mechanism.R[tid] - r) <= 1e-3
        ok = ok and abs(ic.mechanism.P[tid] - p) <= 1e-3
    w_lp, _ = lp_screening_welfare(d, 1.0, GridSpec(q_points=61, refine_rounds=3))
    ok = ok and abs(ic.W_star - w_lp) <= 1e-4
    verdict(3, "screening golden values", ok)


def test_criterion_4_threshold_inequality():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        d = random_distribution(rng, n_min=2, n_max=6)
        rho = float(rng.uniform(0.1, 10.0))
        fb = solve_first_best(d, rho)
        part = solve_participation(d, rho)
        ok = ok and part.y_star >= fb.y_fb - 1e-8
        if part.W_star < fb.W_fb - 1e-6:
            ok = ok and part.y_star > fb.y_fb + 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    verdict(4, "threshold dominance on 200 random instances", ok)


def test_criterion_5_monotone_sweeps():
    rng = np.random.default_rng(55)
    rhos = np.geomspace(0.05, 50.0, 16)
    ok = True
    for _ in range(20):
        d = random_distribution(rng, n_min=2, n_max=6)
        fbs = [solve_first_best(d, float(r)) for r in rhos]
        parts = [solve_participation(d, float(r)) for r in rhos]
        for a, b in zip(fbs, fbs[1:]):
            ok = ok and a.y_fb > b.y_fb
            ok = ok and a.Q_fb >= b.Q_fb - 1e-8
            if a.Q_fb > 1e-8:
                ok = ok and a.Q_fb > b.Q_fb
        for a, b in zip(parts, parts[1:]):
            ok = ok and a.Q_star >= b.Q_star - 1e-8
    verdict(5, "comparative statics sweeps", ok)


def test_criterion_6_screening_structure():
    rng = np.random.default_rng(66)
    ok = True
    cases = [(example_two(), 1.0), (example_one(), 5.5)]
    for _ in range(20):
        cases.append((random_distribution(rng, n_max=5), float(rng.uniform(0.1, 10.0))))
    for d, rho in cases:
        sol = solve_screening(d, rho)
        ok = ok and verify_structure(sol)
        ok = ok and check_feasible(sol.mechanism, d, rho, tol=1e-8).ok
        used = sorted({k for k in sol.assignment.values() if k is not None})
        ok = ok and len(used) <= 2
        if len(used) == 2:
            top = sol.tiers[used[0]]
            ok = ok and abs(top.p - 1.0) <= 1e-8
        if len(used) == 1:
            only = sol.tiers[used[0]]
            ok = ok and abs(only.r - 1.0) <= 1e-8
    verdict(6, "two-tier structure", ok)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    lp_grid = GridSpec(q_points=61, refine_rounds=3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        d = random_distribution(rng, n_min=2, n_max=5)
        rho = float(rng.uniform(0.1, 10.0))
        fb = solve_first_best(d, rho)
        w_fb, _, _ = primal_grid_welfare(d, rho, "first_best")
        ok = ok and abs(fb.W_fb - w_fb) <= 1e-3
        part = solve_participation(d, rho)
        w_part, _, _ = primal_grid_welfare(d, rho, "participation")
        ok = ok and abs(part.W_star - w_part) <= 1e-3
        ic = solve_screening(d, rho)
        w_ic, _ = lp_screening_welfare(d, rho, lp_grid)
        ok = ok and abs(ic.W_star - w_ic) <= 2e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(7, f"oracle equivalence ({elapsed:.1f}s)", ok)


def vanishing_sweep_distribution() -> TypeDistribution:
    n, total, benefit = 50, 1e6, 7e-5
    return TypeDistribution(
        tuple(
            AgentType(f"T{i}", benefit, (i + 0.5) / n, total * 2.0 * (i + 0.5) / n / n)
            for i in range(n)
        )
    )


def diverging_sweep_distribution() -> TypeDistribution:
    n = 50
    cs = [(i + 0.5) / n for i in range(n)]
    raw = [c**-0.5 for c in cs]
    s = sum(raw)
    return TypeDistribution(
        tuple(
            AgentType(f"T{i}", 150.0, c, w / s)
            for i, (c, w) in enumerate(zip(cs, raw))
        )
    )


def test_criterion_8_tail_sweeps():
    rhos = (1.0, 10.0, 100.0, 1000.0)
    ys_up = [solve_participation(vanishing_sweep_distribution(), r).y_star for r in rhos]
    ys_down = [
        solve_participation(diverging_sweep_distribution(), r).y_star for r in rhos
    ]
    ok = all(a < b for a, b in zip(ys_up, ys_up[1:]))
    ok = ok and all(math.isfinite(y) for y in ys_down)
    ok = ok and all(a > b for a, b in zip(ys_down, ys_down[1:]))
    verdict(8, "tail-direction sweeps", ok)


def test_criterion_9_simulation_round_trip():
    runs = []
    d1 = example_one()
    fb1 = solve_first_best(d1, 5.5)
    part1 = solve_participation(d1, 5.5)
    d2 = example_two()
    ic2 = solve_screening(d2, 1.0)
    golden = [
        (d1, 5.5, fb1.mechanism, 101),
        (d1, 5.5, part1.mechanism, 202),
        (d2, 1.0, ic2.mechanism, 303),
    ]
    ok = True
    for d, rho, mech, seed in golden:
        pol = build_policy(mech)
        phys = PhysicalParams(rho)
        horizon = 1e5 / rho
        for engine, offset in ((simulate_poisson, 0), (simulate_fluid, 1)):
            t0 = time.perf_counter()
            stats = engine(pol, d, phys, horizon, seed + offset)
            elapsed = time.perf_counter() - t0
            rep = check_reduced_form(stats, mech, 4.0)
            ok = ok and rep.passed and stats.admissibility.ok and elapsed < 30.0
            runs.append((engine.__name__, rep.passed, elapsed))
    verdict(9, "simulation round trips", ok)


def test_criterion_10_menu_oracle():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(50):
        nus = np.sort(rng.uniform(0.0, 3.0, size=4))
        sws = rng.uniform(0.0, 2.0, size=4)
        pws = rng.uniform(-2.0, 2.0, size=4)
        vals = [(float(a), float(b), float(c)) for a, b, c in zip(nus, sws, pws)]
        sol = bounded_monopoly_solve(vals)
        oracle = menu_grid_oracle(vals, 1.0, 1e-3)
        scale = sum(abs(b) + abs(c) for _, b, c in vals) * max(1.0, float(nus.max()))
        ok = ok and abs(sol.value - oracle) <= 1e-3 * max(scale, 1.0)
    verdict(10, "bounded-payment menus vs grid oracle", ok)
