"""Correctness checks that decide whether a benchmark item failed.

Each check returns ``(name, ok, detail)``. Checks run after an item's
timer stops and call the package through the names bound here at import
time, before any tracing wrapper is installed, so they add no spans.
Every check compares against an independent quantity and can fail; the
benchmark's own tests feed each one a perturbed input to show it.
"""

from __future__ import annotations

from upkeep import (
    check_feasible,
    primal_grid_welfare,
    solve_first_best,
    solve_participation,
)
from upkeep.cli import EXIT_OK, fmt
from upkeep.model import (
    ALL_FAMILIES,
    FAMILY_BALANCE,
    FAMILY_PARTICIPATION,
    FAMILY_SIMPLEX,
)

NEST_TOL = 1e-7
FEAS_TOL = 1e-8
# Tolerances of the acceptance suite (criteria 7 and 10).
ORACLE_TOL_PRIMAL = 1e-3
ORACLE_TOL_SCREENING = 2e-3
MENU_TOL = 1e-3

FB_FAMILIES = frozenset({FAMILY_BALANCE, FAMILY_SIMPLEX})
PART_FAMILIES = FB_FAMILIES | {FAMILY_PARTICIPATION}
IC_FAMILIES = ALL_FAMILIES

SWEEP_HEADER = "rho,y_fb,Q_fb,W_fb,y_star,Q_star,W_star,y_ic,Q_ic,W_ic"

Check = tuple[str, bool, str]


def nesting(w_fb: float, w_part: float, w_ic: float | None = None) -> list[Check]:
    """W_ic <= W_star <= W_fb: each problem adds constraints to the last."""
    out = [("nest.part_le_fb", w_part <= w_fb + NEST_TOL, f"{w_part!r} > {w_fb!r}")]
    if w_ic is not None:
        out.append(("nest.ic_le_part", w_ic <= w_part + NEST_TOL, f"{w_ic!r} > {w_part!r}"))
    return out


def feasible(label: str, mech, d, rho: float, families) -> Check:
    rep = check_feasible(mech, d, rho, families, FEAS_TOL)
    bad = sorted(f for f in rep.families if not rep.passed[f])
    return (f"feasible.{label}", rep.ok, f"failed families {bad}")


def agrees(name: str, w_solver: float, w_oracle: float, tol: float) -> Check:
    return (name, abs(w_solver - w_oracle) <= tol, f"|{w_solver!r} - {w_oracle!r}| > {tol}")


def menu_agrees(vals, value: float, oracle: float) -> Check:
    """Criterion 10's rule: the tolerance scales with the objective weights."""
    scale = sum(abs(b) + abs(c) for _, b, c in vals) * max(1.0, max(v[0] for v in vals))
    tol = MENU_TOL * max(scale, 1.0)
    return ("oracle.menu", abs(value - oracle) <= tol, f"|{value!r} - {oracle!r}| > {tol}")


def primal_agreement(d, rho: float, fb, part) -> list[Check]:
    """Run the primal grid oracle here, after the timer, for first best
    and participation. Named primal.*, not oracle.*, because the oracle
    layer does no item work on the workloads that use this check."""
    out = []
    for mode, w in (("first_best", fb.W_fb), ("participation", part.W_star)):
        w_grid, _, _ = primal_grid_welfare(d, rho, mode)
        out.append(agrees(f"primal.{mode}", w, w_grid, ORACLE_TOL_PRIMAL))
    return out


def sweep_output(code: int, text: str, d, rhos: list[float]) -> list[Check]:
    """Exit code, row count, exact first-best and participation columns
    (re-solved here), and welfare nesting on every row of a `sweep --ic`."""
    lines = text.splitlines()
    out = [
        ("cli.exit", code == EXIT_OK, f"exit code {code}"),
        ("cli.header", bool(lines) and lines[0] == SWEEP_HEADER, "unexpected header"),
        ("cli.rows", len(lines) == len(rhos) + 1, f"{len(lines) - 1} rows for {len(rhos)} rhos"),
    ]
    if not all(ok for _, ok, _ in out):
        return out
    for rho, line in zip(rhos, lines[1:]):
        cells = line.split(",")
        fb = solve_first_best(d, rho)
        part = solve_participation(d, rho)
        expect = [fmt(rho), fmt(fb.y_fb), fmt(fb.Q_fb), fmt(fb.W_fb),
                  fmt(part.y_star), fmt(part.Q_star), fmt(part.W_star)]
        out.append(("cli.columns", cells[:7] == expect, f"row {cells[:7]} != {expect}"))
        if len(cells) != 10:
            out.append(("cli.ic_columns", False, f"{len(cells)} cells"))
            continue
        w_fb, w_part, w_ic = (float(cells[i]) for i in (3, 6, 9))
        out.extend(nesting(w_fb, w_part, w_ic))
        q_ic = float(cells[8])
        out.append(("cli.q_ic", 0.0 <= q_ic <= 1.0, f"Q_ic={q_ic}"))
    return out


def admissible(label: str, stats) -> Check:
    """The engine's event-stream invariants; the statistical lifespan flag
    and the reduced-form test are reported as sim.pass_frac instead."""
    adm = stats.admissibility
    ok = adm.usage_only_while_working and adm.contribution_only_while_broken
    return (f"sim.admissible.{label}", ok, f"{adm}")
