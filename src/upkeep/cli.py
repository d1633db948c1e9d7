"""Command line front end: file ingestion, solving, sweeps, simulation.

Both input tables, a type table (`id,u,c,mass`) and a mechanism table,
go through one row reader; blank and '#' lines are skipped.  Mechanism
output is a CSV table followed by a one-line summary, both rendered
with 12 significant digits so identical inputs produce byte identical
output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_TOL,
    AgentType,
    Mechanism,
    PhysicalParams,
    TypeDistribution,
    agent_utility,
    balance_residual,
    check_feasible,
    slack_scale,
    welfare,
)
from .oracle import TooManyTypesError, lp_screening_welfare, primal_grid_welfare
from .participation import (
    FirstBestSolution, _kink_lines, _participation_at, solve_first_best, solve_participation,
)
from .screening import ScreeningSolution, _kink_table, _screening_core, solve_screening
from .sim import build_policy, simulate_fluid, simulate_poisson

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ORACLE = 5

ORACLE_TOL = 1e-9  # per unit of max(1, |W_solver|); every oracle is exact

MODES = ("fb", "part", "ic", "simulate", "sweep", "oracle-check")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class RhoGrid:
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValidationError("rho grid count must be >= 2")
        if not all(math.isfinite(x) and x > 0 for x in (self.start, self.stop)):
            raise ValidationError("rho grid endpoints must be finite and > 0")

    def values(self) -> list[float]:
        """np.geomspace's points (log) or np.linspace's, bit for bit, by
        their own arithmetic without numpy's Python wrappers: linspace
        divides first where the step underflows to 0 and sets its last
        point, and geomspace both ends, as 10 ** log10(x) may miss x."""
        lo, hi = (np.log10(self.start), np.log10(self.stop)) if self.log else (self.start, self.stop)
        y, step = np.arange(float(self.count)), (hi - lo) / (self.count - 1)
        y = y * step if step else y / (self.count - 1) * (hi - lo)
        y += lo
        if self.log:
            y = np.power(10.0, y)
        y[0], y[-1] = self.start, self.stop  # linspace's first is start already
        return y.tolist()


def fmt(x: float) -> str:
    return f"{x:.12g}"


_TYPE_HEADER = ["id", "u", "c", "mass"]
_MECHANISM_HEADER = _TYPE_HEADER + ["nu", "R", "P", "utility", "class"]


def _significant(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a '#' comment."""
    numbered = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    return [(lineno, line) for lineno, line in numbered if line and not line.startswith("#")]


def _read_types(
    rows: list[tuple[int, str]], header: list[str], extra: tuple[int, ...]
) -> tuple[TypeDistribution, list[list[float]]]:
    """Read a table whose first four columns are `id,u,c,mass`: the header
    first, then one type per row.  Returns the distribution and, per type,
    the floats of its `extra` columns; no other cell is converted."""
    if not rows:
        raise ParseError(f"missing header '{','.join(header)}'", 1)
    lineno, line = rows[0]
    if [c.strip() for c in line.split(",")] != header:
        raise ParseError(f"expected header '{','.join(header)}'", lineno)
    types: list[AgentType] = []
    extras: list[list[float]] = []
    for lineno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} comma-separated values, got {len(cells)}", lineno
            )
        try:
            u, c, mass, *more = [float(cells[i]) for i in (1, 2, 3, *extra)]
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            types.append(AgentType(id=cells[0], u=u, c=c, mass=mass))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        extras.append(more)
    try:
        return TypeDistribution(tuple(types)), extras
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def parse_types(text: str) -> TypeDistribution:
    """Parse a type table: header `id,u,c,mass`, one type per line."""
    return _read_types(_significant(text), _TYPE_HEADER, ())[0]


def parse_mechanism_table(text: str) -> tuple[TypeDistribution, Mechanism]:
    """Re-ingest a mechanism table emitted by the fb/part/ic modes.

    The last line that is not blank or a comment must be the one `Q=...`
    summary line; every line above it is read as a type table under the
    mechanism header, whose `R` and `P` columns give the levels."""
    rows = _significant(text)
    summary = rows.pop() if rows and rows[-1][1].startswith("Q=") else None
    d, levels = _read_types(rows, _MECHANISM_HEADER, (5, 6))
    if summary is None:
        raise ValidationError("mechanism table has no summary line with Q=")
    lineno, line = summary
    try:
        q = float(line.split(",")[0][2:])
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc
    R = {t.id: r for t, (r, _) in zip(d.types, levels)}
    P = {t.id: p for t, (_, p) in zip(d.types, levels)}
    try:
        return d, Mechanism(Q=q, R=R, P=P)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _mechanism_lines(
    d: TypeDistribution,
    mech: Mechanism,
    classes: dict[str, str],
    y: float,
    rho: float,
) -> list[str]:
    lines = [",".join(_MECHANISM_HEADER)]
    for t in d.types:
        r, p = mech.R[t.id], mech.P[t.id]
        utility = agent_utility(t, r, p)
        lines.append(
            ",".join(
                [
                    t.id,
                    fmt(t.u),
                    fmt(t.c),
                    fmt(t.mass),
                    fmt(t.nu),
                    fmt(r),
                    fmt(p),
                    fmt(utility),
                    classes[t.id],
                ]
            )
        )
    resid = balance_residual(mech, d, rho)
    lines.append(
        f"Q={fmt(mech.Q)}, y={fmt(y)}, W={fmt(welfare(mech, d))}, "
        f"balance_residual={fmt(resid)}"
    )
    return lines


def _classes_fb(sol: FirstBestSolution, d: TypeDistribution) -> dict[str, str]:
    out = {}
    for t in d.types:
        p = sol.mechanism.P[t.id]
        out[t.id] = "FULL" if p > 0.0 else "NONE"
    return out


def _classes_ic(sol: ScreeningSolution) -> dict[str, str]:
    out = {}
    for tid, k in sol.assignment.items():
        out[tid] = "OUT" if k is None else f"TIER{k + 1}"
    return out


def _run_solver_mode(mode: str, d: TypeDistribution, rho: float) -> list[str]:
    if mode == "fb":
        sol = solve_first_best(d, rho)
        return _mechanism_lines(d, sol.mechanism, _classes_fb(sol, d), sol.y_fb, rho)
    if mode == "part":
        sol = solve_participation(d, rho)
        return _mechanism_lines(d, sol.mechanism, dict(sol.classes), sol.y_star, rho)
    sol = solve_screening(d, rho)
    return _mechanism_lines(d, sol.mechanism, _classes_ic(sol), sol.y_star, rho)


def _run_simulate(text: str, rho: float, seed: int, horizon: float) -> list[str]:
    d, mech = parse_mechanism_table(text)
    # A mechanism that does not balance at rho, such as a table solved at
    # another rho, would simulate an uptime other than its own Q.
    tol = DEFAULT_TOL * slack_scale(d, rho)
    report = check_feasible(mech, d, rho, {"balance", "simplex"}, tol)
    if not report.ok:
        worst = max(report.simplex, key=report.simplex.get)
        failed = {"balance": f"balance residual {fmt(report.balance)}",
                  "simplex": f"simplex violation {fmt(report.simplex[worst])} at type {worst}"}
        problems = ", ".join(v for f, v in failed.items() if not report.passed[f])
        raise ValidationError(f"mechanism is infeasible at rho={fmt(rho)}: {problems}, tolerance {fmt(tol)}")
    phys = PhysicalParams(rho=rho)
    pol = build_policy(mech)
    lines = ["metric,estimate,ci_radius"]
    for label, stats in (
        ("poisson", simulate_poisson(pol, d, phys, horizon, seed)),
        ("fluid", simulate_fluid(pol, d, phys, horizon, seed + 1)),
    ):
        lines.append(f"{label}_Q,{fmt(stats.Q_hat)},{fmt(stats.ci_Q)}")
        for t in d.types:
            lines.append(
                f"{label}_R_{t.id},{fmt(stats.R_hat[t.id])},{fmt(stats.ci_R[t.id])}"
            )
            lines.append(
                f"{label}_P_{t.id},{fmt(stats.P_hat[t.id])},{fmt(stats.ci_P[t.id])}"
            )
        lines.append(f"{label}_n_breaks,{fmt(float(stats.n_breaks))},0")
        lines.append(f"{label}_lifespan_mean,{fmt(stats.lifespan_mean)},0")
    return lines


def _run_sweep(d: TypeDistribution, grid: RhoGrid, include_ic: bool) -> list[str]:
    # rho enters participation's and screening's dual lines only through
    # their slopes, so each table is built once and every grid point only
    # walks it; first best is one closed form per grid point.  A row prints
    # only y, Q and W, so it reads screening's core, its final line, and
    # builds no mechanism and no labels.
    part_lines = _kink_lines(d)
    ic_table = _kink_table(d) if include_ic else None
    header = "rho,y_fb,Q_fb,W_fb,y_star,Q_star,W_star"
    if include_ic:
        header += ",y_ic,Q_ic,W_ic"
    lines = [header]
    for rho in grid.values():
        fb = solve_first_best(d, rho)
        part = _participation_at(part_lines, d, rho)
        cells = [rho, fb.y_fb, fb.Q_fb, fb.W_fb, part.y_star, part.Q_star, part.W_star]
        if ic_table is not None:
            line, y, _ = _screening_core(ic_table, d, rho)
            cells += [y, line.Q, line.W]
        lines.append(",".join(map(fmt, cells)))
    return lines


def _run_oracle_check(d: TypeDistribution, rho: float) -> tuple[list[str], int]:
    pairs = (
        (solve_first_best(d, rho).W_fb, primal_grid_welfare(d, rho, "first_best")[0]),
        (solve_participation(d, rho).W_star, primal_grid_welfare(d, rho, "participation")[0]),
        (solve_screening(d, rho).W_star, lp_screening_welfare(d, rho)[0]),
    )
    lines = ["W_solver,W_oracle,delta"]
    ok = True
    for w_solver, w_oracle in pairs:
        delta = w_solver - w_oracle
        ok &= abs(delta) <= ORACLE_TOL * max(1.0, abs(w_solver))
        lines.append(f"{fmt(w_solver)},{fmt(w_oracle)},{fmt(delta)}")
    return lines, EXIT_OK if ok else EXIT_ORACLE


def _parse_rho_grid(spec: str) -> RhoGrid:
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValidationError("--rho-grid expects start:stop:count[:log]")
    log = False
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValidationError("the fourth grid field must be 'log'")
        log = True
    try:
        return RhoGrid(
            start=float(parts[0]), stop=float(parts[1]), count=int(parts[2]), log=log
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="upkeep",
        description="Solvers and simulators for collective-upkeep mechanisms.",
    )
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--input", required=True, help="type table CSV, or a mechanism table for simulate")
    p.add_argument("--rho", type=float, help="breakage rate")
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--rho-grid", help="start:stop:count[:log]")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--ic", action="store_true", help="append screening columns to sweeps")
    return p


# Built once per process: main only parses, and parsing keeps no state
# on the parser.
_PARSER = build_parser()


def _positive(x: float | None) -> bool:
    return x is not None and math.isfinite(x) and x > 0


def _fail(code: int, message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Run the command line; returns a process exit status."""
    args = _PARSER.parse_args(argv)
    try:
        grid = _parse_rho_grid(args.rho_grid) if args.rho_grid else None
        if args.mode == "sweep":
            if grid is None:
                raise ValidationError("sweep mode requires --rho-grid")
        elif not _positive(args.rho):
            raise ValidationError("rho must be a positive finite real")
        if args.mode == "simulate":
            if args.seed is None or args.seed < 0:
                raise ValidationError("simulate mode requires a --seed >= 0")
            if not _positive(args.horizon):
                raise ValidationError("simulate mode requires a finite --horizon > 0")
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, exc)

    # Read as bytes and decoded once: str.splitlines in _significant ends
    # lines at \r\n and a lone \r as universal newlines would.
    try:
        with open(args.input, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_PARSE, f"cannot read input: {exc}")

    code = EXIT_OK
    try:
        if args.mode == "simulate":
            lines = _run_simulate(text, args.rho, args.seed, args.horizon)
        else:
            d = parse_types(text)
            if args.mode == "sweep":
                lines = _run_sweep(d, grid, args.ic)
            elif args.mode == "oracle-check":
                lines, code = _run_oracle_check(d, args.rho)
            else:
                lines = _run_solver_mode(args.mode, d, args.rho)
    except ParseError as exc:
        return _fail(EXIT_PARSE, exc)
    except (ValidationError, TooManyTypesError) as exc:
        return _fail(EXIT_VALIDATION, exc)

    payload = "\n".join(lines) + "\n"
    if not args.output:
        sys.stdout.write(payload)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot write output: {exc}")
    return code
