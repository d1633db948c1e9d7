"""Command line front end: file ingestion, solving, sweeps, simulation.

Type tables are CSV with a `id,u,c,mass` header; '#' lines are comments.
Mechanism output is a CSV table followed by a one-line summary, both
rendered with 12 significant digits so identical inputs produce byte
identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .first_best import FirstBestSolution, solve_first_best
from .model import (
    AgentType,
    DegenerateDistributionError,
    Mechanism,
    PhysicalParams,
    TypeDistribution,
    balance_residual,
)
from .oracle import TooManyTypesError, lp_screening_welfare, primal_grid_welfare
from .participation import solve_participation
from .screening import ScreeningSolution, solve_screening
from .sim import build_policy, simulate_fluid, simulate_poisson

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGENERATE = 4
EXIT_ORACLE = 5

ORACLE_TOL_PRIMAL = 1e-3
ORACLE_TOL_SCREENING = 1e-9  # per unit of max(1, |W_solver|); the LP oracle is exact

MODES = ("fb", "part", "ic", "simulate", "sweep", "oracle-check")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
        if self.log:
            return [float(x) for x in np.geomspace(self.start, self.stop, self.count)]
        return [float(x) for x in np.linspace(self.start, self.stop, self.count)]


@dataclass(frozen=True)
class RunConfig:
    mode: str
    input: str
    rho: float | None = None
    tol: float = 1e-9
    seed: int | None = None
    horizon: float | None = None
    rho_grid: RhoGrid | None = None
    output: str | None = None
    include_ic: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("tol must be finite and > 0")
        if self.mode == "sweep":
            if self.rho_grid is None:
                raise ValidationError("sweep mode requires --rho-grid")
        elif self.rho is None or not (math.isfinite(self.rho) and self.rho > 0):
            raise ValidationError("rho must be a positive finite real")
        if self.mode == "simulate":
            if self.seed is None or self.seed < 0:
                raise ValidationError("simulate mode requires a --seed >= 0")
            if self.horizon is None or not (math.isfinite(self.horizon) and self.horizon > 0):
                raise ValidationError("simulate mode requires a finite --horizon > 0")


def fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_types(text: str) -> TypeDistribution:
    """Parse a type table: header `id,u,c,mass`, one type per line."""
    header_seen = False
    types: list[AgentType] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if [c.strip() for c in line.split(",")] != ["id", "u", "c", "mass"]:
                raise ParseError("expected header 'id,u,c,mass'", lineno)
            header_seen = True
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 4:
            raise ParseError(f"expected 4 comma-separated values, got {len(cells)}", lineno)
        tid = cells[0]
        try:
            u, c, mass = (float(cells[i]) for i in (1, 2, 3))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        try:
            types.append(AgentType(id=tid, u=u, c=c, mass=mass))
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    if not header_seen:
        raise ParseError("missing header 'id,u,c,mass'", 1)
    try:
        return TypeDistribution(tuple(types))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def parse_mechanism_table(text: str) -> tuple[TypeDistribution, Mechanism]:
    """Re-ingest a mechanism table emitted by the fb/part/ic modes."""
    types: list[AgentType] = []
    R: dict[str, float] = {}
    P: dict[str, float] = {}
    q: float | None = None
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("Q="):
            for part in line.split(","):
                key, _, val = part.strip().partition("=")
                if key.strip() == "Q":
                    q = float(val)
            continue
        if not header_seen:
            expected = ["id", "u", "c", "mass", "nu", "R", "P", "utility", "class"]
            if [c.strip() for c in line.split(",")] != expected:
                raise ParseError("expected mechanism table header", lineno)
            header_seen = True
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 9:
            raise ParseError("expected 9 columns", lineno)
        try:
            t = AgentType(
                id=cells[0], u=float(cells[1]), c=float(cells[2]), mass=float(cells[3])
            )
            R[t.id] = float(cells[5])
            P[t.id] = float(cells[6])
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        types.append(t)
    if q is None:
        raise ValidationError("mechanism table has no summary line with Q=")
    try:
        return TypeDistribution(tuple(types)), Mechanism(Q=q, R=R, P=P)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _mechanism_lines(
    d: TypeDistribution,
    mech: Mechanism,
    classes: dict[str, str],
    y: float,
    rho: float,
) -> list[str]:
    lines = ["id,u,c,mass,nu,R,P,utility,class"]
    for t in d.types:
        r, p = mech.R[t.id], mech.P[t.id]
        utility = r * t.u - p * t.c
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
        f"Q={fmt(mech.Q)}, y={fmt(y)}, W={fmt(sum(t.mass * (mech.R[t.id] * t.u - mech.P[t.id] * t.c) for t in d.types))}, "
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


def _run_solver_mode(cfg: RunConfig, d: TypeDistribution) -> list[str]:
    rho = float(cfg.rho)
    if cfg.mode == "fb":
        sol = solve_first_best(d, rho, cfg.tol)
        return _mechanism_lines(d, sol.mechanism, _classes_fb(sol, d), sol.y_fb, rho)
    if cfg.mode == "part":
        sol = solve_participation(d, rho, cfg.tol)
        return _mechanism_lines(d, sol.mechanism, dict(sol.classes), sol.y_star, rho)
    sol = solve_screening(d, rho, cfg.tol)
    return _mechanism_lines(d, sol.mechanism, _classes_ic(sol), sol.y_star, rho)


def _run_simulate(cfg: RunConfig, text: str) -> list[str]:
    d, mech = parse_mechanism_table(text)
    phys = PhysicalParams(rho=float(cfg.rho))
    pol = build_policy(mech)
    horizon = float(cfg.horizon)
    seed = int(cfg.seed)
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


def _sweep_row(d: TypeDistribution, rho: float, tol: float, include_ic: bool) -> str:
    fb = solve_first_best(d, rho, tol)
    part = solve_participation(d, rho, tol)
    cells = [
        fmt(rho),
        fmt(fb.y_fb),
        fmt(fb.Q_fb),
        fmt(fb.W_fb),
        fmt(part.y_star),
        fmt(part.Q_star),
        fmt(part.W_star),
    ]
    if include_ic:
        ic = solve_screening(d, rho, tol)
        cells += [fmt(ic.y_star), fmt(ic.Q_star), fmt(ic.W_star)]
    return ",".join(cells)


def _run_sweep(cfg: RunConfig, d: TypeDistribution) -> list[str]:
    rhos = cfg.rho_grid.values()
    header = "rho,y_fb,Q_fb,W_fb,y_star,Q_star,W_star"
    if cfg.include_ic:
        header += ",y_ic,Q_ic,W_ic"
    return [header] + [_sweep_row(d, r, cfg.tol, cfg.include_ic) for r in rhos]


def _run_oracle_check(cfg: RunConfig, d: TypeDistribution) -> tuple[list[str], bool]:
    rho = float(cfg.rho)
    lines = ["W_solver,W_oracle,delta"]
    ok = True

    fb = solve_first_best(d, rho, cfg.tol)
    w_fb_oracle, _, _ = primal_grid_welfare(d, rho, "first_best")
    delta = fb.W_fb - w_fb_oracle
    ok &= abs(delta) <= ORACLE_TOL_PRIMAL
    lines.append(f"{fmt(fb.W_fb)},{fmt(w_fb_oracle)},{fmt(delta)}")

    part = solve_participation(d, rho, cfg.tol)
    w_part_oracle, _, _ = primal_grid_welfare(d, rho, "participation")
    delta = part.W_star - w_part_oracle
    ok &= abs(delta) <= ORACLE_TOL_PRIMAL
    lines.append(f"{fmt(part.W_star)},{fmt(w_part_oracle)},{fmt(delta)}")

    ic = solve_screening(d, rho, cfg.tol)
    w_ic_oracle, _ = lp_screening_welfare(d, rho)
    delta = ic.W_star - w_ic_oracle
    ok &= abs(delta) <= ORACLE_TOL_SCREENING * max(1.0, abs(ic.W_star))
    lines.append(f"{fmt(ic.W_star)},{fmt(w_ic_oracle)},{fmt(delta)}")
    return lines, ok


def run(cfg: RunConfig) -> int:
    """Execute a run configuration; returns a process exit status."""
    try:
        with open(cfg.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if cfg.mode == "simulate":
            lines = _run_simulate(cfg, text)
        else:
            d = parse_types(text)
            if cfg.mode in ("fb", "part", "ic"):
                lines = _run_solver_mode(cfg, d)
            elif cfg.mode == "sweep":
                lines = _run_sweep(cfg, d)
            else:
                lines, ok = _run_oracle_check(cfg, d)
                _emit(cfg, lines)
                return EXIT_OK if ok else EXIT_ORACLE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, TooManyTypesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateDistributionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    _emit(cfg, lines)
    return EXIT_OK


def _emit(cfg: RunConfig, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--rho-grid", help="start:stop:count[:log]")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--ic", action="store_true", help="append screening columns to sweeps")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            mode=args.mode,
            input=args.input,
            rho=args.rho,
            tol=args.tol,
            seed=args.seed,
            horizon=args.horizon,
            rho_grid=_parse_rho_grid(args.rho_grid) if args.rho_grid else None,
            output=args.output,
            include_ic=args.ic,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
