"""Steady-state simulators for the machine's two microfoundations.

A mechanism maps to a state-contingent policy: use with some probability
while the machine works, contribute with some probability while it is
broken.  The Poisson engine runs an event-driven stream of short-lived
arrivals; the fluid engine runs the alternating renewal process of a
large population contributing in aggregate.  Both estimate the reduced
form with confidence radii so a round trip against the target mechanism
is a statistical check, not an exact one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .model import Mechanism, PhysicalParams, TypeDistribution

TRACE_HEADER = "# upkeep-trace v1"

_WARMUP_LIFESPANS = 10.0
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class MarkovPolicy:
    """Usage probability while working and contribution probability while
    broken, per type id."""

    sigma_W: Mapping[str, float]
    sigma_B: Mapping[str, float]

    def __post_init__(self) -> None:
        for label, probs in (("sigma_W", self.sigma_W), ("sigma_B", self.sigma_B)):
            for tid, x in probs.items():
                if not (-1e-12 <= x <= 1.0 + 1e-12):
                    raise ValueError(f"{label}[{tid!r}] must be a probability")


@dataclass(frozen=True)
class Admissibility:
    """Trace-level sanity flags."""

    usage_only_while_working: bool
    contribution_only_while_broken: bool
    lifespan_mean_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.usage_only_while_working
            and self.contribution_only_while_broken
            and self.lifespan_mean_ok
        )


@dataclass(frozen=True)
class SimStats:
    """Empirical reduced form with 95% confidence radii."""

    Q_hat: float
    R_hat: Mapping[str, float]
    P_hat: Mapping[str, float]
    ci_Q: float
    ci_R: Mapping[str, float]
    ci_P: Mapping[str, float]
    n_breaks: int
    lifespan_mean: float
    measured_time: float
    rho: float
    masses: Mapping[str, float]
    admissibility: Admissibility


@dataclass(frozen=True)
class ReducedFormReport:
    """Outcome of comparing empirical estimates against a target."""

    passed: bool
    failures: tuple[str, ...]
    balance_gap: float
    balance_allowance: float


def build_policy(m: Mechanism) -> MarkovPolicy:
    """Policy realizing a mechanism's reduced form.

    Usage probability is R / Q and contribution probability is
    P / (1 - Q), with zero at the degenerate uptimes.
    """
    if m.Q <= 0.0:
        sigma_w = {tid: 0.0 for tid in m.R}
    else:
        sigma_w = {tid: min(r / m.Q, 1.0) for tid, r in m.R.items()}
    if m.Q >= 1.0:
        sigma_b = {tid: 0.0 for tid in m.P}
    else:
        sigma_b = {tid: min(p / (1.0 - m.Q), 1.0) for tid, p in m.P.items()}
    return MarkovPolicy(sigma_W=sigma_w, sigma_B=sigma_b)


def _require_seed(seed: int | None) -> int:
    if seed is None:
        raise ValueError("a seed is required for reproducible runs")
    return int(seed)


def _draw_duration(rng: np.random.Generator, kind: str, mean: float) -> float:
    if kind == "deterministic":
        return mean
    return float(rng.exponential(mean))


def _binomial_ci(successes: int, n: int) -> float:
    if n <= 0:
        return 1.0
    # Count-adjusted normal interval; strictly positive for n >= 1.
    z2 = _Z95 * _Z95
    n_adj = n + z2
    p_adj = (successes + 0.5 * z2) / n_adj
    return _Z95 * math.sqrt(max(p_adj * (1.0 - p_adj), 0.0) / n_adj)


def _cycle_ci(lifespans: list[float], downs: list[float], q_hat: float) -> float:
    n = min(len(lifespans), len(downs))
    if n < 2:
        return 0.5
    ls = np.array(lifespans[:n])
    ds = np.array(downs[:n])
    cycles = ls + ds
    mean_cycle = float(cycles.mean())
    if mean_cycle <= 0.0:
        return 0.5
    x = ls - q_hat * cycles
    sd = float(x.std(ddof=1))
    return _Z95 * sd / (mean_cycle * math.sqrt(n))


def _lifespan_flag(lifespans: list[float], mean_target: float) -> bool:
    n = len(lifespans)
    if n < 2:
        return True
    arr = np.array(lifespans)
    se = float(arr.std(ddof=1)) / math.sqrt(n)
    return abs(float(arr.mean()) - mean_target) <= 4.0 * se + 1e-12


class _Trace:
    def __init__(self, stream: IO[str] | None):
        self.stream = stream
        if stream is not None:
            stream.write(TRACE_HEADER + "\n")

    def emit(self, t: float, kind: str, tid: str, state: str) -> None:
        if self.stream is not None:
            self.stream.write(f"{t:.9f}\t{kind}\t{tid}\t{state}\n")


def simulate_poisson(
    pol: MarkovPolicy,
    d: TypeDistribution,
    phys: PhysicalParams,
    horizon: float,
    seed: int | None,
    trace: IO[str] | None = None,
) -> SimStats:
    """Event-driven run with short-lived agents arriving as a Poisson
    stream.

    The aggregate arrival rate equals the total type mass and arrival
    types are sampled with probability proportional to mass, so the
    per-type arrival rate is the type's mass.  While broken, the first
    contributing arrival fixes the machine.  Statistics start after a
    warm-up of ten mean lifespans.
    """
    rng = np.random.default_rng(_require_seed(seed))
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and > 0")
    tr = _Trace(trace)

    order = d.types
    rate = d.total_mass
    probs = np.array([t.mass for t in order]) / rate
    cum = np.cumsum(probs).tolist()
    sig_w = [pol.sigma_W[t.id] for t in order]
    sig_b = [pol.sigma_B[t.id] for t in order]

    w_start = _WARMUP_LIFESPANS / phys.rho
    w_end = w_start + horizon

    t = 0.0
    working = True
    state_since = 0.0
    next_break = _draw_duration(rng, phys.lifespan, phys.lifespan_mean)
    pending_lifespan = next_break

    arrivals = [0] * len(order)
    uses = [0] * len(order)
    contribs = [0] * len(order)
    working_time = 0.0
    n_breaks = 0
    lifespans: list[float] = []
    downs: list[float] = []
    down_started: float | None = None
    # Usage is generated only in the working state and contributions only
    # in the broken state; the counters re-check that on every event.
    bad_use = 0
    bad_contrib = 0

    def accrue(upto: float) -> None:
        nonlocal working_time, state_since
        if working:
            a = max(state_since, w_start)
            b = min(upto, w_end)
            if b > a:
                working_time += b - a
        state_since = upto

    next_arrival = t + float(rng.exponential(1.0 / rate))
    while True:
        next_machine = next_break if working else math.inf
        t_next = min(next_arrival, next_machine)
        if t_next >= w_end:
            accrue(w_end)
            break
        if next_machine <= next_arrival:
            t = next_machine
            accrue(t)
            working = False
            down_started = t
            n_breaks += 1 if w_start <= t < w_end else 0
            if w_start <= t < w_end:
                lifespans.append(pending_lifespan)
            tr.emit(t, "BREAK", "-", "B")
        else:
            t = next_arrival
            accrue(t)
            next_arrival = t + float(rng.exponential(1.0 / rate))
            k = bisect.bisect_right(cum, rng.random())
            k = min(k, len(order) - 1)
            in_window = w_start <= t < w_end
            if in_window:
                arrivals[k] += 1
            state_working = working
            tr.emit(t, "ARRIVAL", order[k].id, "W" if working else "B")
            if working:
                if rng.random() < sig_w[k]:
                    if in_window:
                        uses[k] += 1
                    if not state_working:
                        bad_use += 1
                    tr.emit(t, "USE", order[k].id, "W")
            else:
                if rng.random() < sig_b[k]:
                    if in_window:
                        contribs[k] += 1
                    if state_working:
                        bad_contrib += 1
                    tr.emit(t, "CONTRIBUTE", order[k].id, "W")
                    working = True
                    if down_started is not None and w_start <= t < w_end:
                        downs.append(t - down_started)
                    down_started = None
                    pending_lifespan = _draw_duration(
                        rng, phys.lifespan, phys.lifespan_mean
                    )
                    next_break = t + pending_lifespan
                    tr.emit(t, "FIX", order[k].id, "W")

    q_hat = working_time / horizon
    r_hat: dict[str, float] = {}
    p_hat: dict[str, float] = {}
    ci_r: dict[str, float] = {}
    ci_p: dict[str, float] = {}
    for i, ty in enumerate(order):
        n = arrivals[i]
        r_hat[ty.id] = uses[i] / n if n else 0.0
        p_hat[ty.id] = contribs[i] / n if n else 0.0
        ci_r[ty.id] = _binomial_ci(uses[i], n)
        ci_p[ty.id] = _binomial_ci(contribs[i], n)

    stats = SimStats(
        Q_hat=q_hat,
        R_hat=r_hat,
        P_hat=p_hat,
        ci_Q=_cycle_ci(lifespans, downs, q_hat),
        ci_R=ci_r,
        ci_P=ci_p,
        n_breaks=n_breaks,
        lifespan_mean=float(np.mean(lifespans)) if lifespans else math.nan,
        measured_time=horizon,
        rho=phys.rho,
        masses={t.id: t.mass for t in order},
        admissibility=Admissibility(
            usage_only_while_working=bad_use == 0,
            contribution_only_while_broken=bad_contrib == 0,
            lifespan_mean_ok=_lifespan_flag(lifespans, phys.lifespan_mean),
        ),
    )
    return stats


def simulate_fluid(
    pol: MarkovPolicy,
    d: TypeDistribution,
    phys: PhysicalParams,
    horizon: float,
    seed: int | None,
    trace: IO[str] | None = None,
) -> SimStats:
    """Alternating-renewal run with a continuum of long-lived agents.

    Working periods last one lifespan draw; broken periods last a
    contribution quantum divided by the aggregate contribution rate of
    the policy.  Per-type levels accrue deterministically from the state
    occupancy, so their confidence radii scale with the uptime radius.
    """
    rng = np.random.default_rng(_require_seed(seed))
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and > 0")
    tr = _Trace(trace)

    agg_rate = sum(t.mass * pol.sigma_B[t.id] for t in d.types)
    w_start = _WARMUP_LIFESPANS / phys.rho
    w_end = w_start + horizon

    t = 0.0
    working_time = 0.0
    n_breaks = 0
    lifespans: list[float] = []
    downs: list[float] = []
    working = True
    duration = _draw_duration(rng, phys.lifespan, phys.lifespan_mean)
    while t < w_end:
        t_next = min(t + duration, w_end)
        if working:
            a, b = max(t, w_start), min(t_next, w_end)
            if b > a:
                working_time += b - a
        t = t_next
        if t >= w_end:
            break
        if working:
            n_breaks += 1 if w_start <= t < w_end else 0
            if w_start <= t < w_end:
                lifespans.append(duration)
            tr.emit(t, "BREAK", "-", "B")
            working = False
            if agg_rate <= 0.0:
                duration = math.inf
            else:
                duration = (
                    _draw_duration(rng, phys.quantum, phys.quantum_mean) / agg_rate
                )
        else:
            if w_start <= t < w_end:
                downs.append(duration)
            tr.emit(t, "FIX", "-", "W")
            working = True
            duration = _draw_duration(rng, phys.lifespan, phys.lifespan_mean)

    q_hat = working_time / horizon
    ci_q = _cycle_ci(lifespans, downs, q_hat)
    r_hat = {t.id: pol.sigma_W[t.id] * q_hat for t in d.types}
    p_hat = {t.id: pol.sigma_B[t.id] * (1.0 - q_hat) for t in d.types}
    ci_r = {t.id: max(pol.sigma_W[t.id] * ci_q, 1e-12) for t in d.types}
    ci_p = {t.id: max(pol.sigma_B[t.id] * ci_q, 1e-12) for t in d.types}

    return SimStats(
        Q_hat=q_hat,
        R_hat=r_hat,
        P_hat=p_hat,
        ci_Q=ci_q,
        ci_R=ci_r,
        ci_P=ci_p,
        n_breaks=n_breaks,
        lifespan_mean=float(np.mean(lifespans)) if lifespans else math.nan,
        measured_time=horizon,
        rho=phys.rho,
        masses={t.id: t.mass for t in d.types},
        admissibility=Admissibility(
            usage_only_while_working=True,
            contribution_only_while_broken=True,
            lifespan_mean_ok=_lifespan_flag(lifespans, phys.lifespan_mean),
        ),
    )


def check_reduced_form(
    stats: SimStats, target: Mechanism, sigma_mult: float
) -> ReducedFormReport:
    """Statistical comparison of empirical estimates against a target
    mechanism.

    Passes iff uptime and every positive-mass type's usage and
    contribution levels sit within sigma_mult confidence radii of the
    target, the admissibility flags hold, and the empirical balance gap
    is within the combined radius.
    """
    if sigma_mult < 1.0:
        raise ValueError("sigma_mult must be >= 1")
    failures: list[str] = []

    def within(name: str, est: float, tgt: float, ci: float) -> None:
        if abs(est - tgt) > sigma_mult * max(ci, 1e-12):
            failures.append(f"{name}: |{est:.6g} - {tgt:.6g}| > {sigma_mult}*{ci:.3g}")

    within("Q", stats.Q_hat, target.Q, stats.ci_Q)
    for tid, mass in stats.masses.items():
        if mass <= 0.0:
            continue
        within(f"R[{tid}]", stats.R_hat[tid], target.R[tid], stats.ci_R[tid])
        within(f"P[{tid}]", stats.P_hat[tid], target.P[tid], stats.ci_P[tid])

    if not stats.admissibility.ok:
        failures.append("admissibility flags failed")

    agg_p = sum(m * stats.P_hat[tid] for tid, m in stats.masses.items())
    gap = abs(stats.rho * stats.Q_hat - agg_p)
    allowance = sigma_mult * math.sqrt(
        (stats.rho * stats.ci_Q) ** 2
        + sum((m * stats.ci_P[tid]) ** 2 for tid, m in stats.masses.items())
    )
    allowance = max(allowance, 1e-9)
    if gap > allowance:
        failures.append(f"balance: gap {gap:.6g} > {allowance:.6g}")

    return ReducedFormReport(
        passed=not failures,
        failures=tuple(failures),
        balance_gap=gap,
        balance_allowance=allowance,
    )
