"""Domain types, payoff evaluation, and feasibility checks.

The economy is a group of weighted agent types sharing a machine that
alternates between working and broken states.  A mechanism assigns each
type a usage level R, a contribution level P, and implies an uptime Q.
Everything here is immutable and side-effect free, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

DEFAULT_TOL = 1e-9

# Relative distance within which a dual threshold sits on a type's cost:
# a crossing of two lines lands on a cost atom only up to rounding.
ATOM_SNAP = 1e-12

FAMILY_BALANCE = "balance"
FAMILY_SIMPLEX = "simplex"
FAMILY_PARTICIPATION = "participation"
FAMILY_IC = "ic"
ALL_FAMILIES = frozenset(
    {FAMILY_BALANCE, FAMILY_SIMPLEX, FAMILY_PARTICIPATION, FAMILY_IC}
)


class DegenerateDistributionError(ValueError):
    """Raised when a type distribution has no mass."""


@dataclass(frozen=True)
class AgentType:
    """One agent type: usage benefit flow, contribution cost flow, weight.

    Weights are arbitrary nonnegative reals; they need not sum to one.
    """

    id: str
    u: float
    c: float
    mass: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("type id must be a nonempty string")
        for name in ("u", "c", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"type {self.id!r}: {name} must be finite")
        if self.u <= 0:
            raise ValueError(f"type {self.id!r}: u must be > 0")
        if self.c <= 0:
            raise ValueError(f"type {self.id!r}: c must be > 0")
        if self.mass < 0:
            raise ValueError(f"type {self.id!r}: mass must be >= 0")

    @property
    def nu(self) -> float:
        """Valuation: the rate of substitution between access and contributions."""
        return self.u / self.c


@dataclass(frozen=True)
class TypeDistribution:
    """An ordered collection of agent types with distinct ids.

    total_mass (the types' summed mass), u_bar (aggregate usage benefit
    of a working machine) and c_bar (aggregate contribution cost of a
    fully contributing group) are summed in type order once, when the
    distribution is validated, and set as plain attributes: they are not
    fields, so eq, hash and repr see only the types, and
    dataclasses.replace sums anew.
    """

    types: tuple[AgentType, ...]

    def __post_init__(self) -> None:
        ids = [t.id for t in self.types]
        if len(set(ids)) != len(ids):
            raise ValueError("type ids must be distinct")
        sums = {
            "total_mass": sum(t.mass for t in self.types),
            "u_bar": sum(t.mass * t.u for t in self.types),
            "c_bar": sum(t.mass * t.c for t in self.types),
        }
        if sums["total_mass"] <= 0:
            raise DegenerateDistributionError(
                "distribution needs at least one type with mass > 0"
            )
        for name, value in sums.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.types)

    def by_id(self, type_id: str) -> AgentType:
        for t in self.types:
            if t.id == type_id:
                return t
        raise KeyError(type_id)


def slack_scale(d: TypeDistribution, rho: float) -> float:
    """The scale of a balance residual at rho, max(1, rho, total mass):
    envelope.solve_at forms the solvers' slack tolerances relative to it."""
    return max(1.0, rho, d.total_mass)


def kink_uptimes(d: TypeDistribution) -> list[float]:
    """0, 1 and each type's kink 1 / (1 + nu), ascending and distinct.

    At a type's kink its uptime-scaled valuation Q * nu equals the
    downtime 1 - Q; between consecutive kinks the participation and
    screening Lagrangians are piecewise affine in the uptime.
    """
    qs = {0.0, 1.0}
    qs.update(1.0 / (1.0 + t.nu) for t in d.types)
    return sorted(qs)


@dataclass(frozen=True)
class PhysicalParams:
    """Breakage rate plus simulator distribution shapes.

    Lifespans always have mean 1/rho and contribution quanta mean 1; only
    the distribution shape is configurable, so the declared means hold by
    construction.
    """

    rho: float
    lifespan: str = "exponential"
    quantum: str = "exponential"

    _KINDS = ("exponential", "deterministic")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be a positive finite real")
        for name in ("lifespan", "quantum"):
            if getattr(self, name) not in self._KINDS:
                raise ValueError(f"{name} must be one of {self._KINDS}")

    @property
    def lifespan_mean(self) -> float:
        return 1.0 / self.rho

    @property
    def quantum_mean(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Mechanism:
    """Reduced form of a system process: uptime plus per-type levels.

    R maps type id to a usage level in [0, 1] and P maps type id to a
    contribution level in [0, 1].  Feasibility against a distribution is
    checked by :func:`check_feasible`, not at construction.
    """

    Q: float
    R: Mapping[str, float]
    P: Mapping[str, float]

    _BOX_SLACK = 1e-9

    def __post_init__(self) -> None:
        s = self._BOX_SLACK
        if not (-s <= self.Q <= 1.0 + s):
            raise ValueError("Q must lie in [0, 1]")
        for label, levels in (("R", self.R), ("P", self.P)):
            for tid, x in levels.items():
                if not (-s <= x <= 1.0 + s):
                    raise ValueError(f"{label}[{tid!r}] must lie in [0, 1]")
        if self.R.keys() != self.P.keys():
            raise ValueError("R and P must cover the same type ids")

    @classmethod
    def zero(cls, d: TypeDistribution) -> "Mechanism":
        """The idle mechanism: no uptime, no usage, no contributions."""
        zeros = {t.id: 0.0 for t in d.types}
        return cls(Q=0.0, R=zeros, P=dict(zeros))


def agent_utility(t: AgentType, r: float, p: float) -> float:
    """Flow payoff of a type using the machine a fraction r of the time
    and contributing a fraction p."""
    return r * t.u - p * t.c


def welfare(m: Mechanism, d: TypeDistribution) -> float:
    """Mass-weighted sum of agent utilities under the mechanism."""
    return sum(t.mass * (m.R[t.id] * t.u - m.P[t.id] * t.c) for t in d.types)


def balance_residual(m: Mechanism, d: TypeDistribution, rho: float) -> float:
    """Breakage rate of the uptime minus the aggregate contribution rate.

    Zero iff the mechanism is balanced: the machine is fixed exactly as
    often as it breaks.
    """
    return rho * m.Q - sum(t.mass * m.P[t.id] for t in d.types)


@dataclass(frozen=True)
class FeasibilityReport:
    """Residuals and pass flags per requested constraint family.

    Violations are reported as nonnegative magnitudes; a family passes iff
    all its violations are at most tol.  Signed diagnostics (balance
    residual, per-type utilities, worst incentive slack) are kept so
    callers can see how close a failing mechanism is.
    """

    tol: float
    families: frozenset[str]
    balance: float | None
    simplex: Mapping[str, float]
    participation_utility: Mapping[str, float]
    ic_worst_slack: float | None
    ic_worst_pair: tuple[str, str] | None
    passed: Mapping[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.passed[f] for f in self.families)


def check_feasible(
    m: Mechanism,
    d: TypeDistribution,
    rho: float,
    families: Iterable[str] = ALL_FAMILIES,
    tol: float = DEFAULT_TOL,
) -> FeasibilityReport:
    """Evaluate the requested constraint families on a mechanism.

    Violations are data, not errors: the report carries residuals for
    every family asked for.  Incentive compatibility is checked over all
    ordered type pairs, including zero-mass types.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be > 0 and finite")
    fams = frozenset(families)
    unknown = fams - ALL_FAMILIES
    if unknown:
        raise ValueError(f"unknown constraint families: {sorted(unknown)}")

    passed: dict[str, bool] = {}
    balance: float | None = None
    simplex: dict[str, float] = {}
    utilities: dict[str, float] = {}
    worst_slack: float | None = None
    worst_pair: tuple[str, str] | None = None

    if FAMILY_BALANCE in fams:
        balance = balance_residual(m, d, rho)
        passed[FAMILY_BALANCE] = abs(balance) <= tol

    if FAMILY_SIMPLEX in fams:
        for t in d.types:
            r, p = m.R[t.id], m.P[t.id]
            simplex[t.id] = max(r - m.Q, p - (1.0 - m.Q), -r, -p)
        passed[FAMILY_SIMPLEX] = all(v <= tol for v in simplex.values())

    if FAMILY_PARTICIPATION in fams:
        for t in d.types:
            utilities[t.id] = agent_utility(t, m.R[t.id], m.P[t.id])
        passed[FAMILY_PARTICIPATION] = all(u >= -tol for u in utilities.values())

    if FAMILY_IC in fams:
        worst_slack = math.inf
        for t in d.types:
            own = agent_utility(t, m.R[t.id], m.P[t.id])
            for other in d.types:
                if other.id == t.id:
                    continue
                slack = own - agent_utility(t, m.R[other.id], m.P[other.id])
                if slack < worst_slack:
                    worst_slack = slack
                    worst_pair = (t.id, other.id)
        if not math.isfinite(worst_slack):
            worst_slack = 0.0
            worst_pair = None
        passed[FAMILY_IC] = worst_slack >= -tol

    return FeasibilityReport(
        tol=tol,
        families=fams,
        balance=balance,
        simplex=simplex,
        participation_utility=utilities,
        ic_worst_slack=worst_slack,
        ic_worst_pair=worst_pair,
        passed=passed,
    )
