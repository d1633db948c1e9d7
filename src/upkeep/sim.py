"""Steady-state simulators for the machine's two microfoundations.

A mechanism maps to a state-contingent policy: use with some probability
while the machine works, contribute with some probability while it is
broken.  The Poisson engine runs a stream of short-lived arrivals; the
fluid engine runs the alternating renewal process of a large population
contributing in aggregate.  Both estimate the reduced form with
confidence radii so a round trip against the target mechanism is a
statistical check, not an exact one.

Both engines draw their randomness in numpy blocks, each sized to the
draws a run is still expected to need and at most ``_BLOCK``.  The
Poisson engine's Python loop takes one bisect per repair cycle, the one
step that must be sequential (a fix's lifespan places the next break,
whose first contributing arrival is the next fix), and it bisects only
the contributing arrivals' times; the cycle's bookkeeping (break
positions, working time, lifespans, downtimes, the broken mask and the
counts) then comes from arrays.  Arrival, break and fix times are
sorted, so the measurement window cuts each of them at one binary
search.  The fluid engine needs no per-cycle step.  Memory does not grow
with the horizon beyond the per-cycle lifespans and downtimes, 8 bytes
each in ``array("d")`` buffers.

- Poisson: ``np.random.SeedSequence(seed).spawn(4)`` gives four child
  streams, drawing in turn the arrival gaps, the type uniforms, the
  decision uniforms and the lifespans.  Arrival times are the cumulative
  sum of the gaps; a break falls before an arrival at the same instant,
  and the first contributing arrival of a broken period fixes the
  machine.  The streams make the output independent of the block size;
  estimates at a given seed differ from versions that drew every event
  from one generator, with the same distribution.
- Fluid: one generator draws the alternating lifespans and contribution
  quanta as blocks of standard exponentials, in the order and with the
  scaling of one draw per period, so its estimates at a given seed are
  the same as those of the per-period loop it replaced.

Admissibility is derived from the event arrays the Poisson engine
produces (the same arrays any trace is written from): breaks and fixes
alternate, and no broken interval holds a use: the first use at or
after each interval's break falls at or after its end.  It also passes
each break's and fix's position in the arrival stream, which orders
events at one instant, such as a break that lands on the instant of the
fix before it.  Its
contributions come from the arrivals' own draws: the arrivals that drew
a contribution while the machine was broken must be exactly its fixes.
The fluid engine does not observe the event flags: its breaks and fixes
are the alternate ends of one cumulative sum of nonnegative durations,
and it has no individual uses or contributions, so it reports both as
True.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .model import Mechanism, PhysicalParams, TypeDistribution

TRACE_HEADER = "# upkeep-trace v1"

_WARMUP_LIFESPANS = 10.0
_Z95 = 1.959963984540054
# Most arrivals (Poisson) or repair cycles (fluid) drawn per block.  Each
# block holds about ten arrays of this length at once, which sets the
# engines' memory beyond the per-cycle buffers.  On a 2-core x86 VM a
# Poisson run of about 12k arrivals took 10% longer at 2048 and 5% longer
# at 8192.
_BLOCK = 4096


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
    """Trace-level sanity flags.

    Both event flags need breaks and fixes to alternate.  Usage also needs
    every use to fall while the machine works; contribution needs the
    Poisson engine's arrivals that drew a contribution while the machine
    was broken to be exactly its fixes.  The fluid engine does not
    observe them and reports both as True: its breaks and fixes alternate
    by construction, and it has no individual uses or contributions.  The
    lifespan flag compares the mean lifespan with its target.
    """

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
    """Empirical reduced form with 95% confidence radii, and the number of
    events of each kind inside the measurement window (the fluid engine
    has no individual arrivals, uses or contributions)."""

    Q_hat: float
    R_hat: Mapping[str, float]
    P_hat: Mapping[str, float]
    ci_Q: float
    ci_R: Mapping[str, float]
    ci_P: Mapping[str, float]
    n_breaks: int
    n_fixes: int
    n_arrivals: int
    n_uses: int
    n_contributions: int
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
    P / (1 - Q), clamped to [0, 1] (a mechanism's levels may sit just
    outside its box), with zero at the degenerate uptimes.
    """
    if m.Q <= 0.0:
        sigma_w = {tid: 0.0 for tid in m.R}
    else:
        sigma_w = {tid: min(max(r / m.Q, 0.0), 1.0) for tid, r in m.R.items()}
    if m.Q >= 1.0:
        sigma_b = {tid: 0.0 for tid in m.P}
    else:
        sigma_b = {tid: min(max(p / (1.0 - m.Q), 0.0), 1.0) for tid, p in m.P.items()}
    return MarkovPolicy(sigma_W=sigma_w, sigma_B=sigma_b)


def _require_seed(seed: int | None) -> int:
    if seed is None:
        raise ValueError("a seed is required for reproducible runs")
    return int(seed)


def _require_horizon(horizon: float) -> None:
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and > 0")


def _binomial_ci(successes: int, n: int) -> float:
    if n <= 0:
        return 1.0
    # Count-adjusted normal interval; strictly positive for n >= 1.
    z2 = _Z95 * _Z95
    n_adj = n + z2
    p_adj = (successes + 0.5 * z2) / n_adj
    return _Z95 * math.sqrt(max(p_adj * (1.0 - p_adj), 0.0) / n_adj)


def _cycle_ci(lifespans: array, downs: array, q_hat: float) -> float:
    n = min(len(lifespans), len(downs))
    if n < 2:
        return 0.5
    ls = np.frombuffer(lifespans, count=n)
    cycles = ls + np.frombuffer(downs, count=n)
    mean_cycle = float(np.add.reduce(cycles) / n)
    if mean_cycle <= 0.0:
        return 0.5
    return _Z95 * _sd(ls - q_hat * cycles) / (mean_cycle * math.sqrt(n))


def _sd(x: np.ndarray) -> float:
    """x.std(ddof=1) by the steps of numpy's own _var, to the bit, without
    its Python wrappers: sum, divide by n, subtract, square, sum, divide
    by n - 1, square root."""
    x = x - np.add.reduce(x) / x.size
    return math.sqrt(np.add.reduce(x * x) / (x.size - 1))


def _lifespan_flag(lifespans: array, mean_target: float) -> bool:
    n = len(lifespans)
    if n < 2:
        return True
    arr = np.frombuffer(lifespans)
    se = _sd(arr) / math.sqrt(n)
    # Centred first: the mean of identical lifespans near 1 / rho can
    # round off the target by more than 1e-12, and their se is 0.
    return abs(float(np.add.reduce(arr - mean_target) / n)) <= 4.0 * se + 1e-12


def _admissible(
    breaks: np.ndarray,
    fixes: np.ndarray,
    uses: np.ndarray,
    working: bool,
    positions: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[bool, bool]:
    """(breaks and fixes alternate, usage only while working) for one
    stretch of event times that starts in the given state.  ``uses`` are
    in time order.

    Breaks and fixes must alternate in time order.  The machine is
    broken on each half-open interval [break, fix), and on [break, inf)
    when the stretch ends broken, so a use at a break's instant falls
    while broken and one at a fix's instant while working.  Usage is
    admissible when no broken interval holds a use: the first use at or
    after its break falls at or after its end.  Without alternation no
    use is admissible.

    positions, if given, places the breaks and fixes in a stream of
    arrivals: a break at position p falls just before arrival p, and a
    fix at position i is arrival i.  Breaks and fixes must then alternate
    in that order too, which orders a break that lands on the instant of
    the fix before it.
    """
    if not working:
        breaks = np.concatenate(([-math.inf], breaks))
    nb, nf = len(breaks), len(fixes)
    if nb - nf not in (0, 1):
        return False, False
    # The machine changes state at b0 <= f0 <= b1 <= f1 <= ...
    if not ((breaks[:nf] <= fixes).all() and (fixes[: nb - 1] <= breaks[1:]).all()):
        return False, False
    if positions is not None:
        at_break, at_fix = positions
        if not working:
            at_break = np.concatenate(([0], at_break))
        # In the stream, break p falls before arrival p: p <= i for its
        # fix at arrival i, and i < p for the next break.
        if not (
            (at_break[:nf] <= at_fix).all() and (at_fix[: nb - 1] < at_break[1:]).all()
        ):
            return False, False
    # The first use at or after each break falls at or after its fix, and
    # none falls at or after a trailing break.
    first = uses.searchsorted(breaks)
    after = np.concatenate((uses, [math.inf]))[first[:nf]]
    return True, bool((after >= fixes).all() and (nb == nf or first[-1] == uses.size))


class _PoissonDraws:
    """The Poisson engine's four child streams.  ``arrivals(n)`` returns n
    standard exponential gaps, type uniforms and decision uniforms, and
    ``lifespans(n)`` n standard exponentials."""

    def __init__(self, seed: int):
        self._gap, self._type, self._decision, self._life = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
        )

    def arrivals(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self._gap.standard_exponential(n),
            self._type.random(n),
            self._decision.random(n),
        )

    def lifespans(self, n: int) -> np.ndarray:
        return self._life.standard_exponential(n)


def _type_edges(d: TypeDistribution) -> np.ndarray:
    """An arrival's type is the number of edges at or below its uniform:
    the cumulative mass shares of d's types but the last, padded with inf
    to a length of 2**b - 1 for _count_at_or_below."""
    n = len(d.types)
    edges = np.full((1 << (n - 1).bit_length()) - 1, math.inf)
    edges[: n - 1] = (np.array([t.mass for t in d.types]) / d.total_mass).cumsum()[:-1]
    return edges


def _count_at_or_below(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``edges.searchsorted(u, "right")`` for sorted edges padded with inf
    to a length of 2**b - 1, as a branch-free binary search.  On random
    keys searchsorted mispredicts about one branch per probe, and at 1 to
    399 edges it took two to six times as long as this."""
    step = (edges.size + 1) // 2
    if not step:
        return np.zeros(u.size, dtype=np.intp)
    k = (u >= edges[step - 1]) * step
    while step > 1:
        step //= 2
        k += (edges[k + (step - 1)] <= u) * step
    return k


def _block_size(expected: float) -> int:
    """Draws for the next block: the expected number still needed, with
    some slack, and at most _BLOCK.  Any sizes give the same outputs."""
    return int(min(_BLOCK, 1.1 * expected + 32))


def _lifespans(draws: _PoissonDraws, phys: PhysicalParams, n: int) -> np.ndarray:
    """The next n lifespans, in stream order.  Each fix takes one, so the
    engine tops its buffer up to one per contributing arrival of the
    block, and the rest carry to the next block.  The lifespans have a
    stream of their own, so what is drawn ahead and not used changes no
    output."""
    if phys.lifespan == "deterministic":
        return np.full(n, phys.lifespan_mean)
    return phys.lifespan_mean * draws.lifespans(n)


def simulate_poisson(
    pol: MarkovPolicy,
    d: TypeDistribution,
    phys: PhysicalParams,
    horizon: float,
    seed: int | None,
    trace: IO[str] | None = None,
) -> SimStats:
    """Run with short-lived agents arriving as a Poisson stream.

    The aggregate arrival rate equals the total type mass and arrival
    types are sampled with probability proportional to mass, so the
    per-type arrival rate is the type's mass.  While broken, the first
    contributing arrival fixes the machine.  Statistics start after a
    warm-up of ten mean lifespans.  Randomness comes from four child
    streams of ``seed`` (see the module docstring), so estimates at a
    given seed differ from versions that drew from one generator.
    """
    draws = _PoissonDraws(_require_seed(seed))
    return _run_poisson(pol, d, phys, horizon, draws, trace)


def _run_poisson(
    pol: MarkovPolicy,
    d: TypeDistribution,
    phys: PhysicalParams,
    horizon: float,
    draws: _PoissonDraws,
    trace: IO[str] | None,
) -> SimStats:
    _require_horizon(horizon)
    if trace is not None:
        trace.write(TRACE_HEADER + "\n")

    order = d.types
    n = len(order)
    tids = np.array([t.id for t in order], dtype=object)
    rate = d.total_mass
    edges = _type_edges(d)
    sig_w = np.array([pol.sigma_W[t.id] for t in order])
    sig_b = np.array([pol.sigma_B[t.id] for t in order])

    w_start = _WARMUP_LIFESPANS / phys.rho
    w_end = w_start + horizon

    # Windowed arrivals per type that neither use nor fix, that use, and
    # that contribute and fix.
    tally = np.zeros(3 * n, dtype=np.int64)
    working_time = 0.0
    lifespans, downs = array("d"), array("d")  # per cycle, in the window
    use_ok = con_ok = True

    # The machine works from state_since, and breaks after pending_lifespan,
    # or is broken from state_since.
    working = True
    state_since = 0.0
    pending_lifespan = float(_lifespans(draws, phys, 1)[0])
    buf = np.empty(0)  # lifespans drawn and not yet used
    t_last = 0.0
    done = False
    while not done:
        gaps, u_type, u_dec = draws.arrivals(_block_size(rate * (w_end - t_last)))
        # A fresh buffer: the draws may be views that must not change.
        times = gaps * (1.0 / rate)
        times[0] += t_last
        times.cumsum(out=times)
        t_last = float(times[-1])
        # Arrivals at or after the end of the window never happen.
        m = int(times.searchsorted(w_end))
        done = m < times.size
        times = times[:m]
        k = _count_at_or_below(edges, u_type[:m])
        u_dec = u_dec[:m]
        contributes = u_dec < sig_b[k]
        cpos = contributes.nonzero()[0]
        # A list, since bisecting an array or a memoryview boxes a float
        # on every probe.
        ct = times[cpos].tolist()
        # Each fix is a contributing arrival and takes the next lifespan.
        if buf.size < cpos.size:
            buf = np.concatenate((buf, _lifespans(draws, phys, cpos.size - buf.size)))

        # The one sequential step, over the contributing arrivals: a fix
        # draws its lifespan, which places the next break, whose first
        # contributing arrival is the next fix.  A break falls before the
        # arrivals at its instant, but always after the arrival that fixed
        # the machine (lo = c + 1), even when t + lifespan rounds to t.
        starts_working = working
        c = bisect_left(ct, state_since + pending_lifespan) if working else 0
        nc = len(ct)
        fix_c: list[int] = []  # indices into cpos
        # A memoryview boxes only the lifespans the loop reads.
        for life in memoryview(buf):
            if c >= nc:
                break
            fix_c.append(c)
            c = bisect_left(ct, ct[c] + life, c + 1)

        # Everything else from arrays.  Column 0 of periods is the state the
        # block starts in: the carried working period (its start and
        # lifespan) or the broken period (its break and a lifespan of 0).
        # Then one working period per fix.  Each period ends at start +
        # lifespan.  The window tests are slices of sorted arrays.
        fix = cpos[np.array(fix_c, dtype=np.intp)]
        nf = fix.size
        periods = np.empty((2, nf + 1))  # starts and lifespans
        periods[:, 0] = state_since, pending_lifespan if working else 0.0
        periods[0, 1:] = times[fix]
        periods[1, 1:] = buf[:nf]
        buf = buf[nf:]
        fix_times = periods[0, 1:]
        ends = periods[0] + periods[1]
        # Each fix ends the broken period from the end before it.
        i = fix_times.searchsorted(w_start)
        downs.frombytes((fix_times[i:] - ends[i:nf]).tobytes())

        # The working periods that may end in this block, each with the
        # position of the first arrival at or after its break, but after
        # its own fix.
        carried = int(starts_working)
        (start, spans), brk = periods[:, 1 - carried :], ends[1 - carried :]
        after_fix = fix + 1
        pos = times.searchsorted(brk)
        np.maximum(pos[carried:], after_fix, out=pos[carried:])
        ended = brk.size
        if ended and pos[-1] == m and not (done and brk[-1] < w_end):
            ended -= 1  # the last period works past this block
        if ended < brk.size:
            working = True
            pending_lifespan, state_since = float(spans[-1]), float(start[-1])
        elif ended:
            working, state_since = False, float(brk[-1])
        breaks, pos = brk[:ended], pos[:ended]

        # A break at w_start adds 0.0 of working time, which moves no bit.
        i = breaks.searchsorted(w_start)
        seg = breaks[i:] - np.maximum(start[i:ended], w_start)
        if seg.size:
            seg[0] += working_time
            working_time = float(seg.cumsum()[-1])
        lifespans.frombytes(spans[i:ended].tobytes())

        # The state of each arrival: it toggles at 0 if the block starts
        # broken, just before each break's position and just after each
        # fix, twice where a break falls right after its fix.
        toggle = np.zeros(m + 1, dtype=bool)
        toggle[pos] = True
        toggle[after_fix] ^= True
        toggle[0] ^= not starts_working
        broken = np.logical_xor.accumulate(toggle[:m])
        used = (u_dec < sig_w[k]) & ~broken
        # The row of tally: 0 neither uses nor fixes, 1 uses, 2 fixes.
        row = k + n * used
        row[fix] += 2 * n
        tally += np.bincount(row[times.searchsorted(w_start) :], minlength=3 * n)

        alternate, block_use_ok = _admissible(
            breaks, fix_times, times[used], starts_working, positions=(pos, fix)
        )
        use_ok = use_ok and block_use_ok
        # The arrivals that contribute while broken must be the fixes.
        con_ok = con_ok and alternate and np.array_equal(
            (contributes & broken).nonzero()[0], fix
        )
        if trace is not None:
            _emit_poisson(
                trace, times.tolist(), tids[k], broken, used, row >= 2 * n,
                breaks.tolist(), pos.tolist(),
            )
        # Free the arrays of arrival length before the next block draws
        # its own, so that one block's are held at a time.
        del gaps, u_type, u_dec, times, k, contributes, cpos, ct, broken, used, row

    if working:
        a = max(state_since, w_start)
        if w_end > a:
            working_time += w_end - a

    tally = tally.reshape(3, n)
    arrivals = tally.sum(axis=0)
    _, uses, contribs = tally
    q_hat = working_time / horizon
    r_hat: dict[str, float] = {}
    p_hat: dict[str, float] = {}
    ci_r: dict[str, float] = {}
    ci_p: dict[str, float] = {}
    for i, ty in enumerate(order):
        a_i, u_i, c_i = int(arrivals[i]), int(uses[i]), int(contribs[i])
        r_hat[ty.id] = u_i / a_i if a_i else 0.0
        p_hat[ty.id] = c_i / a_i if a_i else 0.0
        ci_r[ty.id] = _binomial_ci(u_i, a_i)
        ci_p[ty.id] = _binomial_ci(c_i, a_i)

    n_contributions = int(contribs.sum())
    return SimStats(
        Q_hat=q_hat,
        R_hat=r_hat,
        P_hat=p_hat,
        ci_Q=_cycle_ci(lifespans, downs, q_hat),
        ci_R=ci_r,
        ci_P=ci_p,
        n_breaks=len(lifespans),
        n_fixes=n_contributions,
        n_arrivals=int(arrivals.sum()),
        n_uses=int(uses.sum()),
        n_contributions=n_contributions,
        lifespan_mean=float(np.add.reduce(lifespans) / len(lifespans)) if lifespans else math.nan,
        measured_time=horizon,
        rho=phys.rho,
        masses={t.id: t.mass for t in order},
        admissibility=Admissibility(
            usage_only_while_working=use_ok,
            contribution_only_while_broken=con_ok,
            lifespan_mean_ok=_lifespan_flag(lifespans, phys.lifespan_mean),
        ),
    )


def _emit_poisson(
    trace: IO[str],
    times: Sequence[float],
    tids: np.ndarray,
    broken: np.ndarray,
    used: np.ndarray,
    fixer: np.ndarray,
    break_times: list[float],
    break_pos: list[int],
) -> None:
    """Trace lines of one block in time order; a break comes before the
    arrivals at its instant."""
    out = trace.write
    j = 0
    for i, (t, tid, down, use, fix) in enumerate(
        zip(times, tids, broken.tolist(), used.tolist(), fixer.tolist())
    ):
        while j < len(break_pos) and break_pos[j] <= i:
            out(f"{break_times[j]:.9f}\tBREAK\t-\tB\n")
            j += 1
        out(f"{t:.9f}\tARRIVAL\t{tid}\t{'B' if down else 'W'}\n")
        if use:
            out(f"{t:.9f}\tUSE\t{tid}\tW\n")
        elif fix:
            out(f"{t:.9f}\tCONTRIBUTE\t{tid}\tW\n")
            out(f"{t:.9f}\tFIX\t{tid}\tW\n")
    for t in break_times[j:]:
        out(f"{t:.9f}\tBREAK\t-\tB\n")


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
    _require_horizon(horizon)
    if trace is not None:
        trace.write(TRACE_HEADER + "\n")

    agg_rate = sum(t.mass * pol.sigma_B[t.id] for t in d.types)
    w_start = _WARMUP_LIFESPANS / phys.rho
    w_end = w_start + horizon
    # Each exponential period takes the next standard exponential, in
    # period order; a deterministic one or an endless repair takes none.
    up_exp = phys.lifespan == "exponential"
    down_exp = phys.quantum == "exponential" and agg_rate > 0.0
    per_cycle = up_exp + down_exp
    mean_cycle = phys.lifespan_mean + (
        phys.quantum_mean / agg_rate if agg_rate > 0.0 else math.inf
    )

    t = 0.0
    working_time = 0.0
    lifespans, downs = array("d"), array("d")  # per cycle, in the window
    done = False
    while not done:
        cycles = _block_size((w_end - t) / mean_cycle)
        e = rng.standard_exponential(cycles * per_cycle)
        dur = np.empty(2 * cycles)
        dur[0::2] = phys.lifespan_mean * e[0::per_cycle] if up_exp else phys.lifespan_mean
        if agg_rate <= 0.0:
            dur[1::2] = math.inf
        elif down_exp:
            dur[1::2] = phys.quantum_mean * e[up_exp::per_cycle] / agg_rate
        else:
            dur[1::2] = phys.quantum_mean / agg_rate
        ends = np.concatenate(([t], dur)).cumsum()
        starts, ends = ends[:-1], ends[1:]
        t = float(ends[-1])
        # Period s is the first to reach the end of the window; it is cut
        # there and its closing event never happens.
        s = int(np.searchsorted(ends, w_end))
        done = s < len(ends)
        a = np.maximum(starts[: s + 1 : 2], w_start)
        b = np.minimum(ends[: s + 1 : 2], w_end)
        seg = (b - a)[b > a]
        working_time = float(np.concatenate(([working_time], seg)).cumsum()[-1])

        breaks, fixes = ends[:s:2], ends[1:s:2]
        lifespans.frombytes(dur[:s:2][breaks >= w_start].tobytes())
        downs.frombytes(dur[1:s:2][fixes >= w_start].tobytes())
        if trace is not None:
            for j, tj in enumerate(ends[:s].tolist()):
                trace.write(f"{tj:.9f}\tFIX\t-\tW\n" if j % 2 else f"{tj:.9f}\tBREAK\t-\tB\n")

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
        n_breaks=len(lifespans),
        n_fixes=len(downs),
        n_arrivals=0,
        n_uses=0,
        n_contributions=0,
        lifespan_mean=float(np.add.reduce(lifespans) / len(lifespans)) if lifespans else math.nan,
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
    if not (math.isfinite(sigma_mult) and sigma_mult >= 1.0):
        raise ValueError("sigma_mult must be >= 1 and finite")
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
