"""Participation constraints reshape who carries the upkeep burden.

When members can walk away, nobody may be pushed below the value of
leaving.  Contributions shift from middle-cost members to members who
value access highly, cut exactly to the point where constrained members
are indifferent to leaving.  Curiously, the uptime can end up higher
than in the unconstrained optimum.
"""

import numpy as np

from upkeep import (
    AgentType,
    TypeDistribution,
    classify_interval,
    solve_first_best,
    solve_participation,
)

group = TypeDistribution(
    (
        AgentType("casual", u=3.0, c=3.0, mass=1.0),
        AgentType("regular", u=4.0, c=2.0, mass=1.0),
        AgentType("devoted", u=10.0, c=1.25, mass=1.0),
    )
)
rho = 5.5

fb = solve_first_best(group, rho)
sol = solve_participation(group, rho)

print(f"unconstrained:  y = {fb.y_fb:.4f}  Q = {fb.Q_fb:.4f}  W = {fb.W_fb:.4f}")
print(f"participation:  y = {sol.y_star:.4f}  Q = {sol.Q_star:.4f}  W = {sol.W_star:.4f}")
print()
print(f"the repair value rises ({sol.y_star:.4f} > {fb.y_fb:.4f}) because fixing")
print("the machine also relaxes participation constraints, and here the")
print(f"uptime rises too ({sol.Q_star:.4f} > {fb.Q_fb:.4f}).")
print()

print("type      class     P(unconstrained)  P(participation)  utility")
for t in group.types:
    print(
        f"{t.id:8s}  {sol.classes[t.id]:8s}  {fb.mechanism.P[t.id]:16.4f}"
        f"  {sol.mechanism.P[t.id]:16.4f}"
        f"  {sol.Q_star * t.u - sol.mechanism.P[t.id] * t.c:+.4f}"
    )

report = classify_interval(sol, group)
print()
print(f"bound types {report.bound_ids} form a contiguous cost band")
print(f"{report.cost_span} that covers the unconstrained threshold {fb.y_fb:.3f}.")
print()

print("Uptime never rises with the breakage rate:")
print("rho      Q*")
for r in np.geomspace(1.0, 30.0, 6):
    s = solve_participation(group, float(r))
    print(f"{r:6.2f}  {s.Q_star:.4f}")
