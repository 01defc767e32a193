"""Run all four step-size resolvers on one deterministic quadratic.

The probe follows the steepest-descent direction of f(x) = 0.5 ||x - c||^2
from the origin, so F(alpha) = 0.5 ||c||^2 (1 - alpha)^2 with its minimizer
at alpha = 1.  The exact searches should land on 1 to high precision; the
inexact ones should land nearby at a fraction of the evaluations.
"""

import numpy as np

from gols import (DirectionalProbe, SyntheticObjective, armijo, bisection_gols,
                  golden_section, inexact_gols)

center = np.array([0.6, 0.8])
model = SyntheticObjective(
    func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
    grad_func=lambda x: x - center,
)

# The inexact searches start from the smallest step, 1e-8; every search may
# step up to the default cap of 1e7.
SEARCHES = {
    "gs": golden_section,
    "arls": lambda probe: armijo(probe, 1e-8),
    "bgols": bisection_gols,
    "igols": lambda probe: inexact_gols(probe, 1e-8),
}

print(f"{'resolver':8s} {'alpha':>14s} {'|alpha-1|':>10s} {'f evals':>8s} "
      f"{'g evals':>8s} {'cost':>6s} {'reason':>10s}")
for name, search in SEARCHES.items():
    probe = DirectionalProbe(model, np.zeros(2), center, policy="full")
    out = search(probe)
    print(f"{name:8s} {out.alpha:14.9f} {abs(out.alpha - 1):10.2e} "
          f"{out.function_evals:8d} {out.gradient_evals:8d} {probe.counter.cost:6d} "
          f"{out.reason:>10s}")
