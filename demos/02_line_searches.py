"""Run all four step-size resolvers on one deterministic quadratic.

The probe follows the steepest-descent direction of f(x) = 0.5 ||x - c||^2
from the origin, so F(alpha) = 0.5 ||c||^2 (1 - alpha)^2 with its minimizer
at alpha = 1.  The exact searches should land on 1 to high precision; the
inexact ones should land nearby at a fraction of the evaluations.
"""

import numpy as np

from gols import DirectionalProbe, SyntheticObjective, make_resolver

center = np.array([0.6, 0.8])
model = SyntheticObjective(
    func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
    grad_func=lambda x: x - center,
)

print(f"{'resolver':8s} {'alpha':>14s} {'|alpha-1|':>10s} {'f evals':>8s} "
      f"{'g evals':>8s} {'cost':>6s} {'reason':>10s}")
for name in ("gs", "arls", "bgols", "igols"):
    probe = DirectionalProbe(model, np.zeros(2), center, policy="full")
    out = make_resolver(name)(probe, 1e-8, 1e7)
    print(f"{name:8s} {out.alpha:14.9f} {abs(out.alpha - 1):10.2e} "
          f"{out.function_evals:8d} {out.gradient_evals:8d} {probe.counter.cost:6d} "
          f"{out.reason:>10s}")
