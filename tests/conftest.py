import numpy as np
import pytest

from gols.linesearch import armijo, bisection_gols, golden_section, inexact_gols
from gols.probe import DirectionalProbe, EvalCounter, SyntheticObjective

# Each resolver name's public search on a probe, given the arguments of the
# name's search factory (``make_search(name)(alpha_init, alpha_max)``).
PUBLIC = {
    "gs": lambda probe, alpha_init, alpha_max: golden_section(
        probe, alpha_max=alpha_max),
    "arls": lambda probe, alpha_init, alpha_max: armijo(
        probe, alpha_init, alpha_max=alpha_max),
    "bgols": lambda probe, alpha_init, alpha_max: bisection_gols(
        probe, alpha_max=alpha_max),
    "igols": lambda probe, alpha_init, alpha_max: inexact_gols(
        probe, alpha_init, alpha_max=alpha_max),
}


def make_1d_probe(func, grad, **probe_kwargs):
    """Probe with origin 0 and direction +1, so F(alpha) = func(alpha)."""
    model = SyntheticObjective(
        func=lambda x: float(func(x[0])),
        grad_func=lambda x: np.array([grad(x[0])]),
    )
    probe_kwargs.setdefault("policy", "full")
    return DirectionalProbe(model, np.zeros(1), np.ones(1), **probe_kwargs)


def make_quadratic_probe(distance=1.0):
    """Steepest-descent probe on 0.5*||x - c||^2 with ||x0 - c|| = distance.

    Closed forms: F(alpha) = 0.5 * distance**2 * (1 - alpha)**2 and
    F'(alpha) = distance**2 * (alpha - 1); the minimizer is alpha = 1.
    """
    center = np.array([0.6, 0.8]) * distance
    model = SyntheticObjective(
        func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        grad_func=lambda x: x - center,
    )
    x0 = np.zeros(2)
    return DirectionalProbe(model, x0, -model.grad(x0), policy="full")


class PointProbe:
    """Reference for :class:`DirectionalProbe`, independent of its stacked
    path: F and F' from the objective's one-point ``loss`` and ``grad`` at
    ``origin + alpha * direction``, one point at a time, with the probe's
    sampling policies, counters and errors."""

    def __init__(self, model, origin, direction, policy="resample", sampler=None,
                 fixed_sample=None):
        self.model, self.policy, self.sampler = model, policy, sampler
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if policy == "fixed" and fixed_sample is None:
            fixed_sample = sampler.sample()
        self.fixed_sample = fixed_sample
        self.counter = EvalCounter()

    def _sample(self):
        if self.policy == "full":
            return None
        return self.fixed_sample if self.policy == "fixed" else self.sampler.sample()

    def _evaluate(self, alpha, value, slope):
        point, sample = self.origin + float(alpha) * self.direction, self._sample()
        self.counter.functions += value
        self.counter.gradients += slope
        numbers = [("F", self.model.loss(point, sample))] if value else []
        if slope:
            numbers.append(("F'", self.model.grad(point, sample) @ self.direction))
        for name, number in numbers:
            if not np.isfinite(number):
                raise ValueError(f"non-finite {name}({float(alpha)!r}) = {float(number)!r}")
        return [float(number) for _, number in numbers]

    def value(self, alpha):
        return self._evaluate(alpha, True, False)[0]

    def deriv(self, alpha):
        return self._evaluate(alpha, False, True)[0]

    def value_and_deriv(self, alpha):
        return tuple(self._evaluate(alpha, True, True))

    def ask(self, requests):
        """The replies to a search's request list, one request at a time
        through :meth:`value` and :meth:`deriv`, in list order."""
        answer = {"value": self.value, "deriv": self.deriv}
        return [answer[kind](alpha) for kind, alpha in requests]


@pytest.fixture
def quadratic_probe():
    return make_quadratic_probe()
