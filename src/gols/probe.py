"""Directional probes: the univariate loss F(alpha) along a search direction.

A probe freezes an origin point and a direction and exposes the loss and the
directional derivative as functions of the step size alpha, while counting
every evaluation.  The underlying objective is either a network over a data
partition (:class:`BatchObjective`) or an analytic test problem
(:class:`SyntheticObjective`); both speak the same two-method interface
``loss(x, sample)`` / ``grad(x, sample)`` where ``sample`` selects the
sub-sampling realization and ``None`` means no sub-sampling at all.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "POLICIES",
    "EvalCounter",
    "BatchObjective",
    "SyntheticObjective",
    "KeyStream",
    "DirectionalProbe",
]

# resample: fresh sample per evaluation (the stochastic, discontinuous view)
# fixed:    one sample frozen for the probe's lifetime (smooth single-batch view)
# full:     no sub-sampling (deterministic reference view)
POLICIES = ("resample", "fixed", "full")


class EvalCounter:
    """Tally of loss and gradient evaluations.

    Cost is expressed in function-evaluation units where a gradient costs
    twice a loss; an information call counts either kind as one.
    """

    def __init__(self):
        self.functions = 0
        self.gradients = 0

    @property
    def cost(self) -> int:
        return self.functions + 2 * self.gradients

    @property
    def info_calls(self) -> int:
        return self.functions + self.gradients

    def snapshot(self):
        return (self.functions, self.gradients)

    def __repr__(self):
        return f"EvalCounter(functions={self.functions}, gradients={self.gradients})"


class BatchObjective:
    """Network loss/gradient over rows of a fixed feature/target matrix.

    ``sample`` is an array of row indices (for example from a
    ``BatchSampler``); ``None`` evaluates the whole matrix.
    """

    def __init__(self, net, inputs, targets):
        self.net = net
        self.inputs = np.asarray(inputs, dtype=float)
        self.targets = np.asarray(targets, dtype=float)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on row count")

    @property
    def num_rows(self) -> int:
        return self.inputs.shape[0]

    def loss(self, params, sample=None) -> float:
        if sample is None:
            return self.net.loss(params, self.inputs, self.targets)
        return self.net.loss(params, self.inputs[sample], self.targets[sample])

    def grad(self, params, sample=None) -> np.ndarray:
        if sample is None:
            return self.net.gradient(params, self.inputs, self.targets)
        return self.net.gradient(params, self.inputs[sample], self.targets[sample])


class SyntheticObjective:
    """Analytic objective with optional per-sample jump noise.

    ``func``/``grad_func`` evaluate the noiseless problem.  When a sample key
    (any non-negative integer) is supplied and a noise scale is nonzero, a
    seeded offset is added, so re-evaluating with a fresh key reproduces the
    step discontinuities that data sub-sampling causes, while the same key
    always yields the same realization.
    """

    def __init__(self, func, grad_func, noise_value=0.0, noise_grad=0.0):
        self.func = func
        self.grad_func = grad_func
        self.noise_value = float(noise_value)
        self.noise_grad = float(noise_grad)

    def loss(self, x, sample=None) -> float:
        value = float(self.func(x))
        if sample is not None and self.noise_value:
            rng = np.random.default_rng([int(sample), 0])
            value += self.noise_value * rng.standard_normal()
        return value

    def grad(self, x, sample=None) -> np.ndarray:
        g = np.asarray(self.grad_func(x), dtype=float)
        if sample is not None and self.noise_grad:
            rng = np.random.default_rng([int(sample), 1])
            g = g + self.noise_grad * rng.standard_normal(g.shape)
        return g


class KeyStream:
    """Sampler-compatible stream of integer sample keys.

    Pairs a :class:`SyntheticObjective` with the resample/fixed probe
    policies the way a ``BatchSampler`` does for a :class:`BatchObjective`.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def sample(self) -> int:
        return int(self._rng.integers(0, 2**63))


class DirectionalProbe:
    """F(alpha) = loss at ``origin + alpha * direction``, with accounting.

    The direction is used exactly as given (unnormalized).  Counters only
    ever increase.  A non-finite F or F' raises ``ValueError`` rather than
    reach a search, whose comparisons a NaN would silently steer.
    """

    def __init__(self, model, origin, direction, policy="resample",
                 sampler=None, fixed_sample=None):
        self.model = model
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if self.origin.shape != self.direction.shape:
            raise ValueError("origin and direction must have the same shape")
        norm = float(np.linalg.norm(self.direction))
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must have a finite, nonzero norm")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self._sampler = sampler
        if policy == "resample" and sampler is None:
            raise ValueError("resample policy needs a sampler")
        if policy == "fixed":
            if fixed_sample is None:
                if sampler is None:
                    raise ValueError("fixed policy needs a sampler or a fixed_sample")
                fixed_sample = sampler.sample()
            self.fixed_sample = fixed_sample
        else:
            self.fixed_sample = None
        self.counter = EvalCounter()

    def _point(self, alpha):
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise ValueError("step size must be finite")
        return self.origin + alpha * self.direction

    def _sample(self):
        if self.policy == "full":
            return None
        if self.policy == "fixed":
            return self.fixed_sample
        return self._sampler.sample()

    def value(self, alpha) -> float:
        """F(alpha) under the probe's sampling policy; counts one loss eval."""
        point = self._point(alpha)
        self.counter.functions += 1
        return _finite("F", alpha, self.model.loss(point, self._sample()))

    def deriv(self, alpha) -> float:
        """F'(alpha), the gradient projected onto the direction; counts one
        gradient eval."""
        point = self._point(alpha)
        self.counter.gradients += 1
        return _finite("F'", alpha,
                       self.model.grad(point, self._sample()) @ self.direction)

    def value_and_deriv(self, alpha):
        """F and F' at one step size sharing a single sample draw."""
        point = self._point(alpha)
        sample = self._sample()
        self.counter.functions += 1
        self.counter.gradients += 1
        value = _finite("F", alpha, self.model.loss(point, sample))
        slope = _finite("F'", alpha, self.model.grad(point, sample) @ self.direction)
        return value, slope


def _finite(name, alpha, number) -> float:
    number = float(number)
    if not math.isfinite(number):
        raise ValueError(f"non-finite {name}({alpha!r}) = {number!r}")
    return number
