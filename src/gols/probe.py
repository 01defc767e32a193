"""Directional probes: the univariate loss F(alpha) along a search direction.

A probe freezes an origin point and a direction and exposes the loss and the
directional derivative as functions of the step size alpha, while counting
every evaluation.  The underlying objective is either a network over a data
partition (:class:`BatchObjective`) or an analytic test problem
(:class:`SyntheticObjective`); both speak the same interface
``loss(x, sample)`` / ``grad(x, sample)`` where ``sample`` selects the
sub-sampling realization and ``None`` means no sub-sampling at all, plus two
stacked forms that evaluate many points, each with its own sample:
``losses(points, samples)`` and ``losses_and_gradients(points, samples)``.
The samples of one stacked call are either all ``None`` or all of one shape.
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

# Most stacked rows one block of a BatchObjective stacked call evaluates.  It
# bounds the working set: a 101-node iris scan peaks at 215-400 KiB of
# allocations (tracemalloc) at batch sizes 10, 50 and full.
_BLOCK_ROWS = 1024


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

    def losses(self, points, samples):
        """Loss at each row of ``points``, evaluated on the matching entry of
        ``samples``, from the forward pass alone."""
        values = np.empty(len(points))
        for block, inputs, targets in self._stacks(samples):
            values[block] = self.net.losses(points[block], inputs, targets)
        return values

    def losses_and_gradients(self, points, samples):
        """Loss and gradient at each row of ``points``, evaluated on the
        matching entry of ``samples``."""
        values, grads = np.empty(len(points)), np.empty(np.shape(points))
        for block, inputs, targets in self._stacks(samples):
            values[block], grads[block] = self.net.losses_and_gradients(
                points[block], inputs, targets)
        return values, grads

    def _stacks(self, samples):
        """``(block, inputs, targets)`` for consecutive blocks of at most
        ``_BLOCK_ROWS`` stacked rows, at least one point per block.

        The samples are either all ``None`` (the whole matrix, broadcast to
        every point rather than copied) or row-index arrays of one size.
        """
        if all(sample is None for sample in samples):
            index, rows = None, self.num_rows
            inputs, targets = self.inputs[None], self.targets[None]
        else:
            index = np.array(samples)
            rows = index.shape[1]
        per_block = max(1, _BLOCK_ROWS // rows)
        for start in range(0, len(samples), per_block):
            block = slice(start, start + per_block)
            if index is not None:
                inputs, targets = self.inputs[index[block]], self.targets[index[block]]
            yield block, inputs, targets


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

    def losses(self, points, samples):
        """:meth:`loss` point by point."""
        return np.array([self.loss(x, sample) for x, sample in zip(points, samples)],
                        dtype=float)

    def losses_and_gradients(self, points, samples):
        """:meth:`loss` and :meth:`grad` point by point, one gradient row each."""
        grads = [self.grad(x, sample) for x, sample in zip(points, samples)]
        return self.losses(points, samples), np.array(grads, dtype=float)


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

    :meth:`serve` relays a line search's requests to a caller that
    evaluates losses and gradients, as :mod:`gols.trainer` does for a whole
    grid of runs at once, and takes each F' itself.  :meth:`scan` evaluates
    F and F' at a whole grid of step sizes in one stacked call, in blocks of
    at most 1024 batch rows for a :class:`BatchObjective`.  It draws the node samples in node order, the
    same draws as a :meth:`value_and_deriv` loop over the grid, and runs the
    same forward pass and backprop (:mod:`gols.net`).  F and F' could differ
    from that loop's in the last bits only where numpy sums a stacked matrix
    product in another order than a single one; with numpy 2.4 on x86-64
    they are bit-identical on every node compared.
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

    def _draw(self, kind, alpha):
        """Point and sample of one ``value`` or ``deriv`` evaluation, counted."""
        point = self._point(alpha)
        if kind == "value":
            self.counter.functions += 1
        else:
            self.counter.gradients += 1
        return point, self._sample()

    def value(self, alpha) -> float:
        """F(alpha) under the probe's sampling policy; counts one loss eval."""
        point, sample = self._draw("value", alpha)
        return _finite("F", alpha, self.model.loss(point, sample))

    def deriv(self, alpha) -> float:
        """F'(alpha), the gradient projected onto the direction; counts one
        gradient eval."""
        point, sample = self._draw("deriv", alpha)
        return _finite("F'", alpha, self.model.grad(point, sample) @ self.direction)

    def serve(self, requests):
        """Relay a line search's requests to the caller as objective
        evaluations.

        ``requests`` is an ask/tell search (see
        :func:`gols.linesearch.make_search`).  Each of its ``(kind, alpha)``
        requests is counted, and its sample drawn, as :meth:`value` or
        :meth:`deriv` would do it, then yielded on as ``("value", point,
        sample)`` or, for a ``deriv``, ``("grad", point, sample)``.  The
        caller replies with the loss or the gradient at ``point`` on
        ``sample``; the probe takes F' from a gradient as :meth:`deriv`
        does, checks F or F' as :meth:`value` and :meth:`deriv` check theirs
        and sends it to the search.  Returns what the search returns.
        """
        try:
            kind, alpha = next(requests)
            while True:
                point, sample = self._draw(kind, alpha)
                if kind == "value":
                    reply = _finite("F", alpha, (yield "value", point, sample))
                else:
                    gradient = yield "grad", point, sample
                    reply = _finite("F'", alpha, gradient @ self.direction)
                kind, alpha = requests.send(reply)
        except StopIteration as done:
            return done.value

    def value_and_deriv(self, alpha):
        """F and F' at one step size sharing a single sample draw."""
        point = self._point(alpha)
        sample = self._sample()
        self.counter.functions += 1
        self.counter.gradients += 1
        value = _finite("F", alpha, self.model.loss(point, sample))
        slope = _finite("F'", alpha, self.model.grad(point, sample) @ self.direction)
        return value, slope

    def scan(self, alphas):
        """F and F' at every step size of ``alphas``, one sample draw per node.

        Counts one loss and one gradient eval per node, as a
        :meth:`value_and_deriv` loop over ``alphas`` does, and names the first
        node, in grid order, whose F or F' is non-finite.
        """
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("step sizes must form a 1-d grid")
        if not np.all(np.isfinite(alphas)):
            raise ValueError("step size must be finite")
        samples = [self._sample() for _ in alphas]
        points = self.origin + alphas[:, None] * self.direction
        self.counter.functions += len(alphas)
        self.counter.gradients += len(alphas)
        values, grads = self.model.losses_and_gradients(points, samples)
        slopes = np.vecdot(grads, self.direction)
        bad = ~(np.isfinite(values) & np.isfinite(slopes))
        if bad.any():
            i = int(np.argmax(bad))
            _finite("F", alphas[i], values[i])
            _finite("F'", alphas[i], slopes[i])
        return values, slopes


def _finite(name, alpha, number) -> float:
    number = float(number)
    if not math.isfinite(number):
        raise ValueError(f"non-finite {name}({float(alpha)!r}) = {number!r}")
    return number
