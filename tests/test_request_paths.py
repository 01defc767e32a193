"""A search answered through a probe ends as it does on a one-row grid.

Both paths answer each request list of a search in one round of
``LineTable.answer``, drawing one sample per request in list order, so on
any line, noisy, flat, monotone or turning NaN, they give the same outcome
or the same error after the same number of draws.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gols.linesearch import ALPHA_MIN, RESOLVER_NAMES, make_resolver, make_search
from gols.probe import DirectionalProbe, KeyStream, LineTable, SyntheticObjective
from gols.trainer import _lockstep


def bowl(a):
    return 0.5 * (a - 2.5) ** 2


def bowl_slope(a):
    return a - 2.5


# Each line shape, given the drawn step ``cut``: F, F' and the scales of the
# jump noise on each.  Only the NaN line reads ``cut``.
SHAPES = {
    "noisy_value": lambda cut: (bowl, bowl_slope, 0.05, 0.0),
    "noisy_slope": lambda cut: (bowl, bowl_slope, 0.0, 0.05),
    "flat": lambda cut: (lambda a: 1.0, lambda a: 0.0, 0.0, 0.0),
    "ascent": lambda cut: (lambda a: a, lambda a: 1.0, 0.0, 0.0),
    "descent": lambda cut: (lambda a: -a, lambda a: -1.0, 0.0, 0.0),
    "nan_past_cut": lambda cut: (lambda a: -a if a <= cut else math.nan,
                                 lambda a: -1.0 if a <= cut else math.nan, 0.0, 0.0),
}


class CountingKeys(KeyStream):
    """A key stream that counts its draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def sample(self):
        self.draws += 1
        return super().sample()


def line(shape, cut):
    func, slope, noise_value, noise_grad = SHAPES[shape](cut)
    return SyntheticObjective(lambda x: func(x[0]), lambda x: np.array([slope(x[0])]),
                              noise_value=noise_value, noise_grad=noise_grad)


def summary(outcome):
    return (outcome.alpha, outcome.function_evals, outcome.gradient_evals,
            outcome.reason, outcome.intervals)


def on_probe(model, name, seed, alpha_init, alpha_max):
    """``(outcome summary or error message, draws, probe)`` of the search of
    ``name`` through a resample probe."""
    keys = CountingKeys(seed)
    probe = DirectionalProbe(model, np.zeros(1), np.ones(1), sampler=keys)
    try:
        result = summary(make_resolver(name)(probe, alpha_init, alpha_max))
    except ValueError as exc:
        result = str(exc)
    return result, keys.draws, probe


def on_grid(model, name, seed, alpha_init, alpha_max):
    """``(outcome summary or error message, draws)`` of the bare search of
    ``name`` on a one-row line table whose draw is the same kind of stream."""
    keys = CountingKeys(seed)
    lines = LineTable(1, 1)
    lines.set(0, np.zeros(1), np.ones(1), keys.sample)
    try:
        outcome, = _lockstep(model, lines, [make_search(name)(alpha_init, alpha_max)])
        result = summary(outcome)
    except ValueError as exc:
        result = str(exc)
    return result, keys.draws


class TestProbeEqualsGrid:
    @given(shape=st.sampled_from(sorted(SHAPES)), cut=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1), alpha_init=st.floats(ALPHA_MIN, 1e7),
           alpha_max=st.floats(1e-6, 1e7))
    @settings(max_examples=60, deadline=None)
    def test_same_outcome_error_and_draws(self, shape, cut, seed, alpha_init, alpha_max):
        model = line(shape, cut)
        for name in RESOLVER_NAMES:
            result, draws, probe = on_probe(model, name, seed, alpha_init, alpha_max)
            assert (result, draws) == on_grid(model, name, seed, alpha_init, alpha_max)
            assert on_probe(model, name, seed, alpha_init, alpha_max)[:2] == (result, draws)
            if isinstance(result, tuple):
                alpha, functions, gradients, _, _ = result
                assert (probe.counter.functions, probe.counter.gradients) == (
                    functions, gradients)
                assert ALPHA_MIN <= alpha <= alpha_max
