"""A public search answered through a probe ends as the search of its name
(``make_search``) does on a one-row grid.

Both paths answer each request list of a search in one round of
``LineTable.answer``, which checks the list before it draws anything of it
and then draws one sample per request in list order, so on any line, noisy,
flat, monotone or turning NaN, they give the same outcome or the same error
after the same number of draws.  On both, no search asks a step outside
``[0, alpha_max]``, and one given a budget of at least its opening list asks
no more requests than the budget.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gols.linesearch import (
    ALPHA_MIN,
    RESOLVER_NAMES,
    _bisection_gols,
    _drive,
    _golden_section,
    _inexact_gols,
    bisection_gols,
    golden_section,
    inexact_gols,
    make_search,
)
from gols.probe import DirectionalProbe, KeyStream, LineTable, SyntheticObjective
from gols.trainer import _lockstep

from conftest import PUBLIC


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


def on_probe(model, resolve, seed):
    """``(outcome summary or error message, draws, probe, steps)`` of
    ``resolve(probe)``, a public search, through a resample probe; ``steps``
    are the steps of the requests the probe is asked."""
    keys = CountingKeys(seed)
    probe = DirectionalProbe(model, np.zeros(1), np.ones(1), sampler=keys)
    steps = []
    ask = probe.ask
    probe.ask = lambda requests: steps.extend(alpha for _, alpha in requests) or ask(requests)
    try:
        result = summary(resolve(probe))
    except ValueError as exc:
        result = str(exc)
    return result, keys.draws, probe, steps


def recording(search, steps):
    """``search``, appending the step of each request it yields to ``steps``."""
    replies = None
    try:
        while True:
            asks = search.send(replies)
            steps.extend(alpha for _, alpha in asks)
            replies = yield asks
    except StopIteration as done:
        return done.value


def on_grid(model, search, seed):
    """``(outcome summary or error message, draws, steps)`` of the bare
    ``search`` on a one-row line table whose draw is the same kind of
    stream; ``steps`` are the steps of the requests it yields."""
    keys = CountingKeys(seed)
    lines = LineTable(1, 1)
    lines.set(0, np.zeros(1), np.ones(1), keys.sample)
    steps = []
    try:
        outcome, = _lockstep(model, lines, [recording(search, steps)])
        result = summary(outcome)
    except ValueError as exc:
        result = str(exc)
    return result, keys.draws, steps


def budgeted(name, alpha_init, alpha_max, budget):
    """The search of ``name`` with ``max_info_calls=budget``: the public
    search of a probe, and the bare search."""
    if name == "gs":
        return (lambda probe: golden_section(
                    probe, alpha_max=alpha_max, max_info_calls=budget),
                _drive(_golden_section, alpha_max, budget))
    if name == "bgols":
        return (lambda probe: bisection_gols(
                    probe, alpha_max=alpha_max, max_info_calls=budget),
                _drive(_bisection_gols, alpha_max, budget))
    return (lambda probe: inexact_gols(
                probe, alpha_init, alpha_max=alpha_max, max_info_calls=budget),
            _drive(_inexact_gols, alpha_max, budget, alpha_init))


# The smallest budget of each search that takes one: its opening list.
OPENING = {"gs": 3, "bgols": 2, "igols": 2}


def within(steps, alpha_max):
    return all(0.0 <= alpha <= alpha_max for alpha in steps)


class TestProbeEqualsGrid:
    @given(shape=st.sampled_from(sorted(SHAPES)), cut=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1), alpha_init=st.floats(ALPHA_MIN, 1e7),
           alpha_max=st.floats(1e-6, 1e7))
    @settings(max_examples=60, deadline=None)
    def test_same_outcome_error_and_draws(self, shape, cut, seed, alpha_init, alpha_max):
        model = line(shape, cut)
        for name in RESOLVER_NAMES:
            resolve = lambda probe: PUBLIC[name](probe, alpha_init, alpha_max)
            result, draws, probe, steps = on_probe(model, resolve, seed)
            grid = on_grid(model, make_search(name)(alpha_init, alpha_max), seed)
            assert grid == (result, draws, steps)
            assert on_probe(model, resolve, seed)[:2] == (result, draws)
            assert within(steps, alpha_max)
            if isinstance(result, tuple):
                alpha, functions, gradients, _, _ = result
                assert (probe.counter.functions, probe.counter.gradients) == (
                    functions, gradients)
                assert ALPHA_MIN <= alpha <= alpha_max

    @given(shape=st.sampled_from(sorted(SHAPES)), cut=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1), alpha_init=st.floats(ALPHA_MIN, 1e7),
           alpha_max=st.floats(1e-6, 1e7), extra=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_budget_is_a_hard_maximum(self, shape, cut, seed, alpha_init, alpha_max,
                                      extra):
        model = line(shape, cut)
        for name in sorted(OPENING):
            budget = OPENING[name] + extra
            resolve, search = budgeted(name, alpha_init, alpha_max, budget)
            result, draws, probe, steps = on_probe(model, resolve, seed)
            assert on_grid(model, search, seed) == (result, draws, steps)
            assert within(steps, alpha_max)
            assert len(steps) == probe.counter.info_calls <= budget
