"""Step-size resolvers: two function-value and two gradient-only line searches.

All four resolvers consume a :class:`~gols.probe.DirectionalProbe` and return
a :class:`LineSearchOutcome`.  The exact searches (golden section and the
bisecting gradient-only search) open the same bracket from a first step of 5,
grow it by powers of the golden ratio and then refine to a 1e-12 interval;
the inexact pair (Armijo's rule with a decrease fraction of 0.2, and the
doubling/halving gradient-only search) accept the first step that satisfies
their condition, growing or shrinking by a factor of 2.  These are the
source paper's settings and are fixed; the only setting a caller passes is
the information-call budget ``max_info_calls`` of golden section, B-GOLS and
I-GOLS.

Each search is an ask/tell generator.  It yields a list of requests,
each ``("value", alpha)`` or ``("deriv", alpha)``, is sent the list of
their replies, F(alpha) or F'(alpha), in the same order, and returns
``(alpha, reason, intervals)``.  The requests of one list wait on no reply
of each other; a search lists more than one only where it asks several
steps before reading any answer:

- its opening: golden section asks F(0) and the bracket steps of
  :func:`_open_bracket` (2 or 4), B-GOLS the same steps as F', Armijo's
  rule F(0), F'(0) and F(alpha_init), and I-GOLS F'(0) and F'(alpha_init);
- golden section's first inner pair, once its bracket is found.

Every other request is a list of one.  A search reads only the numbers it
is sent and the running count of its requests, which grows by a whole list
at a time, so it checks its budget between lists only.  One wrapper
generator, :func:`_drive`, passes the lists on and counts their requests,
then clamps the returned step into ``[ALPHA_MIN, alpha_max]`` and returns
the :class:`LineSearchOutcome`.  The public searches answer a driven
search through a probe, each list in one round
(:meth:`~gols.probe.DirectionalProbe.ask`), and the probe draws each
request's sample in list order.  :func:`make_search` hands a driven search
out unanswered, so that a caller that answers the requests of many searches
at once can do so: a training run hands its search to the grid with
``yield from``, and the grid's :class:`~gols.probe.LineTable` draws each
request's sample from the run's line.  A request carries no sample.
Callers that resolve steps for steepest descent should pass
``alpha_max=effective_alpha_max(norm(g))`` so that unbounded descent
directions cannot produce runaway steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from gols.probe import EvalCounter, _count

__all__ = [
    "ALPHA_MIN",
    "ALPHA_CAP",
    "RESOLVER_NAMES",
    "LineSearchOutcome",
    "effective_alpha_max",
    "golden_section",
    "armijo",
    "bisection_gols",
    "inexact_gols",
    "make_resolver",
    "make_search",
]

ALPHA_MIN = 1e-8
ALPHA_CAP = 1e7

# The source paper's settings of the four searches.
_DELTA = 5.0                             # first bracketing step of GS and B-GOLS
_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0   # bracket growth and golden-section ratio
_TOL = 1e-12                             # exact searches stop at this interval length
_DECREASE_FRACTION = 0.2                 # ARLS: fraction of the origin slope to beat
_ARMIJO_FACTOR = 2.0                     # ARLS advance/backtrack multiplier
_ETA = 2.0                               # I-GOLS doubling/halving factor
_MAX_INFO_CALLS = 1000                   # default budget of GS, B-GOLS and I-GOLS


@dataclass
class LineSearchOutcome:
    """Accepted step plus the evaluations this search spent.

    ``reason`` is one of ``tolerance`` (condition met), ``cap_min`` /
    ``cap_max`` (step clamped at a bound), or ``budget`` (information-call
    limit hit, best step so far returned).  ``intervals`` records the
    bracketed interval length after each refinement step of the exact
    searches; inexact searches leave it empty.
    """

    alpha: float
    function_evals: int
    gradient_evals: int
    reason: str
    intervals: list = field(default_factory=list)


def effective_alpha_max(gradient_norm: float) -> float:
    """Largest permissible step along a descent direction of this steepness.

    Returns ``min(1 / gradient_norm, ALPHA_CAP)``; a vanishing gradient norm
    keeps the plain cap.  A NaN or infinite norm raises ``ValueError``: it
    has no cap, and an infinite one would give a cap of 0, below
    ``ALPHA_MIN``.
    """
    if not math.isfinite(gradient_norm):
        raise ValueError(f"gradient norm must be finite, not {gradient_norm!r}")
    if gradient_norm < 0:
        raise ValueError("gradient norm cannot be negative")
    if gradient_norm == 0.0:
        return ALPHA_CAP
    return min(1.0 / gradient_norm, ALPHA_CAP)


def _drive(search, alpha_max, *args):
    """``search(spent, alpha_max, *args)`` as a counted, clamped ask/tell
    generator.

    Yields the search's request lists, sends it each list of replies and
    returns the :class:`LineSearchOutcome`.  ``spent`` is the
    :class:`~gols.probe.EvalCounter` of the requests passed on so far;
    searches check their budget against it.
    """
    spent = EvalCounter()
    requests = search(spent, alpha_max, *args)
    try:
        asks = next(requests)
        while True:
            _count(spent, asks)
            asks = requests.send((yield asks))
    except StopIteration as done:
        alpha, reason, intervals = done.value
    if alpha > alpha_max:
        alpha, reason = alpha_max, "cap_max"
    if alpha < ALPHA_MIN:
        alpha, reason = ALPHA_MIN, "cap_min"
    return LineSearchOutcome(alpha, spent.functions, spent.gradients, reason,
                             intervals)


def _answer(probe, requests):
    """Run a driven search to its outcome, answering through ``probe``.

    Each request list is one call of ``probe.ask``, one round of the
    probe's line: the probe counts every request and draws its sample in
    list order, as the grid does for a run, and raises the first
    ``ValueError`` among the replies in list order.  ``probe.ask`` is looked
    up on every list, so a wrapper installed on the class sees each round.
    """
    try:
        asks = next(requests)
        while True:
            asks = requests.send(probe.ask(asks))
    except StopIteration as done:
        return done.value


def _open_bracket(alpha_max):
    """The opening bracket steps of golden section and B-GOLS: ``_DELTA``
    and ``_DELTA + _GOLDEN * _DELTA``, then, when the latter overshoots
    ``alpha_max``, the midpoint of ``[0, alpha_max]`` and ``alpha_max``.

    The first two steps are asked even when they lie beyond the cap, so
    they can spend evaluations at steps the search never accepts (ROADMAP
    item 5).  A search asks them all in one list: the last two steps give
    its bracket, and the first is a point it has seen.
    """
    high = _DELTA + _GOLDEN * _DELTA
    if high > alpha_max:
        return [_DELTA, high, 0.5 * alpha_max, alpha_max]
    return [_DELTA, high]


def _value(point):
    return point[1]


def golden_section(probe, *, alpha_max: float = ALPHA_CAP,
                   max_info_calls: int = _MAX_INFO_CALLS) -> LineSearchOutcome:
    """Exact function-value search: bracket a minimizer, then golden section.

    Bracketing advances from 5 by growing steps ``5 * phi**j`` (``phi`` the
    golden ratio) while the newest value keeps decreasing; refinement then
    shrinks the bracket by the factor ``1/phi`` (about 38% off) per iteration
    until its length falls below 1e-12.  The accepted step is the final
    interval midpoint.  Uses only loss evaluations, never the slope.

    ``max_info_calls`` is checked before each growth or refinement step, not
    before the opening evaluations, so the search can spend a few calls more.
    """
    return _answer(probe, _drive(_golden_section, alpha_max, max_info_calls))


def _golden_section(spent, alpha_max, max_info_calls):
    steps = _open_bracket(alpha_max)
    f0, *values = yield [("value", 0.0)] + [("value", step) for step in steps]
    mid, high = steps[-2:]
    f_mid, f_high = values[-2:]
    # Lowest value seen, earliest first: the step returned when the budget
    # runs out while the bracket grows.
    best = min((0.0, f0), (_DELTA, values[0]), (high, f_high), (mid, f_mid),
               key=_value)

    if f_mid >= f0:
        # First probe already increased: a minimizer sits below mid.
        a, b = 0.0, mid
    else:
        low, j = 0.0, 1
        while f_high < f_mid:
            if spent.info_calls >= max_info_calls:
                return best[0], "budget", []
            low, mid, f_mid = mid, high, f_high
            high = mid + _GOLDEN**j * _DELTA
            j += 1
            if high > alpha_max:
                return high, "cap_max", []
            f_high, = yield [("value", high)]
            best = min(best, (high, f_high), key=_value)
        a, b = low, high

    intervals = []
    inner_low = b - (b - a) / _GOLDEN
    inner_high = a + (b - a) / _GOLDEN
    f_il, f_ih = yield [("value", inner_low), ("value", inner_high)]
    while b - a > _TOL and spent.info_calls < max_info_calls:
        if f_il < f_ih:
            b = inner_high
            inner_high, f_ih = inner_low, f_il
            inner_low = b - (b - a) / _GOLDEN
            f_il, = yield [("value", inner_low)]
        else:
            a = inner_low
            inner_low, f_il = inner_high, f_ih
            inner_high = a + (b - a) / _GOLDEN
            f_ih, = yield [("value", inner_high)]
        intervals.append(b - a)
    reason = "tolerance" if b - a <= _TOL else "budget"
    return 0.5 * (a + b), reason, intervals


def armijo(probe, alpha_init: float, *,
           alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Inexact function-value search enforcing a sufficient-decrease bound.

    A step is acceptable when ``F(alpha) < F(0) + alpha * 0.2 * F'(0)``.  If
    the initial step passes, the step is doubled until the first failure and
    the last passing step returned (largest feasible step); otherwise it is
    halved until the first pass.  Spends exactly one gradient evaluation, at
    the origin.
    """
    return _answer(probe, _drive(_armijo, alpha_max, alpha_init))


def _armijo(spent, alpha_max, alpha_init):
    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    f0, slope0, f_alpha = yield [("value", 0.0), ("deriv", 0.0), ("value", alpha)]

    def acceptable(alpha, value):
        return value < f0 + alpha * _DECREASE_FRACTION * slope0

    if acceptable(alpha, f_alpha):
        while alpha < alpha_max:
            bigger = min(alpha * _ARMIJO_FACTOR, alpha_max)
            f_bigger, = yield [("value", bigger)]
            if not acceptable(bigger, f_bigger):
                return alpha, "tolerance", []
            alpha = bigger
        return alpha, "cap_max", []

    while True:
        alpha = alpha / _ARMIJO_FACTOR
        # A step below ALPHA_MIN ends the search unevaluated; the driver
        # clamps it and reports cap_min.
        if alpha < ALPHA_MIN:
            return alpha, "tolerance", []
        f_alpha, = yield [("value", alpha)]
        if acceptable(alpha, f_alpha):
            return alpha, "tolerance", []


def bisection_gols(probe, *, alpha_max: float = ALPHA_CAP,
                   max_info_calls: int = _MAX_INFO_CALLS) -> LineSearchOutcome:
    """Exact gradient-only search: bisect the slope's negative-to-positive
    sign change.

    Brackets with the golden section search's growing steps from 5, but
    watches only the sign of the directional derivative; a zero slope counts
    as non-negative, so the sign change is considered found.  Refinement
    keeps a three-point pattern and halves the interval per iteration until
    its length falls below 1e-12.  Uses only gradient evaluations.
    ``max_info_calls`` is checked as in :func:`golden_section`.
    """
    return _answer(probe, _drive(_bisection_gols, alpha_max, max_info_calls))


def _bisection_gols(spent, alpha_max, max_info_calls):
    steps = _open_bracket(alpha_max)
    *_, mid_slope, high_slope = yield [("deriv", step) for step in steps]
    mid, high = steps[-2:]
    j = 1
    while high_slope < 0 and spent.info_calls < max_info_calls:
        mid, mid_slope = high, high_slope
        high = mid + _GOLDEN**j * _DELTA
        j += 1
        high_slope, = yield [("deriv", high)]
        if high > alpha_max:
            return high, "cap_max", []

    intervals = []
    low = 0.0
    length = high - low
    while (length > _TOL and high > ALPHA_MIN
           and spent.info_calls < max_info_calls):
        if mid_slope < 0 and high_slope >= 0:
            low = mid
        elif mid_slope >= 0:
            high, high_slope = mid, mid_slope
        length = high - low
        mid = low + 0.5 * length
        mid_slope, = yield [("deriv", mid)]
        intervals.append(length)

    if length <= _TOL:
        reason = "tolerance"
    elif high <= ALPHA_MIN:
        reason = "cap_min"
    else:
        reason = "budget"
    return 0.5 * (high + low), reason, intervals


def inexact_gols(probe, alpha_init: float, *, alpha_max: float = ALPHA_CAP,
                 max_info_calls: int = _MAX_INFO_CALLS) -> LineSearchOutcome:
    """Inexact gradient-only search by doubling or halving the step.

    The acceptance band is ``|F'(0)|``: a slope above it triggers halving
    until the slope drops below the band; a slope below it triggers doubling
    until the slope first exceeds the band, after which the step is halved
    once.  A slope exactly on the band keeps the current behaviour (and
    accepts the initial step immediately).  Uses only gradient evaluations.
    ``max_info_calls`` is checked before each doubling or halving.
    """
    return _answer(probe, _drive(_inexact_gols, alpha_max, alpha_init, max_info_calls))


def _inexact_gols(spent, alpha_max, alpha_init, max_info_calls):
    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    slope0, slope = yield [("deriv", 0.0), ("deriv", alpha)]
    band = abs(slope0)
    if slope == band:
        return alpha, "tolerance", []

    halve = slope > band
    while spent.info_calls < max_info_calls:
        if halve:
            alpha = alpha / _ETA
            slope, = yield [("deriv", alpha)]
            done = slope < band
        else:
            alpha = alpha * _ETA
            slope, = yield [("deriv", alpha)]
            done = slope > band
            if done:
                alpha = alpha / _ETA
        # A step outside the bounds ends the search; the driver clamps it
        # and reports cap_min or cap_max.
        if done or not ALPHA_MIN <= alpha <= alpha_max:
            return alpha, "tolerance", []
    return alpha, "budget", []


_SEARCHES = {
    "gs": lambda alpha_init, alpha_max: _drive(
        _golden_section, alpha_max, _MAX_INFO_CALLS),
    "arls": lambda alpha_init, alpha_max: _drive(_armijo, alpha_max, alpha_init),
    "bgols": lambda alpha_init, alpha_max: _drive(
        _bisection_gols, alpha_max, _MAX_INFO_CALLS),
    "igols": lambda alpha_init, alpha_max: _drive(
        _inexact_gols, alpha_max, alpha_init, _MAX_INFO_CALLS),
}
RESOLVER_NAMES = tuple(_SEARCHES)


def make_search(name: str):
    """Map a resolver name to an ``(alpha_init, alpha_max) -> search``
    factory.

    A search is a generator that yields lists of ``("value", alpha)`` and
    ``("deriv", alpha)`` requests, takes the list of their replies, F(alpha)
    or F'(alpha) in the same order, and returns its
    :class:`LineSearchOutcome`; the requests of one list do not depend on
    each other's replies.  The exact searches run with their default
    budget.  A custom resolver of :func:`gols.trainer.sgd_train` and
    :class:`gols.trainer.TrainConfig` is a factory of this type, and a run
    drives it as it drives a named one.  Accepted names: those of
    :data:`RESOLVER_NAMES` and ``fixed:<alpha>``.  The fixed resolver is a
    zero-cost oracle that asks nothing and returns the given constant step
    unconditionally, bypassing the step caps; the step must be finite and
    non-negative, since a negative one ascends.
    """
    if name in _SEARCHES:
        return _SEARCHES[name]
    if name.startswith("fixed:"):
        try:
            value = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed step size in resolver {name!r}") from None
        if not 0.0 <= value < math.inf:
            raise ValueError("fixed step size must be finite and non-negative")
        return lambda alpha_init, alpha_max: _fixed_step(value)
    raise ValueError(
        f"unknown resolver {name!r}; choose one of {RESOLVER_NAMES} or fixed:<alpha>"
    )


def _fixed_step(alpha):
    return LineSearchOutcome(alpha=alpha, function_evals=0, gradient_evals=0,
                             reason="tolerance")
    yield  # a search that asks nothing


def make_resolver(name: str):
    """Map a resolver name (see :func:`make_search`) to a uniform
    ``(probe, alpha_init, alpha_max) -> LineSearchOutcome`` callable that
    answers the search through the probe."""
    search = make_search(name)
    return lambda probe, alpha_init, alpha_max: _answer(
        probe, search(alpha_init, alpha_max))
