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
I-GOLS.  No search asks a step beyond ``alpha_max``, and the budget is a
hard maximum.

Each search is an ask/tell generator.  It yields a list of requests,
each ``("value", alpha)`` or ``("deriv", alpha)``, is sent the list of
their replies, F(alpha) or F'(alpha), in the same order, and returns
``(alpha, reason, intervals)``.  The requests of one list wait on no reply
of each other; a search lists more than one only where it asks several
steps before reading any answer:

- its opening: golden section asks F(0) and the two bracket steps of
  :func:`_open_bracket`, B-GOLS the same steps as F', Armijo's rule F(0),
  F'(0) and F(alpha_init), and I-GOLS F'(0) and F'(alpha_init);
- golden section's first inner pair, once its bracket is found.

Every other request is a list of one.  Golden section and B-GOLS grow
their bracket in one shared loop, :func:`_grow`.  A search reads only the
numbers it is sent and holds no count: it yields each list with a
fallback, the result it would return if the list were never answered.
One wrapper generator, :func:`_drive`, owns the budget: it passes a list
on and counts its requests only if the list fits in what is left, and
otherwise returns the fallback with reason ``budget``.  It then clamps the
returned step into ``[ALPHA_MIN, alpha_max]`` and returns the
:class:`LineSearchOutcome`.  The public searches answer a driven
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

from gols.data import check_count
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


def _drive(search, alpha_max, max_info_calls, *args):
    """``search(alpha_max, *args)`` as a counted, budgeted, clamped ask/tell
    generator.

    The search yields ``(asks, fallback)`` pairs.  The driver yields a
    request list on, and sends the search its replies, only if the list
    fits in what is left of ``max_info_calls``; otherwise it ends the
    search with reason ``budget`` at ``fallback``, the ``(alpha,
    intervals)`` the search would return with the replies it has.  A list
    that always fits (an opening, which the public searches' budget check
    admits, or any list of the unbudgeted Armijo rule) carries ``None``.
    Returns the :class:`LineSearchOutcome`.
    """
    spent = EvalCounter()
    requests = search(alpha_max, *args)
    try:
        asks, fallback = next(requests)
        while spent.info_calls + len(asks) <= max_info_calls:
            _count(spent, asks)
            asks, fallback = requests.send((yield asks))
        (alpha, intervals), reason = fallback, "budget"
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
    """The opening bracket steps ``mid, high`` of golden section and
    B-GOLS: ``_DELTA`` and ``_DELTA + _GOLDEN * _DELTA``, or, when the
    latter overshoots ``alpha_max``, the midpoint of ``[0, alpha_max]`` and
    ``alpha_max``, so that neither lies beyond the cap.
    """
    high = _DELTA + _GOLDEN * _DELTA
    if high > alpha_max:
        return 0.5 * alpha_max, alpha_max
    return _DELTA, high


def _grow(kind, alpha_max, mid, high, at_mid, at_high, descends):
    """The bracket growth that golden section and B-GOLS share, run with
    ``yield from`` on the replies ``at_mid`` and ``at_high`` to their
    opening steps.

    While ``descends(at_mid, at_high)``, the bracket moves up one step:
    ``low`` and ``mid`` take the old ``mid`` and ``high``, and the new
    ``high`` is ``mid + _GOLDEN**j * _DELTA`` for ``j = 1, 2, ...``, asked
    as ``kind``.  Each request's fallback is ``mid``, the newest step that
    descended; for golden section it is the lowest value seen.  Returns
    ``(low, mid, high, at_mid, at_high)``, or ``None`` in place of asking a
    step beyond ``alpha_max``.
    """
    low, j = 0.0, 1
    while descends(at_mid, at_high):
        low, mid, at_mid = mid, high, at_high
        high = mid + _GOLDEN**j * _DELTA
        j += 1
        if high > alpha_max:
            return None
        at_high, = yield [(kind, high)], (mid, [])
    return low, mid, high, at_mid, at_high


def golden_section(probe, *, alpha_max: float = ALPHA_CAP,
                   max_info_calls: int = _MAX_INFO_CALLS) -> LineSearchOutcome:
    """Exact function-value search: bracket a minimizer, then golden section.

    Bracketing advances from 5 by growing steps ``5 * phi**j`` (``phi`` the
    golden ratio) while the newest value keeps decreasing; refinement then
    shrinks the bracket by the factor ``1/phi`` (about 38% off) per iteration
    until its length falls below 1e-12.  The accepted step is the final
    interval midpoint.  Uses only loss evaluations, never the slope.

    It never asks a step beyond ``alpha_max``: a growth step past the cap
    ends the search at ``alpha_max`` with reason ``cap_max``.
    ``max_info_calls``, a whole number of at least 3 (the opening F(0) and
    two bracket steps), is a hard maximum: a request list that would pass
    it is not asked, and the search returns reason ``budget`` at its best
    step so far, the lowest value seen while the bracket grows and the
    bracket midpoint once it refines.
    """
    check_count("max_info_calls", max_info_calls, least=3)
    return _answer(probe, _drive(_golden_section, alpha_max, max_info_calls))


def _golden_section(alpha_max):
    mid, high = _open_bracket(alpha_max)
    f0, f_mid, f_high = yield [("value", 0.0), ("value", mid), ("value", high)], None
    if f_mid >= f0:
        # First probe already increased: a minimizer sits below mid.
        a, b = 0.0, mid
    else:
        bracket = yield from _grow("value", alpha_max, mid, high, f_mid, f_high,
                                   lambda f_mid, f_high: f_high < f_mid)
        if bracket is None:
            return alpha_max, "cap_max", []
        a, _, b, _, _ = bracket

    intervals = []
    inner_low = b - (b - a) / _GOLDEN
    inner_high = a + (b - a) / _GOLDEN
    f_il, f_ih = yield ([("value", inner_low), ("value", inner_high)],
                        (0.5 * (a + b), intervals))
    while b - a > _TOL:
        # Each interval length is recorded when the bracket shrinks, before
        # the new inner point is asked, so a search ended by its budget
        # returns the midpoint of the bracket its replies give.
        if f_il < f_ih:
            b = inner_high
            inner_high, f_ih = inner_low, f_il
            inner_low = b - (b - a) / _GOLDEN
            intervals.append(b - a)
            f_il, = yield [("value", inner_low)], (0.5 * (a + b), intervals)
        else:
            a = inner_low
            inner_low, f_il = inner_high, f_ih
            inner_high = a + (b - a) / _GOLDEN
            intervals.append(b - a)
            f_ih, = yield [("value", inner_high)], (0.5 * (a + b), intervals)
    return 0.5 * (a + b), "tolerance", intervals


def armijo(probe, alpha_init: float, *,
           alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Inexact function-value search enforcing a sufficient-decrease bound.

    A step is acceptable when ``F(alpha) < F(0) + alpha * 0.2 * F'(0)``.  If
    the initial step passes, the step is doubled until the first failure and
    the last passing step returned (largest feasible step); otherwise it is
    halved until the first pass.  Spends exactly one gradient evaluation, at
    the origin.  Doubling stops at ``alpha_max``, which it asks in place of
    a larger step, so it never asks a step beyond the cap; the search has no
    budget.
    """
    return _answer(probe, _drive(_armijo, alpha_max, math.inf, alpha_init))


def _armijo(alpha_max, alpha_init):
    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    f0, slope0, f_alpha = yield [("value", 0.0), ("deriv", 0.0), ("value", alpha)], None

    def acceptable(alpha, value):
        return value < f0 + alpha * _DECREASE_FRACTION * slope0

    if acceptable(alpha, f_alpha):
        while alpha < alpha_max:
            bigger = min(alpha * _ARMIJO_FACTOR, alpha_max)
            f_bigger, = yield [("value", bigger)], None
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
        f_alpha, = yield [("value", alpha)], None
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
    its length falls below 1e-12.  Uses only gradient evaluations.  The cap
    is kept as in :func:`golden_section`; ``max_info_calls``, a whole
    number of at least 2 (the two opening bracket steps), is a hard maximum,
    and a search it ends returns the newest step of negative slope while
    the bracket grows and the bracket midpoint once it refines.
    """
    check_count("max_info_calls", max_info_calls, least=2)
    return _answer(probe, _drive(_bisection_gols, alpha_max, max_info_calls))


def _bisection_gols(alpha_max):
    mid, high = _open_bracket(alpha_max)
    mid_slope, high_slope = yield [("deriv", mid), ("deriv", high)], None
    bracket = yield from _grow("deriv", alpha_max, mid, high, mid_slope, high_slope,
                               lambda mid_slope, high_slope: high_slope < 0)
    if bracket is None:
        return alpha_max, "cap_max", []
    _, mid, high, mid_slope, high_slope = bracket

    intervals = []
    low = 0.0
    length = high - low
    while length > _TOL and high > ALPHA_MIN:
        if mid_slope < 0 and high_slope >= 0:
            low = mid
        elif mid_slope >= 0:
            high, high_slope = mid, mid_slope
        length = high - low
        mid = low + 0.5 * length
        intervals.append(length)
        mid_slope, = yield [("deriv", mid)], (0.5 * (high + low), intervals)
    reason = "tolerance" if length <= _TOL else "cap_min"
    return 0.5 * (high + low), reason, intervals


def inexact_gols(probe, alpha_init: float, *, alpha_max: float = ALPHA_CAP,
                 max_info_calls: int = _MAX_INFO_CALLS) -> LineSearchOutcome:
    """Inexact gradient-only search by doubling or halving the step.

    The acceptance band is ``|F'(0)|``: a slope above it triggers halving
    until the slope drops below the band; a slope below it triggers doubling
    until the slope first exceeds the band, after which the step is halved
    once.  A slope exactly on the band keeps the current behaviour (and
    accepts the initial step immediately).  Uses only gradient evaluations.
    A doubled step beyond ``alpha_max`` is not asked: the search returns
    ``alpha_max`` with reason ``cap_max``.  ``max_info_calls``, a whole
    number of at least 2 (F'(0) and F'(alpha_init)), is a hard maximum, and
    a search it ends returns its last step.
    """
    check_count("max_info_calls", max_info_calls, least=2)
    return _answer(probe, _drive(_inexact_gols, alpha_max, max_info_calls, alpha_init))


def _inexact_gols(alpha_max, alpha_init):
    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    slope0, slope = yield [("deriv", 0.0), ("deriv", alpha)], None
    band = abs(slope0)
    if slope == band:
        return alpha, "tolerance", []

    if slope > band:
        while True:
            slope, = yield [("deriv", alpha / _ETA)], (alpha, [])
            alpha = alpha / _ETA
            # A step below ALPHA_MIN ends the search; the driver clamps it
            # and reports cap_min.
            if slope < band or alpha < ALPHA_MIN:
                return alpha, "tolerance", []
    while alpha * _ETA <= alpha_max:
        slope, = yield [("deriv", alpha * _ETA)], (alpha, [])
        if slope > band:
            return alpha, "tolerance", []
        alpha = alpha * _ETA
    return alpha_max, "cap_max", []


_SEARCHES = {
    "gs": lambda alpha_init, alpha_max: _drive(
        _golden_section, alpha_max, _MAX_INFO_CALLS),
    "arls": lambda alpha_init, alpha_max: _drive(
        _armijo, alpha_max, math.inf, alpha_init),
    "bgols": lambda alpha_init, alpha_max: _drive(
        _bisection_gols, alpha_max, _MAX_INFO_CALLS),
    "igols": lambda alpha_init, alpha_max: _drive(
        _inexact_gols, alpha_max, _MAX_INFO_CALLS, alpha_init),
}
RESOLVER_NAMES = tuple(_SEARCHES)


def make_search(name: str):
    """Map a resolver name to an ``(alpha_init, alpha_max) -> search``
    factory.

    A search is a generator that yields lists of ``("value", alpha)`` and
    ``("deriv", alpha)`` requests, takes the list of their replies, F(alpha)
    or F'(alpha) in the same order, and returns its
    :class:`LineSearchOutcome`; the requests of one list do not depend on
    each other's replies.  Every step must be one real, finite scalar: a run
    whose list holds another fails with ``ValueError`` before anything of
    that list is drawn (:meth:`gols.probe.LineTable.answer`).  GS, B-GOLS
    and I-GOLS run with their default budget; on a probe, a named search is
    its public function, such as :func:`golden_section`.  A custom resolver
    of :func:`gols.trainer.sgd_train` and :class:`gols.trainer.TrainConfig`
    is a factory of this type, and a run drives it as it drives a named
    one.  Accepted names: those of
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
