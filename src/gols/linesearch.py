"""Step-size resolvers: two function-value and two gradient-only line searches.

All four resolvers consume a :class:`~gols.probe.DirectionalProbe` and return
a :class:`LineSearchOutcome`.  The exact searches (golden section and the
bisecting gradient-only search) open the same bracket from one
:class:`BracketConfig`, grow it and then refine; the inexact pair (Armijo's
rule and the doubling/halving gradient-only search) accept the first step
that satisfies their condition, growing or shrinking by a fixed factor.

Each search is an ask/tell generator: it yields ``("value", alpha)`` or
``("deriv", alpha)`` requests, receives F(alpha) or F'(alpha) in reply, and
returns ``(alpha, reason, intervals)``.  It reads only the numbers it is sent
and the running count of its requests.  One driver, :func:`_drive`, answers
the requests through the probe, counts them, clamps the returned step into
``[ALPHA_MIN, alpha_max]`` and builds the outcome.  Callers that resolve
steps for steepest descent should pass
``alpha_max=effective_alpha_max(norm(g))`` so that unbounded descent
directions cannot produce runaway steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from gols.probe import EvalCounter

__all__ = [
    "ALPHA_MIN",
    "ALPHA_CAP",
    "RESOLVER_NAMES",
    "BracketConfig",
    "ArmijoConfig",
    "InexactConfig",
    "LineSearchOutcome",
    "effective_alpha_max",
    "golden_section",
    "armijo",
    "bisection_gols",
    "inexact_gols",
    "make_resolver",
]

ALPHA_MIN = 1e-8
ALPHA_CAP = 1e7

_GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


@dataclass(frozen=True)
class BracketConfig:
    """Settings of the exact searches, golden section and B-GOLS.

    ``max_info_calls`` is checked before each growth or refinement step, not
    before the opening evaluations, so a search can spend a few calls more.
    """

    delta: float = 5.0             # first bracketing step
    ratio: float = _GOLDEN         # bracket growth and golden-section reduction ratio
    tol: float = 1e-12             # refinement stops at this interval length
    max_info_calls: int = 1000


@dataclass(frozen=True)
class ArmijoConfig:
    decrease_fraction: float = 0.2  # fraction of the origin slope to beat
    factor: float = 2.0             # advance/backtrack multiplier

    def __post_init__(self):
        if not 0.0 <= self.decrease_fraction <= 1.0:
            raise ValueError("decrease_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class InexactConfig:
    eta: float = 2.0               # doubling/halving factor
    relaxation: float = 0.0        # 0 accepts any slope-magnitude reduction
    max_info_calls: int = 1000

    def __post_init__(self):
        if self.eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if not 0.0 <= self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in [0, 1]")


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

    @property
    def cost(self) -> int:
        return self.function_evals + 2 * self.gradient_evals

    @property
    def info_calls(self) -> int:
        return self.function_evals + self.gradient_evals


def effective_alpha_max(gradient_norm: float) -> float:
    """Largest permissible step along a descent direction of this steepness.

    Returns ``min(1 / gradient_norm, ALPHA_CAP)``; a vanishing gradient norm
    keeps the plain cap.
    """
    if gradient_norm < 0:
        raise ValueError("gradient norm cannot be negative")
    if gradient_norm == 0.0:
        return ALPHA_CAP
    return min(1.0 / gradient_norm, ALPHA_CAP)


def _drive(probe, search, alpha_max, *args) -> LineSearchOutcome:
    """Run ``search(spent, alpha_max, *args)`` against ``probe``.

    ``spent`` is the :class:`~gols.probe.EvalCounter` of the requests served
    so far; searches check their budget against it.  The probe's methods are
    looked up on every search, so wrappers installed on the class see each
    evaluation.
    """
    spent = EvalCounter()
    answer = {"value": probe.value, "deriv": probe.deriv}
    requests = search(spent, alpha_max, *args)
    try:
        kind, alpha = next(requests)
        while True:
            if kind == "value":
                spent.functions += 1
            else:
                spent.gradients += 1
            kind, alpha = requests.send(answer[kind](alpha))
    except StopIteration as done:
        alpha, reason, intervals = done.value
    if alpha > alpha_max:
        alpha, reason = alpha_max, "cap_max"
    if alpha < ALPHA_MIN:
        alpha, reason = ALPHA_MIN, "cap_min"
    return LineSearchOutcome(alpha, spent.functions, spent.gradients, reason,
                             intervals)


def _open_bracket(kind, cfg, alpha_max):
    """Evaluate ``delta`` and ``delta + ratio * delta``; when the latter
    overshoots ``alpha_max``, evaluate the midpoint of ``[0, alpha_max]`` and
    ``alpha_max`` instead.

    Returns ``(first, (mid, y_mid), (high, y_high))`` where ``first`` is the
    ``(delta, y)`` pair evaluated first.
    """
    mid = cfg.delta
    high = mid + cfg.ratio * cfg.delta
    y_mid = yield kind, mid
    y_high = yield kind, high
    first = (mid, y_mid)
    if high > alpha_max:
        high = alpha_max
        mid = 0.5 * high
        y_mid = yield kind, mid
        y_high = yield kind, high
    return first, (mid, y_mid), (high, y_high)


def _value(point):
    return point[1]


def golden_section(probe, config: BracketConfig | None = None, *,
                   alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Exact function-value search: bracket a minimizer, then golden section.

    Bracketing advances from ``delta`` by growing steps ``ratio**j * delta``
    while the newest value keeps decreasing; refinement then shrinks the
    bracket by the factor ``1/ratio`` (about 38% off) per iteration until its
    length falls below ``tol``.  The accepted step is the final interval
    midpoint.  Uses only loss evaluations, never the slope.
    """
    return _drive(probe, _golden_section, alpha_max, config or BracketConfig())


def _golden_section(spent, alpha_max, cfg):
    f0 = yield "value", 0.0
    first, (mid, f_mid), (high, f_high) = yield from _open_bracket(
        "value", cfg, alpha_max)
    # Lowest value seen, earliest first: the step returned when the budget
    # runs out while the bracket grows.
    best = min((0.0, f0), first, (high, f_high), (mid, f_mid), key=_value)

    if f_mid >= f0:
        # First probe already increased: a minimizer sits below mid.
        a, b = 0.0, mid
    else:
        low, j = 0.0, 1
        while f_high < f_mid:
            if spent.info_calls >= cfg.max_info_calls:
                return best[0], "budget", []
            low, mid, f_mid = mid, high, f_high
            high = mid + cfg.ratio**j * cfg.delta
            j += 1
            if high > alpha_max:
                return high, "cap_max", []
            f_high = yield "value", high
            best = min(best, (high, f_high), key=_value)
        a, b = low, high

    intervals = []
    inner_low = b - (b - a) / cfg.ratio
    inner_high = a + (b - a) / cfg.ratio
    f_il = yield "value", inner_low
    f_ih = yield "value", inner_high
    while b - a > cfg.tol and spent.info_calls < cfg.max_info_calls:
        if f_il < f_ih:
            b = inner_high
            inner_high, f_ih = inner_low, f_il
            inner_low = b - (b - a) / cfg.ratio
            f_il = yield "value", inner_low
        else:
            a = inner_low
            inner_low, f_il = inner_high, f_ih
            inner_high = a + (b - a) / cfg.ratio
            f_ih = yield "value", inner_high
        intervals.append(b - a)
    reason = "tolerance" if b - a <= cfg.tol else "budget"
    return 0.5 * (a + b), reason, intervals


def armijo(probe, alpha_init: float, config: ArmijoConfig | None = None, *,
           alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Inexact function-value search enforcing a sufficient-decrease bound.

    A step is acceptable when ``F(alpha) < F(0) + alpha * p * F'(0)`` with
    ``p = decrease_fraction``.  If the initial step passes, the step is grown
    by ``factor`` until the first failure and the last passing step returned
    (largest feasible step); otherwise it is shrunk until the first pass.
    Spends exactly one gradient evaluation, at the origin.
    """
    return _drive(probe, _armijo, alpha_max, alpha_init,
                  config or ArmijoConfig())


def _armijo(spent, alpha_max, alpha_init, cfg):
    f0 = yield "value", 0.0
    slope0 = yield "deriv", 0.0

    def acceptable(alpha, value):
        return value < f0 + alpha * cfg.decrease_fraction * slope0

    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    if acceptable(alpha, (yield "value", alpha)):
        while alpha < alpha_max:
            bigger = min(alpha * cfg.factor, alpha_max)
            if not acceptable(bigger, (yield "value", bigger)):
                return alpha, "tolerance", []
            alpha = bigger
        return alpha, "cap_max", []

    while True:
        alpha = alpha / cfg.factor
        # A step below ALPHA_MIN ends the search unevaluated; the driver
        # clamps it and reports cap_min.
        if alpha < ALPHA_MIN or acceptable(alpha, (yield "value", alpha)):
            return alpha, "tolerance", []


def bisection_gols(probe, config: BracketConfig | None = None, *,
                   alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Exact gradient-only search: bisect the slope's negative-to-positive
    sign change.

    Brackets with growing steps like the golden section search, but watches
    only the sign of the directional derivative; a zero slope counts as
    non-negative, so the sign change is considered found.  Refinement keeps
    a three-point pattern and halves the interval per iteration.  Uses only
    gradient evaluations.
    """
    return _drive(probe, _bisection_gols, alpha_max, config or BracketConfig())


def _bisection_gols(spent, alpha_max, cfg):
    _, (mid, mid_slope), (high, high_slope) = yield from _open_bracket(
        "deriv", cfg, alpha_max)
    j = 1
    while high_slope < 0 and spent.info_calls < cfg.max_info_calls:
        mid, mid_slope = high, high_slope
        high = mid + cfg.ratio**j * cfg.delta
        j += 1
        high_slope = yield "deriv", high
        if high > alpha_max:
            return high, "cap_max", []

    intervals = []
    low = 0.0
    length = high - low
    while (length > cfg.tol and high > ALPHA_MIN
           and spent.info_calls < cfg.max_info_calls):
        if mid_slope < 0 and high_slope >= 0:
            low = mid
        elif mid_slope >= 0:
            high, high_slope = mid, mid_slope
        length = high - low
        mid = low + 0.5 * length
        mid_slope = yield "deriv", mid
        intervals.append(length)

    if length <= cfg.tol:
        reason = "tolerance"
    elif high <= ALPHA_MIN:
        reason = "cap_min"
    else:
        reason = "budget"
    return 0.5 * (high + low), reason, intervals


def inexact_gols(probe, alpha_init: float, config: InexactConfig | None = None, *,
                 alpha_max: float = ALPHA_CAP) -> LineSearchOutcome:
    """Inexact gradient-only search by doubling or halving the step.

    The acceptance band is ``|(1 - relaxation) * F'(0)|``: a slope above it
    triggers halving until the slope drops below the band; a slope below it
    triggers doubling until the slope first exceeds the band, after which the
    step is pulled back one factor.  A slope exactly on the band keeps the
    current behaviour (and accepts the initial step immediately).  Uses only
    gradient evaluations.
    """
    return _drive(probe, _inexact_gols, alpha_max, alpha_init,
                  config or InexactConfig())


def _inexact_gols(spent, alpha_max, alpha_init, cfg):
    slope0 = yield "deriv", 0.0
    alpha = min(max(alpha_init, ALPHA_MIN), alpha_max)
    slope = yield "deriv", alpha
    band = abs((1.0 - cfg.relaxation) * slope0)
    if slope == band:
        return alpha, "tolerance", []

    halve = slope > band
    while spent.info_calls < cfg.max_info_calls:
        if halve:
            alpha = alpha / cfg.eta
            done = (yield "deriv", alpha) < band
        else:
            alpha = alpha * cfg.eta
            done = (yield "deriv", alpha) > band
            if done:
                alpha = alpha / cfg.eta
        # A step outside the bounds ends the search; the driver clamps it
        # and reports cap_min or cap_max.
        if done or not ALPHA_MIN <= alpha <= alpha_max:
            return alpha, "tolerance", []
    return alpha, "budget", []


RESOLVER_NAMES = ("gs", "arls", "bgols", "igols")


def make_resolver(name: str):
    """Map a resolver name to a uniform ``(probe, alpha_init, alpha_max)``
    callable.

    Accepted names: ``gs``, ``arls``, ``bgols``, ``igols`` and
    ``fixed:<alpha>``.  The fixed resolver is a zero-cost oracle that returns
    the given constant step unconditionally, bypassing the step caps.
    """
    if name == "gs":
        return lambda probe, alpha_init, alpha_max: golden_section(
            probe, alpha_max=alpha_max)
    if name == "arls":
        return lambda probe, alpha_init, alpha_max: armijo(
            probe, alpha_init, alpha_max=alpha_max)
    if name == "bgols":
        return lambda probe, alpha_init, alpha_max: bisection_gols(
            probe, alpha_max=alpha_max)
    if name == "igols":
        return lambda probe, alpha_init, alpha_max: inexact_gols(
            probe, alpha_init, alpha_max=alpha_max)
    if name.startswith("fixed:"):
        try:
            value = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed step size in resolver {name!r}") from None
        if not math.isfinite(value):
            raise ValueError("fixed step size must be finite")
        return lambda probe, alpha_init, alpha_max: LineSearchOutcome(
            alpha=value, function_evals=0, gradient_evals=0, reason="tolerance")
    raise ValueError(
        f"unknown resolver {name!r}; choose one of {RESOLVER_NAMES} or fixed:<alpha>"
    )
