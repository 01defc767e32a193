import hashlib
import math

import numpy as np
import pytest

from gols.linesearch import (
    ALPHA_CAP,
    ALPHA_MIN,
    _answer,
    armijo,
    bisection_gols,
    effective_alpha_max,
    golden_section,
    inexact_gols,
    make_search,
)

from conftest import PUBLIC, make_1d_probe, make_quadratic_probe


class TestEffectiveAlphaMax:
    def test_tiny_gradient_keeps_cap(self):
        assert effective_alpha_max(1e-9) == 1e7

    def test_inverse_norm(self):
        assert effective_alpha_max(2.0) == 0.5

    def test_zero_gradient_keeps_cap(self):
        assert effective_alpha_max(0.0) == 1e7

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            effective_alpha_max(-1.0)

    @pytest.mark.parametrize("norm", [math.nan, math.inf, np.float64("nan")])
    def test_non_finite_norm_rejected(self, norm):
        # NaN has no cap, and an infinite norm would give a cap of 0, below
        # the ALPHA_MIN that every accepted step is clamped up to.
        with pytest.raises(ValueError, match="finite"):
            effective_alpha_max(norm)


class TestGoldenSection:
    def test_quadratic_minimizer(self, quadratic_probe):
        out = golden_section(quadratic_probe)
        assert abs(out.alpha - 1.0) <= 1e-6
        assert out.reason == "tolerance"

    def test_interval_shrinks_by_golden_ratio(self, quadratic_probe):
        out = golden_section(quadratic_probe)
        ratios = np.array(out.intervals[1:]) / np.array(out.intervals[:-1])
        assert np.all(np.abs(ratios - 0.618) <= 1e-3)
        # One refinement of a length-10 interval leaves 6.18 +/- 0.01.
        assert abs(ratios[0] * 10.0 - 6.18) <= 0.01

    def test_uses_no_gradient_evaluations(self, quadratic_probe):
        out = golden_section(quadratic_probe)
        assert out.gradient_evals == 0
        assert out.function_evals > 0

    def test_increasing_function_returns_floor(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        out = golden_section(probe)
        assert out.alpha <= 5.0  # never beyond the first probe step
        assert out.reason in ("tolerance", "cap_min")

    def test_cap_hit_during_bracketing(self):
        probe = make_1d_probe(lambda a: -a, lambda a: -1.0)
        out = golden_section(probe, alpha_max=50.0)
        assert out.alpha == 50.0
        assert out.reason == "cap_max"

    def test_budget_returns_best_so_far(self, quadratic_probe):
        out = golden_section(quadratic_probe, max_info_calls=4)
        assert out.reason == "budget"
        assert ALPHA_MIN <= out.alpha <= ALPHA_CAP


class TestArmijo:
    def test_hand_traced_doubling_on_quadratic(self):
        # F(alpha) = (1 - alpha)^2, start 0.25: 0.25, 0.5, 1.0 pass the
        # bound 1 - 0.4*alpha; 2.0 gives F = 1, bound 0.2, fail -> alpha 1.
        probe = make_quadratic_probe(distance=np.sqrt(2.0))
        out = armijo(probe, alpha_init=0.25)
        assert out.alpha == 1.0
        assert out.reason == "tolerance"

    def test_acceptance_rule_boundary(self):
        # F(alpha) = 1 - alpha + 0.35 alpha^2, F(0)=1, F'(0)=-1: acceptable
        # steps satisfy alpha < 0.8 / 0.35 = 2.2857, so doubling from 1
        # passes 2 and fails 4.
        probe = make_1d_probe(lambda a: 1 - a + 0.35 * a * a, lambda a: -1 + 0.7 * a)
        out = armijo(probe, alpha_init=1.0)
        assert out.alpha == 2.0

    def test_largest_feasible_contract(self):
        probe = make_1d_probe(lambda a: 1 - a + 0.35 * a * a, lambda a: -1 + 0.7 * a)
        out = armijo(probe, alpha_init=2.0)  # passes, 4.0 fails
        assert out.alpha == 2.0

    def test_no_passing_step_returns_alpha_min(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        out = armijo(probe, alpha_init=1.0)
        assert out.alpha == ALPHA_MIN
        assert out.reason == "cap_min"

    def test_exactly_one_gradient_evaluation(self):
        probe = make_quadratic_probe()
        out = armijo(probe, alpha_init=0.25)
        assert out.gradient_evals == 1

    def test_doubling_stops_at_cap(self):
        probe = make_1d_probe(lambda a: -a, lambda a: -1.0)
        out = armijo(probe, alpha_init=1.0, alpha_max=10.0)
        assert out.alpha == 10.0
        assert out.reason == "cap_max"


class TestBisectionGols:
    def test_sign_change_at_analytic_root(self):
        # F'(alpha) = alpha - 2.5: the slope changes sign at exactly 2.5.
        probe = make_1d_probe(lambda a: 0.5 * (a - 2.5) ** 2, lambda a: a - 2.5)
        out = bisection_gols(probe)
        assert abs(out.alpha - 2.5) <= 1e-11
        assert out.reason == "tolerance"

    def test_interval_halves_each_refinement(self):
        probe = make_1d_probe(lambda a: 0.5 * (a - 2.5) ** 2, lambda a: a - 2.5)
        out = bisection_gols(probe)
        ratios = np.array(out.intervals[1:]) / np.array(out.intervals[:-1])
        assert np.all(np.abs(ratios - 0.5) <= 1e-9)

    def test_quadratic_minimizer_tight(self, quadratic_probe):
        out = bisection_gols(quadratic_probe)
        assert abs(out.alpha - 1.0) <= 1e-11

    def test_descent_everywhere_clamps_to_cap(self):
        probe = make_1d_probe(lambda a: -a, lambda a: -1.0)
        out = bisection_gols(probe, alpha_max=50.0)
        assert out.alpha == 50.0
        assert out.reason == "cap_max"

    def test_ascent_everywhere_returns_floor(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        out = bisection_gols(probe)
        assert out.alpha == ALPHA_MIN
        assert out.reason == "cap_min"

    def test_zero_slope_counts_as_non_negative(self):
        probe = make_1d_probe(lambda a: 1.0, lambda a: 0.0)
        out = bisection_gols(probe)
        assert out.reason == "cap_min"  # sign change found instantly everywhere

    def test_uses_only_gradient_evaluations(self):
        probe = make_1d_probe(lambda a: 0.5 * (a - 2.5) ** 2, lambda a: a - 2.5)
        out = bisection_gols(probe)
        assert out.function_evals == 0
        assert out.gradient_evals > 0

    def test_budget_exhaustion(self):
        probe = make_1d_probe(lambda a: 0.5 * (a - 2.5) ** 2, lambda a: a - 2.5)
        out = bisection_gols(probe, max_info_calls=3)
        assert out.reason == "budget"


class TestInexactGols:
    def test_hand_traced_doubling_from_floor(self):
        # F'(alpha) = alpha - 1, so the band is |F'(0)| = 1.  Doubling from
        # 1e-8 first exceeds the band at 1e-8 * 2**28 = 2.68435456, and the
        # accepted step is one factor back: 1.34217728 exactly.
        probe = make_1d_probe(lambda a: 0.5 * (a - 1.0) ** 2, lambda a: a - 1.0)
        out = inexact_gols(probe, alpha_init=1e-8)
        assert out.alpha == 1.34217728
        assert out.reason == "tolerance"
        assert out.function_evals == 0
        assert out.gradient_evals == 30  # origin + initial + 28 doublings

    def test_halving_path(self):
        # F'(alpha) = -1 + 5 alpha, band 1: from 1.6 the slopes are
        # 7, 3, 1 (== band: keep halving), 0 -> accept 0.2.
        probe = make_1d_probe(lambda a: -a + 2.5 * a * a, lambda a: -1 + 5 * a)
        out = inexact_gols(probe, alpha_init=1.6)
        assert out.alpha == 0.2
        assert out.reason == "tolerance"

    def test_flat_descent_runs_to_cap(self):
        probe = make_1d_probe(lambda a: -a, lambda a: -1.0)
        out = inexact_gols(probe, alpha_init=1.0, alpha_max=64.0)
        assert out.alpha == 64.0
        assert out.reason == "cap_max"

    def test_band_tie_accepts_initial_step(self):
        # F'(alpha) = -1 + 2 alpha: at alpha = 1 the slope equals the band.
        probe = make_1d_probe(lambda a: -a + a * a, lambda a: -1 + 2 * a)
        out = inexact_gols(probe, alpha_init=1.0)
        assert out.alpha == 1.0
        assert out.gradient_evals == 2

    def test_ascent_everywhere_halves_to_floor(self):
        # F'(0) = 0 makes the band zero; positive slopes halve forever.
        probe = make_1d_probe(lambda a: 5 * a * a, lambda a: 10 * a)
        out = inexact_gols(probe, alpha_init=1.0)
        assert out.alpha == ALPHA_MIN
        assert out.reason == "cap_min"


class TestSharedContracts:
    @pytest.mark.parametrize("alpha_max", [0.3, 5.0, 1e7])
    @pytest.mark.parametrize("name", ["gs", "arls", "bgols", "igols"])
    def test_step_always_within_bounds(self, name, alpha_max):
        resolver = PUBLIC[name]
        for maker in (
            lambda: make_quadratic_probe(),
            lambda: make_1d_probe(lambda a: a, lambda a: 1.0),
            lambda: make_1d_probe(lambda a: -a, lambda a: -1.0),
        ):
            out = resolver(maker(), 0.25, alpha_max)
            assert ALPHA_MIN <= out.alpha <= alpha_max
            assert out.reason in ("tolerance", "cap_min", "cap_max", "budget")

    @pytest.mark.parametrize("name", ["gs", "bgols", "igols"])
    def test_beats_uniform_grid_over_step_domain(self, name):
        # A 10000-point uniform grid over [alpha_min, cap] spans fifteen
        # orders of magnitude and resolves nothing near the minimizer; every
        # search must do at least as well as its best point.
        out = PUBLIC[name](make_quadratic_probe(), 1e-8, ALPHA_CAP)
        reference = make_quadratic_probe()
        grid_best = min(
            reference.value(a) for a in np.linspace(ALPHA_MIN, ALPHA_CAP, 10_000)
        )
        assert reference.value(out.alpha) <= grid_best

    @pytest.mark.parametrize("name", ["gs", "arls", "bgols", "igols"])
    def test_deterministic_outcomes(self, name):
        resolver = PUBLIC[name]
        a = resolver(make_quadratic_probe(), 0.25, 1e7)
        b = resolver(make_quadratic_probe(), 0.25, 1e7)
        assert (a.alpha, a.function_evals, a.gradient_evals, a.reason) == (
            b.alpha, b.function_evals, b.gradient_evals, b.reason)

    def test_outcome_counts_match_probe_counters(self, quadratic_probe):
        out = golden_section(quadratic_probe)
        assert quadratic_probe.counter.functions == out.function_evals
        assert quadratic_probe.counter.gradients == out.gradient_evals


class TestMakeResolver:
    """The resolver names that :func:`make_search` maps to searches."""

    def test_fixed_resolver_returns_constant_at_zero_cost(self):
        probe = make_quadratic_probe()
        out = _answer(probe, make_search("fixed:0.5")(1.0, 1e7))
        assert probe.counter.info_calls == 0
        assert out.alpha == 0.5
        assert out.function_evals == 0
        assert out.gradient_evals == 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_search("newton")

    def test_bad_fixed_value_rejected(self):
        with pytest.raises(ValueError):
            make_search("fixed:abc")

    def test_negative_fixed_step_rejected(self):
        # A negative step turns descent into ascent; a zero step stays valid.
        with pytest.raises(ValueError):
            make_search("fixed:-1")
        out = _answer(make_quadratic_probe(), make_search("fixed:0")(1.0, 1e7))
        assert out.alpha == 0.0


SHAPES = {
    "quadratic": make_quadratic_probe,  # minimizer at 1
    "ascent": lambda: make_1d_probe(lambda a: a, lambda a: 1.0),
    "descent": lambda: make_1d_probe(lambda a: -a, lambda a: -1.0),
    "flat": lambda: make_1d_probe(lambda a: 1.0, lambda a: 0.0),
    "root": lambda: make_1d_probe(lambda a: 0.5 * (a - 2.5) ** 2, lambda a: a - 2.5),
}

# (alpha, function_evals, gradient_evals, reason) of each resolver started
# at alpha_init = 0.25, keyed by (resolver, shape, alpha_max).
PINNED = {
    ("gs", "quadratic", 0.3): (0.3, 3, 0, "cap_max"),
    ("gs", "quadratic", 50.0): (1.0000000000001577, 66, 0, "tolerance"),
    ("gs", "quadratic", 1e7): (1.0000000000001577, 66, 0, "tolerance"),
    ("gs", "ascent", 0.3): (1e-08, 59, 0, "cap_min"),
    ("gs", "ascent", 50.0): (1e-08, 66, 0, "cap_min"),
    ("gs", "ascent", 1e7): (1e-08, 66, 0, "cap_min"),
    ("gs", "descent", 0.3): (0.3, 3, 0, "cap_max"),
    ("gs", "descent", 50.0): (50.0, 5, 0, "cap_max"),
    ("gs", "descent", 1e7): (1e7, 31, 0, "cap_max"),
    ("gs", "flat", 0.3): (0.1499999999996112, 59, 0, "tolerance"),
    ("gs", "flat", 50.0): (4.999999999999554, 66, 0, "tolerance"),
    ("gs", "flat", 1e7): (4.999999999999554, 66, 0, "tolerance"),
    ("gs", "root", 0.3): (0.3, 3, 0, "cap_max"),
    ("gs", "root", 50.0): (2.499999999999724, 66, 0, "tolerance"),
    ("gs", "root", 1e7): (2.499999999999724, 66, 0, "tolerance"),
    ("arls", "quadratic", 0.3): (0.3, 3, 1, "cap_max"),
    ("arls", "quadratic", 50.0): (1.0, 5, 1, "tolerance"),
    ("arls", "quadratic", 1e7): (1.0, 5, 1, "tolerance"),
    ("arls", "ascent", 0.3): (1e-08, 26, 1, "cap_min"),
    ("arls", "ascent", 50.0): (1e-08, 26, 1, "cap_min"),
    ("arls", "ascent", 1e7): (1e-08, 26, 1, "cap_min"),
    ("arls", "descent", 0.3): (0.3, 3, 1, "cap_max"),
    ("arls", "descent", 50.0): (50.0, 10, 1, "cap_max"),
    ("arls", "descent", 1e7): (1e7, 28, 1, "cap_max"),
    ("arls", "flat", 0.3): (1e-08, 26, 1, "cap_min"),
    ("arls", "flat", 50.0): (1e-08, 26, 1, "cap_min"),
    ("arls", "flat", 1e7): (1e-08, 26, 1, "cap_min"),
    ("arls", "root", 0.3): (0.3, 3, 1, "cap_max"),
    ("arls", "root", 50.0): (2.0, 6, 1, "tolerance"),
    ("arls", "root", 1e7): (2.0, 6, 1, "tolerance"),
    ("bgols", "quadratic", 0.3): (0.3, 0, 2, "cap_max"),
    ("bgols", "quadratic", 50.0): (0.9999999999999432, 0, 46, "tolerance"),
    ("bgols", "quadratic", 1e7): (0.9999999999999432, 0, 46, "tolerance"),
    ("bgols", "ascent", 0.3): (1e-08, 0, 27, "cap_min"),
    ("bgols", "ascent", 50.0): (1e-08, 0, 32, "cap_min"),
    ("bgols", "ascent", 1e7): (1e-08, 0, 32, "cap_min"),
    ("bgols", "descent", 0.3): (0.3, 0, 2, "cap_max"),
    ("bgols", "descent", 50.0): (50.0, 0, 4, "cap_max"),
    ("bgols", "descent", 1e7): (1e7, 0, 30, "cap_max"),
    ("bgols", "flat", 0.3): (1e-08, 0, 27, "cap_min"),
    ("bgols", "flat", 50.0): (1e-08, 0, 32, "cap_min"),
    ("bgols", "flat", 1e7): (1e-08, 0, 32, "cap_min"),
    ("bgols", "root", 0.3): (0.3, 0, 2, "cap_max"),
    ("bgols", "root", 50.0): (2.499999999999716, 0, 46, "tolerance"),
    ("bgols", "root", 1e7): (2.499999999999716, 0, 46, "tolerance"),
    ("igols", "quadratic", 0.3): (0.3, 0, 2, "cap_max"),
    ("igols", "quadratic", 50.0): (2.0, 0, 6, "tolerance"),
    ("igols", "quadratic", 1e7): (2.0, 0, 6, "tolerance"),
    ("igols", "ascent", 0.3): (0.25, 0, 2, "tolerance"),
    ("igols", "ascent", 50.0): (0.25, 0, 2, "tolerance"),
    ("igols", "ascent", 1e7): (0.25, 0, 2, "tolerance"),
    ("igols", "descent", 0.3): (0.3, 0, 2, "cap_max"),
    ("igols", "descent", 50.0): (50.0, 0, 9, "cap_max"),
    ("igols", "descent", 1e7): (1e7, 0, 27, "cap_max"),
    ("igols", "flat", 0.3): (0.25, 0, 2, "tolerance"),
    ("igols", "flat", 50.0): (0.25, 0, 2, "tolerance"),
    ("igols", "flat", 1e7): (0.25, 0, 2, "tolerance"),
    ("igols", "root", 0.3): (0.3, 0, 2, "cap_max"),
    ("igols", "root", 50.0): (4.0, 0, 7, "tolerance"),
    ("igols", "root", 1e7): (4.0, 0, 7, "tolerance"),
}

# max_info_calls is a hard maximum: a request list that would pass it is not
# asked, and the search returns its best step so far with reason budget.
# Golden section with a budget of 4 cannot ask its first inner pair after
# its 3 opening calls, so it returns the midpoint of its bracket [0, 5]; with
# 7 or 8 it returns the midpoint of the bracket its last reply gives.  On the
# descent line under a cap of 0.3 or 5, both exact searches meet the cap
# before the budget.
BUDGET_EDGES = [
    (golden_section, "quadratic", 3, ALPHA_CAP, (2.5, 3, 0, "budget")),
    (golden_section, "quadratic", 4, ALPHA_CAP, (2.5, 3, 0, "budget")),
    (golden_section, "quadratic", 7, ALPHA_CAP, (1.3196601125010516, 7, 0, "budget")),
    (golden_section, "quadratic", 8, ALPHA_CAP, (1.094235253127366, 8, 0, "budget")),
    (golden_section, "descent", 3, 0.3, (0.3, 3, 0, "cap_max")),
    (golden_section, "descent", 3, 5.0, (5.0, 3, 0, "cap_max")),
    (bisection_gols, "root", 3, ALPHA_CAP, (1.25, 0, 3, "budget")),
    (bisection_gols, "root", 4, ALPHA_CAP, (1.875, 0, 4, "budget")),
    (bisection_gols, "root", 7, ALPHA_CAP, (2.421875, 0, 7, "budget")),
    (bisection_gols, "root", 8, ALPHA_CAP, (2.4609375, 0, 8, "budget")),
    (bisection_gols, "descent", 3, 0.3, (0.3, 0, 2, "cap_max")),
]


def _summary(out):
    return (out.alpha, out.function_evals, out.gradient_evals, out.reason)


class TestPinnedOutcomes:
    @pytest.mark.parametrize("name,shape,alpha_max", sorted(PINNED))
    def test_resolver_outcome(self, name, shape, alpha_max):
        out = PUBLIC[name](SHAPES[shape](), 0.25, alpha_max)
        assert _summary(out) == PINNED[name, shape, alpha_max]

    @pytest.mark.parametrize("name,shape,alpha_max", sorted(PINNED))
    def test_name_matches_public_search(self, name, shape, alpha_max):
        # The search that make_search maps the name to, answered through a
        # probe, is the public search of that name.
        by_name, public = SHAPES[shape](), SHAPES[shape]()
        out = _answer(by_name, make_search(name)(0.25, alpha_max))
        expected = PUBLIC[name](public, 0.25, alpha_max)
        assert _summary(out) == _summary(expected)
        assert out.intervals == expected.intervals
        assert (by_name.counter.functions, by_name.counter.gradients) == (
            public.counter.functions, public.counter.gradients)

    @pytest.mark.parametrize("search,shape,budget,alpha_max,expected", BUDGET_EDGES)
    def test_exact_search_budget_edge(self, search, shape, budget, alpha_max, expected):
        out = search(SHAPES[shape](), max_info_calls=budget, alpha_max=alpha_max)
        assert _summary(out) == expected

    @pytest.mark.parametrize("budget,expected", [
        (2, (1e-08, 0, 2, "budget")),
        (3, (2e-08, 0, 3, "budget")),
        (8, (6.4e-07, 0, 8, "budget")),
    ])
    def test_inexact_gols_budget_edge(self, budget, expected):
        out = inexact_gols(make_quadratic_probe(), 1e-8, max_info_calls=budget)
        assert _summary(out) == expected


BUDGETED = {
    "gs": lambda probe, budget: golden_section(probe, max_info_calls=budget),
    "bgols": lambda probe, budget: bisection_gols(probe, max_info_calls=budget),
    "igols": lambda probe, budget: inexact_gols(probe, 0.25, max_info_calls=budget),
}


class TestBudgetCheck:
    """``max_info_calls`` is a whole number of at least the search's
    opening list: 3 requests for golden section, 2 for B-GOLS and I-GOLS."""

    @pytest.mark.parametrize("budget", [0, -1, math.nan, True, 2.5, "x", None])
    @pytest.mark.parametrize("name", sorted(BUDGETED))
    def test_bad_budget_rejected_before_any_call(self, name, budget):
        probe = make_quadratic_probe()
        with pytest.raises(ValueError, match="max_info_calls"):
            BUDGETED[name](probe, budget)
        assert probe.counter.info_calls == 0

    @pytest.mark.parametrize("name,least", [("gs", 3), ("bgols", 2), ("igols", 2)])
    def test_budget_below_the_opening_list_rejected(self, name, least):
        with pytest.raises(ValueError, match=f"at least {least}"):
            BUDGETED[name](make_quadratic_probe(), least - 1)
        assert BUDGETED[name](make_quadratic_probe(), least).reason == "budget"


NON_FINITE_LINES = {
    "nan_everywhere": (lambda a: math.nan, lambda a: math.nan),
    # Descent up to alpha = 3 and NaN beyond: every search from 0.25 steps
    # past 3.
    "nan_past_3": (lambda a: -a if a <= 3.0 else math.nan,
                   lambda a: -1.0 if a <= 3.0 else math.nan),
}


class TestNonFiniteLines:
    @pytest.mark.parametrize("line", sorted(NON_FINITE_LINES))
    @pytest.mark.parametrize("name", ["gs", "arls", "bgols", "igols"])
    def test_non_finite_value_is_rejected(self, name, line):
        probe = make_1d_probe(*NON_FINITE_LINES[line])
        with pytest.raises(ValueError, match="non-finite"):
            PUBLIC[name](probe, 0.25, ALPHA_CAP)


# The (kind, alpha) requests a probe answers for each public search started
# at alpha_init = 0.25 on F(a) = 0.5 (a - 7.5)^2, keyed by (search,
# alpha_max): at alpha_max = 10 the bracket step 5 + 5 phi overshoots the cap,
# at 1e7 it does not.  Each entry is (request count, the first 16 hex digits
# of the sha256 of the repr of the whole request list, its first 7 requests).
# A probe draws one sample per request in this order, so these pins also fix
# which sample answers which request.
REQUEST_ORDER = {
    ("gs", 10.0): (68, "1f04e562c3962af4", [
        ("value", 0.0), ("value", 5.0), ("value", 10.0),
        ("value", 3.819660112501052), ("value", 6.180339887498948),
        ("value", 7.639320225002103), ("value", 8.541019662496845)]),
    ("gs", 1e7): (68, "e36548d98fbccb03", [
        ("value", 0.0), ("value", 5.0), ("value", 13.090169943749475),
        ("value", 5.0), ("value", 8.090169943749475), ("value", 10.0),
        ("value", 6.9098300562505255)]),
    ("arls", 10.0): (9, "d07cf7921e6eac28", [
        ("value", 0.0), ("deriv", 0.0), ("value", 0.25), ("value", 0.5),
        ("value", 1.0), ("value", 2.0), ("value", 4.0)]),
    ("arls", 1e7): (9, "2d70d32fd38473da", [
        ("value", 0.0), ("deriv", 0.0), ("value", 0.25), ("value", 0.5),
        ("value", 1.0), ("value", 2.0), ("value", 4.0)]),
    ("bgols", 10.0): (46, "74fcf97f9213937d", [
        ("deriv", 5.0), ("deriv", 10.0), ("deriv", 7.5), ("deriv", 6.25),
        ("deriv", 6.875), ("deriv", 7.1875), ("deriv", 7.34375)]),
    ("bgols", 1e7): (46, "e8a5dd6c9b9f248d", [
        ("deriv", 5.0), ("deriv", 13.090169943749475), ("deriv", 9.045084971874736),
        ("deriv", 7.022542485937368), ("deriv", 8.033813728906052),
        ("deriv", 7.52817810742171), ("deriv", 7.275360296679539)]),
    ("igols", 10.0): (7, "adfedc02873fe171", [
        ("deriv", 0.0), ("deriv", 0.25), ("deriv", 0.5), ("deriv", 1.0),
        ("deriv", 2.0), ("deriv", 4.0), ("deriv", 8.0)]),
    ("igols", 1e7): (8, "3e65e2aaf2f7d654", [
        ("deriv", 0.0), ("deriv", 0.25), ("deriv", 0.5), ("deriv", 1.0),
        ("deriv", 2.0), ("deriv", 4.0), ("deriv", 8.0)]),
}


# The rounds the probe answers them in, one per request list: a search's
# opening list and golden section's first inner pair each take one round.
# At alpha_max = 10, I-GOLS stops at the cap in place of asking 16.
ROUNDS = {("gs", 10.0): 65, ("gs", 1e7): 65, ("arls", 10.0): 7, ("arls", 1e7): 7,
          ("bgols", 10.0): 45, ("bgols", 1e7): 45,
          ("igols", 10.0): 6, ("igols", 1e7): 7}


# Hand-traced on the descent line F = -alpha from alpha_init = 0.4 with
# alpha_max = 0.5: each search asks its opening list and stops at the cap,
# without asking 5 or 13.09 (golden section), the growth step 0.5 + 5 phi =
# 8.59 (B-GOLS) or the doubled step 0.8 (I-GOLS).
AT_THE_CAP = {
    "gs": [("value", 0.0), ("value", 0.25), ("value", 0.5)],
    "bgols": [("deriv", 0.25), ("deriv", 0.5)],
    "igols": [("deriv", 0.0), ("deriv", 0.4)],
}


def _recorded_lists(probe):
    """The request lists ``probe`` is asked from now on."""
    lists = []
    ask = probe.ask
    probe.ask = lambda requests: lists.append(list(requests)) or ask(requests)
    return lists


class TestRequestOrder:
    @pytest.mark.parametrize("name,alpha_max", sorted(REQUEST_ORDER))
    def test_probe_sees_the_pinned_requests(self, name, alpha_max):
        probe = make_1d_probe(lambda a: 0.5 * (a - 7.5) ** 2, lambda a: a - 7.5)
        lists = _recorded_lists(probe)
        PUBLIC[name](probe, 0.25, alpha_max)
        seen = [request for asked in lists for request in asked]
        count, digest, opening = REQUEST_ORDER[name, alpha_max]
        assert seen[:7] == opening
        assert len(seen) == count
        assert hashlib.sha256(repr(seen).encode()).hexdigest()[:16] == digest
        assert len(lists) == ROUNDS[name, alpha_max]

    @pytest.mark.parametrize("name", sorted(AT_THE_CAP))
    def test_descent_stops_at_the_cap_unasked(self, name):
        probe = make_1d_probe(lambda a: -a, lambda a: -1.0)
        lists = _recorded_lists(probe)
        out = PUBLIC[name](probe, 0.4, 0.5)
        assert lists == [AT_THE_CAP[name]]
        assert (out.alpha, out.reason) == (0.5, "cap_max")
