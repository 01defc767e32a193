import functools
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gols.analysis import line_curves, scaled_descent_direction, scan_line, scan_lines
from gols.data import BUILTIN_DATASETS, BatchSampler, builtin_dataset, split_3_1_1
from gols.linesearch import (armijo, bisection_gols, golden_section, inexact_gols,
                             make_search)
from gols.net import Network, _pad, sigmoid
from gols import probe as probe_module
from gols.probe import (
    _GRAD,
    POLICIES,
    BatchObjective,
    DirectionalProbe,
    EvalCounter,
    KeyStream,
    LineCurves,
    LineTable,
    SyntheticObjective,
    scan_probes,
)
from gols.trainer import sgd_train

from conftest import PointProbe


def quadratic_bowl(center):
    """f(x) = 0.5 * ||x - center||^2 with its analytic gradient."""
    center = np.asarray(center, dtype=float)
    return SyntheticObjective(
        func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        grad_func=lambda x: x - center,
    )


@pytest.fixture(scope="module")
def iris_objective():
    ds = builtin_dataset("iris")
    split = split_3_1_1(ds, seed=0)
    net = Network(4, [3], 3)
    obj = BatchObjective(
        net, ds.features[split.train], ds.one_hot()[split.train]
    )
    return net, obj


def counts(probe):
    return probe.counter.functions, probe.counter.gradients


class TestEvalCounter:
    def test_cost_and_info_call_arithmetic(self):
        c = EvalCounter()
        c.functions += 3
        c.gradients += 2
        assert c.cost == 3 + 2 * 2
        assert c.info_calls == 3 + 2


class TestQuadraticClosedForm:
    def setup_method(self):
        self.center = np.array([0.6, 0.8])  # unit distance from the origin
        self.model = quadratic_bowl(self.center)
        x0 = np.zeros(2)
        d = -self.model.grad(x0)  # steepest descent: equals the center here
        self.probe = DirectionalProbe(self.model, x0, d, policy="full")

    def test_value_matches_closed_form(self):
        # F(alpha) = 0.5 * ||x0 - c||^2 * (1 - alpha)^2
        for alpha in [0.0, 0.25, 1.0, 2.0, 7.5]:
            assert_allclose(self.probe.value(alpha), 0.5 * (1 - alpha) ** 2, atol=1e-12)

    def test_deriv_matches_closed_form(self):
        # F'(alpha) = ||x0 - c||^2 * (alpha - 1), root at alpha = 1
        for alpha in [0.0, 0.5, 1.0, 3.0]:
            assert_allclose(self.probe.deriv(alpha), alpha - 1.0, atol=1e-12)

    def test_counters_track_each_call(self):
        self.probe.value(0.1)
        self.probe.value(0.2)
        self.probe.deriv(0.3)
        assert counts(self.probe) == (2, 1)
        assert self.probe.counter.cost == 4
        assert self.probe.counter.info_calls == 3


class TestMlpBackend:
    def test_value_at_zero_full_batch_equals_direct_loss(self, iris_objective):
        net, obj = iris_objective
        params = net.init_params(1)
        probe = DirectionalProbe(obj, params, np.ones(net.num_params), policy="full")
        assert probe.value(0.0) == obj.loss(params)

    def test_steepest_descent_slope_at_origin(self, iris_objective):
        net, obj = iris_objective
        params = net.init_params(2)
        sampler = BatchSampler(np.arange(obj.num_rows), 10, seed=5)
        batch = sampler.sample()
        g = obj.grad(params, batch)
        probe = DirectionalProbe(obj, params, -g, policy="fixed", fixed_sample=batch)
        assert_allclose(probe.deriv(0.0), -float(g @ g), rtol=1e-12)
        assert probe.deriv(0.0) < 0

    def test_deriv_matches_finite_difference_fixed_batch(self, iris_objective):
        net, obj = iris_objective
        params = net.init_params(3)
        sampler = BatchSampler(np.arange(obj.num_rows), 10, seed=6)
        probe = DirectionalProbe(obj, params, np.full(net.num_params, 0.3),
                                 policy="fixed", sampler=sampler)
        h = 1e-6
        for alpha in [0.0, 0.4, 1.7]:
            fd = (probe.value(alpha + h) - probe.value(alpha - h)) / (2 * h)
            assert_allclose(probe.deriv(alpha), fd, rtol=1e-5)

    def test_resample_policy_redraws_batches(self, iris_objective):
        net, obj = iris_objective
        params = net.init_params(4)
        sampler = BatchSampler(np.arange(obj.num_rows), 5, seed=7)
        probe = DirectionalProbe(obj, params, np.ones(net.num_params),
                                 policy="resample", sampler=sampler)
        values = {probe.value(0.5) for _ in range(8)}
        assert all(np.isfinite(v) for v in values)
        assert len(values) > 1  # fresh batch per evaluation

    def test_full_policy_is_deterministic(self, iris_objective):
        net, obj = iris_objective
        params = net.init_params(4)
        probe = DirectionalProbe(obj, params, np.ones(net.num_params), policy="full")
        assert probe.value(0.3) == probe.value(0.3)


class TestSyntheticNoise:
    def test_same_key_reproduces_noise(self):
        model = SyntheticObjective(lambda x: float(x[0]), lambda x: np.ones(1),
                                   noise_value=0.5, noise_grad=0.5)
        x = np.array([1.0])
        assert model.loss(x, 42) == model.loss(x, 42)
        assert model.loss(x, 42) != model.loss(x, 43)
        assert_allclose(model.grad(x, 42), model.grad(x, 42))

    def test_none_key_is_noiseless(self):
        model = SyntheticObjective(lambda x: float(x[0]), lambda x: np.ones(1),
                                   noise_value=0.5)
        assert model.loss(np.array([2.0]), None) == 2.0

    def test_keystream_drives_resample_policy(self):
        model = SyntheticObjective(lambda x: float(x[0]), lambda x: np.ones(1),
                                   noise_value=0.3, noise_grad=0.3)
        probe = DirectionalProbe(model, np.zeros(1), np.ones(1),
                                 policy="resample", sampler=KeyStream(11))
        assert probe.value(1.0) != probe.value(1.0)

    def test_keystream_deterministic(self):
        a, b = KeyStream(3), KeyStream(3)
        assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]

    @pytest.mark.parametrize("make", [lambda: KeyStream(3),
                                      lambda: BatchSampler(np.arange(20), 5, 3)],
                             ids=["keys", "batches"])
    @pytest.mark.parametrize("count", [-2, 2.0, True])
    def test_samples_count_is_checked_by_both_samplers(self, make, count):
        # A probe draws from either sampler, so both take the same counts.
        sampler = make()
        with pytest.raises(ValueError, match="^count must be"):
            sampler.samples(count)
        assert len(sampler.samples(0)) == 0


class TestValueAndDeriv:
    def test_shares_one_sample_draw(self):
        model = SyntheticObjective(lambda x: 0.5 * float(x @ x), lambda x: x,
                                   noise_value=0.2, noise_grad=0.2)
        probe = DirectionalProbe(model, np.zeros(2), np.array([1.0, 0.0]),
                                 policy="resample", sampler=KeyStream(9))
        f, fp = probe.value_and_deriv(1.0)
        # Mirror the draw: the same key feeds both evaluations.
        key = KeyStream(9).sample()
        assert f == model.loss(np.array([1.0, 0.0]), key)
        assert fp == float(model.grad(np.array([1.0, 0.0]), key) @ np.array([1.0, 0.0]))
        assert counts(probe) == (1, 1)

    def test_consistent_under_fixed_policy(self):
        model = quadratic_bowl([2.0, 0.0])
        probe = DirectionalProbe(model, np.zeros(2), np.array([1.0, 0.0]), policy="full")
        f, fp = probe.value_and_deriv(0.5)
        assert f == probe.value(0.5)
        assert fp == probe.deriv(0.5)


class TestValidation:
    def test_zero_direction_rejected(self):
        model = quadratic_bowl([1.0])
        with pytest.raises(ValueError):
            DirectionalProbe(model, np.zeros(1), np.zeros(1), policy="full")

    def test_non_finite_alpha_rejected(self):
        model = quadratic_bowl([1.0])
        probe = DirectionalProbe(model, np.zeros(1), np.ones(1), policy="full")
        for bad in [np.nan, np.inf, -np.inf]:
            with pytest.raises(ValueError):
                probe.value(bad)
            with pytest.raises(ValueError):
                probe.deriv(bad)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("method", ["value", "deriv", "value_and_deriv", "ask"])
    def test_non_finite_step_counts_and_draws_nothing(self, iris_objective, method,
                                                      policy):
        net, obj = iris_objective
        sampler = BatchSampler(np.arange(obj.num_rows), 10, seed=3)
        probe = DirectionalProbe(obj, net.init_params(1), np.ones(net.num_params),
                                 policy=policy, sampler=sampler)
        # Under fixed the probe drew its one batch when it was made.
        untouched = BatchSampler(np.arange(obj.num_rows), 10, seed=3)
        if policy == "fixed":
            untouched.sample()
        for bad in [np.nan, np.inf, -np.inf]:
            with pytest.raises(ValueError, match="^step size must be finite$"):
                if method == "ask":
                    # The bad step comes last: nothing of its list is
                    # counted or drawn.
                    probe.ask([("value", 0.5), ("deriv", 1.0), ("value", bad)])
                else:
                    getattr(probe, method)(bad)
        assert counts(probe) == (0, 0)
        assert np.array_equal(sampler.sample(), untouched.sample())

    @pytest.mark.parametrize("requests", [[("value", 0.5), ("slope", 1.0)],
                                          [("grad", 1.0)], [],
                                          [("value", 0.5), ("deriv", 1.0, "x")],
                                          [("value", 0.5), 42]])
    def test_unknown_kind_or_empty_list_counts_and_draws_nothing(self, iris_objective,
                                                                 requests):
        net, obj = iris_objective
        sampler = BatchSampler(np.arange(obj.num_rows), 10, seed=3)
        probe = DirectionalProbe(obj, net.init_params(1), np.ones(net.num_params),
                                 policy="resample", sampler=sampler)
        with pytest.raises(ValueError, match="nonempty list of 'value' and 'deriv'"):
            probe.ask(requests)
        assert counts(probe) == (0, 0)
        untouched = BatchSampler(np.arange(obj.num_rows), 10, seed=3)
        assert np.array_equal(sampler.sample(), untouched.sample())

    def test_non_finite_loss_or_slope_rejected(self):
        for bad in [np.nan, np.inf, -np.inf]:
            model = SyntheticObjective(lambda x: bad, lambda x: np.array([bad]))
            probe = DirectionalProbe(model, np.zeros(1), np.ones(1), policy="full")
            for evaluate in (probe.value, probe.deriv, probe.value_and_deriv):
                with pytest.raises(ValueError, match="non-finite"):
                    evaluate(1.0)

    def test_resample_without_sampler_rejected(self):
        model = quadratic_bowl([1.0])
        with pytest.raises(ValueError):
            DirectionalProbe(model, np.zeros(1), np.ones(1), policy="resample")

    def test_unknown_policy_rejected(self):
        model = quadratic_bowl([1.0])
        with pytest.raises(ValueError):
            DirectionalProbe(model, np.zeros(1), np.ones(1), policy="sometimes")


def table_replies(table, model, runs, kinds, alphas, samples):
    """Answer requests on the lines of ``table`` as the lockstep grid does:
    points from the table, one stacked backprop, replies from the table."""
    runs, alphas = np.asarray(runs), np.asarray(alphas, dtype=float)
    losses, grads = model.losses_and_gradients(table.points(runs, alphas), samples)
    return table.replies(runs, alphas, [kind == "deriv" for kind in kinds],
                         losses, grads)


class TestLineTable:
    @given(
        runs=st.integers(1, 6),
        num_params=st.integers(1, 40),
        requests=st.integers(1, 12),
        seed=st.integers(0, 2**31),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_points_and_slopes_match_probe(self, runs, num_params, requests, seed,
                                           scale):
        # Every point equals origin + alpha * direction on the run's own line,
        # and every slope equals the F' of a per-point probe on that line with
        # the same gradient, bit for bit, for any subset of runs in any order.
        rng = np.random.default_rng(seed)
        table = LineTable(runs, num_params)
        lines = []
        for run in range(runs):
            origin = scale * rng.normal(size=num_params)
            direction = scale * rng.normal(size=num_params)
            table.set(run, origin, direction, lambda: None)
            lines.append((origin, direction))
        asked = rng.integers(0, runs, requests)
        alphas = rng.choice([0.0, 5e-324, 1e-8, 0.3, 5.0, 13.09, 1e7], requests)
        alphas = np.where(rng.random(requests) < 0.5, alphas,
                          10.0 ** rng.uniform(-8, 7, requests))
        grads = scale * rng.normal(size=(requests, num_params))
        points = table.points(asked, alphas)
        replies = table.replies(asked, alphas, [True] * requests,
                                np.zeros(requests), grads)
        for k, run in enumerate(asked):
            origin, direction = lines[run]
            gradient = grads[k]
            model = SyntheticObjective(lambda x: 0.0, lambda x: gradient)
            probe = PointProbe(model, origin, direction, policy="full")
            assert points[k].tobytes() == (origin + alphas[k] * direction).tobytes()
            assert replies[k] == probe.deriv(alphas[k])

    def test_replies_are_what_value_and_deriv_return(self):
        # Two runs share one stacked call; each reply is the float the
        # objective's one-point loss or gradient gives on the same sample key.
        model = SyntheticObjective(lambda x: float(x @ x), lambda x: 2.0 * x,
                                   noise_value=0.3, noise_grad=0.3)
        table = LineTable(2, 2)
        origins = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        directions = np.array([-0.5, 1.5]), np.array([2.0, -1.0])
        for run in (1, 0):
            table.set(run, origins[run], directions[run], lambda: None)
        runs, kinds, alphas = [0, 1, 1, 0], ["value", "deriv", "value", "deriv"], \
            [0.0, 0.5, 1.5, 3.0]
        keys = KeyStream(4)
        samples = [keys.sample() for _ in runs]
        replies = table_replies(table, model, runs, kinds, alphas, samples)
        assert all(type(reply) is float for reply in replies)
        for run, kind, alpha, key, reply in zip(runs, kinds, alphas, samples, replies):
            mirror = PointProbe(model, origins[run], directions[run],
                                policy="fixed", fixed_sample=key)
            assert reply == getattr(mirror, kind)(alpha)  # bit-equal floats

    @pytest.mark.parametrize("kind", ["value", "deriv"])
    def test_non_finite_reply_is_the_probes_error(self, kind):
        bad = SyntheticObjective(lambda x: np.nan if x[0] > 1.0 else float(x[0]),
                                 lambda x: np.full(2, np.nan if x[0] > 1.0 else 1.0))
        origin, direction = np.zeros(2), np.array([1.0, 0.0])
        table = LineTable(1, 2)
        table.set(0, origin, direction, lambda: None)
        replies = table_replies(table, bad, [0, 0], [kind, kind], [0.5, 1.5],
                                [None, None])
        assert replies[0] == 0.5 if kind == "value" else replies[0] == 1.0
        mirror = DirectionalProbe(bad, origin, direction, policy="full")
        with pytest.raises(ValueError) as direct:
            getattr(mirror, kind)(1.5)
        assert isinstance(replies[1], ValueError)
        assert str(replies[1]) == str(direct.value)

    def test_non_finite_step_is_the_probes_error(self):
        # answer refuses the list of run 1 before drawing anything of it,
        # with the error a probe raises, and answers run 0 in the same round.
        model = quadratic_bowl([1.0, 0.0])
        table = LineTable(2, 2)
        draws = []
        for run in range(2):
            table.set(run, np.zeros(2), np.ones(2), lambda run=run: draws.append(run))
        mirror = DirectionalProbe(model, np.zeros(2), np.ones(2), policy="full")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError) as direct:
                mirror.value(bad)
            draws.clear()
            replies = table.answer(model, {0: [("value", 1.0)],
                                           1: [("value", 1.0), ("deriv", bad)]})
            assert replies[0] == [mirror.value(1.0)]
            assert type(replies[1]) is ValueError
            assert str(replies[1]) == str(direct.value)
            assert draws == [0]

    @pytest.mark.parametrize("step", [np.float32(0.1), np.int64(2), 2, np.array(0.3),
                                      Fraction(1, 3)],
                             ids=["float32", "int64", "int", "0-d array", "Fraction"])
    def test_scalar_step_gets_the_bits_of_its_float(self, step):
        # A step of another scalar type is checked apart from the Python
        # floats, and is answered as the float equal to it, on the grid and
        # through ask alike.
        model = quadratic_bowl([1.0, 0.0])
        direction = np.array([1.0, 0.3])
        table = LineTable(2, 2)
        for run in range(2):
            table.set(run, np.zeros(2), direction, lambda: None)
        lists = [[("value", alpha), ("deriv", alpha)] for alpha in (step, float(step))]
        probe = DirectionalProbe(model, np.zeros(2), direction, policy="full")
        answered = table.answer(model, dict(enumerate(lists)))
        replies = [answered[0], answered[1], *map(probe.ask, lists)]
        assert all(type(reply) is float for pair in replies for reply in pair)
        assert len({tuple(map(float.hex, pair)) for pair in replies}) == 1

    @pytest.mark.parametrize("other", [[("value", 1.0), ("deriv", 0.5)],
                                       [("value", np.array([1.0]))]])
    def test_step_that_is_no_scalar_fails_its_own_run(self, other):
        # A one-element array and a numpy complex scalar compare as finite,
        # so the request check also asks whether a step that is not a Python
        # float is one real scalar.  A run with a step that is not gets the
        # error a probe raises for its list before anything of it is drawn,
        # and a run of scalar steps in the same group is answered.
        model = quadratic_bowl([1.0, 0.0])
        table = LineTable(2, 2)
        draws = []
        for run in range(2):
            table.set(run, np.zeros(2), np.ones(2), lambda run=run: draws.append(run))
        mirror = DirectionalProbe(model, np.zeros(2), np.ones(2), policy="full")
        for step in ([2.0], np.array([2.0]), np.ones((1, 1)), np.complex128(2.0)):
            asked = [("value", 0.5), ("deriv", step)]
            draws.clear()
            replies = table.answer(model, {0: other, 1: asked})
            for run, requests in enumerate([other, asked]):
                try:
                    want = mirror.ask(requests)
                except ValueError as direct:
                    assert type(replies[run]) is ValueError
                    assert str(replies[run]) == str(direct)
                    assert "nonempty list" in str(direct)
                else:
                    assert replies[run] == want
            assert draws == [0] * len(other) * (type(replies[0]) is list)
            # Through ask the probe neither counts nor draws anything.
            keys = []
            probe = DirectionalProbe(model, np.zeros(2), np.ones(2),
                                     sampler=SimpleNamespace(sample=lambda: keys.append(0)))
            with pytest.raises(ValueError, match="nonempty list"):
                probe.ask(asked)
            assert (probe.counter.functions, probe.counter.gradients, keys) == (0, 0, [])


def scan_one(probe, alphas):
    """F and F' of ``probe`` alone at each step of ``alphas``: one row of
    :func:`scan_probes`."""
    values, slopes = scan_probes([probe], alphas)
    return values[0], slopes[0]


def per_node(probe, alphas):
    """Reference for :func:`scan_one`: one per-point ``value_and_deriv``
    call of a :class:`PointProbe` per node."""
    pairs = [probe.value_and_deriv(alpha) for alpha in alphas]
    return np.array([f for f, _ in pairs]), np.array([fp for _, fp in pairs])


class TestStackedScan:
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        rows=st.integers(1, 150),
        batch_share=st.floats(0.0, 1.0),
        nodes=st.integers(1, 60),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(0, 2**31),
    )
    # Each example spans several blocks of at most 4096 stacked rows: 60
    # nodes of 150, 75 and 150 rows make 3, 2 and 3 blocks.
    @example(hidden=[5, 4], rows=150, batch_share=1.0, nodes=60,
             policy="resample", seed=1)
    @example(hidden=[3], rows=150, batch_share=0.5, nodes=60,
             policy="fixed", seed=2)
    @example(hidden=[2, 6], rows=150, batch_share=0.0, nodes=60,
             policy="full", seed=3)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_evaluation(self, hidden, rows, batch_share, nodes,
                                         policy, seed):
        rng = np.random.default_rng(seed)
        net = Network(int(rng.integers(1, 6)), hidden, int(rng.integers(1, 5)))
        model = BatchObjective(net, rng.normal(size=(rows, net.input_dim)),
                               rng.uniform(size=(rows, net.output_dim)))
        batch = 1 + int(batch_share * (rows - 1))
        origin = rng.uniform(-1.0, 1.0, net.num_params)
        direction = rng.normal(size=net.num_params)
        alphas = np.sort(rng.uniform(-1.0, 5.0, nodes))

        def probe(kind):
            sampler = BatchSampler(np.arange(rows), batch, seed=seed)
            return kind(model, origin, direction, policy=policy, sampler=sampler), sampler

        stacked, stacked_sampler = probe(DirectionalProbe)
        looped, looped_sampler = probe(PointProbe)
        values, slopes = scan_one(stacked, alphas)
        ref_values, ref_slopes = per_node(looped, alphas)
        for got, want in ((values, ref_values), (slopes, ref_slopes)):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert counts(stacked) == counts(looped) == (nodes, nodes)
        assert np.array_equal(stacked_sampler.sample(), looped_sampler.sample())

    @pytest.mark.parametrize("policy", POLICIES)
    def test_synthetic_objective_matches_loop_exactly(self, policy):
        model = SyntheticObjective(lambda x: 0.5 * float(x @ x), lambda x: x,
                                   noise_value=0.3, noise_grad=0.3)
        alphas = np.linspace(0.0, 3.0, 31)
        keys = KeyStream(4), KeyStream(4)
        stacked, looped = (kind(model, np.ones(2), np.array([-1.0, 0.5]),
                                policy=policy, sampler=key)
                           for kind, key in zip((DirectionalProbe, PointProbe), keys))
        values, slopes = scan_one(stacked, alphas)
        ref_values, ref_slopes = per_node(looped, alphas)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(slopes, ref_slopes)
        assert counts(stacked) == counts(looped)
        assert keys[0].sample() == keys[1].sample()

    @pytest.mark.parametrize("policy", ["resample", "full"])
    def test_nan_row_names_first_bad_alpha(self, iris_objective, policy):
        net, obj = iris_objective
        inputs = obj.inputs.copy()
        inputs[7] = np.nan
        model = BatchObjective(net, inputs, obj.targets)
        alphas = 0.1 * np.arange(40)
        stacked, looped = (
            kind(model, net.init_params(5), np.ones(net.num_params), policy=policy,
                 sampler=BatchSampler(np.arange(obj.num_rows), 10, seed=8))
            for kind in (DirectionalProbe, PointProbe))
        with pytest.raises(ValueError) as want:
            per_node(looped, alphas)
        first_bad = looped.counter.functions - 1
        assert f"F({float(alphas[first_bad])!r})" in str(want.value)
        assert (first_bad > 0) == (policy == "resample")
        with pytest.raises(ValueError) as got:
            scan_one(stacked, alphas)
        assert str(got.value) == str(want.value)

    def test_non_finite_alpha_rejected(self):
        probe = DirectionalProbe(quadratic_bowl([1.0]), np.zeros(1), np.ones(1),
                                 policy="full")
        with pytest.raises(ValueError, match="finite"):
            scan_one(probe, np.array([0.0, np.nan]))


class TestScanProbes:
    """Several probes scanned in one stacked evaluation against one scan
    per probe."""

    alphas = np.linspace(0.0, 4.0, 41)
    # On the iris partition of 90 rows, 4 probes x 41 nodes of batches of 10
    # fit one block of 409 points, and the full policy spans 4 blocks of 45.
    PROBES = 4

    @staticmethod
    def synthetic():
        return SyntheticObjective(lambda x: 0.5 * float(x @ x) + np.sin(3.0 * x[0]),
                                  lambda x: x + np.array([3.0 * np.cos(3.0 * x[0]), 0.0]),
                                  noise_value=0.3, noise_grad=0.3)

    def probes(self, model, policy, batch=10, seed=0):
        """``PROBES`` probes of ``model`` on lines of their own, each with its
        own sampler, and the samplers."""
        rng = np.random.default_rng(seed)
        dim = model.net.num_params if isinstance(model, BatchObjective) else 2
        made, samplers = [], []
        for k in range(self.PROBES):
            if isinstance(model, BatchObjective):
                sampler = BatchSampler(np.arange(model.num_rows), batch, seed=(seed, k))
            else:
                sampler = KeyStream((seed, k))
            made.append(DirectionalProbe(model, rng.uniform(-1.0, 1.0, dim),
                                         0.3 * rng.normal(size=dim), policy=policy,
                                         sampler=sampler))
            samplers.append(sampler)
        return made, samplers

    def models(self, objective, iris_objective):
        return iris_objective[1] if objective == "batch" else self.synthetic()

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("objective", ["batch", "synthetic"])
    def test_matches_one_scan_per_probe(self, iris_objective, objective, policy):
        model = self.models(objective, iris_objective)
        stacked, stacked_samplers = self.probes(model, policy)
        alone, alone_samplers = self.probes(model, policy)
        values, slopes = scan_probes(stacked, self.alphas)
        assert values.shape == slopes.shape == (self.PROBES, len(self.alphas))
        for k, probe in enumerate(alone):
            want_values, want_slopes = scan_one(probe, self.alphas)
            assert values[k].tobytes() == want_values.tobytes()
            assert slopes[k].tobytes() == want_slopes.tobytes()
            assert counts(stacked[k]) == counts(probe) == (41, 41)
        for got, want in zip(stacked_samplers, alone_samplers):
            assert np.array_equal(got.sample(), want.sample())

    def test_probes_may_share_a_sampler(self, iris_objective):
        # Sharing a sampler, the probes draw their nodes probe after probe.
        model = iris_objective[1]
        shared = [BatchSampler(np.arange(model.num_rows), 10, seed=3) for _ in range(2)]
        stacked, alone = ([DirectionalProbe(model, np.full(model.net.num_params, 0.1 * k),
                                            np.ones(model.net.num_params), sampler=sampler)
                           for k in range(3)] for sampler in shared)
        values, slopes = scan_probes(stacked, self.alphas)
        for k, probe in enumerate(alone):
            want_values, want_slopes = scan_one(probe, self.alphas)
            assert values[k].tobytes() == want_values.tobytes()
            assert slopes[k].tobytes() == want_slopes.tobytes()
        assert np.array_equal(shared[0].sample(), shared[1].sample())

    @pytest.mark.parametrize("kind", ["F", "F'"])
    def test_first_bad_node_in_probe_order_names_the_error(self, kind):
        # Past x[0] = 1 the loss (or slope) is NaN.  The line from 0.35
        # fails at node 7, the one from 0.75 at node 3; the first line never
        # fails.  The error is the first failing scan's, in probe order.
        def guard(x, good):
            return np.nan if x[0] > 1.0 else good

        model = SyntheticObjective(
            lambda x: guard(x, 0.5 * float(x @ x)) if kind == "F" else 0.5 * float(x @ x),
            lambda x: x * guard(x, 1.0) if kind == "F'" else x)
        alphas = np.linspace(0.0, 2.0, 21)

        def lines():
            return [DirectionalProbe(model, np.array([x0, 0.0]), np.array([1.0, 0.5]),
                                     policy="full") for x0 in (-5.0, 0.35, 0.75)]

        messages = []
        for probe in lines():
            try:
                scan_one(probe, alphas)
            except ValueError as exc:
                messages.append(str(exc))
        assert len(messages) == 2
        assert f"{kind}({float(alphas[7])!r})" in messages[0]
        with pytest.raises(ValueError) as got:
            scan_probes(lines(), alphas)
        assert str(got.value) == messages[0]

    @pytest.mark.parametrize("policy", ["resample", "full"])
    def test_nan_row_raises_the_first_failing_scans_error(self, iris_objective, policy):
        net, obj = iris_objective
        inputs = obj.inputs.copy()
        inputs[7] = np.nan
        model = BatchObjective(net, inputs, obj.targets)
        messages = []
        for probe in self.probes(model, policy)[0]:
            try:
                scan_one(probe, self.alphas)
            except ValueError as exc:
                messages.append(str(exc))
        assert messages
        with pytest.raises(ValueError) as got:
            scan_probes(self.probes(model, policy)[0], self.alphas)
        assert str(got.value) == messages[0]

    def test_probes_of_different_models_rejected(self, iris_objective):
        model = iris_objective[1]
        probes = self.probes(model, "full")[0]
        twin = BatchObjective(model.net, model.inputs, model.targets)
        probes.append(DirectionalProbe(twin, probes[0].origin, probes[0].direction,
                                       policy="full"))
        with pytest.raises(ValueError, match="one model"):
            scan_probes(probes, self.alphas)

    @pytest.mark.parametrize("other", [dict(policy="resample", batch=20),
                                       dict(policy="fixed", batch=5),
                                       dict(policy="full")])
    def test_probes_of_different_sample_shapes_rejected(self, iris_objective, other):
        model = iris_objective[1]
        probes = self.probes(model, "resample", batch=10)[0]
        probes += self.probes(model, **other)[0][:1]
        with pytest.raises(ValueError, match="one shape"):
            scan_probes(probes, self.alphas)

    def test_no_probes_rejected(self):
        with pytest.raises(ValueError, match="at least one probe"):
            scan_probes([], self.alphas)

    def one_line(self, model, batch, repeats, seed=0):
        """``repeats`` probes of ``model`` on one line, each with its own
        sampler of ``batch`` rows, as ``gols scan`` makes them."""
        rng = np.random.default_rng(seed)
        dim = model.net.num_params
        origin, direction = rng.uniform(-1.0, 1.0, dim), 0.3 * rng.normal(size=dim)
        return [DirectionalProbe(model, origin, direction,
                                 sampler=BatchSampler(np.arange(model.num_rows), batch,
                                                      seed=(seed, k)))
                for k in range(repeats)]

    @pytest.mark.parametrize("batch, repeats", [(10, 10), (50, 12), (89, 2)])
    def test_one_table_matches_one_scan_per_probe(self, iris_objective, batch, repeats):
        # Probes of one line handed its curves take their scans from that
        # one table of (node, row) pairs: each F has the bits of its probe
        # alone, each F' agrees to 1e-12 of its rounding scale
        # (rounding_scales), and every probe draws and counts as it would
        # alone.
        model = iris_objective[1]
        probes = self.one_line(model, batch, repeats)
        curves = LineCurves(model, probes[0].origin, probes[0].direction, self.alphas)
        values, slopes = scan_probes(probes, self.alphas, curves)
        for k, probe in enumerate(self.one_line(model, batch, repeats)):
            index = BatchSampler(np.arange(model.num_rows), batch, seed=(0, k)).samples(
                len(self.alphas))
            want_values, want_slopes = scan_one(probe, self.alphas)
            assert values[k].tobytes() == want_values.tobytes()
            scale = rounding_scales(curves, index)[1]
            assert np.all(np.abs(slopes[k] - want_slopes) <= 1e-12 * scale)
            assert counts(probes[k]) == counts(probe) == (41, 41)
            assert np.array_equal(probes[k]._sampler.sample(), probe._sampler.sample())

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("objective", ["batch", "one line", "synthetic"])
    def test_empty_grid_draws_and_counts_nothing(self, iris_objective, objective, policy):
        model = self.models("batch" if objective == "one line" else objective,
                            iris_objective)
        if objective == "one line":
            made = [self.one_line(model, 10, 12, seed=4) for _ in range(2)]
            made = [[DirectionalProbe(model, p.origin, p.direction, policy=policy,
                                      sampler=p._sampler) for p in probes]
                    for probes in made]
        else:
            made = [self.probes(model, policy, seed=4)[0] for _ in range(2)]
        probes, fresh = made
        values, slopes = scan_probes(probes, [])
        assert values.shape == slopes.shape == (len(probes), 0)
        for probe, twin in zip(probes, fresh):
            assert counts(probe) == (0, 0)
            assert np.array_equal(probe._sampler.sample(), twin._sampler.sample())

    def test_curves_of_another_line_or_grid_rejected(self, iris_objective):
        model = iris_objective[1]
        probes = self.one_line(model, 10, 12)
        origin, direction = probes[0].origin, probes[0].direction
        twin = BatchObjective(model.net, model.inputs, model.targets)
        for curves in (LineCurves(model, origin + 1e-9, direction, self.alphas),
                       LineCurves(model, origin, 2.0 * direction, self.alphas),
                       LineCurves(model, origin, direction, self.alphas[:-1]),
                       LineCurves(twin, origin, direction, self.alphas)):
            with pytest.raises(ValueError, match="line and grid of their curves"):
                scan_probes(probes, self.alphas, curves)
        assert counts(probes[0]) == (0, 0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_curves_of_a_non_finite_grid_rejected(self, iris_objective, bad):
        # Before the pass, so without a numpy warning.
        model = iris_objective[1]
        probe = self.one_line(model, 10, 1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step size must be finite"):
                LineCurves(model, probe.origin, probe.direction, np.append(self.alphas, bad))

    def block_bound_results(self, model):
        """The scans of every policy, under ``resample`` at batches 1, 10 and
        50, the scans of 12 probes of one line at batches 10 and 50, each
        batch size handed the line's curves, and the replies of one four-run
        ``LineTable.answer`` round of ``value``, ``deriv`` and
        direction-gradient requests."""
        scans = [scan_probes(self.probes(model, policy, batch)[0], self.alphas)
                 for policy, batch in [("resample", 1), ("resample", 10),
                                       ("resample", 50), ("fixed", 10), ("full", 10)]]
        for batch in (10, 50):
            probes = self.one_line(model, batch, 12)
            curves = LineCurves(model, probes[0].origin, probes[0].direction, self.alphas)
            scans.append(scan_probes(probes, self.alphas, curves))
        rng = np.random.default_rng(5)
        dim = model.net.num_params
        table = LineTable(4, dim)
        sampler = BatchSampler(np.arange(model.num_rows), 10, seed=6)
        batch = sampler.sample()
        for run, draw in enumerate([sampler.sample, lambda: batch, lambda: None,
                                    sampler.sample]):
            table.set(run, rng.uniform(-1.0, 1.0, dim), 0.3 * rng.normal(size=dim), draw)
        replies = table.answer(model, {
            0: [("value", 0.5), ("deriv", 1.0), ("deriv", 2.0)],
            1: [("deriv", 0.3), ("value", 3.0)],
            2: [("value", 1.5), ("deriv", 0.1)],
            3: [(_GRAD, rng.uniform(-1.0, 1.0, dim), sampler.sample())],
        })
        return scans, [replies[run] for run in range(4)]

    @pytest.mark.parametrize("bound", [1, 7, 1024, 4096])
    def test_results_do_not_depend_on_the_block_bound(self, iris_objective, monkeypatch,
                                                      bound):
        # Each stacked row is evaluated on its own, so blocks of any size
        # give the bits of one block that holds every row.
        model = iris_objective[1]
        monkeypatch.setattr(probe_module, "_BLOCK_ROWS", 1 << 30)
        want_scans, want_replies = self.block_bound_results(model)
        monkeypatch.setattr(probe_module, "_BLOCK_ROWS", bound)
        scans, replies = self.block_bound_results(model)
        for (values, slopes), (want_values, want_slopes) in zip(scans, want_scans):
            assert np.array_equal(values, want_values)
            assert np.array_equal(slopes, want_slopes)
        assert replies[:3] == want_replies[:3]
        assert np.array_equal(replies[3][0], want_replies[3][0])


@functools.cache
def partition(name):
    """The training partition of the builtin dataset ``name``."""
    ds = builtin_dataset(name)
    split = split_3_1_1(ds, seed=0)
    return ds.features[split.train], ds.one_hot()[split.train]


def rounding_scales(curves, index):
    """The scales of the rounding in F and F' of the ``(..., M, P)`` batches
    ``index`` on the line of ``curves``: 200 / (K * P) times the sum over
    each batch's rows and outputs of |r| times the tangent taken with every
    term in absolute value, along |W| for F and along the direction for F'.

    A sum of |r . a'| alone bounds neither F': next to saturated sigmoids
    (weights of 1e3) the terms of one z' cancel, and both the curves and
    the backprop round on the scale of the terms.  At ``P = 1`` the stack
    takes numpy's vector path, so its z itself rounds otherwise, and a'
    moves with z by up to the largest sum of |x| |w| of the row's layers;
    each row's F' term then carries that factor too.
    """
    model, net = curves.model, curves.model.net
    mats = net._layers(curves.alphas[:, None] * curves.direction + curves.origin)

    def abs_slopes(dots):
        x, dx, z_abs = model._padded, None, 0.0
        for c, (w, dw) in enumerate(zip(mats, dots)):
            a = sigmoid(x @ w.mT)
            z_abs = np.maximum(z_abs, (np.abs(x) @ np.abs(w).mT).max(axis=-1))
            dz = np.abs(x) @ np.abs(dw).mT
            if dx is not None:
                dz = dz + dx @ np.abs(w[..., 1:]).mT
            dx = a * (1.0 - a) * dz
            if c < len(mats) - 1:
                x = _pad(a)
        return np.vecdot(np.abs(a - model.targets), dx), z_abs

    k, rows = curves.residuals.shape[-1], index.shape[-1]
    flat = index + curves.slopes.shape[1] * np.arange(index.shape[-2])[:, None]
    value_terms = abs_slopes([np.abs(w) for w in mats])[0]
    slope_terms, z_abs = abs_slopes(net._layers(curves.direction))
    if rows == 1:
        slope_terms *= 1.0 + z_abs
    return [200.0 / (k * rows) * terms.take(flat).sum(axis=-1)
            for terms in (value_terms, slope_terms)]


class TestTableEvaluation:
    """Scans from the table of a line's (node, partition row) pairs, its
    :class:`LineCurves`, against the stacked backprop and ``np.vecdot(grad,
    direction)``."""

    @given(
        dataset=st.sampled_from(BUILTIN_DATASETS),
        hidden=st.lists(st.integers(1, 7), min_size=1, max_size=2),
        policy=st.sampled_from(POLICIES),
        batch_share=st.floats(0.0, 1.0),
        repeats=st.integers(1, 16),
        nodes=st.integers(1, 30),
        scale=st.floats(-1.0, 3.0),
        bound=st.sampled_from([1, 7, 4096]),
        seed=st.integers(0, 2**31),
    )
    # Weights of about 1e3 saturate every sigmoid.
    @example(dataset="iris", hidden=[7, 7], policy="resample", batch_share=1.0,
             repeats=16, nodes=30, scale=3.0, bound=1, seed=1)
    @example(dataset="noisy-quadratic", hidden=[2], policy="resample", batch_share=0.0,
             repeats=1, nodes=1, scale=0.0, bound=7, seed=2)
    @example(dataset="blobs", hidden=[3, 3], policy="fixed", batch_share=0.1,
             repeats=12, nodes=30, scale=2.0, bound=4096, seed=3)
    @example(dataset="iris", hidden=[3], policy="full", batch_share=0.0,
             repeats=3, nodes=30, scale=0.5, bound=7, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stacked_call(self, dataset, hidden, policy, batch_share, repeats,
                                     nodes, scale, bound, seed):
        # The scans of R probes of one line from its curves, in blocks of any
        # bound: F has the bits of each probe's stacked scan alone at P >= 2,
        # and F' agrees with its np.vecdot(grad, direction) to 1e-12 of the
        # rounding scale of rounding_scales, not of |F'|, which cancels near
        # a sign change.  At P = 1, F agrees to 1e-12 of its own scale.
        inputs, targets = partition(dataset)
        net = Network(inputs.shape[1], hidden, targets.shape[1])
        model = BatchObjective(net, inputs, targets)
        rows = model.num_rows
        batch = 1 + int(batch_share * (rows - 1))
        rng = np.random.default_rng(seed)
        origin, direction = 10.0 ** scale * rng.normal(size=(2, net.num_params))
        alphas = np.linspace(0.0, 2.0, nodes)

        def probes():
            return [DirectionalProbe(model, origin, direction, policy=policy,
                                     sampler=BatchSampler(np.arange(rows), batch,
                                                          seed=(seed, k)))
                    for k in range(repeats)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probe_module, "_BLOCK_ROWS", bound)
            curves = LineCurves(model, origin, direction, alphas)
            values, slopes = scan_probes(probes(), alphas, curves)
        assert curves.residuals.shape == (nodes, rows, net.output_dim)
        assert curves.slopes.shape == (nodes, rows)
        for k, probe in enumerate(probes()):
            if policy == "full":
                index = np.broadcast_to(np.arange(rows), (nodes, rows))
            elif policy == "fixed":
                index = np.broadcast_to(probe.fixed_sample, (nodes, batch))
            else:
                index = BatchSampler(np.arange(rows), batch, seed=(seed, k)).samples(nodes)
            want_values, want_slopes = scan_one(probe, alphas)
            value_scale, slope_scale = rounding_scales(curves, index)
            if index.shape[-1] >= 2:
                assert values[k].tobytes() == want_values.tobytes()
            else:
                assert np.all(np.abs(values[k] - want_values) <= 1e-12 * value_scale)
            assert np.all(np.abs(slopes[k] - want_slopes) <= 1e-12 * slope_scale)

    @pytest.mark.parametrize("dims", [(1, [1], 1), (1, [3, 1], 2), (2, [1, 2], 1),
                                      (4, [8, 1], 3), (2, [1, 9], 1)])
    @pytest.mark.parametrize("rows", [2, 9, 40])
    def test_layers_of_width_one(self, dims, rows):
        # A width of 1 sends numpy's matmul down its vector paths, in the
        # curves as in the stack; next to a layer of 8 or more nodes, a
        # matrix-vector product rounds each row by its position.
        net = Network(*dims)
        rng = np.random.default_rng(rows)
        model = BatchObjective(net, rng.normal(size=(50, net.input_dim)),
                               rng.uniform(size=(50, net.output_dim)))
        index = rng.random((4, 6, 50)).argsort(axis=-1)[..., :rows]
        origin, direction = rng.normal(size=(2, net.num_params))
        alphas = np.linspace(0.0, 1.0, 6)
        curves = LineCurves(model, origin, direction, alphas)
        values, slopes = curves.batches(index)
        want_values, grads = model.losses_and_gradients(
            np.tile(alphas[:, None] * direction + origin, (4, 1)), index.reshape(-1, rows))
        want_slopes = np.vecdot(grads, direction).reshape(4, 6)
        assert values.tobytes() == want_values.tobytes()
        assert np.all(np.abs(slopes - want_slopes) <= 1e-12 * rounding_scales(curves, index)[1])

    def test_seeded_scans_keep_their_counts(self):
        # The scan-study line (iris 4-3-3 at seed 0, 12 repeats at batches 1,
        # 10, 30 and 50): each scan from the curves finds the minima and sign
        # changes of its probe's stacked scan alone.
        ds = builtin_dataset("iris")
        split = split_3_1_1(ds, seed=(0, 9))
        net = Network(4, [3], 3)
        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        origin = net.init_params((0, 101, 0))
        direction = scaled_descent_direction(model, origin)
        curves = line_curves(model, origin, direction)
        rows = model.num_rows
        for i, batch in enumerate((1, 10, 30, 50)):
            def probes():
                return [DirectionalProbe(model, origin, direction,
                                         sampler=BatchSampler(np.arange(rows), batch,
                                                              seed=(0, 303, i, k)))
                        for k in range(12)]

            for scan, probe in zip(scan_lines(probes(), curves=curves), probes()):
                alone = scan_line(probe)
                assert np.array_equal(scan.minima_alphas, alone.minima_alphas)
                assert np.array_equal(scan.snngpp_alphas, alone.snngpp_alphas)


class StackedOnly:
    """An objective with the two stacked calls and nothing else."""

    def __init__(self, model):
        self.losses = model.losses
        self.losses_and_gradients = model.losses_and_gradients


class TestStackedOnlyObjective:
    # Every evaluation along a line, the grid's and a probe's alike, takes
    # one of the two stacked calls; the outcomes are those of the per-point
    # reference on the full objective.
    model = SyntheticObjective(lambda x: 0.5 * float(x @ x) + np.sin(3.0 * x[0]),
                               lambda x: x + np.array([3.0 * np.cos(3.0 * x[0]), 0.0]),
                               noise_value=0.05, noise_grad=0.05)
    origin, direction = np.array([1.5, -1.0]), np.array([-1.0, 0.5])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("search", [
        golden_section, bisection_gols,
        lambda probe: armijo(probe, 0.25), lambda probe: inexact_gols(probe, 0.25)])
    def test_public_searches(self, search, policy):
        stacked, reference = (
            kind(model, self.origin, self.direction, policy=policy, sampler=KeyStream(2))
            for kind, model in ((DirectionalProbe, StackedOnly(self.model)),
                                (PointProbe, self.model)))
        out, expected = search(stacked), search(reference)
        assert (out.alpha, out.function_evals, out.gradient_evals, out.reason) == (
            expected.alpha, expected.function_evals, expected.gradient_evals,
            expected.reason)
        assert counts(stacked) == counts(reference)

    def test_scan_line(self):
        probe = DirectionalProbe(StackedOnly(self.model), self.origin, self.direction,
                                 sampler=KeyStream(3))
        scan = scan_line(probe, step=0.1, steps=20)
        reference = per_node(PointProbe(self.model, self.origin, self.direction,
                                        sampler=KeyStream(3)), scan.alphas)
        assert np.array_equal(scan.values, reference[0])
        assert np.array_equal(scan.slopes, reference[1])

    def test_scaled_descent_direction(self):
        got = scaled_descent_direction(StackedOnly(self.model), self.origin)
        assert got.tobytes() == scaled_descent_direction(self.model, self.origin).tobytes()

    @pytest.mark.parametrize("resolver", ["bgols", make_search("arls")])
    def test_sgd_train(self, resolver):
        def metrics(points):
            return np.zeros((len(points), 3))

        traces = [sgd_train(model, self.origin, KeyStream(4), resolver, 6, metrics)
                  for model in (StackedOnly(self.model), self.model)]
        assert traces[0].rows.tobytes() == traces[1].rows.tobytes()
        assert traces[0].final.info_calls > 6
