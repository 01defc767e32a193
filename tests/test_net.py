import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gols.net import _SIG_HI, Network, sigmoid
from gols.probe import BatchObjective


def forward_oracle(net, params, row):
    """Straight-line per-sample re-implementation of the forward pass."""
    a = list(row)
    for w in net.unpack(params):
        nxt = []
        for j in range(w.shape[0]):
            z = w[j, 0] + sum(w[j, 1 + i] * a[i] for i in range(len(a)))
            nxt.append(1.0 / (1.0 + math.exp(-z)))
        a = nxt
    return np.array(a)


def loss_oracle(net, params, inputs, targets):
    """Double loop over samples and outputs."""
    p, k = targets.shape
    total = 0.0
    for b in range(p):
        yhat = forward_oracle(net, params, inputs[b])
        for j in range(k):
            total += (yhat[j] - targets[b, j]) ** 2
    return 100.0 / (k * p) * total


def central_difference_gradient(net, params, inputs, targets, h=1e-6):
    grad = np.empty_like(params)
    for i in range(params.size):
        hi = params.copy()
        lo = params.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (net.loss(hi, inputs, targets) - net.loss(lo, inputs, targets)) / (2 * h)
    return grad


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extreme_inputs_stay_strictly_open(self):
        z = np.array([-1e6, -800.0, -40.0, 40.0, 800.0, 1e6])
        s = sigmoid(z)
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)
        assert np.all(np.isfinite(s))

    def test_matches_naive_formula_in_safe_range(self):
        z = np.linspace(-30, 30, 101)
        assert_allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), rtol=1e-15)

    def test_scalar_in_scalar_out(self):
        # Values of the clipped formula written out of place, bit for bit;
        # -800 is clipped to -708, whose value is the floor.
        for z, want in [(0.5, 0.6224593312018546), (-0.5, 0.3775406687981454),
                        (-0.0, 0.5), (40.0, 0.9999999999999999),
                        (-800.0, 3.307553003638408e-308), (3, 0.9525741268224334)]:
            got = sigmoid(z)
            assert np.ndim(got) == 0 and isinstance(got, float)
            assert got == want

    def test_bits_match_clipped_reciprocal_formula(self):
        # The bits equal those of the formula written out of place, signed
        # zeros, infinities, NaN and both saturated ends included.
        def formula(z):
            return np.minimum(1.0 / (1.0 + np.exp(-np.clip(z, -708.0, 40.0))), _SIG_HI)

        rng = np.random.default_rng(5)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, -745.2, 800.0, -800.0],
            rng.uniform(-800.0, 800.0, 20000), rng.normal(0.0, 3.0, 20000),
            rng.uniform(-40.0, 40.0, 20000)])
        got, want = sigmoid(z), formula(z)
        assert np.sum(got == _SIG_HI) > 0 and np.sum(got == sigmoid(-708.0)) > 0
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_bits_equal_the_plain_formula_inside_the_clip(self):
        # On [-708, 36] neither the clip nor the upper clamp acts.
        rng = np.random.default_rng(6)
        z = np.concatenate([[-708.0, -707.9, -0.0, 0.0, 36.0],
                            np.linspace(-708.0, 36.0, 10001),
                            rng.uniform(-708.0, 36.0, 20000), rng.normal(0.0, 5.0, 20000)])
        want = 1 / (1 + np.exp(-z))
        assert sigmoid(z).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_strictly_inside_the_unit_interval_and_non_decreasing(self):
        tail = np.geomspace(1e-300, 1e308, 4001)
        z = np.sort(np.concatenate([-tail, [-0.0, 0.0], tail,
                                    np.linspace(-800.0, 800.0, 160001)]))
        s = sigmoid(z)
        assert np.all(s > 0.0) and np.all(s < 1.0)
        assert np.all(np.diff(s) >= 0.0)
        assert s[0] == sigmoid(-708.0) == 3.307553003638408e-308 and s[-1] == _SIG_HI

    def test_raises_no_floating_point_flag(self):
        # Extremes where exp(-z) of the unclipped z overflows or underflows.
        z = [np.inf, -np.inf, 1e308, -1e308, 800.0, -800.0, 745.5, -709.5, 0.0, -0.0]
        with np.errstate(all="raise"):
            s = sigmoid(z)
            nan = sigmoid(np.nan)
        floor = sigmoid(-708.0)
        assert s.tolist() == [_SIG_HI, floor, _SIG_HI, floor, _SIG_HI, floor, _SIG_HI,
                              floor, 0.5, 0.5]
        assert math.isnan(nan)

    def test_input_array_left_unchanged(self):
        z = np.array([[0.5, -2.0], [0.0, 40.0]])
        before = z.copy()
        s = sigmoid(z)
        assert s.shape == z.shape
        assert np.array_equal(z, before)
        assert sigmoid([0.5, -2.0]).tolist() == [0.6224593312018546, 0.11920292202211755]


class TestArchitecture:
    @pytest.mark.parametrize("dims", [(4.5, 3, 3), (4, [3, 2.2], 3), (4, 3, 3.0),
                                      (True, 3, 3), (4, [3, 0], 3), (4, -1, 3)])
    def test_layer_widths_must_be_whole_numbers_of_at_least_one(self, dims):
        # 4.5 would build a 4-3-3 network and [3, 2.2] a 4-3-2-3 one.
        with pytest.raises(ValueError, match="^layer width must be"):
            Network(*dims)

    def test_numpy_widths_and_a_bare_hidden_width(self):
        net = Network(np.int64(4), np.array([3, 2]), 3)
        assert repr(net) == "Network(4-3-2-3)"
        assert net.num_params == Network(4, [3, 2], 3).num_params
        assert repr(Network(4, 3, 3)) == "Network(4-3-3)"


class TestForward:
    def test_zero_weights_give_half_everywhere(self):
        net = Network(3, [4], 2)
        out = net.forward(np.zeros(net.num_params), np.random.default_rng(0).normal(size=(5, 3)))
        assert_allclose(out, 0.5)

    def test_zero_weights_two_hidden_layers(self):
        net = Network(3, [4, 4], 2)
        out = net.forward(np.zeros(net.num_params), np.ones((2, 3)))
        assert_allclose(out, 0.5)

    def test_zero_output_preactivation_gives_half(self):
        # 1-1-1 net: cancel the hidden activation (0.5 * w) with the bias.
        net = Network(1, [1], 1)
        w1 = np.array([[0.0, 0.0]])        # hidden activation is sigmoid(0) = 0.5
        w2 = np.array([[-1.0, 2.0]])       # output z = -1 + 2 * 0.5 = 0
        params = net.pack([w1, w2])
        out = net.forward(params, np.array([[3.7]]))
        assert out[0, 0] == 0.5

    def test_matches_per_sample_oracle(self):
        net = Network(4, [3], 3)
        rng = np.random.default_rng(7)
        params = rng.uniform(-1, 1, net.num_params)
        x = rng.normal(size=(1, 4))
        assert_allclose(net.forward(params, x)[0], forward_oracle(net, params, x[0]), atol=1e-12)

    def test_matches_oracle_two_hidden(self):
        net = Network(4, [3, 5], 2)
        rng = np.random.default_rng(8)
        params = rng.uniform(-1, 1, net.num_params)
        x = rng.normal(size=(6, 4))
        for row, got in zip(x, net.forward(params, x)):
            assert_allclose(got, forward_oracle(net, params, row), atol=1e-12)

    def test_shape_mismatch_raises(self):
        net = Network(4, [3], 3)
        with pytest.raises(ValueError):
            net.forward(np.zeros(net.num_params), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            net.forward(np.zeros(net.num_params + 1), np.zeros((2, 4)))

    def test_outputs_open_interval_for_huge_weights(self):
        net = Network(2, [3], 2)
        out = net.forward(np.full(net.num_params, 1e6), np.ones((4, 2)))
        assert np.all(out > 0.0) and np.all(out < 1.0)


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        net = Network(2, [2], 2)
        rng = np.random.default_rng(3)
        params = rng.uniform(-0.5, 0.5, net.num_params)
        x = rng.normal(size=(4, 2))
        targets = net.forward(params, x)  # reachable targets by construction
        assert net.loss(params, x, targets) == 0.0

    def test_unit_residual_everywhere(self):
        # Every (prediction - target) entry equals 1 when targets sit one
        # below the prediction; with K=2, P=10 the loss is (100/20)*20 = 100.
        net = Network(2, [2], 2)
        params = np.zeros(net.num_params)  # predictions all 0.5
        x = np.zeros((10, 2))
        targets = np.full((10, 2), -0.5)
        assert net.loss(params, x, targets) == pytest.approx(100.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        for hidden in ([4, 2], [4]):
            net = Network(3, hidden, 3)
            params = rng.uniform(-1, 1, net.num_params)
            x = rng.normal(size=(7, 3))
            y = rng.uniform(size=(7, 3))
            assert_allclose(net.loss(params, x, y), loss_oracle(net, params, x, y),
                            rtol=1e-12)
            # The stacked entry points, on one batch per point and on one
            # batch shared by every point; with sections, one loss per point
            # and part of the rows.
            points = rng.uniform(-1, 1, (4, net.num_params))
            for xs, ys in ((rng.normal(size=(4, 7, 3)), rng.uniform(size=(4, 7, 3))),
                           (x[None], y[None])):
                batches = [(xs[i % len(xs)], ys[i % len(ys)]) for i in range(len(points))]
                expected = [loss_oracle(net, point, xb, yb)
                            for point, (xb, yb) in zip(points, batches)]
                assert_allclose(net.losses(points, xs, ys), expected, rtol=1e-12)
                assert_allclose(net.losses_and_gradients(points, xs, ys)[0], expected,
                                rtol=1e-12)
                parts = [[loss_oracle(net, point, xb[rows], yb[rows])
                          for rows in (slice(0, 2), slice(2, 3), slice(3, 7))]
                         for point, (xb, yb) in zip(points, batches)]
                assert_allclose(net.losses(points, xs, ys, sections=[2, 3]), parts,
                                rtol=1e-12)

    def test_row_permutation_invariance(self):
        net = Network(3, [4], 2)
        rng = np.random.default_rng(5)
        params = rng.uniform(-1, 1, net.num_params)
        x = rng.normal(size=(9, 3))
        y = rng.uniform(size=(9, 2))
        perm = rng.permutation(9)
        assert_allclose(net.loss(params, x, y), net.loss(params, x[perm], y[perm]), rtol=1e-12)

    def test_empty_batch_raises(self):
        net = Network(2, [2], 2)
        with pytest.raises(ValueError):
            net.loss(np.zeros(net.num_params), np.zeros((0, 2)), np.zeros((0, 2)))


class TestGradient:
    def test_zero_at_perfect_prediction(self):
        net = Network(2, [3], 2)
        rng = np.random.default_rng(9)
        params = rng.uniform(-0.5, 0.5, net.num_params)
        x = rng.normal(size=(5, 2))
        targets = net.forward(params, x)
        assert_allclose(net.gradient(params, x, targets), 0.0, atol=1e-15)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_central_differences(self, case):
        rng = np.random.default_rng(1000 + case)
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        layers = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
        p = int(rng.integers(1, 17))
        net = Network(d, layers, k)
        params = rng.uniform(-0.5, 0.5, net.num_params)
        x = rng.normal(size=(p, d))
        y = rng.uniform(size=(p, k))
        analytic = net.gradient(params, x, y)
        numeric = central_difference_gradient(net, params, x, y)
        # atol floors the ~1e-9 roundoff of central differences at h=1e-6.
        assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)
        # The stacked entry point: each slope against a central difference of
        # the oracle loss along the direction, with one batch per point and
        # with the first batch shared by every point.
        n, h = int(rng.integers(2, 5)), 1e-6
        points = params + rng.uniform(-0.5, 0.5, (n, net.num_params))
        direction = rng.normal(size=net.num_params)
        for xs, ys in ((rng.normal(size=(n, p, d)), rng.uniform(size=(n, p, k))),
                       (x[None], y[None])):
            slopes = np.vecdot(net.losses_and_gradients(points, xs, ys)[1], direction)
            for i, point in enumerate(points):
                xi, yi = xs[i % len(xs)], ys[i % len(ys)]
                numeric = (loss_oracle(net, point + h * direction, xi, yi)
                           - loss_oracle(net, point - h * direction, xi, yi)) / (2 * h)
                assert_allclose(slopes[i], numeric, rtol=1e-6, atol=1e-6)

    def test_duplicated_rows_equal_single_row(self):
        net = Network(3, [4], 2)
        rng = np.random.default_rng(13)
        params = rng.uniform(-1, 1, net.num_params)
        x = rng.normal(size=(1, 3))
        y = rng.uniform(size=(1, 2))
        single = net.gradient(params, x, y)
        doubled = net.gradient(params, np.vstack([x, x]), np.vstack([y, y]))
        assert_allclose(doubled, single, rtol=1e-12)


class TestStackedPoints:
    @pytest.mark.parametrize("method", ["losses", "losses_and_gradients"])
    @pytest.mark.parametrize("shape", [lambda p: (p,), lambda p: (3, p - 1),
                                       lambda p: (3, p + 1)], ids=["1-d", "narrow", "wide"])
    def test_network_and_objective_reject_bad_points_alike(self, shape, method):
        net = Network(2, [2], 2)
        inputs, targets = np.zeros((4, 2)), np.eye(2)[[0, 1, 0, 1]]
        points = np.zeros(shape(net.num_params))
        with pytest.raises(ValueError) as direct:
            getattr(net, method)(points, inputs[None], targets[None])
        with pytest.raises(ValueError) as stacked:
            getattr(BatchObjective(net, inputs, targets), method)(points, [None] * len(points))
        assert str(direct.value) == str(stacked.value) == (
            f"points have shape {points.shape}, expected (N, {net.num_params})")


    @pytest.mark.parametrize("hidden", [[3], [3, 3], [7, 1]])
    @pytest.mark.parametrize("rows", [2, 10])
    def test_public_entry_points_take_unpadded_inputs(self, hidden, rows):
        # Network pads what it is given on every call, BatchObjective its
        # matrix once; on the same rows both give the same bits.
        net = Network(4, hidden, 3)
        rng = np.random.default_rng(rows)
        inputs, targets = rng.normal(size=(30, 4)), rng.uniform(size=(30, 3))
        model = BatchObjective(net, inputs, targets)
        assert model.inputs.shape == (30, 4) and np.array_equal(model.inputs, inputs)
        points = rng.uniform(-2.0, 2.0, (5, net.num_params))
        samples = rng.random((5, 30)).argsort(axis=1)[:, :rows]
        values, grads = model.losses_and_gradients(points, list(samples))
        assert model.losses(points, list(samples)).tobytes() == values.tobytes()
        xs, ys = inputs[samples], targets[samples]
        assert net.losses(points, xs, ys).tobytes() == values.tobytes()
        stacked = net.losses_and_gradients(points, xs, ys)
        assert stacked[0].tobytes() == values.tobytes()
        assert stacked[1].tobytes() == grads.tobytes()
        for point, sample, x, y, value, grad in zip(points, samples, xs, ys, values, grads):
            assert net.loss(point, x, y) == model.loss(point, sample) == value
            assert net.gradient(point, x, y).tobytes() == grad.tobytes()
            assert model.grad(point, sample).tobytes() == grad.tobytes()
            residuals = net.forward(point, x) - y
            assert 100.0 / (3 * rows) * np.add.reduce(residuals * residuals, axis=(0, 1)) == value


class TestParameterLayout:
    @given(
        d=st.integers(1, 5),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, d, hidden, k, seed):
        net = Network(d, hidden, k)
        params = np.random.default_rng(seed).normal(size=net.num_params)
        assert np.array_equal(net.pack(net.unpack(params)), params)

    def test_layout_is_layer_major_row_major(self):
        net = Network(2, [2], 1)
        params = np.arange(net.num_params, dtype=float)
        w1, w2 = net.unpack(params)
        assert_allclose(w1, [[0, 1, 2], [3, 4, 5]])
        assert_allclose(w2, [[6, 7, 8]])

    def test_init_params_within_range_and_deterministic(self):
        net = Network(4, [3], 3)
        a = net.init_params(42)
        b = net.init_params(42)
        c = net.init_params(43)
        assert np.max(np.abs(a)) <= 0.1
        assert np.array_equal(a, b)
        assert np.any(a != c)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_init_params_range_property(self, seed):
        net = Network(3, [2, 2], 2)
        assert np.max(np.abs(net.init_params(seed))) <= 0.1

    @given(scale=st.floats(1e-3, 1e8), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_forward_outputs_stay_strictly_open(self, scale, seed):
        net = Network(3, [4], 2)
        rng = np.random.default_rng(seed)
        params = scale * rng.normal(size=net.num_params)
        out = net.forward(params, rng.normal(size=(3, 3)))
        assert np.all(out > 0.0) and np.all(out < 1.0)
