import numpy as np
import pytest
from numpy.testing import assert_allclose

from gols.data import BatchSampler, builtin_dataset, split_3_1_1
from gols.linesearch import bisection_gols, inexact_gols
from gols.net import Network
from gols.probe import BatchObjective, DirectionalProbe, KeyStream, SyntheticObjective
from gols.trainer import TrainConfig, sgd_train, train_on_dataset, dataset_metrics


def quadratic_problem(center):
    center = np.asarray(center, dtype=float)
    model = SyntheticObjective(
        func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        grad_func=lambda x: x - center,
    )

    def metrics(x):
        value = model.loss(x)
        return (value, value, value)

    return model, metrics


@pytest.fixture(scope="module")
def iris_setup():
    ds = builtin_dataset("iris")
    split = split_3_1_1(ds, seed=0)
    net = Network(4, [3], 3)
    return net, ds, split


class TestSgdTrain:
    def test_fixed_zero_step_freezes_everything(self, iris_setup):
        net, ds, split = iris_setup
        cfg = TrainConfig(iterations=20, resolver="fixed:0", weight_seed=1,
                          sampler_seed=2)
        trace = train_on_dataset(net, ds, split, cfg)
        first = trace.rows[0]
        for row in trace.rows:
            assert row.train_loss == first.train_loss
            assert row.validation_loss == first.validation_loss
            assert row.test_loss == first.test_loss

    def test_exact_search_solves_quadratic_fast(self):
        center = np.array([3.0, -2.0, 1.0, 0.5])
        model, metrics = quadratic_problem(center)
        x0 = np.zeros(4)
        trace_x = [np.array(x0)]

        def tracking_resolver(probe, alpha_init, alpha_max):
            out = bisection_gols(probe, alpha_max=alpha_max)
            trace_x.append(probe.origin + out.alpha * probe.direction)
            return out

        sgd_train(model, x0, KeyStream(0), tracking_resolver, 50, metrics,
                  policy="full")
        dists = [np.linalg.norm(x - center) for x in trace_x]
        assert dists[-1] < 1e-6
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_deterministic_traces(self, iris_setup):
        net, ds, split = iris_setup
        cfg = TrainConfig(iterations=30, resolver="igols", weight_seed=3,
                          sampler_seed=4)
        a = train_on_dataset(net, ds, split, cfg)
        b = train_on_dataset(net, ds, split, cfg)
        # Equal bytes: every cell bit for bit, the NaN grad_norm of row 0
        # included.
        assert a.rows.tobytes() == b.rows.tobytes()

    def test_trace_shape_and_initial_row(self, iris_setup):
        net, ds, split = iris_setup
        cfg = TrainConfig(iterations=12, resolver="igols")
        trace = train_on_dataset(net, ds, split, cfg)
        assert len(trace) == 13
        first = trace.rows[0]
        assert first.iteration == 0
        assert first.alpha == 0.0
        assert first.cost == 0
        assert np.isfinite(first.train_loss) and first.train_loss >= 0

    def test_losses_finite_and_nonnegative(self, iris_setup):
        net, ds, split = iris_setup
        trace = train_on_dataset(net, ds, split,
                                 TrainConfig(iterations=40, resolver="bgols"))
        train = trace.column("train_loss")
        assert np.all(np.isfinite(train))
        assert np.all(train >= 0)

    def test_cost_bookkeeping_fixed_resolver(self, iris_setup):
        # One direction gradient per iteration and nothing else: cost 2n,
        # one information call per iteration.
        net, ds, split = iris_setup
        trace = train_on_dataset(net, ds, split,
                                 TrainConfig(iterations=15, resolver="fixed:0.1"))
        assert trace.final.cost == 30
        assert trace.final.info_calls == 15
        assert np.all(np.diff(trace.column("cost")) >= 0)

    def test_cost_accumulates_search_evaluations(self, iris_setup):
        net, ds, split = iris_setup
        trace = train_on_dataset(net, ds, split,
                                 TrainConfig(iterations=10, resolver="igols"))
        # Every iteration pays 2 for the direction plus 2 per search gradient.
        assert trace.final.cost > 2 * 10
        assert trace.final.cost % 2 == 0  # gradient-only searches: even cost

    def test_steepest_descent_slope_identity(self, iris_setup):
        # With the probe frozen on the direction batch, the slope at the
        # origin is exactly -||g||^2 = -||direction||^2.
        net, ds, split = iris_setup
        seen = []

        def checking_resolver(probe, alpha_init, alpha_max):
            slope = probe.deriv(0.0)
            seen.append((slope, -float(probe.direction @ probe.direction)))
            return inexact_gols(probe, alpha_init, alpha_max=alpha_max)

        cfg = TrainConfig(iterations=8, resolver="igols", policy="fixed")
        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        sampler = BatchSampler(np.arange(len(split.train)), cfg.batch_size, 5)
        sgd_train(model, net.init_params(6), sampler, checking_resolver,
                  cfg.iterations, dataset_metrics(net, ds, split), policy="fixed")
        for slope, expected in seen:
            assert_allclose(slope, expected, rtol=1e-12)
            assert slope < 0

    def test_cost_identity_against_search_outcomes(self, iris_setup):
        # Trace cost == sum of per-search (f + 2g) plus 2 per iteration for
        # the direction gradient; info calls likewise with 1 per iteration.
        net, ds, split = iris_setup
        outcomes = []

        def recording_resolver(probe, alpha_init, alpha_max):
            out = inexact_gols(probe, alpha_init, alpha_max=alpha_max)
            outcomes.append(out)
            return out

        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        sampler = BatchSampler(np.arange(len(split.train)), 10, seed=21)
        trace = sgd_train(model, net.init_params(20), sampler, recording_resolver,
                          12, dataset_metrics(net, ds, split))
        assert trace.final.cost == sum(o.cost for o in outcomes) + 2 * 12
        assert trace.final.info_calls == sum(o.info_calls for o in outcomes) + 12

    def test_inexact_cheaper_than_exact_per_iteration(self, iris_setup):
        net, ds, split = iris_setup
        runs = {}
        for name in ("igols", "bgols"):
            cfg = TrainConfig(iterations=60, resolver=name, weight_seed=7,
                              sampler_seed=8)
            runs[name] = train_on_dataset(net, ds, split, cfg)
        per_iter = {k: t.final.info_calls / 60 for k, t in runs.items()}
        assert per_iter["igols"] < per_iter["bgols"] < 1000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestBisectionDescentProperty:
    def test_sign_change_brackets_returned_step(self, iris_setup):
        # Fixed-batch probes are smooth, so the accepted step must sit at a
        # negative-to-positive slope transition.
        net, ds, split = iris_setup
        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        params = net.init_params(11)
        sampler = BatchSampler(np.arange(len(split.train)), 10, seed=12)
        batch = sampler.sample()
        g = model.grad(params, batch)
        probe = DirectionalProbe(model, params, -g, policy="fixed", fixed_sample=batch)
        out = bisection_gols(probe)
        eps = 1e-6 * max(1.0, out.alpha)
        assert probe.deriv(out.alpha - eps) <= 0
        assert probe.deriv(out.alpha + eps) >= 0
