import numpy as np
import pytest
from numpy.testing import assert_allclose

from gols.data import BatchSampler, builtin_dataset, split_3_1_1
from gols.linesearch import (ALPHA_MIN, LineSearchOutcome, armijo, bisection_gols,
                             effective_alpha_max, golden_section, inexact_gols,
                             make_resolver)
from gols.net import Network
from gols.probe import (POLICIES, BatchObjective, DirectionalProbe, KeyStream, LineTable,
                        SyntheticObjective)
from gols.trainer import TrainConfig, _lockstep, sgd_train, train_on_dataset, dataset_metrics


def quadratic_problem(center, noise=0.0):
    center = np.asarray(center, dtype=float)
    model = SyntheticObjective(
        func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        grad_func=lambda x: x - center,
        noise_value=noise, noise_grad=noise,
    )

    def metrics(points):
        # (R, P) stack of points -> (R, 3): the noiseless loss, three times.
        return np.array([[model.loss(x)] * 3 for x in points])

    return model, metrics


def train_one(net, ds, split, cfg):
    (trace,) = train_on_dataset(net, ds, split, [cfg])
    return trace


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
        trace = train_one(net, ds, split, cfg)
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
        a = train_one(net, ds, split, cfg)
        b = train_one(net, ds, split, cfg)
        # Equal bytes: every cell bit for bit, the NaN grad_norm of row 0
        # included.
        assert a.rows.tobytes() == b.rows.tobytes()

    def test_trace_shape_and_initial_row(self, iris_setup):
        net, ds, split = iris_setup
        cfg = TrainConfig(iterations=12, resolver="igols")
        trace = train_one(net, ds, split, cfg)
        assert len(trace) == 13
        first = trace.rows[0]
        assert first.iteration == 0
        assert first.alpha == 0.0
        assert first.cost == 0
        assert np.isfinite(first.train_loss) and first.train_loss >= 0

    def test_losses_finite_and_nonnegative(self, iris_setup):
        net, ds, split = iris_setup
        trace = train_one(net, ds, split,
                          TrainConfig(iterations=40, resolver="bgols"))
        train = trace.column("train_loss")
        assert np.all(np.isfinite(train))
        assert np.all(train >= 0)

    def test_cost_bookkeeping_fixed_resolver(self, iris_setup):
        # One direction gradient per iteration and nothing else: cost 2n,
        # one information call per iteration.
        net, ds, split = iris_setup
        trace = train_one(net, ds, split,
                          TrainConfig(iterations=15, resolver="fixed:0.1"))
        assert trace.final.cost == 30
        assert trace.final.info_calls == 15
        assert np.all(np.diff(trace.column("cost")) >= 0)

    def test_cost_accumulates_search_evaluations(self, iris_setup):
        net, ds, split = iris_setup
        trace = train_one(net, ds, split,
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
        fevals = sum(o.function_evals for o in outcomes)
        gevals = sum(o.gradient_evals for o in outcomes)
        assert trace.final.cost == fevals + 2 * gevals + 2 * 12
        assert trace.final.info_calls == fevals + gevals + 12

    def test_inexact_cheaper_than_exact_per_iteration(self, iris_setup):
        net, ds, split = iris_setup
        runs = {}
        for name in ("igols", "bgols"):
            cfg = TrainConfig(iterations=60, resolver=name, weight_seed=7,
                              sampler_seed=8)
            runs[name] = train_one(net, ds, split, cfg)
        per_iter = {k: t.final.info_calls / 60 for k, t in runs.items()}
        assert per_iter["igols"] < per_iter["bgols"] < 1000

    def test_config_validation(self):
        # Rejected when the config is made, before a grid trains any run.
        for bad in ({"iterations": 0}, {"batch_size": 0}, {"resolver": "igol"},
                    {"resolver": "fixed:-1"}, {"policy": "sometimes"},
                    {"iterations": 2.5}, {"batch_size": 2.5}, {"iterations": True},
                    {"batch_size": True}, {"iterations": "3"}, {"batch_size": 10.0}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        TrainConfig(iterations=np.int64(3), batch_size=np.int32(5))

    def test_config_accepts_callable_resolver(self):
        TrainConfig(resolver=make_resolver("igols"))


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


# -- lockstep grid against the per-run loop -----------------------------------

REFERENCE_SEARCHES = {
    "gs": lambda probe, alpha_init, alpha_max: golden_section(
        probe, alpha_max=alpha_max),
    "arls": lambda probe, alpha_init, alpha_max: armijo(
        probe, alpha_init, alpha_max=alpha_max),
    "bgols": lambda probe, alpha_init, alpha_max: bisection_gols(
        probe, alpha_max=alpha_max),
    "igols": lambda probe, alpha_init, alpha_max: inexact_gols(
        probe, alpha_init, alpha_max=alpha_max),
}


def reference_train(model, x0, sampler, resolver, iterations, metrics, policy):
    """Steepest descent one run at a time, every evaluation one blocking probe
    call through the public searches: the loop the lockstep grid replaced.
    ``metrics`` takes one point and returns its three losses."""
    if isinstance(resolver, str) and resolver.startswith("fixed:"):
        step = float(resolver.split(":", 1)[1])
        resolver = lambda probe, alpha_init, alpha_max: LineSearchOutcome(
            step, 0, 0, "tolerance")
    elif isinstance(resolver, str):
        resolver = REFERENCE_SEARCHES[resolver]
    x = np.array(x0, dtype=float)
    functions = gradients = 0
    rows = [(0, 0.0, np.nan, *metrics(x), 0, 0)]
    alpha_prev = ALPHA_MIN
    for n in range(1, iterations + 1):
        batch = sampler.sample()
        g = model.grad(x, batch)
        gradients += 1
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            alpha = 0.0
        else:
            probe = DirectionalProbe(model, x, -g, policy=policy, sampler=sampler,
                                     fixed_sample=batch if policy == "fixed" else None)
            alpha_max = effective_alpha_max(gnorm)
            out = resolver(probe, min(max(alpha_prev, ALPHA_MIN), alpha_max), alpha_max)
            alpha = alpha_prev = out.alpha
            functions += out.function_evals
            gradients += out.gradient_evals
            x = x - alpha * g
        rows.append((n, alpha, gnorm, *metrics(x), functions + 2 * gradients,
                     functions + gradients))
    return rows


class Recording:
    """An objective that records each evaluation it makes: ``("F" or "G",
    point bytes, sample)``, one per point, stacked or not."""

    def __init__(self, model):
        self.model, self.seen = model, []

    def loss(self, x, sample=None):
        self.seen.append(("F", x.tobytes(), sample))
        return self.model.loss(x, sample)

    def grad(self, x, sample=None):
        self.seen.append(("G", x.tobytes(), sample))
        return self.model.grad(x, sample)

    def losses(self, points, samples):
        self.seen += [("F", x.tobytes(), s) for x, s in zip(points, samples)]
        return self.model.losses(points, samples)

    def losses_and_gradients(self, points, samples):
        self.seen += [("G", x.tobytes(), s) for x, s in zip(points, samples)]
        return self.model.losses_and_gradients(points, samples)


def reference_metrics(net, ds, split):
    """Per-point, per-partition losses, each its own forward pass."""
    parts = [(ds.features[idx], ds.one_hot()[idx])
             for idx in (split.train, split.validation, split.test)]
    return lambda x: tuple(net.loss(x, xs, ys) for xs, ys in parts)


def reference_on_dataset(net, ds, split, cfg):
    model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
    sampler = BatchSampler(np.arange(len(split.train)), cfg.batch_size, cfg.sampler_seed)
    return reference_train(model, net.init_params(cfg.weight_seed), sampler,
                           cfg.resolver, cfg.iterations,
                           reference_metrics(net, ds, split), cfg.policy)


def assert_same_bytes(trace, reference_rows):
    reference = np.array(reference_rows, dtype=trace.rows.dtype)
    assert trace.rows.tobytes() == reference.tobytes()


GRID_RESOLVERS = ("gs", "arls", "bgols", "igols", "fixed:0.1")


@pytest.fixture(scope="module")
def blobs_setup():
    ds = builtin_dataset("blobs")
    split = split_3_1_1(ds, seed=(3, 9))
    return Network(ds.num_features, [3, 3], ds.class_count), ds, split


class TestLockstepGrid:
    @pytest.mark.parametrize("policy", ["resample", "fixed", "full"])
    def test_grid_equals_per_run_loop(self, blobs_setup, policy):
        net, ds, split = blobs_setup
        configs = [TrainConfig(iterations=12, resolver=name, policy=policy,
                               weight_seed=(3, 101, rep), sampler_seed=(3, 202, ri, rep))
                   for ri, name in enumerate(GRID_RESOLVERS) for rep in range(2)]
        traces = train_on_dataset(net, ds, split, configs)
        assert len(traces) == len(configs)
        for trace, cfg in zip(traces, configs):
            assert_same_bytes(trace, reference_on_dataset(net, ds, split, cfg))

    def test_runs_of_different_lengths_sizes_and_policies(self, iris_setup):
        # Runs finish in different rounds and ask for batches of different
        # shapes (and none at all under full) in the same round.
        net, ds, split = iris_setup
        configs = [TrainConfig(iterations=3 + 4 * k, batch_size=(5, 10, 30)[k % 3],
                               resolver=GRID_RESOLVERS[k % 5],
                               policy=("resample", "fixed", "full")[k % 3],
                               weight_seed=k, sampler_seed=100 + k)
                   for k in range(9)]
        traces = train_on_dataset(net, ds, split, configs)
        assert [len(t) for t in traces] == [c.iterations + 1 for c in configs]
        for trace, cfg in zip(traces, configs):
            assert_same_bytes(trace, reference_on_dataset(net, ds, split, cfg))

    def test_callable_resolver_is_answered_through_its_probe(self, iris_setup):
        net, ds, split = iris_setup
        seen = []

        def recording(probe, alpha_init, alpha_max):
            seen.append(probe.counter.info_calls)
            out = inexact_gols(probe, alpha_init, alpha_max=alpha_max)
            assert probe.counter.info_calls == out.function_evals + out.gradient_evals
            return out

        configs = [TrainConfig(iterations=10, resolver=resolver, weight_seed=4,
                               sampler_seed=5 + k)
                   for k, resolver in enumerate([recording, "gs", recording])]
        traces = train_on_dataset(net, ds, split, configs)
        assert seen == [0] * 20
        for trace, cfg in zip(traces, configs):
            assert_same_bytes(trace, reference_on_dataset(net, ds, split, cfg))

    @pytest.mark.parametrize("policy", ["resample", "fixed", "full"])
    @pytest.mark.parametrize("resolver", GRID_RESOLVERS)
    def test_synthetic_objective_with_key_stream(self, resolver, policy):
        model, metrics = quadratic_problem([3.0, -2.0, 1.0, 0.5], noise=0.05)
        x0 = np.zeros(4)
        trace = sgd_train(model, x0, KeyStream(7), resolver, 15, metrics, policy=policy)
        rows = reference_train(model, x0, KeyStream(7), resolver, 15,
                               lambda x: metrics(x[None])[0], policy)
        assert_same_bytes(trace, rows)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("resolver", ["arls", "gs", "bgols"])
    def test_requests_reach_the_model_in_draw_order(self, resolver, policy):
        # The grid evaluates each request at the point, and on the sample, the
        # per-point probe evaluates it at, in the same order: the direction
        # gradient's batch, then one draw per search request under resample,
        # that batch again under fixed, and none under full.
        model, metrics = quadratic_problem([3.0, -2.0, 1.0], noise=0.05)
        grid, loop = Recording(model), Recording(model)
        trace = sgd_train(grid, np.zeros(3), KeyStream(7), resolver, 4, metrics,
                          policy=policy)
        rows = reference_train(loop, np.zeros(3), KeyStream(7), resolver, 4,
                               lambda x: metrics(x[None])[0], policy)
        assert_same_bytes(trace, rows)
        assert len(grid.seen) > 8
        assert grid.seen == loop.seen

    @pytest.mark.parametrize("kind", ["value", "deriv"])
    def test_first_run_with_a_non_finite_reply_raises(self, kind):
        # Run 1 meets a non-finite F or F' in the first round and run 0 in the
        # third; a run-by-run loop would raise run 0's error, and so does the
        # grid, whose table raises it in run 0.
        model = SyntheticObjective(lambda x: np.nan if x[0] > 1.0 else float(x[0]),
                                   lambda x: np.full(1, np.nan if x[0] > 1.0 else 1.0))
        lines = LineTable(2, 1)
        seen = []

        def run(row, alphas):
            lines.set(row, np.zeros(1), np.ones(1))
            try:
                for alpha in alphas:
                    seen.append((row, (yield kind, alpha, None)))
            except ValueError:
                seen.append((row, "raised"))
                raise

        with pytest.raises(ValueError) as grid:
            _lockstep(model, None, lines, [run(0, [0.5, 0.75, 7.0]), run(1, [5.0])])
        probe = DirectionalProbe(model, np.zeros(1), np.ones(1), policy="full")
        with pytest.raises(ValueError) as alone:
            getattr(probe, kind)(7.0)
        assert str(grid.value) == str(alone.value)
        assert seen[-1] == (0, "raised") and (1, "raised") in seen

    def test_first_failing_run_in_order_raises(self, iris_setup):
        # Run 2 fails in an earlier round than run 1; a run-by-run loop
        # would have raised run 1's error, and so does the grid.
        net, ds, split = iris_setup

        def blow_up_at(iteration):
            calls = []

            def resolver(probe, alpha_init, alpha_max):
                calls.append(None)
                step = np.inf if len(calls) == iteration else 1e-3
                return LineSearchOutcome(step, 0, 0, "tolerance")
            return resolver

        configs = [TrainConfig(iterations=8, resolver=resolver, sampler_seed=k)
                   for k, resolver in enumerate(["igols", blow_up_at(5), blow_up_at(2)])]
        with pytest.raises(RuntimeError, match="^non-finite step at iteration 5$"):
            train_on_dataset(net, ds, split, configs)
