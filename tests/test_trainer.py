import numpy as np
import pytest
from numpy.testing import assert_allclose

from gols.data import BatchSampler, builtin_dataset, split_3_1_1
from gols.linesearch import (ALPHA_MIN, LineSearchOutcome, _answer, armijo,
                             bisection_gols, effective_alpha_max, golden_section,
                             inexact_gols, make_search)
from gols.net import Network
from gols.probe import (_GRAD, POLICIES, BatchObjective, DirectionalProbe, KeyStream,
                        LineTable, SyntheticObjective)
from gols import trainer
from gols.trainer import (TrainConfig, _descend, _lockstep, dataset_metrics, sgd_train,
                          train_on_dataset)

from conftest import PUBLIC, PointProbe


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
        trace_x = []

        def tracking(points):
            # Consecutive points of the run, the starting point first.
            trace_x.extend(points)
            return metrics(points)

        sgd_train(model, np.zeros(4), KeyStream(0), "bgols", 50, tracking, policy="full")
        assert len(trace_x) == 51
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
        # With the search frozen on the direction batch, the slope at the
        # origin is exactly -||g||^2 = -||direction||^2.
        net, ds, split = iris_setup
        slopes = []

        def checking(alpha_init, alpha_max):
            slope, = yield [("deriv", 0.0)]
            slopes.append(slope)
            return (yield from make_search("igols")(alpha_init, alpha_max))

        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        sampler = BatchSampler(np.arange(len(split.train)), 10, 5)
        trace = sgd_train(model, net.init_params(6), sampler, checking, 8,
                          dataset_metrics(net, ds, split), policy="fixed")
        assert len(slopes) == 8
        assert_allclose(slopes, -trace.rows.grad_norm[1:] ** 2, rtol=1e-12)
        assert max(slopes) < 0

    def test_cost_identity_against_search_outcomes(self, iris_setup):
        # Trace cost == sum of per-search (f + 2g) plus 2 per iteration for
        # the direction gradient; info calls likewise with 1 per iteration.
        net, ds, split = iris_setup
        outcomes = []

        def recording(alpha_init, alpha_max):
            out = yield from make_search("igols")(alpha_init, alpha_max)
            outcomes.append(out)
            return out

        model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
        sampler = BatchSampler(np.arange(len(split.train)), 10, seed=21)
        trace = sgd_train(model, net.init_params(20), sampler, recording, 12,
                          dataset_metrics(net, ds, split))
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

    @pytest.mark.parametrize("resolver", [5, None, ["gs"]])
    def test_config_rejects_a_resolver_neither_name_nor_callable(self, resolver):
        with pytest.raises(ValueError, match="^resolver must be a name or a callable"):
            TrainConfig(resolver=resolver)

    def test_config_accepts_callable_resolver(self):
        TrainConfig(resolver=make_search("igols"))

    @pytest.mark.parametrize("bad", [{"policy": "bogus"}, {"iterations": -1},
                                     {"iterations": 2.5}, {"resolver": 5}])
    def test_sgd_train_checks_its_settings_as_the_config_does(self, bad):
        # The error TrainConfig raises, before anything is evaluated.
        evaluated = []
        model = SyntheticObjective(lambda x: evaluated.append(x) or float(x @ x),
                                   lambda x: evaluated.append(x) or 2.0 * x)
        settings = {"resolver": "igols", "iterations": 3, "policy": "resample", **bad}
        with pytest.raises(ValueError) as config:
            TrainConfig(**bad)
        with pytest.raises(ValueError) as trained:
            sgd_train(model, np.ones(2), KeyStream(0), settings["resolver"],
                      settings["iterations"], lambda points: np.zeros((len(points), 3)),
                      policy=settings["policy"])
        assert str(trained.value) == str(config.value)
        assert evaluated == []


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
    """Steepest descent one run at a time, every evaluation one blocking call
    of a per-point probe through the public searches: the loop the lockstep
    grid replaced, with the objective's one-point ``loss`` and ``grad``.
    A custom resolver, a search factory, is answered through the same probe.
    ``metrics`` takes one point and returns its three losses."""
    if not isinstance(resolver, str):
        factory = resolver
        resolver = lambda probe, alpha_init, alpha_max: _answer(
            probe, factory(alpha_init, alpha_max))
    elif resolver.startswith("fixed:"):
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
            probe = PointProbe(model, x, -g, policy=policy, sampler=sampler,
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

    def test_custom_search_is_answered_in_the_grid_rounds(self, iris_setup, monkeypatch):
        # Two runs drive a custom search beside a named one.  Each iteration
        # of a custom run takes a round for its direction gradient and at
        # least one for its search, and every round holds all three runs
        # until one finishes.  Each custom run's cost is its direction
        # gradients plus its search outcomes.
        net, ds, split = iris_setup
        outcomes = {0: [], 2: []}
        rounds = []

        def recording(run):
            def search(alpha_init, alpha_max):
                out = yield from make_search("igols")(alpha_init, alpha_max)
                outcomes[run].append(out)
                return out
            return search

        def counting(lines, model, pending):
            rounds.append(sorted(pending))
            return answer(lines, model, pending)

        answer = LineTable.answer
        monkeypatch.setattr(LineTable, "answer", counting)
        configs = [TrainConfig(iterations=10, resolver=resolver, weight_seed=4,
                               sampler_seed=5 + k)
                   for k, resolver in enumerate([recording(0), "gs", recording(2)])]
        traces = train_on_dataset(net, ds, split, configs)
        sizes = [len(runs) for runs in rounds]
        assert sizes == sorted(sizes, reverse=True)
        assert rounds.count([0, 1, 2]) >= 20
        for run in (0, 2):
            assert len(outcomes[run]) == 10
            assert traces[run].final.info_calls == 10 + sum(
                out.function_evals + out.gradient_evals for out in outcomes[run])
        monkeypatch.undo()
        for trace, cfg in zip(traces, configs):
            assert_same_bytes(trace, reference_on_dataset(net, ds, split, cfg))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_custom_searches_train_as_their_names(self, blobs_setup, policy, monkeypatch):
        # One grid runs each resolver by name and as the factory make_search
        # hands out, on the same seeds: the two give the same bytes, and the
        # grid takes the rounds of the grid that names both.
        net, ds, split = blobs_setup
        half, rounds = len(GRID_RESOLVERS), []

        def counting(lines, model, pending):
            rounds[-1] += 1
            return answer(lines, model, pending)

        def grid(resolvers):
            rounds.append(0)
            return train_on_dataset(net, ds, split, [
                TrainConfig(iterations=12, resolver=resolver, policy=policy,
                            weight_seed=(3, 101, k % half), sampler_seed=(3, 202, k % half))
                for k, resolver in enumerate(resolvers)])

        answer = LineTable.answer
        monkeypatch.setattr(LineTable, "answer", counting)
        custom = grid(GRID_RESOLVERS + tuple(map(make_search, GRID_RESOLVERS)))
        named = grid(GRID_RESOLVERS * 2)
        for k in range(half):
            assert custom[k].rows.tobytes() == custom[k + half].rows.tobytes()
        assert [t.rows.tobytes() for t in custom] == [t.rows.tobytes() for t in named]
        assert rounds[0] == rounds[1] > 12

    @pytest.mark.parametrize("requests", [
        [], [("slope", 1.0)], [("value", 1.0, "x")], [("grad", np.zeros(27), None)], [42],
    ], ids=["empty", "slope", "triple", "grad", "int"])
    def test_malformed_request_list_fails_its_run_in_order(self, iris_setup, requests):
        # A custom search that asks ``requests`` at its call ``at`` fails its
        # run with the ValueError DirectionalProbe.ask raises: an entry that
        # is not a (kind, alpha) pair too, and a search cannot ask for the
        # trainer's direction gradient.  The first failing run in config
        # order wins, whichever run fails first.
        net, ds, split = iris_setup

        def malformed(at):
            calls = []

            def search(alpha_init, alpha_max):
                calls.append(None)
                if len(calls) == at:
                    yield requests
                return LineSearchOutcome(1e-3, 0, 0, "tolerance")
            return search

        probe = DirectionalProbe(LINE, np.zeros(1), np.ones(1), policy="full")
        with pytest.raises(ValueError) as asked:
            probe.ask(requests)
        orders = ([malformed(5), step_of(1e-3, blow_up_at=2)],
                  [step_of(1e-3, blow_up_at=5), malformed(2)])
        errors = []
        for resolvers in orders:
            configs = [TrainConfig(iterations=8, resolver=resolver, sampler_seed=k)
                       for k, resolver in enumerate(["igols", *resolvers])]
            with pytest.raises((ValueError, RuntimeError)) as raised:
                train_on_dataset(net, ds, split, configs)
            errors.append(raised.value)
        assert type(errors[0]) is ValueError and str(errors[0]) == str(asked.value)
        assert str(errors[1]) == "non-finite step at iteration 5"

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
    @pytest.mark.parametrize("resolver", ["arls", "gs", "bgols", "igols"])
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
        # ARLS asks F(0), F'(0) and F(alpha_init) in one list, so the backprop
        # that answers F'(0) also answers both F: the grid records a G where
        # the loop's probe records an F, at the records just before and just
        # after each F'(0), every second G of the loop.  Nothing else differs.
        grads = [k for k, (kind, _, _) in enumerate(loop.seen) if kind == "G"]
        origin_slopes = grads[1::2] if resolver == "arls" else []
        from_backprop = {k + step for k in origin_slopes for step in (-1, 1)}
        assert len(from_backprop) == (8 if resolver == "arls" else 0)
        assert all(loop.seen[k][0] == "F" for k in from_backprop)
        assert grid.seen == [("G", *seen[1:]) if k in from_backprop else seen
                             for k, seen in enumerate(loop.seen)]

    @pytest.mark.parametrize("kind", ["value", "deriv"])
    def test_first_run_with_a_non_finite_reply_raises(self, kind):
        # Run 1 meets a non-finite F or F' in the first round and run 0 in the
        # third; a run-by-run loop would raise run 0's error, and so does the
        # grid, whose table raises it in run 0.
        model = SyntheticObjective(lambda x: np.nan if x[0] > 1.0 else float(x[0]),
                                   lambda x: np.full(1, np.nan if x[0] > 1.0 else 1.0))
        lines = LineTable(2, 1)
        seen = []

        def run(row, lists):
            lines.set(row, np.zeros(1), np.ones(1), lambda: None)
            try:
                for alphas in lists:
                    seen.append((row, (yield [(kind, alpha) for alpha in alphas])))
            except ValueError:
                seen.append((row, "raised"))
                raise

        with pytest.raises(ValueError) as grid:
            _lockstep(model, lines, [run(0, [[0.5], [0.75], [7.0]]), run(1, [[5.0]])])
        probe = DirectionalProbe(model, np.zeros(1), np.ones(1), policy="full")
        with pytest.raises(ValueError) as alone:
            getattr(probe, kind)(7.0)
        assert str(grid.value) == str(alone.value)
        assert seen[-1] == (0, "raised") and (1, "raised") in seen

    @pytest.mark.parametrize("kind", ["value", "deriv"])
    def test_non_finite_second_request_of_a_list_raises(self, kind):
        # The second of three requests in a list is non-finite: the run is
        # thrown the probe's error.  The grid and the probe each answer the
        # list in one round, so both evaluate its third request too.
        model = SyntheticObjective(lambda x: np.nan if x[0] > 1.0 else float(x[0]),
                                   lambda x: np.full(1, np.nan if x[0] > 1.0 else 1.0))
        on_grid, on_probe = Recording(model), Recording(model)
        lines = LineTable(1, 1)
        replies = []

        def run():
            lines.set(0, np.zeros(1), np.ones(1), lambda: None)
            replies.append((yield [(kind, 0.5)]))
            replies.append((yield [(kind, alpha) for alpha in (0.75, 7.0, 0.25)]))

        def search():
            yield [(kind, 0.5)]
            yield [(kind, alpha) for alpha in (0.75, 7.0, 0.25)]

        with pytest.raises(ValueError) as grid:
            _lockstep(on_grid, lines, [run()])
        probe = DirectionalProbe(on_probe, np.zeros(1), np.ones(1), policy="full")
        with pytest.raises(ValueError) as alone:
            _answer(probe, search())
        name = "F" if kind == "value" else "F'"
        assert str(grid.value) == str(alone.value) == f"non-finite {name}(7.0) = nan"
        assert replies == [[0.5 if kind == "value" else 1.0]]
        assert on_grid.seen == on_probe.seen
        assert [np.frombuffer(point)[0] for _, point, _ in on_probe.seen] == [
            0.5, 0.75, 7.0, 0.25]
        assert probe.counter.info_calls == 4

    @pytest.mark.parametrize("bad", ["x", None, np.nan])
    def test_bad_step_fails_its_own_run_before_its_list_draws(self, bad):
        # Run 1's custom search asks a step that is not a real, finite
        # number in its second list.  The table refuses that list before
        # drawing anything of it, so run 1 fails with the error a probe
        # raises for it, and run 0 still finishes.
        model = SyntheticObjective(lambda x: 0.5 * float(x @ x), lambda x: x,
                                   noise_value=0.05, noise_grad=0.05)
        lines = LineTable(2, 1)
        draws, outcomes = [0, 0], []

        def draw_of(row):
            keys = KeyStream(row)

            def draw():
                draws[row] += 1
                return keys.sample()
            return draw

        def finished(search):
            outcomes.append((yield from search))

        def custom():
            yield [("value", 0.5)]
            yield [("value", 1.0), ("deriv", bad)]

        for row in range(2):
            lines.set(row, np.ones(1), -np.ones(1), draw_of(row))
        with pytest.raises(ValueError) as grid:
            _lockstep(model, lines, [finished(make_search("igols")(0.25, 10.0)),
                                     custom()])
        probe = DirectionalProbe(model, np.ones(1), -np.ones(1), sampler=KeyStream(1))
        with pytest.raises(ValueError) as alone:
            _answer(probe, custom())
        assert str(grid.value) == str(alone.value)
        assert ("step size must be finite" if bad is np.nan else "nonempty list") in str(
            grid.value)
        assert draws[1] == probe.counter.info_calls == 1
        outcome, = outcomes
        assert draws[0] == outcome.function_evals + outcome.gradient_evals > 0

    def test_bare_searches_in_lockstep_match_their_probes(self):
        # Eight rows on one noisy line, each drawing from its own key stream:
        # the grid draws each row's samples from that row's draw, in order,
        # so every search ends as it does alone on a resample probe with
        # the same stream, and draws one key per request.
        model = SyntheticObjective(lambda x: 0.5 * float((x - 3.0) @ (x - 3.0)),
                                   lambda x: x - 3.0, noise_value=0.05, noise_grad=0.05)
        origin, direction = np.zeros(2), np.array([1.0, 0.5])
        names = 2 * ("gs", "arls", "bgols", "igols")
        lines = LineTable(len(names), 2)
        draws = [0] * len(names)

        def draw_of(row):
            keys = KeyStream(row)

            def draw():
                draws[row] += 1
                return keys.sample()
            return draw

        for row in range(len(names)):
            lines.set(row, origin, direction, draw_of(row))
        outcomes = _lockstep(model, lines,
                             [make_search(name)(0.25, 10.0) for name in names])
        for row, (name, outcome) in enumerate(zip(names, outcomes)):
            probe = DirectionalProbe(model, origin, direction, sampler=KeyStream(row))
            alone = PUBLIC[name](probe, 0.25, 10.0)
            assert (outcome.alpha, outcome.function_evals, outcome.gradient_evals,
                    outcome.reason) == (alone.alpha, alone.function_evals,
                                        alone.gradient_evals, alone.reason)
            assert draws[row] == outcome.function_evals + outcome.gradient_evals

    def test_first_failing_run_in_order_raises(self, iris_setup):
        # Run 2 fails in an earlier round than run 1; a run-by-run loop
        # would have raised run 1's error, and so does the grid.
        net, ds, split = iris_setup
        configs = [TrainConfig(iterations=8, resolver=resolver, sampler_seed=k)
                   for k, resolver in enumerate(["igols", step_of(1e-3, blow_up_at=5),
                                                 step_of(1e-3, blow_up_at=2)])]
        with pytest.raises(RuntimeError, match="^non-finite step at iteration 5$"):
            train_on_dataset(net, ds, split, configs)


class TestRoundsPerIteration:
    def test_answer_never_gets_an_empty_round(self, iris_setup, monkeypatch):
        # Runs finish in different rounds, and in the second grid a run fails
        # while the runs before it go on; once no run waits for a reply the
        # grid stops without asking the table.
        net, ds, split = iris_setup
        rounds = []

        def nonempty(lines, model, pending):
            assert pending
            rounds.append(len(pending))
            return answer(lines, model, pending)

        answer = LineTable.answer
        monkeypatch.setattr(LineTable, "answer", nonempty)
        configs = [TrainConfig(iterations=2 + 3 * k, resolver=GRID_RESOLVERS[k],
                               weight_seed=k, sampler_seed=k) for k in range(5)]
        train_on_dataset(net, ds, split, configs)
        failing = [TrainConfig(iterations=6, resolver="arls"),
                   TrainConfig(iterations=6, resolver=step_of(1e-3, blow_up_at=2))]
        with pytest.raises(RuntimeError, match="^non-finite step at iteration 2$"):
            train_on_dataset(net, ds, split, failing)
        assert len(rounds) > 20 and max(rounds) == 5

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("resolver,opening", [("arls", 3), ("igols", 2)])
    def test_one_round_per_request_list(self, resolver, opening, policy, monkeypatch):
        # No timing: a run alone takes one round for its direction gradient,
        # one for its search's opening list and one for each later request,
        # whose number the trace's counters give.
        asked = []

        def counting(lines, model, pending):
            if pending:
                (requests,) = pending.values()
                asked.append(len(requests))
            return answer(lines, model, pending)

        answer = LineTable.answer
        monkeypatch.setattr(LineTable, "answer", counting)
        model, metrics = quadratic_problem([3.0, -2.0, 1.0], noise=0.05)
        trace = sgd_train(model, np.zeros(3), KeyStream(7), resolver, 20, metrics,
                          policy=policy)
        expected = []
        for searched in np.diff(trace.column("info_calls")) - 1:
            expected += [1, opening] + [1] * (searched - opening)
        assert asked == expected


# -- the trace losses ----------------------------------------------------------

# Steepest descent on 0.5 (x - 1)^2 from 0 with steps of 0.5 visits
# 1 - 0.5^n: 0.5, 0.75, 0.875 (iteration 3), 0.9375, ...  From 3 it visits
# 2, 1.5 (iteration 2), 1.25, ...
LINE = SyntheticObjective(lambda x: 0.5 * float((x[0] - 1.0) ** 2), lambda x: x - 1.0)


def losses_nan_between(low, high):
    """Pure stacked metrics: the loss three times, NaN where low < x < high."""
    def metrics(points):
        return np.array([[np.nan if low < x[0] < high else LINE.loss(x)] * 3
                         for x in points])
    return metrics


def step_of(alpha, blow_up_at=None):
    """A search factory whose searches ask nothing and step ``alpha`` and, at
    its search ``blow_up_at``, an infinite step; ``calls`` counts its
    searches."""
    def search(alpha_init, alpha_max):
        search.calls += 1
        step = np.inf if search.calls == blow_up_at else alpha
        return LineSearchOutcome(step, 0, 0, "tolerance")
        yield  # a search that asks nothing
    search.calls = 0
    return search


def line_grid(metrics, *runs):
    """``_lockstep`` over ``_descend`` runs on LINE under the full policy,
    one ``(x0, resolver, iterations)`` each, all measured by ``metrics``."""
    lines = LineTable(len(runs), 1)
    return _lockstep(LINE, lines, [
        _descend(LINE, [x0], KeyStream(0), resolver, iterations, metrics, "full", lines, k)
        for k, (x0, resolver, iterations) in enumerate(runs)])


class TestMetricQueue:
    def test_non_finite_gradient_fails_its_run(self):
        model = SyntheticObjective(LINE.func, lambda x: x - 1.0 if x[0] < 0.8 else x * np.nan)
        with pytest.raises(RuntimeError, match="^non-finite gradient at iteration 4$"):
            sgd_train(model, np.zeros(1), KeyStream(0), "fixed:0.5", 8,
                      losses_nan_between(5.0, 6.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_entry_fails_its_run(self, bad):
        # One bad entry next to a finite one, from iteration 4 on.
        model = SyntheticObjective(
            LINE.func, lambda x: np.array([x[0] - 1.0, bad if x[0] > 0.8 else 0.0]))
        with pytest.raises(RuntimeError, match="^non-finite gradient at iteration 4$"):
            sgd_train(model, np.zeros(2), KeyStream(0), "fixed:0.5", 8,
                      losses_nan_between(5.0, 6.0))

    def test_finite_gradient_with_an_overflowing_norm_is_rejected(self):
        model = SyntheticObjective(LINE.func, lambda x: np.full(2, 1e200))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^gradient norm must be finite, not inf$"):
            sgd_train(model, np.zeros(2), KeyStream(0), "igols", 8,
                      losses_nan_between(5.0, 6.0))

    def test_overflowing_step_fails_its_run(self):
        # A unit gradient everywhere: from 0 the step of 1e308 lands on
        # -1e308, and the next one overflows.
        model = SyntheticObjective(lambda x: 0.0, lambda x: np.ones(1))
        with np.errstate(over="ignore"), pytest.raises(
                RuntimeError, match="^non-finite step at iteration 2$"):
            sgd_train(model, np.zeros(1), KeyStream(0), "fixed:1e308", 8,
                      lambda points: np.zeros((len(points), 3)))

    def test_non_finite_loss_fails_a_single_run(self):
        with pytest.raises(RuntimeError, match="^non-finite loss at iteration 3$"):
            sgd_train(LINE, np.zeros(1), KeyStream(0), "fixed:0.5", 8,
                      losses_nan_between(0.8, 0.9))

    def test_loss_error_comes_ahead_of_a_later_error_of_its_run(self):
        # Run 0 holds its points unmeasured while it steps on, as a run does
        # until it has _METRIC_CHUNK of them; it meets an infinite step at
        # iteration 5, measures the points it holds first, and its losses at
        # iterations 3 and 4 failed before the step, so the earlier one wins.
        # Run 1's golden-section iterations, from 1.5, take many rounds.
        resolver = step_of(0.5, blow_up_at=5)
        with pytest.raises(RuntimeError, match="^non-finite loss at iteration 3$"):
            line_grid(losses_nan_between(0.8, 0.95), (0.0, resolver, 8), (1.5, "gs", 3))
        assert resolver.calls == 5

    def test_first_failing_run_in_order_wins_over_a_loss_error(self):
        # Run 1's loss fails at iteration 2, run 0's step at iteration 5; a
        # run-by-run loop would have raised run 0's error, and so does the
        # grid.
        with pytest.raises(RuntimeError, match="^non-finite step at iteration 5$"):
            line_grid(losses_nan_between(1.4, 1.6), (0.0, step_of(0.5, blow_up_at=5), 8),
                      (3.0, "fixed:0.5", 8))

    def test_first_failing_run_in_order_wins_over_a_metrics_error(self):
        # The metrics callable raises on run 1's point at iteration 2; that
        # fails run 1 as any other error would, so run 0's error, the one a
        # run-by-run loop would have raised, still wins.
        def metrics(points):
            if ((1.4 < points) & (points < 1.6)).any():
                raise KeyError("no losses here")
            return losses_nan_between(5.0, 6.0)(points)

        with pytest.raises(RuntimeError, match="^non-finite step at iteration 5$"):
            line_grid(metrics, (0.0, step_of(0.5, blow_up_at=5), 8), (3.0, "fixed:0.5", 8))

    def test_each_point_is_measured_once_in_stacked_calls(self, iris_setup, monkeypatch):
        # No timing: four runs of ten iterations reach 11 points each, fewer
        # than _METRIC_CHUNK, so each run measures its own points, its
        # consecutive iterations in order, in one call: 4 calls of 11.  No
        # metric request takes a round.
        net, ds, split = iris_setup
        calls = []

        def counting(*args):
            metrics = dataset_metrics(*args)

            def measure(points):
                calls.append(points.copy())
                return metrics(points)
            return measure

        def objective_only(lines, model, pending):
            assert all(kind in (_GRAD, "value", "deriv") for requests in pending.values()
                       for kind, *_ in requests)
            return answer(lines, model, pending)

        answer = LineTable.answer
        monkeypatch.setattr(trainer, "dataset_metrics", counting)
        monkeypatch.setattr(LineTable, "answer", objective_only)
        configs = [TrainConfig(iterations=10, resolver=name, weight_seed=k, sampler_seed=k)
                   for k, name in enumerate(["gs", "arls", "bgols", "igols"])]
        traces = train_on_dataset(net, ds, split, configs)
        assert trainer._METRIC_CHUNK >= 11
        assert [len(points) for points in calls] == [11] * 4
        assert len({point.tobytes() for point in np.concatenate(calls)}) == 44
        # Each call's losses are the loss columns of one run, row by row.
        written = [np.column_stack([t.rows.train_loss, t.rows.validation_loss,
                                    t.rows.test_loss]) for t in traces]
        owners = [k for points in calls
                  for k, losses in enumerate(written)
                  if np.array_equal(dataset_metrics(net, ds, split)(points), losses)]
        assert sorted(owners) == [0, 1, 2, 3]
        for trace, cfg in zip(traces, configs):
            assert_same_bytes(trace, reference_on_dataset(net, ds, split, cfg))

    def test_long_runs_are_measured_in_chunks_of_consecutive_points(self):
        # Two runs of 40 iterations reach 41 points each, and each measures
        # its own in calls of 16, 16 and 9 consecutive points.
        calls = []

        def metrics(points):
            calls.append(points[:, 0].copy())
            return losses_nan_between(5.0, 6.0)(points)

        def path(x):
            points = [x]
            for _ in range(40):
                x = x - 0.25 * (x - 1.0)
                points.append(x)
            return np.array(points)

        line_grid(metrics, (0.0, "fixed:0.25", 40), (3.0, "fixed:0.25", 40))
        assert trainer._METRIC_CHUNK == 16
        chunks = [path(x0)[first:first + 16] for x0 in (0.0, 3.0) for first in (0, 16, 32)]
        assert sorted(c.tobytes() for c in calls) == sorted(c.tobytes() for c in chunks)
