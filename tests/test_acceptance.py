"""Acceptance gate: every release criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The scan criteria (4, 5) run on the bundled iris corpus; the
training criteria (6, 7, 8) share one fixture of forty 3000-iteration runs,
trained in lockstep by one ``train_on_dataset`` call, on the bundled blobs
data with a two-hidden-layer network, where the quality-ordering regime (a
flat initial plateau) actually occurs.  That fixture takes minutes, so
criteria 6-8 are marked ``slow``: ``pytest -m "not slow"`` runs everything
else in seconds.

Known red: criterion 4's local-minima monotonicity from batch size 1 to 10
does not hold on any bundled dataset (the sign-change counts behave as
claimed; see the assertion message for the measured numbers).
"""

import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gols import (
    BatchObjective,
    BatchSampler,
    DirectionalProbe,
    Network,
    SyntheticObjective,
    TrainConfig,
    bisection_gols,
    builtin_dataset,
    estimate_ball,
    golden_section,
    inexact_gols,
    scaled_descent_direction,
    scan_line,
    split_3_1_1,
    train_on_dataset,
)
from gols.cli import main as cli_main

RESOLVERS = ("igols", "arls", "bgols", "gs")
BASE_SEED = 0
TRAIN_ITERATIONS = 3000
TRAIN_REPEATS = 10
SCAN_REPEATS = 100


def report(criterion, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def quadratic_probe():
    """Deterministic probe with F(alpha) = 0.5 (1 - alpha)^2, minimizer 1."""
    center = np.array([0.6, 0.8])
    model = SyntheticObjective(
        func=lambda x: 0.5 * float(np.sum((x - center) ** 2)),
        grad_func=lambda x: x - center,
    )
    return DirectionalProbe(model, np.zeros(2), center, policy="full")


@pytest.fixture(scope="module")
def scan_bundle():
    # The scan criteria run on the 150x4x3 real corpus.
    ds = builtin_dataset("iris")
    split = split_3_1_1(ds, seed=(BASE_SEED, 9))
    net = Network(ds.num_features, [3], ds.class_count)
    return ds, split, net


@pytest.fixture(scope="module")
def training_runs():
    # The training criteria run on the separable bundled dataset with the
    # two-hidden-layer architecture: its initial plateau is where the
    # function-value searches stall while the gradient-only ones grow their
    # steps, the regime the quality ordering is about.
    ds = builtin_dataset("blobs")
    split = split_3_1_1(ds, seed=(BASE_SEED, 9))
    net = Network(ds.num_features, [3, 3], ds.class_count)
    started = time.perf_counter()
    cells = [(ri, name, rep) for ri, name in enumerate(RESOLVERS)
             for rep in range(TRAIN_REPEATS)]
    # One grid: the forty runs train in lockstep, each on its own samples.
    runs = train_on_dataset(net, ds, split, [
        TrainConfig(
            iterations=TRAIN_ITERATIONS,
            resolver=name,
            weight_seed=(BASE_SEED, 101, rep),
            sampler_seed=(BASE_SEED, 202, ri, rep),
        )
        for ri, name, rep in cells
    ])
    traces = {(name, rep): trace for (_, name, rep), trace in zip(cells, runs)}
    return traces, time.perf_counter() - started


@pytest.fixture(scope="module")
def scan_study(scan_bundle):
    ds, split, net = scan_bundle
    started = time.perf_counter()
    model = BatchObjective(net, ds.features[split.train], ds.one_hot()[split.train])
    origin = net.init_params((BASE_SEED, 101, 0))
    direction = scaled_descent_direction(model, origin, target_alpha=2.5)
    rows = len(split.train)
    scans = {}
    for size in (1, 10, 30, 50):
        group = []
        for rep in range(SCAN_REPEATS):
            sampler = BatchSampler(np.arange(rows), size,
                                   seed=(BASE_SEED, 303, size, rep))
            probe = DirectionalProbe(model, origin, direction,
                                     policy="resample", sampler=sampler)
            group.append(scan_line(probe, batch_size=size))
        scans[size] = group
    scans["full"] = [scan_line(
        DirectionalProbe(model, origin, direction, policy="full"),
        batch_size=rows)]
    return scans, time.perf_counter() - started


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for case in range(30):
        rng = np.random.default_rng(5000 + case)
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        layers = [int(rng.integers(2, 7)) for _ in range(1 + case % 2)]
        p = int(rng.integers(1, 17))
        net = Network(d, layers, k)
        # From case 20 on, weights of about 1e3 saturate every sigmoid.
        width = 0.5 if case < 20 else 1e3
        params = rng.uniform(-width, width, net.num_params)
        x = rng.normal(size=(p, d))
        y = rng.uniform(size=(p, k))
        analytic = net.gradient(params, x, y)
        h = 1e-6
        numeric = np.empty_like(params)
        for i in range(params.size):
            hi, lo = params.copy(), params.copy()
            hi[i] += h
            lo[i] -= h
            numeric[i] = (net.loss(hi, x, y) - net.loss(lo, x, y)) / (2 * h)
        # rtol target 1e-6; atol floors the ~6e-9 finite-difference roundoff
        assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)
        scale = np.maximum(np.abs(numeric), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    elapsed = time.perf_counter() - started
    report(1, elapsed < 10.0,
           f"backprop vs central differences on 30 instances, 10 of them "
           f"saturated, worst scaled "
           f"error {worst:.2e} (rtol 1e-6, atol 1e-6), {elapsed:.1f}s < 10s")


def test_criterion_2_line_search_oracle_equivalence():
    started = time.perf_counter()
    gs_out = golden_section(quadratic_probe())
    bg_out = bisection_gols(quadratic_probe())
    ig_out = inexact_gols(quadratic_probe(), alpha_init=1e-8)
    elapsed = time.perf_counter() - started
    ok = (abs(gs_out.alpha - 1.0) <= 1e-6
          and abs(bg_out.alpha - 1.0) <= 1e-11
          and ig_out.alpha == 1.34217728
          and elapsed < 1.0)
    report(2, ok,
           f"quadratic minimizer 1: GS off by {abs(gs_out.alpha - 1):.1e} "
           f"(<=1e-6), bisection off by {abs(bg_out.alpha - 1):.1e} (<=1e-11), "
           f"doubling search returned {ig_out.alpha!r} (== 1.34217728), "
           f"{elapsed * 1000:.0f}ms < 1s")


def test_criterion_3_interval_reduction_rates():
    bg_out = bisection_gols(quadratic_probe())
    gs_out = golden_section(quadratic_probe())
    bg_ratios = np.array(bg_out.intervals[1:]) / np.array(bg_out.intervals[:-1])
    gs_ratios = np.array(gs_out.intervals[1:]) / np.array(gs_out.intervals[:-1])
    bg_err = float(np.max(np.abs(bg_ratios - 0.5)))
    gs_err = float(np.max(np.abs(gs_ratios - 0.618)))
    ok = bg_err <= 1e-9 and gs_err <= 1e-3
    report(3, ok,
           f"per-step interval shrink: bisection 0.5 +/- {bg_err:.1e} "
           f"(tol 1e-9) over {len(bg_ratios)} steps, golden section "
           f"0.618 +/- {gs_err:.1e} (tol 1e-3) over {len(gs_ratios)} steps")


def test_criterion_4_sign_change_vs_minima_counts(scan_study):
    scans, elapsed = scan_study
    failures = []

    def means(size):
        group = scans[size]
        minima = np.array([len(s.minima_alphas) for s in group], float)
        changes = np.array([len(s.snngpp_alphas) for s in group], float)
        return minima, changes

    minima1, changes1 = means(1)
    if not changes1.mean() <= minima1.mean():
        failures.append(
            f"batch 1: sign-change mean {changes1.mean():.2f} > "
            f"minima mean {minima1.mean():.2f}")

    full = scans["full"][0]
    if not (len(full.minima_alphas) == 1 and len(full.snngpp_alphas) == 1):
        failures.append(
            f"full batch counts ({len(full.minima_alphas)}, "
            f"{len(full.snngpp_alphas)}) != (1, 1)")

    sizes = (1, 10, 30, "full")
    for prev, nxt in zip(sizes, sizes[1:]):
        m_prev, c_prev = means(prev) if prev != "full" else (
            np.array([1.0]), np.array([1.0]))
        m_next, c_next = means(nxt) if nxt != "full" else (
            np.array([1.0]), np.array([1.0]))
        for label, a, b in (("minima", m_prev, m_next),
                            ("sign-change", c_prev, c_next)):
            stderr = a.std() / np.sqrt(len(a))
            if not b.mean() <= a.mean() + stderr:
                failures.append(
                    f"{label} mean rose {a.mean():.2f} -> {b.mean():.2f} "
                    f"from batch {prev} to {nxt} (allowed 1 SE = {stderr:.2f})")

    ok = not failures and elapsed < 120.0
    report(4, ok,
           f"batch-1 means: minima {minima1.mean():.1f}, sign changes "
           f"{changes1.mean():.1f}; full batch (1, 1); {elapsed:.0f}s < 120s"
           + ("" if not failures else "; VIOLATIONS: " + " | ".join(failures)))


def test_criterion_5_ball_shrinks_with_batch_size(scan_study):
    scans, _ = scan_study
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        eps10 = estimate_ball(scans[10]).epsilon
        eps50 = estimate_ball(scans[50]).epsilon
    ok = eps10 >= eps50 >= 0.0
    report(5, ok,
           f"sign-change spread over {SCAN_REPEATS} repeats: "
           f"eps(batch 10) = {eps10:.3f} >= eps(batch 50) = {eps50:.3f} >= 0")


@pytest.mark.slow
def test_criterion_6_cost_ordering(training_runs):
    traces, elapsed = training_runs
    per_iter = {}
    for name in RESOLVERS:
        finals = [traces[(name, rep)].final for rep in range(TRAIN_REPEATS)]
        per_iter[name] = float(np.mean([f.info_calls for f in finals])) / TRAIN_ITERATIONS
    ok = (per_iter["igols"] < per_iter["bgols"]
          and per_iter["arls"] < per_iter["gs"]
          and 3 * per_iter["igols"] <= per_iter["bgols"]
          and 3 * per_iter["arls"] <= per_iter["gs"]
          and elapsed < 600.0)
    report(6, ok,
           "mean information calls per iteration over "
           f"{TRAIN_REPEATS}x{TRAIN_ITERATIONS}-iteration runs: "
           f"igols {per_iter['igols']:.1f} < bgols {per_iter['bgols']:.1f} "
           f"(x{per_iter['bgols'] / per_iter['igols']:.1f}), "
           f"arls {per_iter['arls']:.1f} < gs {per_iter['gs']:.1f} "
           f"(x{per_iter['gs'] / per_iter['arls']:.1f}); both margins >= 3x; "
           f"{elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_criterion_7_training_quality_ordering(training_runs):
    traces, _ = training_runs

    def loss_at_budget(trace, budget):
        costs = trace.column("cost")
        train = trace.column("train_loss")
        return float(train[costs <= budget][-1])

    inexact_wins = exact_wins = 0
    for rep in range(TRAIN_REPEATS):
        ig, ar = traces[("igols", rep)], traces[("arls", rep)]
        bg, gs = traces[("bgols", rep)], traces[("gs", rep)]
        shared = min(ig.final.cost, ar.final.cost)
        inexact_wins += loss_at_budget(ig, shared) <= loss_at_budget(ar, shared)
        shared = min(bg.final.cost, gs.final.cost)
        exact_wins += loss_at_budget(bg, shared) <= loss_at_budget(gs, shared)
    ok = inexact_wins >= 8 and exact_wins >= 8
    report(7, ok,
           f"final training loss at the shared evaluation budget, shared "
           f"starting weights: igols <= arls in {inexact_wins}/10 repeats, "
           f"bgols <= gs in {exact_wins}/10 repeats (both need >= 8)")


@pytest.mark.slow
def test_criterion_8_step_caps_on_full_traces(training_runs):
    traces, _ = training_runs
    checked = 0
    violations = 0
    for trace in traces.values():
        for row in trace.rows[1:]:
            cap = min(1.0 / row.grad_norm, 1e7)
            checked += 1
            if not (1e-8 <= row.alpha <= cap):
                violations += 1
    ok = violations == 0
    report(8, ok,
           f"{checked} accepted steps across {len(traces)} runs all within "
           f"[1e-8, min(1/||g||, 1e7)]; {violations} violations")


def test_criterion_9_deterministic_csv_outputs(tmp_path):
    args = ["train", "--dataset", "iris", "--resolver", "igols,gs",
            "--repeats", "2", "--iterations", "25", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    same = (names == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names))
    report(9, same,
           f"identical spec run twice: {len(names)} CSV files byte-identical")
