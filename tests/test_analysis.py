import csv
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gols.analysis import (
    BallEstimate,
    ScanResult,
    count_local_minima,
    count_snngpp,
    estimate_ball,
    scaled_descent_direction,
    scan_line,
    scan_lines,
    write_scan_csv,
)
from gols.data import builtin_dataset, split_3_1_1
from gols.net import Network
from gols.probe import BatchObjective, DirectionalProbe, KeyStream, SyntheticObjective

from conftest import make_1d_probe


def shifted_bowl(minimizer=2.5, noise_grad=0.0, noise_value=0.0):
    """1-d bowl whose descent-direction scan bottoms out at ``minimizer``."""
    return SyntheticObjective(
        func=lambda x: 0.5 * float((x[0] - minimizer) ** 2),
        grad_func=lambda x: np.array([x[0] - minimizer]),
        noise_value=noise_value,
        noise_grad=noise_grad,
    )


class TestScanLine:
    def test_default_grid_covers_zero_to_ten(self):
        probe = make_1d_probe(lambda a: a * a, lambda a: 2 * a)
        scan = scan_line(probe)
        assert len(scan.alphas) == 101
        assert scan.alphas[0] == 0.0
        assert_allclose(scan.alphas[-1], 10.0)

    def test_full_batch_bowl_minimized_at_expected_node(self):
        probe = DirectionalProbe(shifted_bowl(2.5), np.zeros(1), np.ones(1),
                                 policy="full")
        scan = scan_line(probe)
        assert_allclose(scan.alphas[np.argmin(scan.values)], 2.5)

    def test_deterministic_scans(self):
        for _ in range(2):
            probes = [
                DirectionalProbe(shifted_bowl(2.5), np.zeros(1), np.ones(1),
                                 policy="full")
                for _ in range(2)
            ]
            a, b = (scan_line(p) for p in probes)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.slopes, b.slopes)

    def test_counts_one_sample_per_node(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        scan_line(probe, steps=20)
        assert probe.counter.functions == 21
        assert probe.counter.gradients == 21

    def test_non_finite_slope_rejected(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0 if a <= 3.0 else np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            scan_line(probe)

    def test_bad_step_rejected(self):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        with pytest.raises(ValueError):
            scan_line(probe, step=0.0)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_too_few_steps_rejected(self, steps):
        probe = make_1d_probe(lambda a: a, lambda a: 1.0)
        with pytest.raises(ValueError, match="steps"):
            scan_line(probe, steps=steps)


class TestScanLines:
    def test_scans_share_one_grid_and_match_scan_line(self):
        model = shifted_bowl(2.5, noise_grad=0.2, noise_value=0.2)

        def probes():
            return [DirectionalProbe(model, np.array([0.1 * k]), np.ones(1),
                                     sampler=KeyStream(k)) for k in range(3)]

        scans = scan_lines(probes(), step=0.05, steps=60, batch_size=7)
        assert len(scans) == 3
        for scan, probe in zip(scans, probes()):
            assert scan.alphas is scans[0].alphas
            alone = scan_line(probe, step=0.05, steps=60, batch_size=7)
            assert scan.alphas.tobytes() == alone.alphas.tobytes()
            assert scan.values.tobytes() == alone.values.tobytes()
            assert scan.slopes.tobytes() == alone.slopes.tobytes()
            assert scan.batch_size == 7
            assert np.array_equal(scan.minima_alphas, alone.minima_alphas)
            assert np.array_equal(scan.snngpp_alphas, alone.snngpp_alphas)

    # steps 2.5 would scan 4 nodes ending at 3 * step, and True one
    # interval; a last node of 3e308 overflows without a numpy warning.
    @pytest.mark.parametrize("step, steps", [
        (0.0, 10), (0.1, 0), (0.1, 2.5), (0.1, True), (1e308, 3),
        (np.float64(1e308), 3), (math.inf, 3)])
    def test_bad_grid_rejected_before_any_draw(self, step, steps):
        probe = DirectionalProbe(shifted_bowl(), np.zeros(1), np.ones(1),
                                 sampler=KeyStream(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step"):
                scan_lines([probe], step=step, steps=steps)
        assert probe.counter.info_calls == 0


class TestCountLocalMinima:
    def test_monotone_samples_have_none(self):
        scan = ScanResult(np.arange(5.0), np.arange(5.0), np.ones(5))
        assert count_local_minima(scan)[0] == 0

    def test_direct_definition_on_samples(self):
        scan = ScanResult(np.arange(5.0), np.array([3.0, 1.0, 2.0, 0.0, 4.0]),
                          np.zeros(5))
        count, locations = count_local_minima(scan)
        assert count == 2
        assert_allclose(locations, [1.0, 3.0])

    def test_full_batch_convex_scan_has_one(self):
        probe = DirectionalProbe(shifted_bowl(2.5), np.zeros(1), np.ones(1),
                                 policy="full")
        scan = scan_line(probe)
        count, locations = count_local_minima(scan)
        assert count == 1
        assert_allclose(locations, [2.5])

    def test_needs_three_nodes(self):
        scan = ScanResult(np.arange(2.0), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            count_local_minima(scan)

    def test_plateau_is_not_strict_minimum(self):
        scan = ScanResult(np.arange(4.0), np.array([2.0, 1.0, 1.0, 2.0]),
                          np.zeros(4))
        assert count_local_minima(scan)[0] == 0


class TestCountSnngpp:
    def test_all_negative_slopes_have_none(self):
        scan = ScanResult(np.arange(4.0), np.zeros(4), -np.ones(4))
        assert count_snngpp(scan)[0] == 0

    def test_linear_slope_locates_root(self):
        probe = DirectionalProbe(shifted_bowl(2.5), np.zeros(1), np.ones(1),
                                 policy="full")
        scan = scan_line(probe)
        count, locations = count_snngpp(scan)
        assert count == 1
        assert abs(locations[0] - 2.5) <= 0.05

    def test_zero_slope_closes_the_change(self):
        scan = ScanResult(np.arange(3.0), np.zeros(3),
                          np.array([-1.0, 0.0, 1.0]))
        count, locations = count_snngpp(scan)
        assert count == 1
        assert locations[0] == 0.5

    def test_positive_to_negative_not_counted(self):
        scan = ScanResult(np.arange(3.0), np.zeros(3),
                          np.array([1.0, -1.0, -2.0]))
        assert count_snngpp(scan)[0] == 0


class TestEstimateBall:
    def _scan_at(self, locations):
        slopes = np.ones(3)
        scan = ScanResult(np.arange(3.0), np.zeros(3), slopes)
        scan.snngpp_alphas = np.asarray(locations, dtype=float)
        return scan

    def test_degenerate_ball(self):
        ball = estimate_ball([self._scan_at([2.5]), self._scan_at([2.5])])
        assert ball.center == 2.5
        assert ball.epsilon == 0.0

    def test_direct_computation(self):
        ball = estimate_ball([self._scan_at([2.3]), self._scan_at([2.5]),
                              self._scan_at([2.7])])
        assert_allclose(ball.center, 2.5)
        assert_allclose(ball.epsilon, 0.2)

    def test_empty_scan_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded"):
            ball = estimate_ball([self._scan_at([2.0]), self._scan_at([])])
        assert ball.center == 2.0

    def test_all_empty_rejected(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            estimate_ball([self._scan_at([])])

    def test_noisier_slopes_give_larger_ball(self):
        def ball_for(noise, seed):
            scans = []
            for repeat in range(40):
                probe = DirectionalProbe(
                    shifted_bowl(2.5, noise_grad=noise), np.zeros(1), np.ones(1),
                    policy="resample", sampler=KeyStream([seed, repeat]),
                )
                scans.append(scan_line(probe))
            return estimate_ball(scans).epsilon

        assert ball_for(0.8, seed=1) >= ball_for(0.1, seed=2)


class TestScaledDescentDirection:
    def test_minimizer_lands_on_target(self):
        model = SyntheticObjective(
            func=lambda x: 0.5 * float(np.sum((x - 3.0) ** 2)),
            grad_func=lambda x: x - 3.0,
        )
        origin = np.zeros(3)
        d = scaled_descent_direction(model, origin, target_alpha=2.5)
        probe = DirectionalProbe(model, origin, d, policy="full")
        scan = scan_line(probe)
        count, locations = count_snngpp(scan)
        assert count == 1
        assert abs(locations[0] - 2.5) <= 0.05

    def test_works_on_network_objective(self):
        ds = builtin_dataset("iris")
        split = split_3_1_1(ds, seed=0)
        net = Network(4, [3], 3)
        model = BatchObjective(net, ds.features[split.train],
                               ds.one_hot()[split.train])
        origin = net.init_params(0)
        d = scaled_descent_direction(model, origin, target_alpha=2.5)
        probe = DirectionalProbe(model, origin, d, policy="full")
        scan = scan_line(probe)
        assert count_snngpp(scan)[0] == 1

    def test_zero_gradient_rejected(self):
        model = SyntheticObjective(lambda x: 0.0, lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            scaled_descent_direction(model, np.zeros(2))

    @pytest.mark.parametrize("target", [0.0, -2.5, math.nan, math.inf])
    def test_target_must_be_positive_and_finite(self, target):
        model = SyntheticObjective(
            func=lambda x: 0.5 * float(np.sum((x - 3.0) ** 2)),
            grad_func=lambda x: x - 3.0,
        )
        with pytest.raises(ValueError, match="target alpha"):
            scaled_descent_direction(model, np.zeros(3), target_alpha=target)

    @pytest.mark.parametrize("target", [1e-300, 5e-324, 1e300, 1e308])
    def test_target_whose_direction_norm_overflows_or_vanishes_is_named(self, target):
        # The minimizer sits at 1 along -grad = (3, 3, 3), so a target of
        # 1e-300 scales it to a norm past the largest double and one of 1e300
        # to one whose square underflows to 0; neither may warn.
        model = SyntheticObjective(
            func=lambda x: 0.5 * float(np.sum((x - 3.0) ** 2)),
            grad_func=lambda x: x - 3.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^target alpha {re.escape(repr(target))} "):
                scaled_descent_direction(model, np.zeros(3), target_alpha=target)


class TestScanCsv:
    def test_schema_and_roundtrip(self, tmp_path):
        probe = DirectionalProbe(shifted_bowl(2.5), np.zeros(1), np.ones(1),
                                 policy="full")
        scans = [scan_line(probe, steps=5, batch_size=10) for _ in range(2)]
        path = tmp_path / "scan.csv"
        write_scan_csv(path, scans)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "f", "fprime", "batch_size", "repeat_id"]
        assert len(rows) == 1 + 2 * 6
        assert {r[4] for r in rows[1:]} == {"0", "1"}
        assert float(rows[1][1]) == scans[0].values[0]
