"""Tests of the benchmark's own output checks and span aggregation.

Real CLI outputs must pass the checks; each corruption must fail exactly the
cells it touches.
"""

import csv
import math

import pytest

import checks
from gols.cli import main as cli_main
from tracer import Tracer

RESOLVERS = ("igols", "gs")
REPEATS, ITERATIONS = 2, 6
SIZES, SCAN_REPEATS, SCAN_STEPS = (1, 10), 3, 20


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    assert cli_main(["train", "--dataset", "blobs", "--arch", "3",
                     "--resolver", ",".join(RESOLVERS), "--repeats", str(REPEATS),
                     "--iterations", str(ITERATIONS), "--seed", "5",
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    assert cli_main(["scan", "--dataset", "iris", "--arch", "3",
                     "--batch-sizes", ",".join(map(str, SIZES)),
                     "--repeats", str(SCAN_REPEATS), "--scan-steps", str(SCAN_STEPS),
                     "--seed", "5", "--out", str(out)]) == 0
    return out


def copy_with(src_dir, dst_dir, name, edit):
    """Copy every output file, applying ``edit(rows)`` to file ``name``."""
    for path in src_dir.iterdir():
        (dst_dir / path.name).write_bytes(path.read_bytes())
    path = dst_dir / name
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return dst_dir


def test_real_outputs_pass(train_dir, scan_dir):
    assert checks.check_train(train_dir, RESOLVERS, REPEATS, ITERATIONS) == set()
    assert checks.check_scan(scan_dir, SIZES, SCAN_REPEATS, SCAN_STEPS) == set()


def alpha_beyond_cap(rows):
    cap = min(1.0 / float(rows[3][2]), checks.ALPHA_CAP)
    rows[3][1] = repr(cap * 1.5)


def alpha_below_min(rows):
    rows[2][1] = repr(checks.ALPHA_MIN / 2)


def nan_loss(rows):
    rows[4][3] = "nan"


def infinite_test_loss(rows):
    rows[5][5] = "inf"


def cost_decreases(rows):
    rows[4][6] = str(int(rows[3][6]) - 1)


def row_missing(rows):
    del rows[-1]


@pytest.mark.parametrize("edit", [alpha_beyond_cap, alpha_below_min, nan_loss,
                                  infinite_test_loss, cost_decreases, row_missing])
def test_bad_trace_fails_its_cell(train_dir, tmp_path, edit):
    out = copy_with(train_dir, tmp_path, "train_gs_rep01.csv", edit)
    assert checks.check_train(out, RESOLVERS, REPEATS, ITERATIONS) == {("gs", 1)}


def test_bad_train_summary_fails_its_resolver(train_dir, tmp_path):
    out = copy_with(train_dir, tmp_path, "train_summary.csv",
                    lambda rows: rows[3].__setitem__(4, "nan"))
    assert checks.check_train(out, RESOLVERS, REPEATS, ITERATIONS) == {
        ("igols", 0), ("igols", 1)}


def test_missing_output_fails_every_cell(train_dir, tmp_path):
    out = copy_with(train_dir, tmp_path, "train_summary.csv", lambda rows: None)
    (out / "train_summary.csv").unlink()
    assert checks.check_train(out, RESOLVERS, REPEATS, ITERATIONS) == checks.train_cells(
        RESOLVERS, REPEATS)


def wrong_minima_mean(rows):
    rows[2][1] = repr(float(rows[2][1]) + 1.0 / SCAN_REPEATS)


def wrong_sign_change_mean(rows):
    rows[2][3] = repr(float(rows[2][3]) - 1.0 / SCAN_REPEATS)


@pytest.mark.parametrize("edit", [wrong_minima_mean, wrong_sign_change_mean])
def test_summary_count_disagreeing_with_csv_fails_its_batch_size(scan_dir, tmp_path, edit):
    out = copy_with(scan_dir, tmp_path, "scan_summary.csv", edit)
    assert checks.check_scan(out, SIZES, SCAN_REPEATS, SCAN_STEPS) == {
        ("10", rep) for rep in range(SCAN_REPEATS)}


def test_non_finite_scan_value_fails_its_scan(scan_dir, tmp_path):
    out = copy_with(scan_dir, tmp_path, "scan_1.csv",
                    lambda rows: rows[1 + SCAN_STEPS + 3].__setitem__(1, "nan"))
    # The summary recount cannot be made without the broken scan, so the
    # whole batch size fails.
    assert checks.check_scan(out, SIZES, SCAN_REPEATS, SCAN_STEPS) == {
        ("1", rep) for rep in range(SCAN_REPEATS)}


def test_recount_matches_definitions():
    assert checks.strict_minima([3.0, 1.0, 2.0, 2.0, 2.0, 0.5, 1.0]) == 2
    assert checks.sign_changes([-1.0, 0.0, -2.0, 3.0, 1.0, -1.0]) == 2


def test_layer_self_time_excludes_other_layers_only():
    tracer = Tracer()
    spans = [  # name, start ns, end ns, parent
        ("cli.main", 0, 100_000, -1),
        ("probe.value", 10_000, 60_000, 0),
        ("probe.objective_loss", 15_000, 55_000, 1),
        ("net.loss", 20_000, 50_000, 2),
        ("data.sample", 60_000, 70_000, 0),
    ]
    for name, start, end, parent in spans:
        tracer.wrap(name, None)
        tracer.name_id.append(tracer.names.index(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.note.append(10.0 if name == "net.loss" else 0.5)
    out = tracer.summarize()
    assert out["probe.calls"] == 1 and out["probe.info_calls"] == 1
    assert out["probe.self_us_p50"] == pytest.approx(20.0)  # 50 us minus 30 us of net
    assert out["probe.busy_share"] == pytest.approx(0.5)
    assert out["net.busy_share"] == pytest.approx(0.3)
    assert out["net.rows_per_call"] == 10.0
    assert out["data.sample.calls"] == 1
    assert out["cli.self_s"] == pytest.approx(40e-6)
    assert out["analysis.scans"] == 0 and math.isclose(out["analysis.busy_share"], 0.0)
