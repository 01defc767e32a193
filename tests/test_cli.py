import csv
import hashlib
import json

import numpy as np
import pytest

from gols.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_ok(args):
    assert main(args) == 0


class TestTrainCommand:
    def test_trace_file_count_and_summary(self, tmp_path):
        out = tmp_path / "results"
        run_ok(["train", "--dataset", "iris", "--resolver", "igols,fixed:0.1",
                "--repeats", "3", "--iterations", "5", "--out", str(out)])
        traces = sorted(p.name for p in out.glob("train_*_rep*.csv"))
        assert len(traces) == 6
        assert (out / "train_summary.csv").exists()

    def test_summary_initial_row_aggregates_initial_losses(self, tmp_path):
        out = tmp_path / "results"
        run_ok(["train", "--dataset", "iris", "--resolver", "igols",
                "--repeats", "3", "--iterations", "4", "--out", str(out)])
        initial = []
        for rep in range(3):
            rows = read_csv(out / f"train_igols_rep{rep:02d}.csv")
            assert rows[0] == ["iteration", "alpha", "grad_norm", "train_loss",
                               "validation_loss", "test_loss", "cost", "info_calls"]
            initial.append(float(rows[1][3]))
        summary = read_csv(out / "train_summary.csv")
        first = next(r for r in summary[1:] if r[0] == "igols" and r[1] == "0")
        assert float(first[4]) == pytest.approx(np.mean(initial), rel=1e-12)

    def test_repeats_share_starting_points_across_resolvers(self, tmp_path):
        out = tmp_path / "results"
        run_ok(["train", "--dataset", "iris", "--resolver", "igols,bgols",
                "--repeats", "2", "--iterations", "2", "--out", str(out)])
        for rep in range(2):
            a = read_csv(out / f"train_igols_rep{rep:02d}.csv")[1]
            b = read_csv(out / f"train_bgols_rep{rep:02d}.csv")[1]
            assert a[3:6] == b[3:6]  # identical initial losses

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["train", "--dataset", "blobs", "--resolver", "arls,igols",
                "--repeats", "2", "--iterations", "6", "--seed", "7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ok(args + ["--out", str(out_a)])
        run_ok(args + ["--out", str(out_b)])
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_csv_dataset_path_accepted(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        rows = [f"{rng.normal():.4f},{rng.normal():.4f},c{(i % 2)}" for i in range(20)]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "results"
        run_ok(["train", "--dataset", str(path), "--resolver", "igols",
                "--repeats", "1", "--iterations", "3", "--arch", "2",
                "--out", str(out)])
        assert (out / "train_summary.csv").exists()

    # sha256 of train_summary.csv and of the eight trace CSVs in name order.
    # The resample pins were recorded before the per-point and stacked
    # network evaluations shared one forward pass and backprop, and before
    # the trainer wrote its trace into one record array; the fixed and full
    # pins before the probe took the slopes of lockstep rounds.
    PINS = {
        "resample": (
            "b9b959f2a9dbf47dd9b97c86b4709446539e853dc6868013ef70634354280ee2",
            "8276d934ee76ff4fb9056e037c1e3ddc1454a636f51e81280fd8bef45dc4b2a8"),
        "fixed": (
            "81d2911e85ae287565af86134ac06542361b36c7239a78c4daabf992b4eaa909",
            "89439f40e34b832609ecf55959b75dae51a90ab0c5b2e7d903df1de4374e7dcb"),
        "full": (
            "f397f7ad4704b02d1487cbe90eee6cb2e9172e4b014c3e891195971555116308",
            "c12772c252721f131ce30abc571ccc4743d98e8cf641789ffa92c5fe1276db06"),
    }

    @pytest.mark.parametrize("policy", list(PINS))
    def test_seeded_train_summary_is_pinned(self, tmp_path, policy):
        summary, traces = self.PINS[policy]
        run_ok(["train", "--dataset", "blobs", "--arch", "3,3",
                "--resolver", "gs,arls,bgols,igols", "--repeats", "2",
                "--iterations", "40", "--seed", "3", "--policy", policy,
                "--out", str(tmp_path)])
        digest = hashlib.sha256((tmp_path / "train_summary.csv").read_bytes())
        assert digest.hexdigest() == summary
        digest = hashlib.sha256()
        paths = sorted(tmp_path.glob("train_*_rep*.csv"))
        assert len(paths) == 8
        for path in paths:
            digest.update(path.read_bytes())
        assert digest.hexdigest() == traces


class TestScanCommand:
    def test_scan_groups_and_summary_schema(self, tmp_path):
        out = tmp_path / "scans"
        run_ok(["scan", "--dataset", "iris", "--repeats", "3",
                "--batch-sizes", "10,30,50,full", "--scan-steps", "20",
                "--out", str(out)])
        for token in ("10", "30", "50", "full"):
            rows = read_csv(out / f"scan_{token}.csv")
            assert rows[0] == ["alpha", "f", "fprime", "batch_size", "repeat_id"]
            assert len(rows) == 1 + 3 * 21
        summary = read_csv(out / "scan_summary.csv")
        assert summary[0] == ["batch_size", "local_minima_mean", "local_minima_std",
                              "snngpp_mean", "snngpp_std", "ball_center",
                              "ball_epsilon"]
        assert [r[0] for r in summary[1:]] == ["10", "30", "50", "full"]

    def test_full_batch_scan_counts_are_one(self, tmp_path):
        out = tmp_path / "scans"
        run_ok(["scan", "--dataset", "iris", "--repeats", "2",
                "--batch-sizes", "full", "--out", str(out)])
        summary = read_csv(out / "scan_summary.csv")
        row = summary[1]
        assert float(row[1]) == 1.0  # local minima mean
        assert float(row[3]) == 1.0  # sign-change mean
        assert float(row[6]) == 0.0  # deterministic scans: zero spread

    def test_single_sample_batches_emit_spread_columns(self, tmp_path):
        out = tmp_path / "scans"
        run_ok(["scan", "--dataset", "iris", "--repeats", "10",
                "--batch-sizes", "1", "--scan-steps", "50", "--out", str(out)])
        summary = read_csv(out / "scan_summary.csv")
        row = summary[1]
        assert row[0] == "1"
        assert float(row[2]) > 0.0  # minima counts vary across repeats
        assert float(row[4]) >= 0.0

    # sha256 of each CSV of a seeded scan.  The summaries were recorded when
    # every scan node was still evaluated on its own, the scan files when
    # each scan still took a stacked call of its own and csv.writer wrote
    # them; the stacked evaluation must reproduce the same bytes.
    SCAN_PINS = {
        "resample": {
            "scan_summary.csv":
                "f25e872086524981d01c099d5b2c3e6a3b4a906a0c17254bdfdab0a0e89693c9",
            "scan_1.csv": "ae826a42f8e89f6fb38014b44deb9608c5b79f2c6eeb532229f07ffcef2a90a6",
            "scan_10.csv": "5fb2270bd7e5ddaed7a260992149417ea495bcf3953d05187e571111a0d1a61a",
            "scan_full.csv":
                "86511dbf41f63c0dbfaff286cb155137064996759b058482f99c477a84dd9ccb",
        },
        "fixed": {
            "scan_summary.csv":
                "143305609f3a574493c54be23fe45a1f7287b8958360c692919e3bb50e273ee7",
            "scan_1.csv": "e121ff2488d74caf8d061a0ed9abcd522c839022c6d8dc0815cb7bb951febc55",
            "scan_10.csv": "4077c96166f497ff00f64f2d6c0da2eaf254d62a8496fe1a42e38b0219080557",
            "scan_full.csv":
                "86511dbf41f63c0dbfaff286cb155137064996759b058482f99c477a84dd9ccb",
        },
    }

    def test_seeded_scan_summary_is_pinned(self, tmp_path):
        run_ok(["scan", "--dataset", "iris", "--batch-sizes", "1,10,full",
                "--repeats", "3", "--seed", "3", "--out", str(tmp_path)])
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == self.SCAN_PINS["resample"]

    def test_seeded_fixed_policy_scan_is_pinned(self, tmp_path):
        run_ok(["scan", "--dataset", "iris", "--batch-sizes", "1,10,full",
                "--repeats", "3", "--seed", "3", "--policy", "fixed",
                "--out", str(tmp_path)])
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == self.SCAN_PINS["fixed"]

    def test_scan_rerun_byte_identical(self, tmp_path):
        args = ["scan", "--dataset", "iris", "--repeats", "2",
                "--batch-sizes", "10,full", "--scan-steps", "15", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ok(args + ["--out", str(out_a)])
        run_ok(args + ["--out", str(out_b)])
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestCompareCommand:
    def test_fixed_step_costs_exactly_two_per_iteration(self, tmp_path):
        out = tmp_path / "cmp"
        run_ok(["compare", "--dataset", "iris", "--resolver", "fixed:0.5,igols",
                "--repeats", "2", "--iterations", "10", "--out", str(out)])
        rows = read_csv(out / "compare.csv")
        assert rows[0] == ["resolver", "fevals_per_iter", "infocalls_per_iter"]
        fixed = next(r for r in rows[1:] if r[0] == "fixed:0.5")
        assert float(fixed[1]) == 2.0
        assert float(fixed[2]) == 1.0

    def test_inexact_cheaper_than_exact(self, tmp_path):
        out = tmp_path / "cmp"
        run_ok(["compare", "--dataset", "iris", "--resolver", "igols,bgols",
                "--repeats", "1", "--iterations", "30", "--out", str(out)])
        rows = {r[0]: float(r[2]) for r in read_csv(out / "compare.csv")[1:]}
        assert rows["igols"] < rows["bgols"]

    def test_single_resolver_rejected(self, tmp_path):
        assert main(["compare", "--dataset", "iris", "--resolver", "igols",
                     "--out", str(tmp_path)]) == 2


class TestSpecHandling:
    def test_unknown_resolver_is_usage_error(self, tmp_path):
        assert main(["train", "--dataset", "iris", "--resolver", "newton",
                     "--out", str(tmp_path)]) == 2

    def test_missing_dataset_is_usage_error(self, tmp_path):
        assert main(["train", "--dataset", "no/such/file.csv",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["explode"]) == 2
        assert main([]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "dataset": "iris", "resolvers": "igols", "repeats": 2,
            "iterations": 3, "out": str(tmp_path / "from_config"),
        }))
        run_ok(["train", "--config", str(config), "--repeats", "1"])
        traces = list((tmp_path / "from_config").glob("train_*_rep*.csv"))
        assert len(traces) == 1  # the flag overrode the config's repeats

    @pytest.mark.parametrize("args", [
        ["train", "--iterations", "0"],
        ["train", "--batch-size", "0"],
        ["compare", "--resolver", "igols,arls", "--iterations", "-1"],
        ["compare", "--resolver", "igols,arls", "--batch-size", "-2"],
        ["scan", "--batch-sizes", "10,0"],
        ["scan", "--scan-step", "0"],
        ["scan", "--scan-step", "-0.1"],
        ["scan", "--scan-steps", "1"],
        ["scan", "--scan-steps", "0"],
        ["scan", "--scan-steps", "-3"],
        ["scan", "--target-alpha", "0"],
        ["scan", "--target-alpha", "-2.5"],
        ["scan", "--target-alpha", "nan"],
        ["scan", "--target-alpha", "inf"],
        ["train", "--arch", "0"],
        ["train", "--arch", "3,-1"],
        ["scan", "--arch", "0"],
        ["train", "--seed", "-1"],
        ["train", "--resolver", "fixed:-0.5"],
    ], ids=" ".join)
    def test_impossible_number_is_usage_error(self, tmp_path, args):
        out = tmp_path / "out"
        assert main(args + ["--dataset", "iris", "--out", str(out)]) == 2
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("args, config", [
        (["train", "--resolver", "igols,igols"], None),
        (["compare", "--resolver", "igols,arls,igols"], None),
        (["scan", "--batch-sizes", "full,full"], None),
        (["scan", "--batch-sizes", "10,1,10"], None),
        (["train"], {"policy": "bogus"}),
        (["scan", "--batch-sizes", "full"], {"policy": "bogus"}),
        (["train"], {"iterations": 2.7}),
        (["train"], {"repeats": 3.0}),
        (["train"], {"resolvers": "gs,gs"}),
        # Checked although scan ignores it.
        (["scan", "--batch-sizes", "full"], {"iterations": 0}),
        # Only JSON strings and numbers read as flag text.
        (["train", "--iterations", "1", "--repeats", "1"], {"out": None}),
        (["train"], {"resolvers": ["igols", "gs"]}),
        (["train"], {"arch": [3, 3]}),
        (["train"], {"seed": True}),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else json.dumps(value))
    def test_duplicate_or_bad_config_value_is_usage_error(self, tmp_path, args, config):
        out = tmp_path / "out"
        if config is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        assert main(args + ["--dataset", "iris", "--out", str(out)]) == 2
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("args, config", [
        (["train", "--out", ""], None),
        (["train"], {"out": ""}),
    ], ids=["flag", "config"])
    def test_empty_out_is_usage_error(self, tmp_path, monkeypatch, args, config):
        # Path("") is the working directory: an empty --out would write there.
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "spec.json").write_text(json.dumps(config))
            args = args + ["--config", "spec.json"]
        assert main(args + ["--dataset", "iris", "--iterations", "1",
                            "--repeats", "1"]) == 2
        assert list(tmp_path.glob("*.csv")) == []

    def test_null_config_out_makes_no_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps({"out": None}))
        assert main(["train", "--config", "spec.json", "--dataset", "iris",
                     "--iterations", "1", "--repeats", "1"]) == 2
        assert not (tmp_path / "None").exists()
        assert "['out']" in capsys.readouterr().err

    def test_config_value_parses_like_its_flag(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "dataset": "iris", "arch": 3, "resolvers": "igols, gs", "repeats": 1,
            "iterations": 2, "batch_size": 5, "seed": 4, "policy": "fixed",
            "out": str(tmp_path / "from_config"),
        }))
        run_ok(["train", "--config", str(config)])
        flags = ["train", "--dataset", "iris", "--arch", "3", "--resolver", "igols,gs",
                 "--repeats", "1", "--iterations", "2", "--batch-size", "5",
                 "--seed", "4", "--policy", "fixed", "--out", str(tmp_path / "from_flags")]
        run_ok(flags)
        names = sorted(p.name for p in (tmp_path / "from_flags").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "from_config").iterdir())
        for name in names:
            assert ((tmp_path / "from_flags" / name).read_bytes()
                    == (tmp_path / "from_config" / name).read_bytes())

    @pytest.mark.parametrize("command", [
        ["train", "--resolver", "bgols", "--repeats", "2", "--iterations", "20"],
        ["scan", "--batch-sizes", "10,full", "--repeats", "2"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_unusable_out_is_usage_error(self, tmp_path, command, under):
        blocker = tmp_path / "afile"
        blocker.write_text("keep me\n")
        out = blocker / "sub" if under else blocker
        assert main(command + ["--dataset", "iris", "--out", str(out)]) == 2
        assert blocker.read_text() == "keep me\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"learning_rate": 0.1}))
        assert main(["train", "--config", str(config)]) == 2
