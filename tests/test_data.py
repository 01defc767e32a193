import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gols.data import (BatchSampler, Dataset, builtin_dataset, load_csv, split_3_1_1,
                       write_csv)


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(
        "1.0,2.0,a\n"
        "1.5,2.5,b\n"
        "0.5,1.0,a\n"
        "3.0,0.0,b\n"
        "2.0,2.0,a\n"
        "0.0,0.0,b\n"
    )
    return path


class TestLoadCsv:
    def test_shapes_echo(self, small_csv):
        ds = load_csv(small_csv)
        assert (ds.num_rows, ds.num_features, ds.class_count) == (6, 2, 2)

    def test_first_appearance_label_order(self, small_csv):
        ds = load_csv(small_csv)
        assert list(ds.labels) == [0, 1, 0, 1, 0, 1]

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text(
            "x,y,label\n" + "\n".join(f"{i}.0,{i}.5,c{i % 2}" for i in range(6)) + "\n"
        )
        ds = load_csv(path)
        assert ds.num_rows == 6
        assert ds.class_count == 2

    def test_bundled_iris_shape(self):
        ds = builtin_dataset("iris")
        assert (ds.num_rows, ds.num_features, ds.class_count) == (150, 4, 3)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,a\n3,4,b\n5,6\n7,8,a\n9,10,b\n11,12,a\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_non_numeric_feature_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,a\n3,oops,b\n5,6,a\n7,8,b\n9,10,a\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "oneclass.csv"
        path.write_text("\n".join(f"{i},1,same" for i in range(6)) + "\n")
        with pytest.raises(ValueError, match="one class"):
            load_csv(path)

    def test_one_hot_rows_sum_to_one(self, small_csv):
        onehot = load_csv(small_csv).one_hot()
        assert_allclose(onehot.sum(axis=1), 1.0)
        assert set(np.unique(onehot)) == {0.0, 1.0}


class TestWriteCsv:
    def test_blocks_of_columns_and_scalars(self, tmp_path):
        path = tmp_path / "out.csv"
        values = np.array([0.1, 1e16, -0.0, np.nan])
        write_csv(path, ["name", "value", "id"], [
            ("a", values, np.arange(4)),
            ("b,c", np.float64(1.0 / 3.0), 7),
        ])
        assert path.read_text(encoding="utf-8").splitlines() == [
            "name,value,id",
            "a,0.1,0", "a,1e+16,1", "a,-0.0,2", "a,nan,3",
            f'"b,c",{1.0 / 3.0!r},7',
        ]

    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "out.csv"
        values = np.random.default_rng(0).normal(size=50) * 10.0 ** np.arange(-25, 25)
        write_csv(path, ["x"], [(values,)])
        cells = path.read_text(encoding="utf-8").splitlines()[1:]
        assert cells == [repr(float(v)) for v in values]


class TestSplit:
    def test_iris_sized_split(self):
        ds = builtin_dataset("iris")
        sp = split_3_1_1(ds, seed=0)
        assert (len(sp.train), len(sp.validation), len(sp.test)) == (90, 30, 30)

    def test_smallest_legal_split(self):
        ds = Dataset("five", np.arange(10.0).reshape(5, 2), [0, 1, 0, 1, 0], 2)
        sp = split_3_1_1(ds, seed=1)
        assert (len(sp.train), len(sp.validation), len(sp.test)) == (3, 1, 1)

    def test_deterministic_per_seed(self):
        ds = builtin_dataset("blobs")
        a, b = split_3_1_1(ds, seed=9), split_3_1_1(ds, seed=9)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.validation, b.validation)
        assert np.array_equal(a.test, b.test)

    @given(m=st.integers(5, 400), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_partitions_disjoint_and_exhaustive(self, m, seed):
        ds = Dataset(
            "gen",
            np.arange(2 * m, dtype=float).reshape(m, 2),
            np.arange(m) % 2,
            2,
        )
        sp = split_3_1_1(ds, seed)
        merged = np.concatenate([sp.train, sp.validation, sp.test])
        assert sorted(merged) == list(range(m))
        assert len(sp.validation) == len(sp.test) == m // 5


class TestBatchSampler:
    def test_exhaustion_gives_permutation(self):
        sampler = BatchSampler(np.arange(10), batch_size=10, seed=0)
        batch = sampler.sample()
        assert sorted(batch) == list(range(10))

    def test_batch_size_capped_at_partition(self):
        sampler = BatchSampler(np.arange(4), batch_size=99, seed=0)
        assert sampler.batch_size == 4

    def test_deterministic_sequence(self):
        a = BatchSampler(np.arange(30), 5, seed=3)
        b = BatchSampler(np.arange(30), 5, seed=3)
        for _ in range(10):
            assert np.array_equal(a.sample(), b.sample())

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_batches_stay_inside_partition_and_distinct(self, seed):
        indices = np.arange(100, 140)
        sampler = BatchSampler(indices, 7, seed)
        batch = sampler.sample()
        assert len(batch) == 7
        assert len(set(batch)) == 7
        assert set(batch) <= set(indices)

    def test_uniform_frequency_within_three_sigma(self):
        # 10000 draws of batch 10 from 90 rows; per-index count is
        # Binomial(10000, 1/9): mean 1111.1, sigma = sqrt(10000*(1/9)(8/9)).
        sampler = BatchSampler(np.arange(90), 10, seed=2024)
        counts = np.zeros(90)
        for _ in range(10_000):
            counts[sampler.sample()] += 1
        mean = 10_000 * 10 / 90
        sigma = np.sqrt(10_000 * (10 / 90) * (80 / 90))
        assert np.all(np.abs(counts - mean) <= 3 * sigma)

    def test_minibatch_loss_mean_matches_full_loss(self):
        # Unbiasedness of uniform sub-sampling: the mean of 1000 mini-batch
        # losses approaches the full-partition loss within 3 standard errors.
        from gols.net import Network

        ds = builtin_dataset("iris")
        net = Network(4, [3], 3)
        params = net.init_params(0)
        x, y = ds.features, ds.one_hot()
        sampler = BatchSampler(np.arange(ds.num_rows), 10, seed=77)
        losses = np.array(
            [net.loss(params, x[b], y[b]) for b in (sampler.sample() for _ in range(1000))]
        )
        full = net.loss(params, x, y)
        stderr = losses.std(ddof=1) / np.sqrt(len(losses))
        assert abs(losses.mean() - full) <= 3 * stderr

    def test_indices_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-d"):
            BatchSampler(np.arange(20).reshape(10, 2), 15, 0)
        with pytest.raises(ValueError, match="1-d"):
            BatchSampler(np.arange(20).reshape(10, 2), 5, 0)


def choice_stream(indices, batch_size, seed, draws):
    """The batches of ``Generator.choice`` called once per draw."""
    rng = np.random.default_rng(seed)
    size = min(batch_size, len(indices))
    return [rng.choice(indices, size, replace=False) for _ in range(draws)]


def assert_same_batches(sampler, expected):
    for k, want in enumerate(expected):
        got = sampler.sample()
        assert got.dtype == want.dtype and np.array_equal(got, want), f"draw {k}"


class TestSamplerStream:
    """BatchSampler hands out exactly the batches of Generator.choice."""

    IRIS_TRAIN = split_3_1_1(builtin_dataset("iris"), 0).train

    @pytest.mark.parametrize("indices, batch_size", [
        (np.arange(90), 1),
        (np.arange(90), 10),
        (np.arange(90), 30),
        (np.arange(90), 50),
        (np.arange(90), 64),
        (np.arange(90), 65),
        (np.arange(90), 90),
        (np.arange(90), 200),
        (np.arange(5), 1),
        (np.arange(5), 3),
        (np.arange(5), 5),
        (np.arange(1), 1),
        (np.arange(2), 1),
        (IRIS_TRAIN, 10),
        (np.arange(1000, 4000, 7), 20),
    ])
    @pytest.mark.parametrize("seed", [0, 1, (3, 303, 1, 2)])
    def test_matches_choice_across_blocks(self, indices, batch_size, seed):
        # 200 draws: the first from choice, then four blocks of 64.
        assert_same_batches(BatchSampler(indices, batch_size, seed),
                            choice_stream(indices, batch_size, seed, 200))

    @pytest.mark.parametrize("n, batch_size, seed, draws", [
        (10_000, 1, 70, 4000),
        (10_000, 10, 28, 640),
    ])
    def test_rejected_word_takes_the_scalar_path(self, monkeypatch, n, batch_size,
                                                 seed, draws):
        # Lemire's method rejects a word with probability below n / 2**32;
        # these seeds hit one within the first ``draws`` batches.
        scalar = []
        real = BatchSampler._scalar_batch

        def counted(sampler):
            scalar.append(sampler)
            return real(sampler)

        monkeypatch.setattr(BatchSampler, "_scalar_batch", counted)
        indices = np.arange(n)
        assert_same_batches(BatchSampler(indices, batch_size, seed),
                            choice_stream(indices, batch_size, seed, draws))
        assert len(scalar) == 1

    @pytest.mark.parametrize("n, batch_size", [(90, 10), (60, 60), (5, 3), (300, 64)])
    def test_scalar_path_alone_matches_choice(self, n, batch_size):
        # The first batch comes from choice; the word-by-word path then goes
        # on from the words choice left, a buffered half word included.
        indices = np.arange(n) * 2
        sampler = BatchSampler(indices, batch_size, 4)
        first, *rest = choice_stream(indices, batch_size, 4, 20)
        assert np.array_equal(sampler.sample(), first)
        for k, want in enumerate(rest, 1):
            assert np.array_equal(sampler._scalar_batch(), want), f"draw {k}"

    @pytest.mark.parametrize("n, batch_size", [(10_001, 201), (70_000, 10)])
    def test_choice_regimes_outside_blocks(self, n, batch_size):
        # A batch above n // 50 of more than 10 000 rows is numpy's tail
        # shuffle; a partition of more than 65 536 rows is past the block mask.
        indices = np.arange(n)
        assert_same_batches(BatchSampler(indices, batch_size, 9),
                            choice_stream(indices, batch_size, 9, 5))

    def test_mutating_a_batch_leaves_later_draws(self):
        expected = choice_stream(np.arange(90), 10, 5, 150)
        sampler = BatchSampler(np.arange(90), 10, 5)
        for k, want in enumerate(expected):
            batch = sampler.sample()
            assert np.array_equal(batch, want), f"draw {k}"
            batch[:] = -1

    def test_interleaved_samplers_match_each_alone(self):
        specs = [(np.arange(90), 10, 1), (np.arange(90), 10, 2), (np.arange(30), 7, 1)]
        expected = [choice_stream(*spec, 150) for spec in specs]
        samplers = [BatchSampler(*spec) for spec in specs]
        order = np.random.default_rng(0).integers(0, len(specs), 450)
        got = [[] for _ in specs]
        for k in order:
            if len(got[k]) < 150:
                got[k].append(samplers[k].sample().copy())
        for batches, want in zip(got, expected):
            assert len(batches) > 64
            for a, b in zip(batches, want):
                assert np.array_equal(a, b)


class TestBuiltins:
    @pytest.mark.parametrize("name", ["iris", "blobs", "noisy-quadratic"])
    def test_builtins_load_and_validate(self, name):
        ds = builtin_dataset(name)
        assert ds.num_rows >= 5
        assert ds.class_count >= 2

    def test_builtins_deterministic(self):
        a, b = builtin_dataset("blobs"), builtin_dataset("blobs")
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_dataset("nope")
