import csv
import tracemalloc

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

    @pytest.mark.parametrize("header", ["", "x,y,label\n"], ids=["bare", "header"])
    def test_byte_order_mark_reads_as_the_file_without_it(self, tmp_path, header):
        # A mark read as part of the first cell would make it non-numeric, so
        # a headerless file would lose its first row to a header.
        text = header + "".join(f"{i}.0,{i}.5,c{i % 2}\n" for i in range(6))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        want, got = load_csv(plain), load_csv(marked)
        assert got.num_rows == 6
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tolist() == want.labels.tolist()
        assert got.class_count == want.class_count

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("header", ["", "x,y,label\n"], ids=["bare", "header"])
    def test_non_finite_feature_reports_file_and_line(self, tmp_path, cell, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + f"1,2,a\n3,4,b\n5,{cell},a\n7,8,b\n9,10,a\n")
        with pytest.raises(ValueError) as raised:
            load_csv(path)
        assert str(raised.value) == (
            f"{path}: row {3 + bool(header)}: non-finite feature value")

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


def csv_writer_reference(path, header, blocks):
    """What ``write_csv`` wrote when it went through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in block))
            writer.writerows(zip(*(c.tolist() for c in columns)))


class TestWriteCsvMatchesCsvWriter:
    grid = np.linspace(0.0, 2.0, 5)
    CASES = {
        "special characters": (["text", "n"], [
            (np.array(["a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\n", '"', ",", "plain"]),
             np.arange(8)),
            ("scalar, with comma", 1),
        ]),
        "empty fields and None": (["a", "b"], [
            (np.array(["", "x", ""]), np.array([None, 1, None], dtype=object)),
            ("", None),
        ]),
        "a lone empty field": ([""], [
            (np.array(["", "x", ""]),),
            ("",),
            (None,),
            (np.array([None, "y"], dtype=object),),
        ]),
        "bools and numpy ints": (["flag", "i", "j"], [
            (np.array([True, False, True]), np.arange(3, dtype=np.int32), np.int64(-7)),
            (np.bool_(False), np.uint8(255), True),
        ]),
        "special floats": (["x", "y"], [
            (np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-5, 1e-4, 0.1,
                       1.0 / 3.0, 123456789012345.6, 5e-324]), 2.5),
            (np.float64(1e16), np.float32(0.1)),
        ]),
        "broadcast scalars and an empty block": (["s", "x", "k"], [
            ("s", np.arange(4) * 0.5, 3),
            ("t", np.array([]), 4),
            (np.array([], dtype=str), np.array([]), np.array([], dtype=int)),
            ("u", 1.5, 5),
        ]),
        "a shared column": (["alpha", "f", "repeat"], [
            (grid, np.sin(grid), 0),
            (grid, np.cos(grid), 1),
            (grid, grid, 2),
        ]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_match(self, tmp_path, case):
        header, blocks = self.CASES[case]
        write_csv(tmp_path / "got.csv", header, blocks)
        csv_writer_reference(tmp_path / "want.csv", header, blocks)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_blocks_may_be_a_generator(self, tmp_path):
        # Columns made block by block are released as the writer goes on; a
        # new column must not take the text of an old one at the same id.
        def blocks():
            for k in range(50):
                yield np.arange(3) * float(k), k

        write_csv(tmp_path / "got.csv", ["x", "k"], blocks())
        csv_writer_reference(tmp_path / "want.csv", ["x", "k"], blocks())
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_columns_of_different_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(tmp_path / "out.csv", ["a", "b"], [(np.arange(2), np.arange(3))])


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

    def test_batch_size_must_be_a_whole_number(self):
        # int() would have turned 2.5 into batches of 2, and True into 1.
        for bad in (2.5, 10.0, True, "3", 0, -1):
            with pytest.raises(ValueError):
                BatchSampler(np.arange(10), bad, 0)
        assert BatchSampler(np.arange(10), np.int64(3), 0).sample().shape == (3,)

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


def block_of(indices, batch_size):
    """The batches ``sample()`` draws at once from ``indices``."""
    return BatchSampler(indices, batch_size, 0)._block


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
        # The first draw from choice, then two whole blocks and part of a third.
        draws = 1 + 2 * block_of(indices, batch_size) + 7
        assert_same_batches(BatchSampler(indices, batch_size, seed),
                            choice_stream(indices, batch_size, seed, draws))

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

    # A count (k, c) is k blocks of sample() and c batches more.
    @pytest.mark.parametrize("n, batch_size, seed, counts", [
        (90, 10, 0, [(0, 1), (1, -1), (1, 0), (1, 1), (0, 100), (2, 0)]),
        (90, 1, 1, [(2, 8), (0, 1), (0, 100)]),
        (90, 50, 2, [(1, 1), (1, 0), (1, -1)]),
        (5, 3, 3, [(1, 36), (0, 1)]),
        (90, 65, 4, [(1, 0), (1, 1)]),  # outside the block path: choice per batch
        (10_000, 1, 70, [(0, 1000), (0, 3000)]),  # a rejection in the second call
        (10_000, 10, 28, [(0, 640)]),  # a rejection inside one call
    ])
    def test_samples_match_single_draws(self, n, batch_size, seed, counts):
        # samples(count) gives the batches of count sample() calls, and
        # leaves the stream where they would: mixed calls match choice.
        indices = np.arange(n)
        block = block_of(indices, batch_size)
        counts = [k * block + c for k, c in counts]
        total = sum(counts) + 2 * len(counts)
        expected = iter(choice_stream(indices, batch_size, seed, total))
        sampler = BatchSampler(indices, batch_size, seed)
        for count in counts:
            got = sampler.samples(count)
            assert got.shape == (count, min(batch_size, n))
            for k, row in enumerate(got):
                assert np.array_equal(row, next(expected)), f"row {k} of {count}"
            for _ in range(2):
                assert np.array_equal(sampler.sample(), next(expected))

    @staticmethod
    def count_blocks(monkeypatch):
        """The sizes of the blocks samplers draw from now on, in order."""
        drawn = []
        real = BatchSampler._draw_block

        def counted(sampler, most):
            block = real(sampler, most)
            drawn.append(len(block))
            return block

        monkeypatch.setattr(BatchSampler, "_draw_block", counted)
        return drawn

    def test_samples_draw_no_surplus(self, monkeypatch):
        # A scan's 101 nodes take one block of 101 from the stream's first
        # word, not a batch from choice and a block of 100, nor blocks of
        # sample()'s size with batches left over.
        drawn = self.count_blocks(monkeypatch)
        BatchSampler(np.arange(90), 50, 6).samples(101)
        assert drawn == [101]

    def test_sample_takes_its_first_batch_from_choice(self, monkeypatch):
        # A fixed-policy probe draws one batch, so a fresh sampler's
        # sample() takes one from choice, and only its second a block.
        drawn = self.count_blocks(monkeypatch)
        chosen = []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def choice(self, *args, **kwargs):
                chosen.append(1)
                return self.rng.choice(*args, **kwargs)

        sampler = BatchSampler(np.arange(90), 50, 6)
        sampler._rng = CountingRng(sampler._rng)
        sampler.sample()
        assert drawn == [1] and chosen == [1]
        sampler.sample()
        assert drawn == [1, block_of(np.arange(90), 50)] and chosen == [1]

    def test_handed_out_batches_are_not_held(self):
        # The scans of one batch size keep all their samplers alive at once,
        # so a sampler must not hold the batches it handed out, nor the
        # words it drew them from: 101 batches of 50 rows are 40 400 bytes.
        BatchSampler(np.arange(90), 50, 1).samples(101)  # numpy's lazy set-up
        tracemalloc.start()
        try:
            sampler = BatchSampler(np.arange(90), 50, 0)
            batches = sampler.samples(101)
            del batches
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 10_000

    @pytest.mark.parametrize("count", [-1, -2, 1.0, True, "3"])
    def test_samples_count_must_be_a_whole_number_of_at_least_0(self, count):
        sampler = BatchSampler(np.arange(90), 10, 8)
        expected = choice_stream(np.arange(90), 10, 8, 3 * block_of(np.arange(90), 10))
        assert_same_batches(sampler, expected[:2])
        with pytest.raises(ValueError, match="count must be"):
            sampler.samples(count)
        assert sampler.samples(0).shape == (0, 10)
        assert_same_batches(sampler, expected[2:])

    def test_large_partition_takes_the_block_path(self, monkeypatch):
        # 20 000 rows are past 512 batches of mask but within 64: the blocks
        # shrink to the mask, and the stream is choice's.
        drawn = self.count_blocks(monkeypatch)
        indices = np.arange(20_000)
        lanes = (1 << 22) // indices.size
        assert_same_batches(BatchSampler(indices, 10, 12),
                            choice_stream(indices, 10, 12, 1 + 2 * lanes))
        assert drawn == [1, lanes, lanes]

    @pytest.mark.parametrize("batch_size", [1, 10, 50, 64])
    def test_a_block_holds_40_kib_or_less(self, batch_size):
        sampler = BatchSampler(np.arange(90), batch_size, 3)
        sampler.sample(), sampler.sample()  # choice's batch, then a block
        assert len(sampler._ready) == block_of(np.arange(90), batch_size) >= 64
        assert sampler._ready.nbytes <= 40 * 1024

    def test_mutating_a_batch_leaves_later_draws(self):
        draws = 2 * block_of(np.arange(90), 10) + 8
        expected = choice_stream(np.arange(90), 10, 5, draws)
        sampler = BatchSampler(np.arange(90), 10, 5)
        for k, want in enumerate(expected):
            batch = sampler.sample()
            assert np.array_equal(batch, want), f"draw {k}"
            batch[:] = -1

    def test_interleaved_samplers_match_each_alone(self):
        specs = [(np.arange(90), 10, 1), (np.arange(90), 10, 2), (np.arange(30), 7, 1)]
        block = max(block_of(indices, batch_size) for indices, batch_size, _ in specs)
        draws = 2 * block + 8
        expected = [choice_stream(*spec, draws) for spec in specs]
        samplers = [BatchSampler(*spec) for spec in specs]
        order = np.random.default_rng(0).integers(0, len(specs), 3 * draws)
        got = [[] for _ in specs]
        for k in order:
            if len(got[k]) < draws:
                got[k].append(samplers[k].sample().copy())
        for batches, want in zip(got, expected):
            assert len(batches) > 1 + block
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
