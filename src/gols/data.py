"""Tabular classification datasets: CSV loading, 3:1:1 splits, batch sampling,
and the one CSV writer every output file goes through.

CSV files are comma separated, UTF-8, with an optional header line (detected
by a non-numeric feature cell in the first row).  The last column is the class
label; all preceding columns must be numeric.  Labels are mapped to dense
indices 0..K-1 in order of first appearance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

__all__ = [
    "Dataset",
    "Split",
    "BatchSampler",
    "load_csv",
    "write_csv",
    "split_3_1_1",
    "builtin_dataset",
    "BUILTIN_DATASETS",
]


@dataclass(eq=False)
class Dataset:
    """A classification table: M rows of D features plus a class index each."""

    name: str
    features: np.ndarray  # (M, D) float
    labels: np.ndarray    # (M,) int in [0, class_count)
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if len(self.labels) != self.num_rows:
            raise ValueError("features and labels disagree on row count")
        if self.num_rows < 5:
            raise ValueError("dataset needs at least 5 rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.class_count < 2:
            raise ValueError("dataset needs at least 2 classes")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels out of range")

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def one_hot(self) -> np.ndarray:
        """Targets as an (M, K) matrix of 0/1 rows, one 1 per row."""
        return np.eye(self.class_count)[self.labels]


@dataclass(eq=False)
class Split:
    """Disjoint train/validation/test row indices covering a dataset."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def load_csv(path, name=None) -> Dataset:
    """Load a classification dataset from a CSV file.

    Raises ValueError with the offending 1-based row number for malformed
    rows, non-numeric feature cells, or files with fewer than two classes.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    first = rows[0][1]
    has_header = any(not _is_number(cell) for cell in first[:-1])
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ValueError(f"{path}: no data rows")

    ncols = len(data_rows[0][1])
    if ncols < 2:
        raise ValueError(f"{path}: row {data_rows[0][0]}: need at least one feature column")
    features, label_names, label_index = [], [], {}
    labels = []
    for line_no, row in data_rows:
        if len(row) != ncols:
            raise ValueError(
                f"{path}: row {line_no}: expected {ncols} columns, got {len(row)}"
            )
        try:
            features.append([float(cell) for cell in row[:-1]])
        except ValueError:
            raise ValueError(f"{path}: row {line_no}: non-numeric feature value") from None
        key = row[-1].strip()
        if key not in label_index:
            label_index[key] = len(label_names)
            label_names.append(key)
        labels.append(label_index[key])

    if len(label_names) < 2:
        raise ValueError(f"{path}: row {data_rows[-1][0]}: only one class present")
    return Dataset(
        name=name or str(path),
        features=np.array(features, dtype=float),
        labels=np.array(labels, dtype=int),
        class_count=len(label_names),
    )


def write_csv(path, header, blocks) -> None:
    """Write ``header`` and then each block of columns to ``path`` as CSV.

    A block is a sequence of columns: arrays of one length, or scalars that
    repeat down the block (a block of scalars is one row).  Rows are streamed
    block by block.  Every cell is written as the Python value of its numpy
    element, so a float reads ``repr(float(x))``, the shortest text that
    parses back to the same double.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in block))
            writer.writerows(zip(*(c.tolist() for c in columns)))


def split_3_1_1(dataset: Dataset, seed) -> Split:
    """Shuffle rows by seed, then partition 60/20/20.

    Validation and test sizes are floor(M/5); remainder rows go to training,
    keeping the training partition three times the other two (up to rounding).
    """
    m = dataset.num_rows
    if m < 5:
        raise ValueError("need at least 5 rows to split 3:1:1")
    perm = np.random.default_rng(seed).permutation(m)
    n_hold = m // 5
    n_train = m - 2 * n_hold
    return Split(
        train=perm[:n_train],
        validation=perm[n_train:n_train + n_hold],
        test=perm[n_train + n_hold:],
    )


# Batches a sampler draws at once; larger blocks were no faster per draw and
# raised peak memory.
_BLOCK = 64
# A block takes a few numpy calls per row of a batch, so choice catches up
# with it near 100 rows; and a mask of _BLOCK bytes per row of the partition,
# here at most 4 MiB.
_BLOCK_MAX_BATCH = 64
_BLOCK_MAX_ROWS = 1 << 16
_LOW_WORD = 0xFFFFFFFF


class BatchSampler:
    """Seeded stream of fixed-size batches of distinct row indices.

    Each call to :meth:`sample` is an independent uniform draw without
    replacement within the batch; successive batches are independent of each
    other.  A sampler owns its random stream: every draw advances it.

    The batches are those that ``numpy.random.default_rng(seed).choice(
    indices, batch_size, replace=False)`` gives call after call in numpy 2.x,
    bit for bit.  That call picks rows by Floyd's algorithm (Bentley and
    Floyd 1987) and shuffles them by Fisher-Yates, each step a Lemire bounded
    integer (Lemire 2019) from the next 32-bit word of PCG64, the low half of
    each 64-bit output first.  The first batch comes from ``choice`` itself.
    After it the sampler takes the words of 64 batches at once, runs every
    step for the 64 batches together, and hands the batches out one per
    call.  A block in which Lemire's method would reject a word keeps the
    batches before that one, draws that batch word by word, and the next
    block starts after it.  Batches of more than 64 rows and partitions of
    more than 65 536 rows call ``choice`` for every batch; that covers the
    partitions of more than 10 000 rows with a batch above rows // 50, where
    numpy shuffles a tail instead of running Floyd's algorithm.
    """

    def __init__(self, indices, batch_size: int, seed):
        self.indices = np.asarray(indices, dtype=int)
        if self.indices.ndim != 1:
            raise ValueError("sampler needs a 1-d array of row indices")
        if self.indices.size == 0:
            raise ValueError("sampler needs a nonempty index partition")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.batch_size = min(int(batch_size), self.indices.size)
        self._rng = np.random.default_rng(seed)
        self._ready, self._next = (), 0
        n, b = self.indices.size, self.batch_size
        self._blocked = b <= _BLOCK_MAX_BATCH and n <= _BLOCK_MAX_ROWS
        # Floyd's step j draws from 0..j (no word when j is 0) and takes row
        # j itself when the draw was taken before; the shuffle's step i swaps
        # position i with one of 0..i, for i = b-1 down to 1.
        floyd = np.arange(n - b, n)
        tops = np.concatenate([floyd[floyd > 0], np.arange(b - 1, 0, -1)])
        self._bounds = tops.astype(np.uint64) + 1
        self._floors = (1 << 32) % self._bounds
        self._lanes = np.arange(_BLOCK)
        self._own_keys = floyd[:, None] * _BLOCK + self._lanes
        self._spare = None  # words read but not used; None before the first batch

    def sample(self) -> np.ndarray:
        if self._next == len(self._ready):
            self._ready, self._next = self._draw_block(), 0
        self._next += 1
        return self._ready[self._next - 1]

    def _draw_block(self):
        """The next batches of the stream as rows: 64 of them, fewer before a
        rejection, or one from ``choice`` (the first batch, or any batch
        outside the block path)."""
        if not self._blocked or self._spare is None:
            # A sampler that draws one batch, as a scan under the fixed policy
            # does, would pay for 64 if its first batch came from a block.
            batch = self._rng.choice(self.indices, self.batch_size, replace=False)
            if self._blocked:
                # choice leaves the high half of a half-read output buffered.
                state = self._rng.bit_generator.state
                self._spare = np.array([state["uinteger"]] * state["has_uint32"],
                                       np.uint32)
            return batch[None]
        n, b, width = self.indices.size, self.batch_size, self._bounds.size
        floyd_words = width - (b - 1)
        words = self._words(_BLOCK * width)
        # Row t of each (steps, lanes) array is step t of all 64 batches.
        products = words.reshape(_BLOCK, width).T * self._bounds[:, None]
        rejected = ((products & _LOW_WORD) < self._floors[:, None]).any(axis=0)
        # Key v * _BLOCK + lane names row v of one lane's batch; as a flat
        # index into a (b, lanes) array it names position v of that batch.
        keys = (products >> 32).astype(np.int64)
        keys *= _BLOCK
        keys += self._lanes
        picks = np.empty((b, _BLOCK), np.int64)
        picks[:b - floyd_words] = self._lanes  # step j = 0 (when b == n) takes row 0
        picks[b - floyd_words:] = keys[:floyd_words]
        seen = np.zeros(n * _BLOCK, bool)
        for pick, own in zip(picks, self._own_keys):
            np.copyto(pick, own, where=seen[pick])
            seen[pick] = True
        picks //= _BLOCK
        flat = picks.reshape(-1)
        for i, at in zip(range(b - 1, 0, -1), keys[floyd_words:]):
            moved = flat[at]
            flat[at] = picks[i]
            picks[i] = moved
        batches = self.indices[picks.T]
        if rejected.any():
            kept = int(rejected.argmax())
            self._spare = np.concatenate([words[kept * width:], self._spare])
            batches = np.concatenate([batches[:kept], self._scalar_batch()[None]])
        return batches

    def _words(self, count):
        """The stream's next ``count`` 32-bit words."""
        spare = self._spare
        if count > spare.size:
            raw = self._rng.bit_generator.random_raw((count - spare.size + 1) // 2)
            spare = np.concatenate([spare, raw.astype("<u8", copy=False).view("<u4")])
        self._spare = spare[count:]
        return spare[:count]

    def _bounded(self, top):
        """Lemire's integer in 0..top, word by word, as numpy draws it."""
        if top == 0:
            return 0
        bound = top + 1
        while True:
            product = int(self._words(1)[0]) * bound
            if product & _LOW_WORD >= (1 << 32) % bound:
                return product >> 32

    def _scalar_batch(self):
        """One batch drawn word by word: the path past a rejected word."""
        n, b = self.indices.size, self.batch_size
        picks = []
        for j in range(n - b, n):
            pick = self._bounded(j)
            picks.append(j if pick in picks else pick)
        for i in range(b - 1, 0, -1):
            at = self._bounded(i)
            picks[i], picks[at] = picks[at], picks[i]
        return self.indices[picks]


# -- bundled datasets --------------------------------------------------------


def _load_bundled(filename, name):
    path = resources.files("gols").joinpath("datasets").joinpath(filename)
    with resources.as_file(path) as real_path:
        return load_csv(real_path, name=name)


def _make_blobs(rows=150, features=4, classes=3, seed=20240):
    """Well separated Gaussian clusters, one per class."""
    rng = np.random.default_rng(seed)
    per = rows // classes
    centers = rng.uniform(-4.0, 4.0, size=(classes, features))
    x = np.vstack([
        centers[c] + 0.6 * rng.standard_normal((per, features))
        for c in range(classes)
    ])
    labels = np.repeat(np.arange(classes), per)
    perm = rng.permutation(len(labels))
    return Dataset("blobs", x[perm], labels[perm], classes)


def _make_noisy_quadratic(rows=150, seed=20241):
    """Binary labels from a noisy quadratic score of two features."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, 2))
    score = x[:, 0] ** 2 + x[:, 1] ** 2 + 0.1 * rng.standard_normal(rows)
    labels = (score > np.median(score)).astype(int)
    return Dataset("noisy-quadratic", x, labels, 2)


BUILTIN_DATASETS = ("iris", "blobs", "noisy-quadratic")


def builtin_dataset(name: str) -> Dataset:
    """Return one of the bundled datasets by name (deterministic contents)."""
    if name == "iris":
        return _load_bundled("iris.csv", "iris")
    if name == "blobs":
        return _make_blobs()
    if name == "noisy-quadratic":
        return _make_noisy_quadratic()
    raise ValueError(f"unknown builtin dataset {name!r}; choose from {BUILTIN_DATASETS}")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True
