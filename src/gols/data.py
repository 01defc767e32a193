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


class BatchSampler:
    """Seeded stream of fixed-size batches of distinct row indices.

    Each call to :meth:`sample` is an independent uniform draw without
    replacement within the batch; successive batches are independent of each
    other.  A sampler owns its random stream: every draw advances it.
    """

    def __init__(self, indices, batch_size: int, seed):
        self.indices = np.asarray(indices, dtype=int)
        if self.indices.size == 0:
            raise ValueError("sampler needs a nonempty index partition")
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.batch_size = min(int(batch_size), self.indices.size)
        self._rng = np.random.default_rng(seed)

    def sample(self) -> np.ndarray:
        return self._rng.choice(self.indices, size=self.batch_size, replace=False)


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
