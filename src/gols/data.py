"""Tabular classification datasets: CSV loading, 3:1:1 splits, batch sampling,
and the one CSV writer every output file goes through.

CSV files are comma separated, UTF-8, with an optional header line (detected
by a non-numeric feature cell in the first row).  The last column is the class
label; all preceding columns must be numeric.  Labels are mapped to dense
indices 0..K-1 in order of first appearance.
"""

from __future__ import annotations

import csv
import re
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
    """Load a classification dataset from a UTF-8 CSV file; a leading
    byte-order mark is not part of the first cell.

    Raises ValueError with the offending 1-based row number for malformed
    rows, non-numeric or non-finite (``nan``, ``inf``) feature cells, or
    files with fewer than two classes.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
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
        if not np.isfinite(features[-1]).all():
            raise ValueError(f"{path}: row {line_no}: non-finite feature value")
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

    A block is a sequence of columns: 1-d arrays of one length, or scalars
    that repeat down the block (a block of scalars is one row).  Rows are
    written block by block, in the text ``csv.writer`` gives them: fields
    joined by ``,``, rows ended by ``\r\n``, and a field quoted (its quotes
    doubled) when it holds a comma, a quote or a line break, or when it is
    the only field of its row and empty.  Every cell is the ``str`` of the
    Python value of its numpy element, and ``None`` is empty, so a float
    reads ``repr(float(x))``, the shortest text that parses back to the same
    double.

    Each column is formatted once, as a whole.  A column object that comes
    again in a later block, say the step-size grid that scans share, is
    taken to hold the same values and reuses its text.
    """
    formatted = {}  # id -> (column, its fields); holding it keeps the id unique
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_rows([[field] for field in _fields(header)]))
        for block in blocks:
            columns = []
            for column in block:
                known = formatted.get(id(column))
                if known is None:
                    known = formatted[id(column)] = (column, _fields(column))
                columns.append(known[1])
            lengths = {len(fields) for fields in columns} - {1}
            if len(lengths) > 1:
                raise ValueError(f"columns of one block differ in length: {sorted(lengths)}")
            rows = lengths.pop() if lengths else 1
            fh.write(_rows([f if len(f) == rows else f * rows for f in columns]))


# The characters that make csv.writer quote a field under QUOTE_MINIMAL.
_QUOTED = re.compile('[,"\r\n]')


def _fields(column) -> list:
    """The CSV fields of a column's values, quoted where needed."""
    values = np.atleast_1d(column)
    if values.ndim != 1:
        raise ValueError("a CSV column must be 1-d")
    if values.dtype == object:
        fields = ["" if v is None else str(v) for v in values.tolist()]
    else:
        fields = list(map(str, values.tolist()))
    # The text of a number never needs quotes.
    if values.dtype.kind not in "biuf" and _QUOTED.search("".join(fields)):
        fields = ['"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text
                  for text in fields]
    return fields


def _rows(columns) -> str:
    """The text of the rows of ``columns``, lists of fields of one length."""
    # csv.writer quotes a lone empty field, which unquoted would read back
    # as an empty line.
    if len(columns) == 1:
        columns = [[text or '""' for text in columns[0]]]
    lines = "\r\n".join(map(",".join, zip(*columns)))
    return lines + "\r\n" if lines else ""


def check_count(name, value, least=1) -> None:
    """Raise ``ValueError`` unless ``value`` is a whole number of at least
    ``least``: a Python or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


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


# A sampler draws the batches of sample() in blocks of about this many row
# indices (40 KiB), of 64 to 512 batches: 512 of 10 rows, 102 of 50, 80 of
# 64.  A block's numpy calls cost the same for any number of batches, so a
# larger block is cheaper per draw: with numpy 2.4 on x86-64, a draw of 10
# of 90 rows took 1.43 us in blocks of 64 and 0.65 us in blocks of 512, and
# one of 50 rows 4.56 and 2.43 us.
_BLOCK_INDICES = 5120
_BLOCK_MIN, _BLOCK_MAX = 64, 512
# A block takes a few numpy calls per row of a batch, so choice catches up
# with it near 100 rows.
_BLOCK_MAX_BATCH = 64
# A block's mask holds one byte per row of the partition and batch of the
# block, so past 8 192 rows a block can hold fewer than 512 batches; a
# partition takes the block path if 64 batches of it fit, up to 65 536 rows.
_MASK_BYTES = 1 << 22
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
    each 64-bit output first.  The first batch of :meth:`sample` on a fresh
    sampler comes from ``choice`` itself, so a sampler that draws one batch
    pays for one.  After it the sampler takes the words of a block of
    batches at once, runs every step for the block's batches together, and
    hands the batches out one per call.  A block holds about 5 120 row
    indices (40 KiB), 64 to 512 batches, and fewer in a partition of more
    than 8 192 rows, whose mask of one byte per row and batch is held to
    4 MiB; :meth:`samples` takes as many batches as it asks for in one
    block, up to that mask, from the stream's first word on a fresh
    sampler.  A block in which Lemire's method would reject a word keeps the
    batches before that one, draws that batch word by word, and the next
    block starts after it.
    Batches of more than 64 rows and partitions of more than 65 536 rows
    call ``choice`` for every batch; that covers the partitions of more than
    10 000 rows with a batch above rows // 50, where numpy shuffles a tail
    instead of running Floyd's algorithm.
    """

    def __init__(self, indices, batch_size: int, seed):
        self.indices = np.asarray(indices, dtype=int)
        if self.indices.ndim != 1:
            raise ValueError("sampler needs a 1-d array of row indices")
        if self.indices.size == 0:
            raise ValueError("sampler needs a nonempty index partition")
        check_count("batch size", batch_size)
        self.batch_size = min(int(batch_size), self.indices.size)
        self._rng = np.random.default_rng(seed)
        n, b = self.indices.size, self.batch_size
        self._ready, self._next = np.empty((0, b), self.indices.dtype), 0
        self._blocked = b <= _BLOCK_MAX_BATCH and n * _BLOCK_MIN <= _MASK_BYTES
        self._block = min(max(_BLOCK_INDICES // b, _BLOCK_MIN), _BLOCK_MAX)
        # Floyd's step j draws from 0..j (no word when j is 0) and takes row
        # j itself when the draw was taken before; the shuffle's step i swaps
        # position i with one of 0..i, for i = b-1 down to 1.
        self._floyd = np.arange(n - b, n)
        tops = np.concatenate([self._floyd[self._floyd > 0], np.arange(b - 1, 0, -1)])
        self._bounds = tops.astype(np.uint64) + 1
        self._floors = (1 << 32) % self._bounds
        self._spare = None  # words read but not used; None before the first word

    def sample(self) -> np.ndarray:
        if self._next == len(self._ready):
            self._ready, self._next = self._draw_block(self._block), 0
        self._next += 1
        return self._ready[self._next - 1]

    def samples(self, count) -> np.ndarray:
        """The next ``count`` batches as the rows of one array: the batches
        that ``count`` calls of :meth:`sample` return.  The sampler keeps
        only a copy of the batches it has not handed out, so the array it
        returns is the only one that holds these.  ``count`` is a whole
        number of at least 0."""
        check_count("count", count, least=0)
        if self._spare is None and self._blocked:
            self._spare = np.empty(0, np.uint32)  # no choice batch: start at word 0
        parts = [self._ready[self._next:]]
        have = len(parts[0])
        while have < count:
            parts.append(self._draw_block(count - have))
            have += len(parts[-1])
        batches = np.concatenate(parts)
        self._ready, self._next = batches[count:].copy(), 0
        return batches[:count]

    def _draw_block(self, most):
        """The next batches of the stream as rows: ``most`` of them or as many
        as the mask bound allows, fewer before a rejection, or one from
        ``choice`` (the first batch of :meth:`sample` on a fresh sampler, or
        any batch outside the block path)."""
        if not self._blocked or self._spare is None:
            # A sampler that draws one batch, as a scan under the fixed policy
            # does, would pay for a whole block if its first came from one.
            batch = self._rng.choice(self.indices, self.batch_size, replace=False)
            if self._blocked:
                # choice leaves the high half of a half-read output buffered.
                state = self._rng.bit_generator.state
                self._spare = np.array([state["uinteger"]] * state["has_uint32"],
                                       np.uint32)
            return batch[None]
        n, b, width = self.indices.size, self.batch_size, self._bounds.size
        size = min(most, _MASK_BYTES // n)
        lanes = np.arange(size)
        floyd_words = width - (b - 1)
        words = self._words(size * width)
        # Row t of each (steps, lanes) array is step t of all the block's
        # batches.
        products = words.reshape(size, width).T * self._bounds[:, None]
        # The cast keeps each product's low word; the shift, in place, its
        # high word, the draw.
        rejected = (products.astype(np.uint32) < self._floors[:, None]).any(axis=0)
        # Key v * size + lane names row v of one lane's batch; as a flat
        # index into a (b, lanes) array it names position v of that batch.
        products >>= 32
        keys = products.view(np.int64)
        keys *= size
        keys += lanes
        picks = np.empty((b, size), np.int64)
        picks[:b - floyd_words] = lanes  # step j = 0 (when b == n) takes row 0
        picks[b - floyd_words:] = keys[:floyd_words]
        seen = np.zeros(n * size, bool)
        for pick, own in zip(picks, self._floyd[:, None] * size + lanes):
            np.copyto(pick, own, where=seen[pick])
            seen[pick] = True
        picks //= size
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
        self._spare = spare[count:].copy()  # a view would keep every word read
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
