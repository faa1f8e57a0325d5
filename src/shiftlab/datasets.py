"""Synthetic distribution-shift datasets, CSV I/O, batching and group metrics."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .diffcore import InputShapeError, ModelState, Packed, zero_one_loss_batch


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message names the offending line."""


@dataclass(eq=False)
class GroupedDataset:
    """Packed rows with group labels, made read-only, plus an id per row
    (0..n-1 by default)."""

    rows: Packed
    group_names: List[str] = field(default_factory=lambda: ["all"])
    ids: Optional[np.ndarray] = None

    def __post_init__(self):
        self.ids = np.arange(len(self.rows)) if self.ids is None else np.asarray(self.ids, dtype=int)
        self.group_names = list(self.group_names)
        rows = self.rows
        for array in (self.ids, rows.labels, rows.groups, rows.x, rows.tokens, rows.offsets):
            if array is not None:
                array.flags.writeable = False

    @property
    def num_groups(self) -> int:
        return len(self.group_names)

    @property
    def is_tokens(self) -> bool:
        """Whether the inputs are token-id rows rather than dense vectors."""
        return self.rows.x is None

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices: Sequence[int]) -> "GroupedDataset":
        idx = np.asarray(indices, dtype=int)
        return GroupedDataset(self.rows.take(idx), self.group_names, self.ids[idx])

    def packed(self, architecture: str) -> Packed:
        """The rows, for a model of `architecture`; raises InputShapeError when
        that architecture reads the other form (token ids or dense vectors)."""
        if (architecture == "embed_bag") != self.is_tokens:
            raise InputShapeError(f"{architecture} models cannot read this dataset's "
                                  f"{'token-id' if self.is_tokens else 'dense'} rows")
        return self.rows


@dataclass(frozen=True)
class TwoDomainSpec:
    total_points: int
    minority_ratio: float
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.total_points < 1:
            raise ValueError("total_points must be positive")
        if not 0 < self.minority_ratio <= 1:
            raise ValueError("minority_ratio must lie in (0, 1]")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class DistractorTextSpec:
    n: int
    vocab_size: int = 32
    seq_len: int = 8
    bias: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.vocab_size < 8:
            raise ValueError("vocab_size must be >= 8")
        if self.seq_len < 1:
            raise ValueError("seq_len must be positive")
        if not 0 <= self.bias <= 1:
            raise ValueError("bias must lie in [0, 1]")


@dataclass
class GroupMetrics:
    per_group_accuracy: np.ndarray
    robust_accuracy: float
    average_accuracy: float
    group_counts: np.ndarray


# _MEANS[group, label]: the majority domain (group 0) separates classes along
# the first axis, the minority along the second with opposite orientation. One
# linear boundary, x1 = x2, still classifies all four class means correctly.
_MEANS = np.array([[[-1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]]])


def gen_two_domain_gaussian(spec: TwoDomainSpec) -> GroupedDataset:
    """Two Gaussian domains with orthogonal class boundaries, group = domain.

    The stream is a row loop's, majority rows first: integers(0, 2), then
    standard_normal(2) per row. Each pass here draws two rows: PCG64 serves both
    labels from one 64-bit word (bits 31, then 63), and standard_normal leaves the
    held-back half alone, so their normals are contiguous however many words the
    ziggurat takes. An odd last row takes one word and two normals.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.total_points
    groups = (np.arange(n) >= n - int(round(n * spec.minority_ratio))).astype(int)
    words = np.empty((n + 1) // 2, dtype=np.uint64)
    noise = np.empty((n, 2))
    flat = noise.reshape(-1)
    raw, normal = rng.bit_generator.random_raw, rng.standard_normal
    for i in range(words.size):
        words[i] = raw()
        normal(out=flat[4 * i:4 * i + 4])  # the odd last row's slice holds 2
    bits = (words[:, None] >> np.array([31, 63], dtype=np.uint64)) & 1
    labels = bits.reshape(-1)[:n].astype(int)
    x = _MEANS[groups, labels] + spec.sigma * noise
    return GroupedDataset(Packed(labels, groups, x=x), ["majority", "minority"])


def gen_distractor_text(spec: DistractorTextSpec) -> GroupedDataset:
    """Token sequences with a spurious distractor token correlated with label 0.

    Token 0 is the distractor, prepended with probability `bias` for label 0
    and `1 - bias` for label 1. The remaining vocabulary is split into a
    label-0 pool, a label-1 pool and shared noise tokens; one content position
    carries a weak genuine label signal. Groups are label x distractor-presence.

    Row by row the stream gives a label, a uniform coin for the distractor,
    seq_len noise-token indices, a pool index and the signal position. After
    the first label, one integers() call draws every row (the coin first, the
    next row's label last). That equals a row-by-row loop of single draws: an
    array-bounded call draws its elements in row-major order as single calls
    would, and random() equals integers(0, 2**53) * 2**-53.
    """
    rng = np.random.default_rng(spec.seed)
    n, v, length = spec.n, spec.vocab_size, spec.seq_len
    pool_size = max(1, (v - 1) // 4)
    noise = np.arange(1 + 2 * pool_size, v)
    if noise.size == 0:
        raise ValueError("vocab_size too small to form token pools")
    highs = np.array([2**53] + [noise.size] * length + [pool_size, length, 2])
    first_label = rng.integers(0, 2)
    draws = rng.integers(0, highs, size=(n, length + 4))  # the last row's next label goes unused
    labels = np.concatenate(([first_label], draws[:-1, -1]))
    has_distractor = draws[:, 0] * 2.0**-53 < np.where(labels == 0, spec.bias, 1.0 - spec.bias)
    # column 0 holds the distractor, kept only where the row has one
    rows = np.zeros((n, length + 1), dtype=int)
    rows[:, 1:] = noise[draws[:, 1 : length + 1]]
    rows[np.arange(n), 1 + draws[:, length + 2]] = 1 + labels * pool_size + draws[:, length + 1]
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 0] = has_distractor
    offsets = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    packed = Packed(labels, 2 * labels + has_distractor, tokens=rows[keep], offsets=offsets)
    names = ["neg/plain", "neg/distractor", "pos/plain", "pos/distractor"]
    return GroupedDataset(packed, names)


def inject_label_noise(dataset: GroupedDataset, p_noise: float, seed: int,
                       num_classes: int) -> GroupedDataset:
    """Replace each label by a uniform draw from range(num_classes) with
    probability p_noise; the class set is the whole dataset's, not the split's."""
    if not 0 <= p_noise <= 1:
        raise ValueError("p_noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = dataset.rows.labels.copy()
    for i in range(labels.size):
        if rng.random() < p_noise:
            labels[i] = rng.integers(0, num_classes)
    return GroupedDataset(replace(dataset.rows, labels=labels), dataset.group_names, dataset.ids)


def save_csv(dataset: GroupedDataset, path) -> None:
    rows = dataset.rows
    if dataset.is_tokens:
        header = ["id", "tokens", "label", "group"]
        tokens, offsets = rows.tokens.tolist(), rows.offsets.tolist()
        inputs = [[" ".join(map(str, tokens[a:b]))] for a, b in zip(offsets, offsets[1:])]
    else:
        header = ["id"] + [f"f{i}" for i in range(rows.x.shape[1])] + ["label", "group"]
        inputs = [list(map(repr, x)) for x in rows.x.tolist()]
    columns = zip(dataset.ids.tolist(), inputs, rows.labels.tolist(), rows.groups.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([ex_id, *values, label, group] for ex_id, values, label, group in columns)


def load_csv(path) -> GroupedDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if "label" not in header:
            raise CsvFormatError(f"{path}: line 1: missing 'label' column")
        col = {name: i for i, name in enumerate(header)}
        is_tokens = "tokens" in col
        feature_cols = [i for i, name in enumerate(header) if name.startswith("f")]
        has_group = "group" in col
        keys, inputs = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: line {lineno}: expected {len(header)} fields")
            try:  # (id, label, group) as int64, where a larger value overflows
                keys.append(np.array([int(row[col["id"]]) if "id" in col else lineno - 2,
                                      int(row[col["label"]]),
                                      int(row[col["group"]]) if has_group else 0], dtype=int))
                if is_tokens:
                    inputs.append(np.array([int(t) for t in row[col["tokens"]].split()], dtype=int))
                else:
                    inputs.append([float(row[i]) for i in feature_cols])
            except (ValueError, OverflowError) as err:
                raise CsvFormatError(f"{path}: line {lineno}: {err}") from None
            if keys[-1][1:].min() < 0:
                raise CsvFormatError(f"{path}: line {lineno}: label and group must be >= 0")
    if not keys:
        raise CsvFormatError(f"{path}: no data rows")
    ids, labels, groups = np.array(keys).T.copy()
    if is_tokens:
        offsets = np.cumsum([0] + [seq.size for seq in inputs])
        rows = Packed(labels, groups, tokens=np.concatenate(inputs), offsets=offsets)
    else:
        rows = Packed(labels, groups, x=np.array(inputs, dtype=float))
    return GroupedDataset(rows, [f"group{i}" for i in range(groups.max() + 1)], ids)


def epoch_order(n: int, seed: int = 0, shuffle: bool = True) -> np.ndarray:
    """The order in which an epoch visits rows 0..n-1: a seeded permutation,
    or 0..n-1 itself without shuffling."""
    order = np.arange(n)
    return np.random.default_rng(seed).permutation(order) if shuffle else order


def batch_starts(n: int, batch_size: int) -> range:
    """The first position of each batch_size batch of an n-row epoch order;
    the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return range(0, n, batch_size)


def batches(
    dataset: GroupedDataset, batch_size: int, seed: int = 0, shuffle: bool = True
) -> Iterator[np.ndarray]:
    """Partition example indices into int-array batches; last batch may be short."""
    order = epoch_order(len(dataset), seed, shuffle)
    for start in batch_starts(len(order), batch_size):
        yield order[start : start + batch_size]


def group_metrics(model: ModelState, dataset: GroupedDataset) -> GroupMetrics:
    """Per-group accuracy, worst-group (robust) and size-weighted average."""
    if len(dataset) == 0:
        raise ValueError("group_metrics requires a non-empty dataset")
    packed = dataset.packed(model.spec.architecture)
    return metrics_from_errors(zero_one_loss_batch(model, packed), packed.groups, dataset.num_groups)


def metrics_from_errors(errors: np.ndarray, groups: np.ndarray, num_groups: int) -> GroupMetrics:
    """group_metrics of a 0-1 loss row whose examples belong to `groups`."""
    counts = np.bincount(groups, minlength=num_groups)
    correct = np.bincount(groups, weights=1.0 - errors, minlength=num_groups)
    with np.errstate(invalid="ignore"):
        per_group = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    robust = float(np.min(per_group[counts > 0]))
    average = float(correct.sum() / counts.sum())
    return GroupMetrics(per_group, robust, average, counts)
