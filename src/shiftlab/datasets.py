"""Synthetic distribution-shift datasets, CSV I/O, batching and group metrics."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .diffcore import Example, ModelState, Packed, pack, zero_one_loss_batch


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message names the offending line."""


@dataclass(eq=False)
class GroupedDataset:
    """Examples with group labels. A generated dataset (`from_packed`) holds only
    its pack and builds `examples` when first read, as read-only views of it
    (ids 0..n-1), so a stray write raises instead of desynchronizing the two."""

    _examples: Optional[List[Example]]
    group_names: List[str] = field(default_factory=lambda: ["all"])
    _packs: Dict[bool, Packed] = field(default_factory=dict, repr=False, compare=False)

    @property
    def examples(self) -> List[Example]:
        if self._examples is None:
            (rows,) = self._packs.values()
            inputs = list(rows.x) if rows.x is not None else np.split(rows.tokens, rows.offsets[1:-1])
            self._examples = list(map(Example, inputs, rows.labels.tolist(), rows.groups.tolist(),
                                      range(len(rows))))
        return self._examples

    @property
    def num_groups(self) -> int:
        return len(self.group_names)

    @property
    def is_tokens(self) -> bool:
        """Whether the inputs are token-id rows rather than dense vectors."""
        if self._examples is None:
            return next(iter(self._packs))
        return np.asarray(self._examples[0].input).dtype.kind in "iu"

    def __len__(self) -> int:
        return len(next(iter(self._packs.values())) if self._examples is None else self._examples)

    @classmethod
    def from_packed(cls, rows: Packed, group_names: Sequence[str]) -> "GroupedDataset":
        """A dataset over `rows`, which it keeps, read-only, as its pack."""
        for array in (rows.labels, rows.groups, rows.x, rows.tokens, rows.offsets):
            if array is not None:
                array.flags.writeable = False
        return cls(None, list(group_names), {rows.x is None: rows})

    def subset(self, indices: Sequence[int]) -> "GroupedDataset":
        return GroupedDataset([self.examples[i] for i in indices], list(self.group_names))

    def packed(self, architecture: str) -> Packed:
        """The rows as arrays for a model of `architecture`, packed once: keep
        `examples` fixed."""
        tokens = architecture == "embed_bag"
        if tokens not in self._packs:
            self._packs[tokens] = pack(self.examples, tokens)
        return self._packs[tokens]


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

    Each row draws its label, then its noise, from one stream, majority rows
    first; the inputs are then formed at once. The draws stay a loop:
    standard_normal's ziggurat takes a varying number of words per value, so
    the labels' draws cannot be split from the noise's.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.total_points
    groups = (np.arange(n) >= n - int(round(n * spec.minority_ratio))).astype(int)
    labels = np.empty(n, dtype=int)
    noise = np.empty((n, 2))
    for i in range(n):
        labels[i] = rng.integers(0, 2)
        noise[i] = rng.standard_normal(2)
    x = _MEANS[groups, labels] + spec.sigma * noise
    return GroupedDataset.from_packed(Packed(labels, groups, x=x), ["majority", "minority"])


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
    return GroupedDataset.from_packed(packed, names)


def inject_label_noise(dataset: GroupedDataset, p_noise: float, seed: int) -> GroupedDataset:
    """Replace each label by a uniform class draw with probability p_noise."""
    if not 0 <= p_noise <= 1:
        raise ValueError("p_noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    num_classes = max(ex.label for ex in dataset.examples) + 1
    noisy = []
    for ex in dataset.examples:
        label = ex.label
        if rng.random() < p_noise:
            label = int(rng.integers(0, num_classes))
        noisy.append(Example(input=ex.input, label=label, group=ex.group, id=ex.id))
    return GroupedDataset(noisy, list(dataset.group_names))


def save_csv(dataset: GroupedDataset, path) -> None:
    is_tokens = dataset.is_tokens
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if is_tokens:
            header = ["id", "tokens", "label", "group"]
        else:
            dim = len(dataset.examples[0].input)
            header = ["id"] + [f"f{i}" for i in range(dim)] + ["label", "group"]
        writer.writerow(header)
        for ex in dataset.examples:
            group = 0 if ex.group is None else ex.group
            if is_tokens:
                writer.writerow([ex.id, " ".join(str(t) for t in ex.input), ex.label, group])
            else:
                writer.writerow([ex.id] + [repr(float(v)) for v in ex.input] + [ex.label, group])


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
        examples = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(f"{path}: line {lineno}: expected {len(header)} fields")
            try:
                ex_id = int(row[col["id"]]) if "id" in col else lineno - 2
                label = int(row[col["label"]])
                group = int(row[col["group"]]) if has_group else 0
                if is_tokens:
                    x = np.array([int(t) for t in row[col["tokens"]].split()], dtype=int)
                else:
                    x = np.array([float(row[i]) for i in feature_cols])
            except ValueError as err:
                raise CsvFormatError(f"{path}: line {lineno}: {err}") from None
            examples.append(Example(input=x, label=label, group=group, id=ex_id))
    if not examples:
        raise CsvFormatError(f"{path}: no data rows")
    num_groups = max(0 if ex.group is None else ex.group for ex in examples) + 1
    return GroupedDataset(examples, [f"group{i}" for i in range(num_groups)])


def batches(
    dataset: GroupedDataset, batch_size: int, seed: int = 0, shuffle: bool = True
) -> Iterator[np.ndarray]:
    """Partition example indices into int-array batches; last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset))
    if shuffle:
        order = np.random.default_rng(seed).permutation(order)
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def group_metrics(model: ModelState, dataset: GroupedDataset) -> GroupMetrics:
    """Per-group accuracy, worst-group (robust) and size-weighted average."""
    if len(dataset) == 0:
        raise ValueError("group_metrics requires a non-empty dataset")
    packed = dataset.packed(model.spec.architecture)
    errors = zero_one_loss_batch(model, packed)
    g = dataset.num_groups
    counts = np.bincount(packed.groups, minlength=g)
    correct = np.bincount(packed.groups, weights=1.0 - errors, minlength=g)
    with np.errstate(invalid="ignore"):
        per_group = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    robust = float(np.min(per_group[counts > 0]))
    average = float(correct.sum() / counts.sum())
    return GroupMetrics(per_group, robust, average, counts)
