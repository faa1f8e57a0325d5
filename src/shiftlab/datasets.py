"""Synthetic distribution-shift datasets, CSV I/O, batching and group metrics."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

import numpy as np

from .diffcore import Example, ModelSpec, ModelState, Packed, pack, zero_one_loss_batch


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message names the offending line."""


@dataclass
class GroupedDataset:
    examples: List[Example]
    group_names: List[str] = field(default_factory=lambda: ["all"])
    _packs: Dict[bool, Packed] = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_groups(self) -> int:
        return len(self.group_names)

    def __len__(self) -> int:
        return len(self.examples)

    def subset(self, indices: Sequence[int]) -> "GroupedDataset":
        return GroupedDataset([self.examples[i] for i in indices], list(self.group_names))

    def packed(self, spec: ModelSpec) -> Packed:
        """The examples as arrays for `spec`, packed once: keep `examples` fixed."""
        tokens = spec.architecture == "embed_bag"
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


# Majority domain separates classes along the first axis, minority along
# the second with opposite orientation. One linear boundary, x1 = x2, still
# classifies all four class means correctly.
_MAJORITY_MEANS = {0: np.array([-1.0, 0.0]), 1: np.array([1.0, 0.0])}
_MINORITY_MEANS = {0: np.array([0.0, 1.0]), 1: np.array([0.0, -1.0])}


def gen_two_domain_gaussian(spec: TwoDomainSpec) -> GroupedDataset:
    """Two Gaussian domains with orthogonal class boundaries, group = domain."""
    rng = np.random.default_rng(spec.seed)
    n_minority = int(round(spec.total_points * spec.minority_ratio))
    n_majority = spec.total_points - n_minority
    examples = []
    next_id = 0
    for group, count, means in (
        (0, n_majority, _MAJORITY_MEANS),
        (1, n_minority, _MINORITY_MEANS),
    ):
        for i in range(count):
            label = int(rng.integers(0, 2))
            x = means[label] + spec.sigma * rng.standard_normal(2)
            examples.append(Example(input=x, label=label, group=group, id=next_id))
            next_id += 1
    return GroupedDataset(examples, ["majority", "minority"])


def gen_distractor_text(spec: DistractorTextSpec) -> GroupedDataset:
    """Token sequences with a spurious distractor token correlated with label 0.

    Token 0 is the distractor, prepended with probability `bias` for label 0
    and `1 - bias` for label 1. The remaining vocabulary is split into a
    label-0 pool, a label-1 pool and shared noise tokens; one content position
    carries a weak genuine label signal. Groups are label x distractor-presence.
    """
    rng = np.random.default_rng(spec.seed)
    v = spec.vocab_size
    pool_size = max(1, (v - 1) // 4)
    pool0 = np.arange(1, 1 + pool_size)
    pool1 = np.arange(1 + pool_size, 1 + 2 * pool_size)
    noise = np.arange(1 + 2 * pool_size, v)
    if noise.size == 0:
        raise ValueError("vocab_size too small to form token pools")
    examples = []
    for i in range(spec.n):
        label = int(rng.integers(0, 2))
        p_distract = spec.bias if label == 0 else 1.0 - spec.bias
        has_distractor = bool(rng.random() < p_distract)
        pool = pool0 if label == 0 else pool1
        # exactly one content position carries the true label, the rest is noise
        body = rng.choice(noise, size=spec.seq_len)
        body[rng.integers(0, spec.seq_len)] = rng.choice(pool)
        tokens = np.concatenate(([0], body)) if has_distractor else body
        examples.append(
            Example(
                input=tokens.astype(int),
                label=label,
                group=2 * label + int(has_distractor),
                id=i,
            )
        )
    names = ["neg/plain", "neg/distractor", "pos/plain", "pos/distractor"]
    return GroupedDataset(examples, names)


def inject_label_noise(dataset: GroupedDataset, p_noise: float, seed: int) -> GroupedDataset:
    """Replace each label by a uniform class draw with probability p_noise."""
    if not 0 <= p_noise <= 1:
        raise ValueError("p_noise must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = [ex.label for ex in dataset.examples]
    num_classes = max(labels) + 1
    noisy = []
    for ex in dataset.examples:
        label = ex.label
        if rng.random() < p_noise:
            label = int(rng.integers(0, num_classes))
        noisy.append(Example(input=ex.input, label=label, group=ex.group, id=ex.id))
    return GroupedDataset(noisy, list(dataset.group_names))


def save_csv(dataset: GroupedDataset, path) -> None:
    first = dataset.examples[0]
    is_tokens = np.asarray(first.input).dtype.kind in "iu"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if is_tokens:
            header = ["id", "tokens", "label", "group"]
        else:
            dim = len(first.input)
            header = ["id"] + [f"f{i}" for i in range(dim)] + ["label", "group"]
        writer.writerow(header)
        for ex in dataset.examples:
            group = 0 if ex.group is None else ex.group
            if is_tokens:
                tokens = " ".join(str(t) for t in ex.input)
                writer.writerow([ex.id, tokens, ex.label, group])
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
) -> Iterator[List[int]]:
    """Partition example indices into batches; last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset.examples))
    if shuffle:
        order = np.random.default_rng(seed).permutation(order)
    for start in range(0, len(order), batch_size):
        yield [int(i) for i in order[start : start + batch_size]]


def group_metrics(model: ModelState, dataset: GroupedDataset) -> GroupMetrics:
    """Per-group accuracy, worst-group (robust) and size-weighted average."""
    if len(dataset.examples) == 0:
        raise ValueError("group_metrics requires a non-empty dataset")
    packed = dataset.packed(model.spec)
    errors = zero_one_loss_batch(model, packed)
    g = dataset.num_groups
    counts = np.bincount(packed.groups, minlength=g)
    correct = np.bincount(packed.groups, weights=1.0 - errors, minlength=g)
    with np.errstate(invalid="ignore"):
        per_group = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    robust = float(np.min(per_group[counts > 0]))
    average = float(correct.sum() / counts.sum())
    return GroupMetrics(per_group, robust, average, counts)
