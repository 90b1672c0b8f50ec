"""Deterministic dataset splitting across clients plus a global test set.

Every split is stratified per class and rounded by the largest-remainder
method: each share first receives floor(q_j * N_c) samples of class c, then
the leftover units go one by one to the shares with the largest fractional
parts (ties toward the lower share index). This keeps every per-class
allocation within one sample of exact proportionality.

Client proportions come either from a fixed ratio vector or from one
Dirichlet draw per class (label-skew non-IID).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, IngestionError
from .imbalance import ClassHistogram, class_ids

PARTITION_MODES = ("fixed", "dirichlet")


@dataclass(frozen=True)
class PartitionSpec:
    mode: str = "fixed"
    ratios: tuple[float, ...] | None = None
    beta: float | None = None
    num_clients: int = 3
    test_fraction: float = 0.1
    test_ratio_index: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ConfigError(f"unknown partition mode {self.mode!r}")
        if self.num_clients < 1:
            raise ConfigError("need at least one client")
        if self.seed < 0:
            raise ConfigError(f"partition seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in [0, 1), got {self.test_fraction}")
        if self.mode == "fixed":
            if self.ratios is None:
                raise ConfigError("fixed mode needs a ratio vector")
            ratios = tuple(float(r) for r in self.ratios)
            object.__setattr__(self, "ratios", ratios)
            if not all(0 <= r < np.inf for r in ratios):
                raise ConfigError(f"ratios must be finite and nonnegative: {ratios}")
            if abs(sum(ratios) - 1.0) > 1e-9:
                raise ConfigError(f"ratios must sum to 1 within 1e-9, got {sum(ratios)!r}")
            expected = self.num_clients + (1 if self.test_ratio_index is not None else 0)
            if len(ratios) != expected:
                raise ConfigError(f"need {expected} ratios for {self.num_clients} clients"
                                  f"{' plus a test share' if expected > self.num_clients else ''},"
                                  f" got {len(ratios)}")
            if self.test_ratio_index is not None:
                if not 0 <= self.test_ratio_index < len(ratios):
                    raise ConfigError(f"test_ratio_index {self.test_ratio_index} out of range")
                if self.test_fraction > 0:
                    raise ConfigError("use either test_fraction or test_ratio_index, not both")
        else:
            if self.beta is None or not 0 < self.beta < np.inf:
                raise ConfigError(f"dirichlet mode needs a finite beta > 0, got {self.beta}")
            if self.test_ratio_index is not None:
                raise ConfigError("test_ratio_index applies to fixed mode only")


@dataclass(frozen=True)
class PartitionResult:
    client_indices: tuple[tuple[int, ...], ...]
    test_indices: tuple[int, ...]
    num_classes: int
    histograms: tuple[ClassHistogram, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        all_idx = [i for shard in self.client_indices for i in shard]
        all_idx += list(self.test_indices)
        if len(all_idx) != len(set(all_idx)):
            raise ContractError("partition shares overlap")

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.client_indices) + len(self.test_indices)


def largest_remainder(total: int, weights) -> list[int]:
    """Apportion `total` integer units proportionally to `weights`."""
    weights = np.asarray(weights, dtype=np.float64)
    if total < 0 or not np.all((weights >= 0) & (weights < np.inf)):
        raise ContractError("largest_remainder needs finite, nonnegative inputs")
    wsum = weights.sum()
    if wsum == 0:
        return [0] * len(weights)
    exact = weights / wsum * total
    floors = np.floor(exact).astype(int)
    leftover = total - int(floors.sum())
    fractions = exact - floors
    order = sorted(range(len(weights)), key=lambda j: (-fractions[j], j))
    for j in order[:leftover]:
        floors[j] += 1
    return floors.tolist()


def _class_ids(labels, num_classes: int | None) -> tuple[np.ndarray, int]:
    """labels as a vector of class ids (imbalance.class_ids), and the class
    count: num_classes, or one past the largest label when it is None."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ContractError(f"labels must be a vector, got shape {labels.shape}")
    if num_classes is None:
        if not labels.size:
            raise ContractError("no labels to infer the class count from")
        if labels.dtype.kind in "iu":  # class_ids names any other dtype
            num_classes = int(labels.max()) + 1
    return class_ids(labels, num_classes), num_classes


def _split_by_proportions(ids: np.ndarray, proportions_per_class, num_classes: int,
                          seed: int) -> tuple[list[list[int]], list[str]]:
    """Shuffle each class by seed, then hand out largest-remainder counts."""
    rng = np.random.default_rng(seed)
    num_shares = len(proportions_per_class[0])
    shares: list[list[int]] = [[] for _ in range(num_shares)]
    warnings: list[str] = []
    for c in range(num_classes):
        idx = np.flatnonzero(ids == c)
        if idx.size == 0:
            warnings.append(f"class {c} has no samples in the pool")
            continue
        perm = idx[rng.permutation(idx.size)]
        counts = largest_remainder(idx.size, proportions_per_class[c])
        if idx.size < num_shares:
            warnings.append(f"class {c} has {idx.size} samples for "
                            f"{num_shares} shares; some shares get none")
        offset = 0
        for j, n in enumerate(counts):
            shares[j].extend(int(i) for i in perm[offset:offset + n])
            offset += n
    return shares, warnings


def partition_fixed(labels, ratios, seed: int,
                    num_classes: int | None = None) -> tuple[list[list[int]], list[str]]:
    """Split per class with one fixed proportion vector for every class."""
    ids, num_classes = _class_ids(labels, num_classes)
    ratios = list(ratios)
    per_class = [ratios] * num_classes
    return _split_by_proportions(ids, per_class, num_classes, seed)


def partition_dirichlet(labels, beta: float, num_shares: int, seed: int,
                        num_classes: int | None = None) -> tuple[list[list[int]], list[str]]:
    """Split per class with one Dirichlet(beta * ones) draw per class."""
    if beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if num_shares < 1:
        raise ConfigError("need at least one share")
    ids, num_classes = _class_ids(labels, num_classes)
    rng = np.random.default_rng(seed)
    per_class = [rng.dirichlet(np.full(num_shares, float(beta)))
                 for _ in range(num_classes)]
    # reuse the same seed for the shuffle stream: proportions were drawn from
    # their own generator instance above
    return _split_by_proportions(ids, per_class, num_classes, seed)


def holdout_test(labels, test_fraction: float, seed: int,
                 num_classes: int | None = None) -> list[int]:
    """Stratified test indices: largest-remainder share of every class."""
    if not 0.0 < test_fraction < 1.0:
        raise ContractError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    shares, _ = partition_fixed(labels, [test_fraction, 1.0 - test_fraction],
                                seed, num_classes=num_classes)
    return sorted(shares[0])


def build_partition(labels, spec: PartitionSpec,
                    num_classes: int | None = None) -> PartitionResult:
    """Assemble the full client/test split a run trains on."""
    labels, num_classes = _class_ids(labels, num_classes)

    if spec.mode == "fixed" and spec.test_ratio_index is not None:
        shares, warnings = partition_fixed(labels, spec.ratios, spec.seed, num_classes)
        test = sorted(shares[spec.test_ratio_index])
        clients = [shares[j] for j in range(len(shares)) if j != spec.test_ratio_index]
    else:
        test = (holdout_test(labels, spec.test_fraction, spec.seed, num_classes)
                if spec.test_fraction > 0 else [])
        pool = np.flatnonzero(~np.isin(np.arange(labels.size), test))  # int, even when empty
        pool_labels = labels[pool]
        if spec.mode == "fixed":
            shares, warnings = partition_fixed(pool_labels, spec.ratios,
                                               spec.seed, num_classes)
        else:
            shares, warnings = partition_dirichlet(pool_labels, spec.beta,
                                                   spec.num_clients, spec.seed,
                                                   num_classes)
        clients = [[int(pool[i]) for i in share] for share in shares]

    hists = tuple(ClassHistogram.from_labels(labels[sorted(share)], num_classes)
                  if share else ClassHistogram((0,) * num_classes)
                  for share in clients)
    return PartitionResult(
        client_indices=tuple(tuple(sorted(share)) for share in clients),
        test_indices=tuple(test),
        num_classes=num_classes,
        histograms=hists,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# manifest: one line per sample, `index<TAB>assignment`


def manifest_text(result: PartitionResult) -> str:
    assignment: dict[int, str] = {}
    for j, share in enumerate(result.client_indices):
        for i in share:
            assignment[i] = f"client-{j}"
    for i in result.test_indices:
        assignment[i] = "test"
    lines = [f"{i}\t{assignment[i]}" for i in sorted(assignment)]
    return "\n".join(lines) + "\n"


def write_manifest(path, result: PartitionResult) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(manifest_text(result))


# a sample index, then `test` or `client-<id>`; plain ASCII decimals, short
# enough that int() never refuses them
_MANIFEST_LINE = re.compile(r"([0-9]{1,18})\t(?:test|client-([0-9]{1,18}))")


def read_manifest(path) -> tuple[list[list[int]], list[int]]:
    """Client shards (indexed by client id) and test indices of a manifest.

    Every client id must lie below the number of lines read, so the shard
    list never outgrows the file.
    """
    clients: dict[int, list[int]] = {}
    test: list[int] = []
    lineno = 0
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                match = _MANIFEST_LINE.fullmatch(line)
                if match is None:
                    raise IngestionError(f"{path}:{lineno}: malformed manifest line "
                                         f"{line!r}; expected index<TAB>test or "
                                         "index<TAB>client-<id>")
                if match[2] is None:
                    test.append(int(match[1]))
                else:
                    clients.setdefault(int(match[2]), []).append(int(match[1]))
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: manifest is not ASCII text") from exc
    if clients and max(clients) >= lineno:
        raise IngestionError(f"{path}: client id {max(clients)} is not below the "
                             f"{lineno} lines of the manifest")
    ordered = [clients.get(j, []) for j in range(max(clients, default=-1) + 1)]
    return ordered, test
