"""Dataset container, on-disk format, and deterministic synthesizers.

A dataset directory holds three files:

* ``features.bin``  float tensor, [N, F] tabular or [N, C, H, W] images,
  in the package's binary tensor format;
* ``labels.bin``    int64 vector of class ids in 0..C-1;
* ``classes.txt``   one class name per line, C lines.

Two synthetic generators stand in for real imaging corpora at desk scale:
Gaussian feature blobs (one mean per class on scaled coordinate axes) and
small textured tiles (class-specific sinusoid orientation/frequency plus
noise). Both honor exact per-class counts and are bit-reproducible from
their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, IngestionError
from .imbalance import ClassHistogram, class_ids
from .tensor import load_array, save_array

FEATURES_FILE = "features.bin"
LABELS_FILE = "labels.bin"
CLASSES_FILE = "classes.txt"


@dataclass(frozen=True)
class DatasetBundle:
    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = np.asarray(self.features)
        if features.ndim not in (2, 4):
            raise ContractError(f"features must be [N, F] or [N, C, H, W], "
                                f"got shape {features.shape}")
        if features.shape[0] < 1:
            raise ContractError("dataset must hold at least one sample")
        c = len(self.class_names)
        if c < 1:
            raise ContractError("need at least one class name")
        labels = class_ids(self.labels, c, count=features.shape[0])
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def is_images(self) -> bool:
        return self.features.ndim == 4

    def histogram(self) -> ClassHistogram:
        return ClassHistogram.from_labels(self.labels, self.num_classes)


def save_dataset(directory, bundle: DatasetBundle) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_array(directory / FEATURES_FILE, bundle.features)
    save_array(directory / LABELS_FILE, bundle.labels)
    with open(directory / CLASSES_FILE, "w", encoding="utf-8") as fh:
        for name in bundle.class_names:
            fh.write(name + "\n")


def load_dataset(directory) -> DatasetBundle:
    directory = Path(directory)
    for fname in (FEATURES_FILE, LABELS_FILE, CLASSES_FILE):
        if not (directory / fname).exists():
            raise IngestionError(f"{directory} is missing {fname}")
    features = load_array(directory / FEATURES_FILE)
    labels = load_array(directory / LABELS_FILE)
    if labels.dtype != np.int64:
        raise IngestionError(f"{directory / LABELS_FILE}: labels must be i64, "
                             f"got {labels.dtype}")
    with open(directory / CLASSES_FILE, "r", encoding="utf-8") as fh:
        names = [line.rstrip("\n") for line in fh if line.strip()]
    try:
        return DatasetBundle(features, labels, tuple(names))
    except ContractError as exc:
        raise IngestionError(f"{directory}: {exc}") from exc


# ---------------------------------------------------------------------------
# synthesizers


@dataclass(frozen=True)
class BlobSpec:
    """Per-class Gaussian feature blobs in `dim` dimensions.

    Class i is centered at radius * e_{i mod dim} * (1 + i // dim), so any
    class count works for any dimension.
    """
    dim: int = 8
    radius: float = 2.5
    sigma: float = 1.0

    def __post_init__(self):
        if self.dim < 1 or not (0 < self.radius < np.inf and 0 < self.sigma < np.inf):
            raise ConfigError(f"invalid blob spec: {self}")


@dataclass(frozen=True)
class TileSpec:
    """Class-coded sinusoidal texture tiles with additive noise."""
    image_size: int = 16
    channels: int = 1
    noise: float = 0.25

    def __post_init__(self):
        if not 1 <= self.image_size <= 32:
            raise ConfigError("tile images are capped at 32x32")
        if self.channels < 1 or not 0 <= self.noise < np.inf:
            raise ConfigError(f"invalid tile spec: {self}")


def synthesize_longtail(counts, feature_spec, seed: int,
                        class_names=None) -> DatasetBundle:
    """Deterministic synthetic dataset with exactly the requested counts.

    counts[i] is the number of samples of class i; feature_spec selects the
    generator (BlobSpec for tabular, TileSpec for images).
    """
    counts = [int(c) for c in counts]
    if not counts or any(c < 1 for c in counts):
        raise ContractError(f"need one or more class counts, all >= 1, got {counts}")
    num_classes = len(counts)
    if class_names is None:
        class_names = tuple(f"class-{i}" for i in range(num_classes))
    elif len(class_names) != num_classes:
        raise ContractError(f"{len(class_names)} names for {num_classes} classes")
    if seed < 0:
        raise ConfigError(f"synthesis seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, i, dtype=np.int64)
                             for i, n in enumerate(counts)])
    if isinstance(feature_spec, BlobSpec):
        features = _blob_features(counts, feature_spec, rng)
    elif isinstance(feature_spec, TileSpec):
        features = _tile_features(counts, feature_spec, rng)
    else:
        raise ConfigError(f"unknown feature spec {type(feature_spec).__name__}")
    return DatasetBundle(features, labels, tuple(class_names))


def _blob_features(counts, spec: BlobSpec, rng: np.random.Generator) -> np.ndarray:
    blocks = []
    for i, n in enumerate(counts):
        mean = np.zeros(spec.dim)
        mean[i % spec.dim] = spec.radius * (1 + i // spec.dim)
        blocks.append(rng.normal(mean, spec.sigma, size=(n, spec.dim)))
    return np.concatenate(blocks).astype(np.float32)


def _tile_features(counts, spec: TileSpec, rng: np.random.Generator) -> np.ndarray:
    size = spec.image_size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    blocks = []
    for i, n in enumerate(counts):
        # class-specific orientation and frequency, random phase per sample
        angle = np.pi * i / max(1, len(counts))
        freq = 2.0 * np.pi * (1 + i % 3) / size
        grating = (np.cos(angle) * xx + np.sin(angle) * yy)[None, :, :]
        phases = rng.uniform(0, 2 * np.pi, size=n)
        tiles = 0.5 + 0.5 * np.sin(freq * grating + phases[:, None, None])
        tiles = tiles + rng.normal(0.0, spec.noise, size=tiles.shape)
        blocks.append(np.repeat(tiles[:, None, :, :], spec.channels, axis=1))
    return np.concatenate(blocks).astype(np.float32)
