"""Line-oriented experiment configuration: `key = value`, one per line,
sections expressed by dotted prefixes, `#` comments.

Every run echoes its fully resolved configuration (all keys, defaults
included) so a run directory is self-describing and re-runnable byte for
byte. Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .data import BlobSpec, TileSpec
from .errors import ConfigError, ContractError
from .federation import FederationConfig
from .losses import LossConfig
from .metrics import decision_thresholds
from .models import MlpConfig, ViTConfig
from .partition import PartitionSpec

_DCA_DEFAULT = tuple(round(0.05 * i, 2) for i in range(1, 20))


def _field_keys(cls, prefix: str, skip=()) -> dict[str, tuple[str, object]]:
    """SCHEMA entries for the fields of the typed config cls, but those in
    skip: key prefix + field, tagged with the type name of its default."""
    return {prefix + f.name: (type(f.default).__name__, f.default)
            for f in fields(cls) if f.name not in skip}


# key -> (type tag, default); type tags: int, float, bool, str, floats, ints,
# optint (int or "none"); a typed config's keys take its fields' defaults
SCHEMA: dict[str, tuple[str, object]] = {
    "run.mode": ("str", "federated"),            # federated | centralized
    "run.model": ("str", "mlp"),                 # mlp | vit
    "run.dtype": ("str", "f32"),                 # f32 | f64
    "run.name": ("str", "run"),
    "dataset.path": ("str", ""),
    "dataset.synth": ("bool", True),
    "dataset.synth.kind": ("str", "blobs"),      # blobs | tiles
    "dataset.synth.counts": ("ints", (1000, 400, 200, 60, 20)),
    **_field_keys(BlobSpec, "dataset.synth."),
    **_field_keys(TileSpec, "dataset.synth."),
    "dataset.synth.seed": ("int", 0),
    "partition.mode": ("str", "fixed"),
    "partition.ratios": ("floats", (0.5, 0.3, 0.2)),
    "partition.beta": ("float", 0.5),
    "partition.clients": ("int", 3),
    "partition.test_fraction": ("float", 0.1),
    "partition.test_ratio_index": ("optint", None),
    "partition.seed": ("int", 0),
    "model.hidden_dim": ("int", 32),
    "model.layer_norm_eps": ("float", 1e-5),
    # vit_config gives num_classes and layer_norm_eps
    **_field_keys(ViTConfig, "model.vit.", skip=("num_classes", "layer_norm_eps")),
    **_field_keys(LossConfig, "loss."),
    **_field_keys(FederationConfig, "federation."),
    # accepted so that old configs and every config.echo still load; clients
    # always train in lockstep on one thread, so the key has no effect
    "federation.concurrent": ("bool", False),
    "dca.thresholds": ("floats", _DCA_DEFAULT),
}


def _parse_value(key: str, raw: str):
    tag = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if tag == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        if tag == "optint":
            return None if raw.lower() == "none" else int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _format_value(key: str, value) -> str:
    tag = SCHEMA[key][0]
    if tag in ("floats", "ints"):
        return ",".join(repr(v) if tag == "floats" else str(v) for v in value)
    if tag == "bool":
        return "true" if value else "false"
    if tag == "optint":
        return "none" if value is None else str(value)
    if tag == "float":
        return repr(float(value))
    return str(value)


@dataclass
class ExperimentConfig:
    values: dict[str, object]

    def __post_init__(self):
        for key in self.values:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        merged = {k: default for k, (_, default) in SCHEMA.items()}
        merged.update(self.values)
        self.values = merged
        self.validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        v = self.values
        if v["run.mode"] not in ("federated", "centralized"):
            raise ConfigError(f"run.mode must be federated or centralized, "
                              f"got {v['run.mode']!r}")
        if v["run.model"] not in ("mlp", "vit"):
            raise ConfigError(f"run.model must be mlp or vit, got {v['run.model']!r}")
        if v["run.dtype"] not in ("f32", "f64"):
            raise ConfigError(f"run.dtype must be f32 or f64, got {v['run.dtype']!r}")
        for key in ("run.name", "dataset.path"):
            if not (v[key].isascii() and v[key].isprintable()):
                raise ConfigError(f"{key} must be printable ASCII on one line, got {v[key]!r}")
        if not v["dataset.synth"] and not v["dataset.path"]:
            raise ConfigError("set dataset.path or dataset.synth = true")
        if v["dataset.synth.kind"] not in ("blobs", "tiles"):
            raise ConfigError(f"unknown synthesizer {v['dataset.synth.kind']!r}")
        decision_thresholds(v["dca.thresholds"])  # as analyze reads them
        # sub-configs run their own validation
        self.loss_config()
        self.federation_config()
        self.partition_spec()

    # typed views -----------------------------------------------------------

    def view(self, cls, prefix: str, **given):
        """The dataclass cls with each field given, or else read off the key
        prefix + field; a field with neither is a ContractError."""
        missing = [f.name for f in fields(cls)
                   if f.name not in given and prefix + f.name not in self.values]
        if missing:
            raise ContractError(f"{cls.__name__}: no value given and no config key for "
                                f"{', '.join(prefix + name for name in missing)}")
        return cls(**{f.name: self.values[prefix + f.name] for f in fields(cls)
                      if f.name not in given}, **given)

    def loss_config(self) -> LossConfig:
        return self.view(LossConfig, "loss.")

    def federation_config(self) -> FederationConfig:
        return self.view(FederationConfig, "federation.")

    def partition_spec(self) -> PartitionSpec:
        return self.view(PartitionSpec, "partition.", num_clients=self.values["partition.clients"])

    def vit_config(self, num_classes: int) -> ViTConfig:
        return self.view(ViTConfig, "model.vit.", num_classes=num_classes,
                         layer_norm_eps=self.values["model.layer_norm_eps"])

    def mlp_config(self, input_dim: int, num_classes: int) -> MlpConfig:
        return self.view(MlpConfig, "model.", input_dim=input_dim, num_classes=num_classes)

    # text round trip --------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{k} = {_format_value(k, self.values[k])}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_text(text: str, source: str = "<config>") -> "ExperimentConfig":
        values: dict[str, object] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, raw = stripped.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(f"{source}:{lineno}: expected `key = value`, "
                                  f"got {line!r}")
            if key not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            values[key] = _parse_value(key, raw)
        return ExperimentConfig(values)

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return ExperimentConfig.parse_text(path.read_text(encoding="utf-8"),
                                           source=str(path))

    def with_overrides(self, overrides: dict[str, object]) -> "ExperimentConfig":
        merged = dict(self.values)
        for key, value in overrides.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _parse_value(key, value) if isinstance(value, str) else value
        return ExperimentConfig(merged)
