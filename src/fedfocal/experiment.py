"""Experiment orchestration: dataset assembly, run execution, artifact
export, post-hoc analysis, and the preset sweeps mirroring the published
ablations (loss comparison, distribution vectors, learning-rate and
batch-size sweeps).

A completed run directory holds:

* ``config.echo``        the fully resolved configuration
* ``partition.manifest`` one `index<TAB>assignment` line per sample
* ``imbalance.report``   client skew and class rarity coefficients
* ``rounds.jsonl``       one JSON record per communication round
* ``metrics.csv``        per-round scalar metrics and group gradient norms
* ``final.ckpt``         the final global parameters
* ``summary.txt``        final-round metrics at a glance
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import federation as F
from . import metrics as ME
from .config import ExperimentConfig
from .data import BlobSpec, DatasetBundle, TileSpec, load_dataset, synthesize_longtail
from .errors import ConfigError, IngestionError
from .imbalance import ImbalanceReport, client_imbalance, global_class_imbalance
from .models import MlpClassifier, ModelParams, ViTClassifier, load_params, save_params
from .partition import PartitionResult, PartitionSpec, build_partition, write_manifest
from .tensor import DTYPES, save_array

CSV_COLUMNS = ("round", "accuracy", "macro_f1", "macro_precision", "macro_recall",
               "macro_specificity", "macro_auc", "tail_grad_norm",
               "head_grad_norm", "gamma", "train_loss")


def feature_spec(cfg: ExperimentConfig) -> BlobSpec | TileSpec:
    """The synthesizer the dataset.synth.* keys describe."""
    return cfg.view(BlobSpec if cfg["dataset.synth.kind"] == "blobs" else TileSpec,
                    "dataset.synth.")


def assemble_dataset(cfg: ExperimentConfig) -> DatasetBundle:
    if cfg["dataset.path"]:
        return load_dataset(cfg["dataset.path"])
    return synthesize_longtail(cfg["dataset.synth.counts"], feature_spec(cfg),
                               seed=cfg["dataset.synth.seed"])


def build_model(cfg: ExperimentConfig, bundle: DatasetBundle):
    dtype = DTYPES[cfg["run.dtype"]]
    if cfg["run.model"] == "vit":
        if not bundle.is_images:
            raise ConfigError("the vit model needs [N, C, H, W] image features")
        vit = cfg.vit_config(bundle.num_classes)
        shape = bundle.features.shape[1:]
        if shape != (vit.channels, vit.image_size, vit.image_size):
            raise ConfigError(f"dataset images {shape} do not match the vit config "
                              f"({vit.channels}, {vit.image_size}, {vit.image_size})")
        return ViTClassifier(vit, dtype=dtype)
    input_dim = math.prod(bundle.features.shape[1:])
    return MlpClassifier(cfg.mlp_config(input_dim, bundle.num_classes), dtype=dtype)


def prepare(cfg: ExperimentConfig) -> tuple[DatasetBundle, object]:
    """The configured dataset as the model consumes it, and the model.
    Images are flattened for the MLP; the ViT consumes them as is."""
    bundle = assemble_dataset(cfg)
    model = build_model(cfg, bundle)
    if cfg["run.model"] == "mlp" and bundle.is_images:
        bundle = DatasetBundle(bundle.features.reshape(bundle.num_samples, -1),
                               bundle.labels, bundle.class_names)
    return bundle, model


def run_partition(cfg: ExperimentConfig, bundle: DatasetBundle) -> PartitionResult:
    """The client/test split a run trains and is scored on; a centralized
    run's is one shard of the whole training pool, split by the federation seed."""
    spec = cfg.partition_spec()
    if cfg["run.mode"] == "centralized":
        spec = PartitionSpec(mode="fixed", ratios=(1.0,), num_clients=1,
                             test_fraction=spec.test_fraction, seed=cfg["federation.seed"])
    part = build_partition(bundle.labels, spec, bundle.num_classes)
    if not part.test_indices:
        raise ConfigError("partition has no global test set to evaluate on")
    if not any(part.client_indices):
        raise ConfigError("partition has no training samples: every client shard is empty")
    return part


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def metrics_csv_text(records: list[F.RoundRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        m = rec.metrics
        row = (rec.round_index, m.accuracy, m.macro_f1, m.macro_precision,
               m.macro_recall, m.macro_specificity, m.macro_auc,
               rec.tail_grad_norm, rec.head_grad_norm, rec.gamma, rec.train_loss)
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def round_record_json(rec: F.RoundRecord) -> dict:
    return {
        "round": rec.round_index,
        "selected": rec.selected,
        "client_coeffs": {str(k): v for k, v in rec.client_coeffs.items()},
        "weights": {str(k): v for k, v in rec.weights.items()},
        "metrics": asdict(rec.metrics),
        "per_class_grad_norms": rec.per_class_grad_norms,
        "tail_grad_norm": rec.tail_grad_norm,
        "head_grad_norm": rec.head_grad_norm,
        "gamma": rec.gamma,
        "train_loss": rec.train_loss,
        "warnings": rec.warnings,
    }


def set_up_run(cfg: ExperimentConfig, out_dir) -> tuple[DatasetBundle, object, PartitionResult]:
    """A run's data, model and split, checked before out_dir is made; then
    out_dir holds config.echo and, when federated, partition.manifest."""
    bundle, model = prepare(cfg)
    part = run_partition(cfg, bundle)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo").write_text(cfg.to_text(), encoding="ascii")
    if cfg["run.mode"] == "federated":
        write_manifest(out / "partition.manifest", part)
    return bundle, model, part


def run_experiment(cfg: ExperimentConfig, out_dir) -> F.FederationRun:
    """Execute one configured run and write all artifacts into out_dir."""
    bundle, model, part = set_up_run(cfg, out_dir)
    out = Path(out_dir)
    loss_cfg = cfg.loss_config()
    fed_cfg = cfg.federation_config()
    if cfg["run.mode"] == "centralized":  # a one-client federation
        fed_cfg = replace(fed_cfg, client_fraction=1.0, aggregation="uniform")
    run = F.run_federation(bundle, part, model, loss_cfg, fed_cfg)

    last = run.records[-1]
    # both halves cover every client with samples, whichever clients the rounds drew
    hists = {k: hist for k, hist in enumerate(part.histograms) if hist.total}
    report = ImbalanceReport(
        client_coeffs={k: client_imbalance(hist, loss_cfg.epsilon) for k, hist in hists.items()},
        class_coeffs=global_class_imbalance(list(hists.values()), loss_cfg.epsilon),
        epsilon=loss_cfg.epsilon, blend=loss_cfg.blend)
    (out / "imbalance.report").write_text(report.to_text(), encoding="ascii")

    with open(out / "rounds.jsonl", "w", encoding="ascii") as fh:
        for rec in run.records:
            fh.write(json.dumps(round_record_json(rec), sort_keys=True) + "\n")
    (out / "metrics.csv").write_text(metrics_csv_text(run.records), encoding="ascii")
    save_params(out / "final.ckpt", run.params)

    summary = [
        f"name = {cfg['run.name']}",
        f"mode = {cfg['run.mode']}",
        f"model = {cfg['run.model']}",
        f"loss = {cfg['loss.kind']}",
        f"rounds = {len(run.records)}",
        f"final_accuracy = {last.metrics.accuracy!r}",
        f"final_macro_f1 = {last.metrics.macro_f1!r}",
        f"final_macro_auc = {last.metrics.macro_auc!r}",
        f"tail_classes = {','.join(str(c) for c in run.tail_classes)}",
        f"head_classes = {','.join(str(c) for c in run.head_classes)}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="ascii")
    return run


# ---------------------------------------------------------------------------
# presets


SWEEP_PRESETS = ("ablation-loss", "ablation-distribution", "sweep-lr", "sweep-batch")
PRESETS = ("smoke", "vit-smoke") + SWEEP_PRESETS


def preset_config(name: str, seed: int = 0) -> ExperimentConfig:
    """Named starting configurations; `smoke` is the desk-scale reference."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    base = ExperimentConfig({
        "run.name": name,
        "dataset.synth.counts": (1000, 400, 200, 60, 20),
        "dataset.synth.dim": 8,
        "dataset.synth.radius": 2.3,
        "dataset.synth.sigma": 1.0,
        "partition.mode": "fixed",
        "partition.ratios": (0.5, 0.3, 0.2),
        "partition.test_fraction": 0.2,
        "model.hidden_dim": 32,
        "federation.rounds": 50,
        "federation.learning_rate": 5e-3,
        "federation.batch_size": 16,
        "federation.seed": seed,
        "partition.seed": seed,
    })
    if name == "vit-smoke":
        return base.with_overrides({
            "run.model": "vit",
            "dataset.synth.kind": "tiles",
            "dataset.synth.counts": (60, 24, 12),
            "dataset.synth.image_size": 16,
            "model.vit.image_size": 16,
            "federation.rounds": 3,
        })
    return base


def sweep_settings(cfg: ExperimentConfig, preset: str) -> list[tuple[str, ExperimentConfig]]:
    """Expand a sweep preset into (label, config) pairs sharing the base."""
    if preset == "ablation-loss":
        return [(kind, cfg.with_overrides({"loss.kind": kind,
                                           "run.name": f"{cfg['run.name']}-{kind}"}))
                for kind in ("ce", "focal", "adaptive_focal")]
    if preset == "ablation-distribution":
        vectors = {
            "C1": (0.5, 0.3, 0.2),
            "C2": (1 / 3, 1 / 3, 1 / 3),   # published as 0.333 each, normalized
            "C3": (0.556, 0.278, 0.166),
        }
        return [(label, cfg.with_overrides({"partition.ratios": ratios,
                                            "run.name": f"{cfg['run.name']}-{label}"}))
                for label, ratios in vectors.items()]
    if preset == "sweep-lr":
        rates = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        return [(f"lr={rate:.0e}",
                 cfg.with_overrides({"federation.learning_rate": rate,
                                     "run.name": f"{cfg['run.name']}-lr{rate:.0e}"}))
                for rate in rates]
    if preset == "sweep-batch":
        sizes = (4, 8, 16, 32, 64)
        return [(f"batch={size}",
                 cfg.with_overrides({"federation.batch_size": size,
                                     "run.name": f"{cfg['run.name']}-b{size}"}))
                for size in sizes]
    raise ConfigError(f"{preset!r} is not a sweep preset")


def run_sweep(cfg: ExperimentConfig, preset: str, out_dir) -> list[tuple[str, F.FederationRun]]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for label, sub_cfg in sweep_settings(cfg, preset):
        sub_dir = out / label.replace("=", "-")
        results.append((label, run_experiment(sub_cfg, sub_dir)))
    lines = ["setting,accuracy,macro_f1,macro_precision,macro_recall,"
             "macro_specificity,macro_auc"]
    for label, run in results:
        m = run.records[-1].metrics
        lines.append(",".join([label] + [_csv_cell(v) for v in (
            m.accuracy, m.macro_f1, m.macro_precision, m.macro_recall,
            m.macro_specificity, m.macro_auc)]))
    (out / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    return results


# ---------------------------------------------------------------------------
# finished runs and post-hoc analysis


def _require_artifacts(run_dir: Path, names: tuple[str, ...]) -> None:
    missing = [n for n in names if not (run_dir / n).exists()]
    if missing:
        raise IngestionError(f"{run_dir} is missing run artifacts: "
                             f"{', '.join(missing)}; expected {', '.join(names)}")


@dataclass(frozen=True)
class FinishedRun:
    """A completed run rebuilt from its directory."""
    cfg: ExperimentConfig
    bundle: DatasetBundle
    model: object
    params: ModelParams
    test_indices: list[int]

    def score_test_set(self) -> tuple[np.ndarray, np.ndarray]:
        """Final-model class scores on the held-out test set, and its labels."""
        idx = self.test_indices
        test = F.bind_test_set(self.model, self.params, self.bundle.features, idx)
        return F.eval_scores(test, self.params), self.bundle.labels[idx]


def load_run(run_dir) -> FinishedRun:
    """Rebuild a run from its echoed config and final checkpoint; the
    checkpoint must hold the parameter set the config describes."""
    run_dir = Path(run_dir)
    _require_artifacts(run_dir, ("config.echo", "rounds.jsonl", "final.ckpt"))
    cfg = ExperimentConfig.from_file(run_dir / "config.echo")
    bundle, model = prepare(cfg)
    params = load_params(run_dir / "final.ckpt")
    expected = F.initial_params(model, cfg.loss_config(), cfg["federation.seed"])
    want, got = ([(name, t.shape, t.dtype.name) for name, t in p] for p in (expected, params))
    # the first entry whose name, shape or dtype differs; a missing one is None
    for need, have in itertools.zip_longest(want, got):
        if need != have:
            raise IngestionError(f"{run_dir / 'final.ckpt'} does not match "
                                 f"{run_dir / 'config.echo'}: checkpoint entry {have}, "
                                 f"config entry {need}")
    test_idx = list(run_partition(cfg, bundle).test_indices)
    return FinishedRun(cfg, bundle, model, params, test_idx)


def analyze(run_dir, out_dir=None) -> dict:
    """Derive decision-curve, ROC, gradient-norm, and saliency artifacts
    from a completed run directory."""
    run_dir = Path(run_dir)
    out = Path(out_dir) if out_dir else run_dir
    run = load_run(run_dir)
    cfg, bundle, test_idx = run.cfg, run.bundle, run.test_indices
    scores, test_y = run.score_test_set()
    out.mkdir(parents=True, exist_ok=True)

    # decision curve: one row per (model, threshold)
    table = ME.decision_curve(scores, test_y, cfg["dca.thresholds"])
    dca_lines = ["model,threshold,macro_net_benefit" +
                 "".join(f",class_{i}" for i in range(bundle.num_classes))]
    for k, t in enumerate(table["thresholds"]):
        cells = [cfg["run.name"], _csv_cell(t), _csv_cell(table["macro"][k])]
        cells += [_csv_cell(table["per_class"][i][k])
                  for i in range(bundle.num_classes)]
        dca_lines.append(",".join(cells))
    (out / "dca.csv").write_text("\n".join(dca_lines) + "\n", encoding="ascii")

    # ROC point lists per class
    _, detail = ME.auc_ovr(scores, test_y)
    roc_lines = ["class,fpr,tpr"]
    for i, points in enumerate(detail["roc"]):
        for fpr, tpr in points:
            roc_lines.append(f"{i},{fpr!r},{tpr!r}")
    (out / "roc.csv").write_text("\n".join(roc_lines) + "\n", encoding="ascii")

    # per-round head/tail gradient-norm series
    rounds = [json.loads(line) for line in
              (run_dir / "rounds.jsonl").read_text().splitlines() if line]
    grad_lines = ["round,tail_grad_norm,head_grad_norm"]
    for rec in rounds:
        grad_lines.append(f"{rec['round']},{_csv_cell(rec['tail_grad_norm'])},"
                          f"{_csv_cell(rec['head_grad_norm'])}")
    (out / "gradnorms.csv").write_text("\n".join(grad_lines) + "\n", encoding="ascii")

    # saliency rollout for the first test sample of each class (vit only)
    notes = []
    if cfg["run.model"] == "vit":
        masks = []
        picked = []
        for c in range(bundle.num_classes):
            hits = np.flatnonzero(test_y == c)
            if hits.size == 0:
                notes.append(f"class {c}: no test sample for rollout")
                continue
            image = bundle.features[test_idx[int(hits[0])]]
            masks.append(ME.grad_rollout_for_sample(run.model, run.params, image))
            picked.append(test_idx[int(hits[0])])
        if masks:
            save_array(out / "rollout_masks.bin", np.stack(masks))
            (out / "rollout_samples.txt").write_text(
                "\n".join(str(i) for i in picked) + "\n", encoding="ascii")
    else:
        notes.append("rollout masks need the vit model; skipped for mlp")
    if notes:
        (out / "analyze_notes.txt").write_text("\n".join(notes) + "\n",
                                               encoding="ascii")
    return {"scores": scores, "labels": test_y, "dca": table,
            "rounds": rounds, "notes": notes}
