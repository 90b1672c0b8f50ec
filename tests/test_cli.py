import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedfocal import experiment as X
from fedfocal.cli import build_parser, main
from fedfocal.config import SCHEMA, ExperimentConfig
from fedfocal.data import BlobSpec, TileSpec, load_dataset, save_dataset
from fedfocal.errors import ConfigError, ContractError
from fedfocal.federation import FederationConfig
from fedfocal.imbalance import client_imbalance, global_class_imbalance
from fedfocal.losses import LossConfig
from fedfocal.models import MlpConfig, ViTConfig
from fedfocal.partition import PartitionSpec, build_partition, read_manifest, write_manifest

from helpers import report_from_text

ECHOES = Path(__file__).parent / "echoes"
FAST = [
    "--set", "dataset.synth.counts=120,60,30",
    "--set", "federation.rounds=2",
    "--set", "partition.test_fraction=0.2",
]


class TestConfigFormat:
    def test_round_trip_through_text(self):
        cfg = X.preset_config("smoke", seed=3)
        back = ExperimentConfig.parse_text(cfg.to_text())
        assert back.values == cfg.values
        assert back.to_text() == cfg.to_text()

    def test_every_key_appears_in_echo(self):
        text = X.preset_config("smoke").to_text()
        for key in SCHEMA:
            assert f"{key} = " in text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.parse_text("federation.rounds = 3\nbogus.key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.parse_text("loss.gamma = 2\nloss.gamma = 3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = ExperimentConfig.parse_text("# header\n\nloss.gamma = 1.5\n")
        assert cfg["loss.gamma"] == 1.5

    def test_bad_value_diagnosed_with_key(self):
        with pytest.raises(ConfigError, match="federation.rounds"):
            ExperimentConfig.parse_text("federation.rounds = many\n")

    @pytest.mark.parametrize("name", ("defaults",) + X.PRESETS)
    def test_echo_pinned(self, name):
        """Every default and tag as it echoes; a run reruns from its echo, so
        moving a default changes what an old echo means. The golden files
        were written before the typed configs' fields became the defaults."""
        cfg = ExperimentConfig({}) if name == "defaults" else X.preset_config(name)
        golden = ECHOES / ("defaults.echo" if name == "defaults" else f"preset-{name}.echo")
        assert cfg.to_text() == golden.read_text(encoding="utf-8")


# each config key a typed view reads by its field name: a valid value other
# than its default, with the keys it needs beside it to stay valid
VIEW_VALUES = {
    "loss.kind": ("focal", {}), "loss.gamma": (1.5, {}), "loss.gamma_trainable": (True, {}),
    "loss.gamma_lo": (0.25, {}), "loss.gamma_hi": (4.0, {}), "loss.blend": (0.25, {}),
    "loss.epsilon": (1e-4, {}),
    "federation.rounds": (7, {}), "federation.local_epochs": (2, {}),
    "federation.batch_size": (9, {}), "federation.learning_rate": (0.01, {}),
    "federation.beta1": (0.8, {}), "federation.beta2": (0.99, {}),
    "federation.adam_eps": (1e-7, {}), "federation.client_fraction": (0.5, {}),
    "federation.aggregation": ("uniform", {}), "federation.seed": (4, {}),
    "federation.tail_fraction": (0.4, {}),
    "partition.mode": ("dirichlet", {}), "partition.ratios": ((0.6, 0.3, 0.1), {}),
    "partition.beta": (0.7, {}), "partition.test_fraction": (0.3, {}),
    "partition.test_ratio_index": (3, {"partition.ratios": (0.4, 0.3, 0.2, 0.1),
                                       "partition.test_fraction": 0.0}),
    "partition.seed": (6, {}),
    "model.hidden_dim": (12, {}), "model.vit.image_size": (8, {}),
    "model.vit.patch_size": (8, {}), "model.vit.channels": (2, {}),
    "model.vit.embed_dim": (64, {"model.vit.head_dim": 16}),
    "model.vit.num_heads": (2, {"model.vit.embed_dim": 16}),
    "model.vit.head_dim": (16, {"model.vit.embed_dim": 64}),
    "model.vit.ffn_dim": (24, {}), "model.vit.num_layers": (3, {}),
    "model.vit.learned_positions": (True, {}),
    "dataset.synth.dim": (5, {}), "dataset.synth.radius": (1.5, {}),
    "dataset.synth.sigma": (0.5, {}),
    "dataset.synth.image_size": (8, {"dataset.synth.kind": "tiles"}),
    "dataset.synth.channels": (2, {"dataset.synth.kind": "tiles"}),
    "dataset.synth.noise": (0.5, {"dataset.synth.kind": "tiles"}),
}
# the keys under those prefixes that no view reads by field name, and where each is read
READ_ELSEWHERE = {
    "federation.concurrent": "nowhere: SCHEMA accepts it so old configs load",
    "dataset.synth": "experiment.assemble_dataset",
    "dataset.synth.kind": "experiment.feature_spec, to pick the spec",
    "dataset.synth.counts": "experiment.assemble_dataset",
    "dataset.synth.seed": "experiment.assemble_dataset",
    "partition.clients": "ExperimentConfig.partition_spec, as num_clients",
    "model.layer_norm_eps": "ExperimentConfig.vit_config, as layer_norm_eps",
}
# longest prefix first: model.vit.* keys are the ViT's, other model.* the MLP's
VIEWS = (("loss.", ExperimentConfig.loss_config),
         ("federation.", ExperimentConfig.federation_config),
         ("partition.", ExperimentConfig.partition_spec),
         ("model.vit.", lambda cfg: cfg.vit_config(3)),
         ("model.", lambda cfg: cfg.mlp_config(4, 3)),
         ("dataset.synth.", X.feature_spec))


class TestTypedViews:
    def test_dataclass_defaults_are_the_default_config(self):
        cfg = ExperimentConfig({})
        assert LossConfig() == cfg.loss_config()
        assert FederationConfig() == cfg.federation_config()
        assert BlobSpec() == cfg.view(BlobSpec, "dataset.synth.")
        assert TileSpec() == cfg.view(TileSpec, "dataset.synth.")
        assert ViTConfig(num_classes=5) == cfg.vit_config(5)

    def test_every_key_under_a_view_prefix_is_read(self):
        keys = {k for k in SCHEMA if k.startswith(("loss.", "federation.", "partition.",
                                                   "model.", "dataset.synth"))}
        assert keys == set(VIEW_VALUES) | set(READ_ELSEWHERE)
        assert not set(VIEW_VALUES) & set(READ_ELSEWHERE)

    @pytest.mark.parametrize("key", sorted(VIEW_VALUES))
    def test_key_reaches_its_field(self, key):
        value, beside = VIEW_VALUES[key]
        assert value != SCHEMA[key][1]
        cfg = ExperimentConfig({}).with_overrides({key: value, **beside})
        prefix, view = next((p, v) for p, v in VIEWS if key.startswith(p))
        assert getattr(view(cfg), key[len(prefix):]) == value

    def test_given_fields_take_their_keys(self):
        cfg = ExperimentConfig({}).with_overrides({"partition.clients": 4,
                                                   "partition.ratios": (0.25,) * 4,
                                                   "model.layer_norm_eps": 1e-3})
        assert cfg.partition_spec().num_clients == 4
        assert cfg.vit_config(3).layer_norm_eps == 1e-3

    @pytest.mark.parametrize("cls, prefix, given", [
        (PartitionSpec, "partition.", {}),
        (MlpConfig, "model.", {"num_classes": 3}),
    ], ids=["partition-clients", "mlp-input-dim"])
    def test_field_with_no_key_and_no_value_is_a_contract_error(self, cls, prefix, given):
        missing = "num_clients" if cls is PartitionSpec else "input_dim"
        with pytest.raises(ContractError, match=missing):
            ExperimentConfig({}).view(cls, prefix, **given)


class TestSynthAndPartitionCommands:
    def test_synth_then_partition(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--counts", "40,20,10",
                     "--seed", "1"]) == 0
        bundle = load_dataset(data)
        assert bundle.histogram().counts == (40, 20, 10)

        manifest = tmp_path / "p.manifest"
        assert main(["partition", "--data", str(data), "--out", str(manifest),
                     "--ratios", "0.5,0.3,0.2", "--test-fraction", "0.2",
                     "--seed", "0"]) == 0
        clients, test = read_manifest(manifest)
        total = sum(len(c) for c in clients) + len(test)
        assert total == 70

    @pytest.mark.parametrize("argv", [
        ["synth", "--counts", ""],
        ["train", "--preset", "smoke", "--set", "dataset.synth.counts="],
    ], ids=["synth", "train"])
    def test_empty_counts_exit_runtime(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert "class counts" in capsys.readouterr().err

    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys):
        """synth and partition once exited 1 on numpy's "expected
        non-negative integer" traceback."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not data.exists()
        assert main(["synth", "--out", str(data), "--counts", "40,20,10"]) == 0
        out = tmp_path / "parts" / "manifest"
        assert main(["partition", "--data", str(data), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_synth_tiles_mode(self, tmp_path):
        data = tmp_path / "tiles"
        assert main(["synth", "--out", str(data), "--counts", "8,4",
                     "--kind", "tiles", "--image-size", "8"]) == 0
        bundle = load_dataset(data)
        assert bundle.features.shape == (12, 1, 8, 8)


    @pytest.mark.parametrize("argv", [
        ["partition", "--mode", "bogus"],
        ["train", "--preset", "smoke", "--set", "partition.mode=bogus"] + FAST,
    ], ids=["partition", "train"])
    def test_unknown_partition_mode_exits_two_before_writing(self, tmp_path, capsys, argv):
        """A mode other than fixed or dirichlet once trained a Dirichlet split
        and exited 0."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--counts", "40,20,10"]) == 0
        out = tmp_path / "parts" / "out"
        assert main(argv + ["--data", str(data)] * (argv[0] == "partition")
                    + ["--out", str(out)]) == 2
        assert "unknown partition mode 'bogus'" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["partition", "--mode", "dirichlet", "--test-ratio-index", "1"],
        ["train", "--preset", "smoke", "--set", "partition.mode=dirichlet",
         "--set", "partition.test_ratio_index=1"] + FAST,
    ], ids=["partition", "train"])
    def test_dirichlet_test_ratio_index_exits_two_before_writing(self, tmp_path, capsys,
                                                                argv):
        """A Dirichlet split once dropped test_ratio_index and exited 0, as if
        it were unset."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--counts", "40,20,10"]) == 0
        out = tmp_path / "parts" / "out"
        assert main(argv + ["--data", str(data)] * (argv[0] == "partition")
                    + ["--out", str(out)]) == 2
        assert "test_ratio_index applies to fixed mode only" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_dirichlet_split_without_test_ratio_index_still_loads(self):
        """The 20-client Dirichlet benchmark workload sets no test_ratio_index."""
        cfg = X.preset_config("smoke", seed=5).with_overrides({
            "partition.mode": "dirichlet", "partition.beta": 0.5, "partition.clients": 20,
            "federation.concurrent": True, "federation.rounds": 100})
        spec = cfg.partition_spec()
        assert (spec.mode, spec.num_clients, spec.test_ratio_index) == ("dirichlet", 20, None)


def _key_flag_actions(command: str) -> list[argparse.Action]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("help", "out", "data", "names")]


class TestKeyFlags:
    """synth and partition take config keys as flags; SCHEMA alone parses
    and defaults them, so the two cannot drift apart."""

    @pytest.mark.parametrize("command, prefix", [("synth", "dataset.synth."),
                                                 ("partition", "partition.")])
    def test_every_flag_names_a_config_key_and_sets_no_default_or_type(self, command,
                                                                      prefix):
        actions = _key_flag_actions(command)
        assert sorted(a.dest for a in actions) == sorted(k for k in SCHEMA
                                                         if k.startswith(prefix))
        for a in actions:
            assert a.option_strings == ["--" + a.dest[len(prefix):].replace("_", "-")]
            assert a.default is None and a.type is None, a.dest

    def test_commands_without_flags_write_the_default_config(self, tmp_path):
        cfg = ExperimentConfig({})
        expected = X.assemble_dataset(cfg)
        data, manifest = tmp_path / "data", tmp_path / "p.manifest"
        assert main(["synth", "--out", str(data)]) == 0
        bundle = load_dataset(data)
        assert bundle.features.tobytes() == expected.features.tobytes()
        assert bundle.features.shape == expected.features.shape
        assert bundle.labels.tobytes() == expected.labels.tobytes()
        assert bundle.class_names == expected.class_names
        assert main(["partition", "--data", str(data), "--out", str(manifest)]) == 0
        part = build_partition(expected.labels, cfg.partition_spec(), expected.num_classes)
        write_manifest(tmp_path / "expected.manifest", part)
        assert manifest.read_bytes() == (tmp_path / "expected.manifest").read_bytes()


class TestTrainCommand:
    def test_dry_run_validates_and_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--preset", "smoke", "--out", str(out),
                     "--dry-run"] + FAST)
        assert code == 0
        assert (out / "config.echo").exists()
        assert (out / "partition.manifest").exists()
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("mode", ["federated", "centralized"])
    def test_dry_run_without_a_test_set_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                   mode):
        """A dry run checks the partition as the run does, before it makes --out."""
        out = tmp_path / "run"
        code = main(["train", "--preset", "smoke", "--out", str(out), "--dry-run"] + FAST
                    + ["--set", f"run.mode={mode}", "--set", "partition.test_fraction=0"])
        assert code == 2
        assert "partition has no global test set" in capsys.readouterr().err
        assert not (out / "config.echo").exists()
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "train"])
    @pytest.mark.parametrize("mode", ["fixed", "dirichlet"])
    def test_test_share_of_every_sample_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                   dry_run, mode):
        """A test share that takes every sample once raised IndexError on an
        empty float index and exited 1 with a traceback."""
        out = tmp_path / "run"
        code = main(["train", "--preset", "smoke", "--out", str(out)] + ["--dry-run"] * dry_run
                    + FAST + ["--set", "dataset.synth.counts=1,1", "--set",
                              f"partition.mode={mode}", "--set", "partition.test_fraction=0.9"])
        assert code == 2
        assert "config error: partition has no training samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "train"])
    @pytest.mark.parametrize("thresholds", ["1.5", "0.2,0", "nan"])
    def test_decision_threshold_outside_the_unit_interval_exits_2_and_writes_nothing(
            self, tmp_path, capsys, dry_run, thresholds):
        """train once wrote a whole run with thresholds that analyze then
        rejected (exit 2); train now makes the check analyze makes."""
        out = tmp_path / "run"
        code = main(["train", "--preset", "smoke", "--out", str(out)] + ["--dry-run"] * dry_run
                    + FAST + ["--set", f"dca.thresholds={thresholds}"])
        assert code == 2
        assert ("config error: decision threshold must lie in (0, 1)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("overrides, ids", [
        ({"partition.ratios": (0.0, 0.5, 0.5)}, [1, 2]),
        ({"partition.mode": "dirichlet", "partition.clients": 6,
          "federation.client_fraction": 0.5}, [0, 1, 2, 3, 4, 5]),
    ], ids=["empty-client-0", "dirichlet-half"])
    def test_imbalance_report_names_each_client_by_id(self, tmp_path, overrides, ids):
        """The report once numbered the last round's selection 0, 1, 2, ...:
        clients 1 and 2 of 0.0,0.5,0.5 were written as 0 and 1, and a half
        selection of six clients left the other three out. Each client with
        samples gets the skew the round plan trains it with."""
        cfg = X.preset_config("smoke").with_overrides({"federation.rounds": 2, **overrides})
        X.run_experiment(cfg, tmp_path)
        part = X.run_partition(cfg, X.prepare(cfg)[0])
        report = report_from_text((tmp_path / "imbalance.report").read_text())
        assert list(report.client_coeffs) == ids
        assert report.client_coeffs == {
            k: client_imbalance(part.histograms[k], cfg["loss.epsilon"]) for k in ids}
        last = json.loads((tmp_path / "rounds.jsonl").read_text().splitlines()[-1])
        assert len(last["client_coeffs"]) < 6
        for k, coeff in last["client_coeffs"].items():
            assert report.client_coeffs[int(k)] == coeff, k

    def test_imbalance_report_does_not_depend_on_the_last_rounds_draw(self, tmp_path):
        """The class_coeff lines were the last round's selection's class
        rarity, so at half participation they moved with the round count.
        Both halves of the file now cover every client with samples."""
        cfg = X.preset_config("smoke").with_overrides({
            "partition.mode": "dirichlet", "partition.clients": 6,
            "federation.client_fraction": 0.5})
        texts = []
        for rounds in (1, 3):
            X.run_experiment(cfg.with_overrides({"federation.rounds": rounds}),
                             tmp_path / str(rounds))
            texts.append((tmp_path / str(rounds) / "imbalance.report").read_text())
            selected = json.loads((tmp_path / str(rounds) / "rounds.jsonl").read_text()
                                  .splitlines()[-1])["selected"]
            assert len(selected) == 3
        assert texts[0] == texts[1]
        part = X.run_partition(cfg, X.prepare(cfg)[0])
        report = report_from_text(texts[0])
        assert report.class_coeffs == global_class_imbalance(part.histograms,
                                                             cfg["loss.epsilon"])

    def test_train_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out)] + FAST) == 0
        for name in ("config.echo", "partition.manifest", "imbalance.report",
                     "rounds.jsonl", "metrics.csv", "final.ckpt", "summary.txt"):
            assert (out / name).exists(), name
        rounds = [json.loads(line) for line in
                  (out / "rounds.jsonl").read_text().splitlines()]
        assert len(rounds) == 2
        expected_fields = {"round", "selected", "client_coeffs", "weights",
                           "metrics", "per_class_grad_norms", "tail_grad_norm",
                           "head_grad_norm", "gamma", "train_loss", "warnings"}
        assert expected_fields <= set(rounds[0])
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("round,accuracy,macro_f1")

    def test_config_echo_rerun_reproduces_metrics_bytes(self, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--preset", "smoke", "--out", str(first)] + FAST) == 0
        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "config.echo"),
                     "--out", str(second)]) == 0
        assert (first / "metrics.csv").read_bytes() == \
            (second / "metrics.csv").read_bytes()

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no.such.key = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("override", [
        "federation.beta1=1.0", "federation.beta2=1.0", "federation.beta1=-0.5",
        "federation.beta2=-0.1", "federation.beta1=nan", "federation.adam_eps=0",
        "federation.adam_eps=-1e-8", "federation.adam_eps=inf",
    ])
    def test_bad_adam_setting_exits_two_before_writing(self, tmp_path, override):
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out),
                     "--set", override] + FAST) == 2
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "federation.learning_rate=nan", "federation.learning_rate=inf",
        "loss.gamma=nan", "loss.gamma=inf", "loss.epsilon=nan", "loss.epsilon=inf",
        "loss.gamma_lo=nan", "loss.gamma_hi=nan",
    ])
    def test_non_finite_setting_exits_two_before_writing(self, tmp_path, capsys, override):
        """Each of these once trained and failed in round 1 on a NaN (or, for
        an infinite epsilon or a NaN gamma bound, ran to the end)."""
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out),
                     "--set", override] + FAST) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, overrides", [
        ("smoke", ["partition.ratios=nan,0.5,0.5"]),
        ("smoke", ["partition.ratios=inf,0.5,0.5"]),
        ("smoke", ["partition.mode=dirichlet", "partition.beta=nan"]),
        ("smoke", ["partition.mode=dirichlet", "partition.beta=inf"]),
        ("smoke", ["dataset.synth.sigma=nan"]),
        ("smoke", ["dataset.synth.radius=inf"]),
        ("vit-smoke", ["dataset.synth.noise=nan"]),
        ("vit-smoke", ["model.layer_norm_eps=nan"]),
        ("vit-smoke", ["model.layer_norm_eps=inf"]),
        ("smoke", ["partition.test_fraction=0", "run.mode=federated"]),
        ("smoke", ["partition.test_fraction=0", "run.mode=centralized"]),
    ], ids=lambda v: v if isinstance(v, str) else v[-1])
    def test_non_finite_data_or_model_setting_exits_two_before_writing(
            self, tmp_path, capsys, preset, overrides):
        """Each of these once got past validation: the partition ones wrote
        config.echo and partition.manifest, warned in largest_remainder and
        blamed empty shards; the data and model ones trained; an empty test
        set was found after config.echo (and, federated, partition.manifest)
        was written."""
        out = tmp_path / "run"
        sets = [arg for o in overrides for arg in ("--set", o)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--preset", preset, "--out", str(out),
                         "--set", "federation.rounds=1"] + sets)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("args", [
        ["--set", "federation.seed=-1"], ["--set", "partition.seed=-1"],
        ["--set", "dataset.synth.seed=-1"], ["--seed", "-1"],
    ], ids=["federation", "partition", "synth", "--seed"])
    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys, args):
        """Each once exited 1 on numpy's "expected non-negative integer"
        traceback; the federation seed only after config.echo and
        partition.manifest were written."""
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out)] + args + FAST) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["run.name=caf\u00e9", "run.name=a\nb",
                                          "dataset.path=data\tset"],
                             ids=["non-ascii", "newline", "tab"])
    def test_unprintable_string_setting_exits_two_before_writing(self, tmp_path, capsys,
                                                                 override):
        """A non-ASCII name once failed with a traceback while writing
        config.echo, and a multi-line one wrote a config.echo that evaluate
        could not read back."""
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out),
                     "--set", override] + FAST) == 2
        assert "must be printable ASCII on one line" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_exits_runtime(self, tmp_path):
        code = main(["train", "--preset", "smoke", "--out", str(tmp_path / "x"),
                     "--set", "dataset.synth=false",
                     "--set", f"dataset.path={tmp_path / 'absent'}"])
        assert code == 3

    def test_nan_feature_names_round_and_client(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--counts", "120,60,30"]) == 0
        bundle = load_dataset(data)
        cfg = X.preset_config("smoke").with_overrides(
            {"dataset.path": str(data), "partition.test_fraction": 0.2})
        shard = X.run_partition(cfg, bundle).client_indices[1]
        bundle.features[shard[len(shard) // 2], 0] = np.nan
        save_dataset(data, bundle)
        code = main(["train", "--preset", "smoke", "--out", str(tmp_path / "run"),
                     "--set", f"dataset.path={data}"] + FAST)
        assert code == 3
        assert "round 1, client 1: softmax input contains NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("preset, kind", [("smoke", "blobs"), ("vit-smoke", "tiles")],
                             ids=["mlp", "vit"])
    def test_non_finite_test_score_names_round_and_sample(self, tmp_path, capsys, bad,
                                                          preset, kind):
        """A NaN test feature once scored as class 0 and the run exited 0. A
        non-finite score now ends training in its round, before final.ckpt,
        and evaluate and analyze on a run whose test sample went bad after
        it finished. +inf passes softmax's NaN check but scores NaN. On the
        ViT one bad pixel fails the attention softmax before any score, and
        the error still names the sample, not a place in the attention."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--counts", "120,60,30", "--kind", kind]) == 0
        args = ["--set", f"dataset.path={data}"] + FAST
        assert main(["train", "--preset", preset, "--out", str(tmp_path / "clean")] + args) == 0
        bundle = load_dataset(data)
        cfg = X.preset_config(preset).with_overrides(
            {"dataset.path": str(data), "partition.test_fraction": 0.2})
        sample = X.run_partition(cfg, bundle).test_indices[5]
        bundle.features[sample].flat[0] = bad
        save_dataset(data, bundle)
        capsys.readouterr()
        out = tmp_path / "run"
        with (pytest.warns(RuntimeWarning, match="invalid value") if np.isinf(bad)
              else warnings.catch_warnings()):
            codes = [main(["train", "--preset", preset, "--out", str(out)] + args),
                     main(["evaluate", "--run", str(tmp_path / "clean")]),
                     main(["analyze", "--run", str(tmp_path / "clean")])]
        assert codes == [3, 3, 3]
        assert capsys.readouterr().err.splitlines() == [
            f"error: round 1, test sample {sample}: non-finite class scores"] + [
            f"error: test sample {sample}: non-finite class scores"] * 2
        assert not (out / "final.ckpt").exists()

    def test_overflowing_round_names_every_client_before_aggregating(self, tmp_path, capsys):
        # one step per client at this rate leaves every parameter non-finite
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
            code = main(["train", "--preset", "smoke", "--out", str(out),
                         "--set", "federation.learning_rate=1e39", "--set", "federation.rounds=1",
                         "--set", "federation.batch_size=4096"])
        assert code == 3
        assert "round 1, clients 0, 1, 2: non-finite parameters" in capsys.readouterr().err
        assert not (out / "final.ckpt").exists()

    def test_centralized_mode(self, tmp_path):
        out = tmp_path / "central"
        assert main(["train", "--preset", "smoke", "--out", str(out),
                     "--set", "run.mode=centralized"] + FAST) == 0
        assert (out / "metrics.csv").exists()
        assert not (out / "partition.manifest").exists()
        # the derived reports rebuild the validation split from the echo
        assert main(["analyze", "--run", str(out)]) == 0
        assert (out / "dca.csv").exists()


class TestEvaluateAndAnalyze:
    @pytest.fixture()
    def finished_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out)] + FAST) == 0
        return out

    def test_evaluate_prints_metrics(self, finished_run, capsys):
        assert main(["evaluate", "--run", str(finished_run)]) == 0
        printed = capsys.readouterr().out
        assert "accuracy = " in printed
        assert "macro_auc = " in printed

    def test_analyze_writes_reports(self, finished_run):
        assert main(["analyze", "--run", str(finished_run)]) == 0
        dca = (finished_run / "dca.csv").read_text().splitlines()
        assert dca[0].startswith("model,threshold,macro_net_benefit")
        assert len(dca) == 1 + 19  # default thresholds 0.05..0.95
        roc = (finished_run / "roc.csv").read_text().splitlines()
        assert roc[0] == "class,fpr,tpr"
        grad = (finished_run / "gradnorms.csv").read_text().splitlines()
        assert len(grad) == 1 + 2  # one line per round

    def test_analyze_roc_rows_are_plain_numbers(self, finished_run):
        assert main(["analyze", "--run", str(finished_run)]) == 0
        rows = (finished_run / "roc.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            cls, fpr, tpr = row.split(",")
            int(cls)
            assert 0.0 <= float(fpr) <= 1.0 and 0.0 <= float(tpr) <= 1.0, row

    def test_analyze_makes_a_missing_out_dir_with_its_parents(self, finished_run, tmp_path):
        """analyze --out once exited 3 on a directory that did not exist."""
        out = tmp_path / "reports" / "deep"
        assert main(["analyze", "--run", str(finished_run), "--out", str(out)]) == 0
        for name in ("dca.csv", "roc.csv", "gradnorms.csv"):
            assert (out / name).exists()
            assert not (finished_run / name).exists()

    def test_analyze_missing_artifacts_diagnosed(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["analyze", "--run", str(empty)]) == 3

    def test_evaluate_missing_artifacts_diagnosed(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", "--run", str(empty)]) == 3
        err = capsys.readouterr().err
        assert "missing run artifacts: config.echo, rounds.jsonl, final.ckpt" in err

    @pytest.mark.parametrize("extra", [[], ["--set", "run.mode=centralized"],
                                       ["--set", "loss.gamma_trainable=true"]],
                             ids=["federated", "centralized", "trainable-gamma"])
    def test_evaluate_reproduces_last_round(self, tmp_path, capsys, extra):
        out = tmp_path / "run"
        assert main(["train", "--preset", "smoke", "--out", str(out)] + FAST + extra) == 0
        capsys.readouterr()
        assert main(["evaluate", "--run", str(out)]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        last = dict(zip(header.split(","), rows[-1].split(",")))
        assert set(printed) == {"accuracy", "macro_precision", "macro_recall",
                                "macro_f1", "macro_specificity", "macro_auc"}
        for name, value in printed.items():
            assert value == last[name], name

    @pytest.mark.parametrize("ckpt", [b"fedfocal-params 1\n-1\n",
                                      b"fedfocal-params 1\n1\nmlp.w1\nf32 x\n",
                                      b"fedfocal-params 1\n2\nmlp.w1\nmlp.w1\n"
                                      b"f32 1 1\n\0\0\0\0f32 1 1\n\0\0\0\0"],
                             ids=["negative-count", "non-numeric-header",
                                  "duplicate-name"])
    def test_evaluate_rejects_malformed_checkpoint(self, finished_run, ckpt):
        (finished_run / "final.ckpt").write_bytes(ckpt)
        assert main(["evaluate", "--run", str(finished_run)]) == 3

    @pytest.mark.parametrize("line, edited", [
        ("model.hidden_dim = 32", "model.hidden_dim = 16"),
        ("loss.gamma_trainable = false", "loss.gamma_trainable = true"),
        ("run.dtype = f32", "run.dtype = f64"),
    ], ids=["hidden-dim", "trainable-gamma", "dtype"])
    def test_evaluate_rejects_checkpoint_of_other_config(self, finished_run, capsys,
                                                          line, edited):
        echo = finished_run / "config.echo"
        text = echo.read_text()
        assert line in text
        echo.write_text(text.replace(line, edited))
        assert main(["evaluate", "--run", str(finished_run)]) == 3
        err = capsys.readouterr().err
        assert "final.ckpt does not match" in err and "config.echo" in err

    def test_analyze_vit_run_emits_rollout_masks(self, tmp_path):
        out = tmp_path / "vit"
        assert main(["train", "--preset", "vit-smoke", "--out", str(out),
                     "--set", "dataset.synth.counts=16,8,4",
                     "--set", "federation.rounds=1"]) == 0
        assert main(["analyze", "--run", str(out)]) == 0
        from fedfocal.tensor import load_array
        masks = load_array(out / "rollout_masks.bin")
        assert masks.shape[1] == 16  # (16/4)^2 patches
        assert masks.min() >= 0.0 and masks.max() <= 1.0


class TestSweepCommand:
    def test_loss_ablation_emits_three_rows(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--preset", "ablation-loss", "--out", str(out)]
                    + FAST) == 0
        table = (out / "comparison.csv").read_text().splitlines()
        assert len(table) == 4
        assert {line.split(",")[0] for line in table[1:]} == \
            {"ce", "focal", "adaptive_focal"}
        for sub in ("ce", "focal", "adaptive_focal"):
            assert (out / sub / "metrics.csv").exists()

    def test_distribution_ablation_vectors(self, tmp_path):
        out = tmp_path / "dist"
        assert main(["sweep", "--preset", "ablation-distribution", "--out",
                     str(out)] + FAST) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"C1", "C2", "C3"}
        c2 = ExperimentConfig.from_file(out / "C2" / "config.echo")
        assert abs(sum(c2["partition.ratios"]) - 1.0) < 1e-9

    def test_sweep_batch_sizes(self, tmp_path):
        out = tmp_path / "bs"
        assert main(["sweep", "--preset", "sweep-batch", "--out", str(out),
                     "--set", "dataset.synth.counts=60,30,15",
                     "--set", "federation.rounds=1",
                     "--set", "partition.test_fraction=0.2"]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert len(rows) == 5


SRC = Path(__file__).resolve().parent.parent / "src"


def test_smoke_artifacts_identical_across_blas_thread_counts(tmp_path):
    """The matrix products run on OpenBLAS, whose thread count is fixed when
    numpy loads. Ten smoke rounds write the same metrics.csv, rounds.jsonl
    and final.ckpt, byte for byte, on one thread and on two."""
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        subprocess.run([sys.executable, "-m", "fedfocal.cli", "train", "--preset", "smoke",
                        "--set", "federation.rounds=10", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.csv", "rounds.jsonl", "final.ckpt")])
    assert outputs[0] == outputs[1]
