import json
import warnings

import numpy as np
import pytest

from fedfocal import experiment as X
from fedfocal.cli import main
from fedfocal.config import SCHEMA, ExperimentConfig
from fedfocal.data import load_dataset, save_dataset
from fedfocal.errors import ConfigError
from fedfocal.partition import read_manifest

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

    def test_synth_tiles_mode(self, tmp_path):
        data = tmp_path / "tiles"
        assert main(["synth", "--out", str(data), "--counts", "8,4",
                     "--kind", "tiles", "--image-size", "8"]) == 0
        bundle = load_dataset(data)
        assert bundle.features.shape == (12, 1, 8, 8)


class TestTrainCommand:
    def test_dry_run_validates_and_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--preset", "smoke", "--out", str(out),
                     "--dry-run"] + FAST)
        assert code == 0
        assert (out / "config.echo").exists()
        assert (out / "partition.manifest").exists()
        assert not (out / "metrics.csv").exists()

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
    ], ids=["hidden-dim", "trainable-gamma"])
    def test_evaluate_rejects_checkpoint_of_other_config(self, finished_run, capsys,
                                                          line, edited):
        echo = finished_run / "config.echo"
        text = echo.read_text()
        assert line in text
        echo.write_text(text.replace(line, edited))
        assert main(["evaluate", "--run", str(finished_run)]) == 3
        assert "does not match" in capsys.readouterr().err

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
