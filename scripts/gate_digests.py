"""Print the default gate's digests: one `config artifact sha256` line per
artifact of each named config, run from this tree's ``src/`` in a temporary
directory.

    python3 scripts/gate_digests.py            # every config below
    python3 scripts/gate_digests.py smoke-s0 vit-smoke

Run it on two trees and ``diff`` the outputs: a change that keeps the gate
prints the same lines. Each run digests ``metrics.csv``, ``rounds.jsonl``,
``final.ckpt`` and ``imbalance.report``; the ``vit-smoke`` configs also
digest the ``rollout_masks.bin`` that ``analyze`` writes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedfocal import experiment as X  # noqa: E402

ARTIFACTS = ("metrics.csv", "rounds.jsonl", "final.ckpt", "imbalance.report")

DIR20 = {"partition.mode": "dirichlet", "partition.beta": 0.5, "partition.clients": 20}
GAMMA = {"loss.gamma_trainable": True}
IDLE_GAMMA = {"loss.kind": "ce", **GAMMA}  # a gamma parameter CE never reads
FRACTION = {"federation.client_fraction": 0.67}
EPOCHS_BATCH = {"federation.local_epochs": 2, "federation.batch_size": 7}

# name: (preset, seed, overrides); the seed sets the federation, partition
# and dataset seeds alike
CONFIGS = {
    "smoke-s0": ("smoke", 0, {}),
    "smoke-s5": ("smoke", 5, {}),
    "smoke-s7104": ("smoke", 7104, {}),
    "dir20-s0": ("smoke", 0, DIR20),
    "dir20-s5-100": ("smoke", 5, {**DIR20, "federation.rounds": 100}),
    "dir20-s7104": ("smoke", 7104, DIR20),
    "ce": ("smoke", 0, {"loss.kind": "ce"}),
    "focal": ("smoke", 0, {"loss.kind": "focal"}),
    "gamma-fraction": ("smoke", 0, {**GAMMA, **FRACTION}),
    "ce-idle-gamma": ("smoke", 0, IDLE_GAMMA),
    "f64-gamma-fraction": ("smoke", 0, {"run.dtype": "f64", **GAMMA, **FRACTION}),
    "f64-s5": ("smoke", 5, {"run.dtype": "f64"}),
    "two-epochs": ("smoke", 0, {"federation.local_epochs": 2}),
    "batch-7": ("smoke", 0, {"federation.batch_size": 7}),
    "two-epochs-batch-7-uniform": ("smoke", 0, {**EPOCHS_BATCH,
                                                "federation.aggregation": "uniform"}),
    "gamma-two-epochs-batch-7-s5": ("smoke", 5, {**GAMMA, **EPOCHS_BATCH}),
    "ratios-0.7-0.3-0": ("smoke", 0, {"partition.ratios": (0.7, 0.3, 0.0)}),
    "ratios-0-0.5-0.5": ("smoke", 0, {"partition.ratios": (0.0, 0.5, 0.5)}),
    "sample-size": ("smoke", 0, {"federation.aggregation": "sample_size"}),
    "centralized-10": ("smoke", 0, {"run.mode": "centralized", "federation.rounds": 10}),
    "fraction-0.5-s7104": ("smoke", 7104, {"federation.client_fraction": 0.5}),
    "vit-smoke": ("vit-smoke", 0, {}),
    "vit-two-epochs-fraction": ("vit-smoke", 0, {"federation.local_epochs": 2, **FRACTION}),
    "vit-learned-gamma-fraction": ("vit-smoke", 0, {"model.vit.learned_positions": True,
                                                    **GAMMA, **FRACTION}),
    "vit-gamma-two-epochs-batch-7-s5": ("vit-smoke", 5, {**GAMMA, **EPOCHS_BATCH}),
    "dir20-gamma-two-epochs-batch-7-s7": ("smoke", 7, {**DIR20, **GAMMA, **EPOCHS_BATCH}),
    "dir20-fraction-0.5-s3": ("smoke", 3, {**DIR20, "federation.client_fraction": 0.5}),
    "dirichlet-6-fraction-0.5": ("smoke", 0, {"partition.mode": "dirichlet",
                                              "partition.clients": 6,
                                              "federation.client_fraction": 0.5}),
    "dir20-ce-idle-gamma-s5": ("smoke", 5, {**DIR20, **IDLE_GAMMA}),
    "dir20-focal-s5": ("smoke", 5, {**DIR20, "loss.kind": "focal"}),
    "dir20-f64-s5": ("smoke", 5, {**DIR20, "run.dtype": "f64"}),
}


def digests(name: str) -> list[tuple[str, str]]:
    """Each artifact of the named config's run and its sha256."""
    preset, seed, overrides = CONFIGS[name]
    cfg = X.preset_config(preset, seed=seed).with_overrides(
        {"dataset.synth.seed": seed, **overrides})
    names = ARTIFACTS + (("rollout_masks.bin",) if preset == "vit-smoke" else ())
    with tempfile.TemporaryDirectory() as tmp:
        X.run_experiment(cfg, tmp)
        if preset == "vit-smoke":
            X.analyze(tmp)
        return [(artifact, hashlib.sha256((Path(tmp) / artifact).read_bytes()).hexdigest())
                for artifact in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", metavar="config",
                        help=f"configs to run (default: all {len(CONFIGS)})")
    names = parser.parse_args(argv).configs or list(CONFIGS)
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown configs {unknown}; expected some of {list(CONFIGS)}")
    for name in names:
        for artifact, digest in digests(name):
            print(name, artifact, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
