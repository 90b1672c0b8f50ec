"""The traced benchmark run wraps fedfocal functions by name; a rename in
`src/` would break it without failing any other test. These tests load
`perfbench/layers.py` by path and check every name it looks up."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fedfocal import tensor as T

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("spans", None)


def _own_attribute(module_name: str, attr: str):
    """`attr` ("name" or "Class.name") as defined in the module or class
    itself, the way the benchmark looks it up; None when absent."""
    owner = importlib.import_module(module_name)
    for name in attr.split("."):
        owner = vars(owner).get(name) if owner is not None else None
    return owner


def test_every_spanned_target_resolves(layers):
    missing = [f"{m}.{a}" for m, a, _ in layers.SPANNED if not callable(_own_attribute(m, a))]
    assert not missing, missing


def test_every_counted_primitive_resolves(layers):
    missing = [p for p in layers.PRIMITIVES if not callable(T.__dict__.get(p))]
    assert not missing, missing


def test_install_then_restore_puts_every_original_back(layers):
    spans = sys.modules["spans"]
    patches = layers.install(spans.Tracer())
    assert patches.restore() == []


def test_traced_run_spans_local_train_per_round_and_adam_step_per_tick(layers, tmp_path):
    """The benchmark reads federation.client_updates, federation.steps and
    losses.calls from these spans; a trainer that bypassed any of these
    names would read 0. A tick takes one loss and one Adam step over all
    its groups."""
    from fedfocal import experiment as X

    cfg = X.preset_config("smoke").with_overrides({
        "partition.mode": "dirichlet", "partition.beta": 0.5,
        "partition.clients": 20, "federation.rounds": 2})
    bundle, _ = X.prepare(cfg)
    batch = cfg["federation.batch_size"]
    # each client's batch sizes; per tick one group per distinct size
    sequences = [[min(batch, n - s) for s in range(0, n, batch)]
                 for n in map(len, X.run_partition(cfg, bundle).client_indices) if n]
    ticks = max(map(len, sequences))
    groups = sum(len({seq[t] for seq in sequences if t < len(seq)}) for t in range(ticks))
    assert ticks < groups < sum(map(len, sequences))
    tracer = sys.modules["spans"].Tracer()
    patches = layers.install(tracer)
    try:
        X.run_experiment(cfg, tmp_path / "run")
    finally:
        assert patches.restore() == []
    names = [s[1] for s in tracer.spans]
    assert names.count("federation.local_train") == 2
    assert names.count("federation.adam_step") == 2 * ticks
    assert names.count("losses.batch_loss") == 2 * ticks


def test_traced_run_plans_once_and_trains_once_per_round(layers, tmp_path):
    """Under full participation a run builds its round plan once, so the
    benchmark's imbalance.coeff_calls reads one call per client, not one
    per client and round, while local_train still runs every round."""
    from fedfocal import experiment as X

    cfg = X.preset_config("smoke").with_overrides({"federation.rounds": 3})
    tracer = sys.modules["spans"].Tracer()
    patches = layers.install(tracer)
    try:
        X.run_experiment(cfg, tmp_path / "run")
    finally:
        assert patches.restore() == []
    names = [s[1] for s in tracer.spans]
    assert names.count("federation.local_train") == 3
    assert names.count("imbalance.dynamic_coefficient") == cfg["partition.clients"] == 3
