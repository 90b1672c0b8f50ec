"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to stream them).

Criterion 2 rebuilds each published whole dataset as the published training
pool plus a stratified test share of the published test size, runs
`build_partition` on it (clients cut 4:3:2 from the pool, the test set held
out first), and compares all four published columns.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fedfocal import experiment as X
from fedfocal import federation as F
from fedfocal import imbalance as I
from fedfocal import losses as L
from fedfocal import metrics as ME
from fedfocal import models as M
from fedfocal import partition as P
from fedfocal import tensor as T

from helpers import fd_gradient, max_rel_err

# published per-class training counts, rarity scores, and tail labels
TABLE_POOLS = {
    "rsna": ([9126, 5215, 4644, 2990, 528],
             [1.4658, 3.3151, 3.8456, 6.5261, 41.6193], [3, 4]),
    "ocular": ([987, 965, 933, 905],
               [2.8399, 2.9275, 3.0622, 3.1878], [3]),
    "isic": ([11768, 4338, 2992, 2363, 959, 226, 221],
             [0.9432, 4.2713, 6.6427, 8.6771, 22.8446, 100.1814, 102.4706],
             [5, 6]),
}
# published client/test totals those pools were cut into
TABLE_TOTALS = {
    "isic": (10163, 7623, 5081, 2552),
    "rsna": (10002, 7501, 5000, 2507),
}

# the paper's 0.4/0.3/0.2 client shares, as fractions of the training pool
CLIENT_RATIOS = (0.4 / 0.9, 0.3 / 0.9, 0.2 / 0.9)

TOY_VIT = M.ViTConfig(image_size=32, patch_size=8, channels=1, embed_dim=32,
                      num_heads=4, head_dim=8, ffn_dim=64, num_layers=2,
                      num_classes=5)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def smoke_runs():
    """Criterion 8's runs, shared with criterion 9: the 5-class long-tail
    dataset, 3 clients, 50 rounds, adaptive focal vs cross-entropy at five
    matched seeds."""
    started = time.monotonic()
    runs = {}
    for seed in range(5):
        for kind in ("adaptive_focal", "ce"):
            cfg = X.preset_config("smoke", seed=seed).with_overrides(
                {"loss.kind": kind})
            bundle = X.assemble_dataset(cfg)
            model = X.build_model(cfg, bundle)
            part = P.build_partition(bundle.labels, cfg.partition_spec(),
                                     bundle.num_classes)
            runs[(kind, seed)] = F.run_federation(
                bundle, part, model, cfg.loss_config(), cfg.federation_config())
    runs["elapsed"] = time.monotonic() - started
    return runs


def test_criterion_1_imbalance_score_reproduction():
    started = time.monotonic()
    worst = 0.0
    labels_ok = True
    for name, (counts, published, tail_expected) in TABLE_POOLS.items():
        total = sum(counts)
        scores = [I.imbalance_score(total, n) for n in counts]
        for got, want in zip(scores, published):
            worst = max(worst, abs(round(got, 4) - want))
        tail, _ = I.head_tail_split(scores, 0.3)
        labels_ok &= tail == tail_expected
    elapsed = time.monotonic() - started
    ok = worst == 0.0 and labels_ok and elapsed < 1.0
    report(1, ok, f"all 16 published rarity scores match to 4 decimals "
                  f"(max 4dp deviation {worst}), tail labels "
                  f"{'match' if labels_ok else 'DIFFER'}, {elapsed:.3f}s")


def test_criterion_2_partition_reproduction():
    started = time.monotonic()
    details = []
    ok = True
    for name, table in TABLE_TOTALS.items():
        pool_counts = TABLE_POOLS[name][0]
        c = len(pool_counts)
        # the three client columns add up to the training pool; the test set
        # is held out beside it, stratified the way holdout_test stratifies
        test_total = table[3]
        test_counts = P.largest_remainder(test_total, pool_counts)
        whole = [p + t for p, t in zip(pool_counts, test_counts)]
        labels = np.concatenate([np.full(n, i, dtype=np.int64)
                                 for i, n in enumerate(whole)])
        spec = P.PartitionSpec(mode="fixed", ratios=CLIENT_RATIOS,
                               test_fraction=test_total / sum(whole))
        result = P.build_partition(labels, spec, c)
        got = (tuple(len(s) for s in result.client_indices)
               + (len(result.test_indices),))
        diffs = [g - t for g, t in zip(got, table)]
        pool_ok = [sum(h.counts[k] for h in result.histograms)
                   for k in range(c)] == pool_counts
        ok &= all(abs(d) <= c for d in diffs) and pool_ok
        details.append(f"{name}: got {got} vs published {table} "
                       f"(diffs {diffs}, tolerance +-{c}), client classes "
                       f"{'sum to' if pool_ok else 'MISS'} the published pool")
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.3f}s"
           + ("" if ok else " [clients should be the published pool cut "
                            "4:3:2 and the test set a stratified holdout of "
                            "the published test size]"))


def test_criterion_3_loss_reduction_chain():
    rng = np.random.default_rng(0)
    chain_ok = True
    for _ in range(1000):
        b = int(rng.integers(1, 9))
        c = int(rng.integers(2, 7))
        raw = rng.normal(size=(b, c)) * rng.uniform(0.5, 4.0)
        labels = rng.integers(0, c, size=b)
        gamma = float(rng.uniform(0.0, 4.0))
        logits = lambda: T.Tensor(raw, dtype=np.float64)
        adaptive = L.adaptive_focal_loss(logits(), labels,
                                         coeffs=np.zeros(b), gamma=gamma)
        focal = L.focal_loss(logits(), labels, gamma=gamma)
        focal0 = L.focal_loss(logits(), labels, gamma=0.0)
        ce = L.cross_entropy(logits(), labels)
        chain_ok &= adaptive.data.tobytes() == focal.data.tobytes()
        chain_ok &= focal0.data.tobytes() == ce.data.tobytes()
        if not chain_ok:
            break
    report(3, chain_ok, "adaptive(c=0) == focal and focal(gamma=0) == "
                        "cross-entropy, bit for bit, on 1000 random batches")


def test_criterion_4_gradient_correctness_toy_vit():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    worst32 = worst64 = 0.0
    names = None
    for draw in range(20):
        params32 = M.init_vit_params(TOY_VIT, np.random.default_rng(100 + draw),
                                     dtype=np.float32)
        params64 = M.ModelParams([(n, T.parameter(t.data.astype(np.float64)))
                                  for n, t in params32])
        image = rng.normal(size=(1, 32, 32))
        label = [int(rng.integers(0, 5))]
        coeff = np.array([rng.uniform(0.0, 2.0)])
        if names is None:
            names = params32.names

        def loss_for(params, dtype):
            logits, _ = M.vit_forward(image.astype(dtype), params, TOY_VIT)
            return L.adaptive_focal_loss(T.reshape(logits, (1, 5)), label,
                                         coeffs=coeff, gamma=2.0)

        loss32 = loss_for(params32, np.float32)
        params32.zero_grads()
        T.backward(loss32)
        loss64 = loss_for(params64, np.float64)
        params64.zero_grads()
        T.backward(loss64)

        # two parameter groups per draw, cycling so all groups get checked
        for offset in (0, 1):
            name = names[(2 * draw + offset) % len(names)]
            p64 = params64[name]
            k = min(4, p64.data.size)
            idx = rng.choice(p64.data.size, size=k, replace=False)
            fd = fd_gradient(lambda: loss_for(params64, np.float64).item(),
                             p64.data, indices=idx).reshape(-1)[idx]
            tape64 = p64.grad.reshape(-1)[idx]
            tape32 = params32[name].grad.reshape(-1)[idx]
            worst64 = max(worst64, max_rel_err(tape64, fd, floor=1e-3))
            worst32 = max(worst32, max_rel_err(tape32, fd, floor=0.05))
    elapsed = time.monotonic() - started
    ok = worst64 < 1e-5 and worst32 < 1e-3 and elapsed < 120.0
    report(4, ok, f"adaptive-focal gradients through the 2-layer D=32 "
                  f"transformer vs central differences: max rel err "
                  f"{worst64:.2e} (64-bit, tol 1e-5), {worst32:.2e} "
                  f"(32-bit, tol 1e-3), {elapsed:.1f}s (limit 120s)")


def test_criterion_5_gradient_rectification():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        c1, c2 = rng.uniform(0.0, 50.0, size=2)
        row = rng.normal(size=(1, 6))
        logits = T.Tensor(np.repeat(row, 2, axis=0), requires_grad=True,
                          dtype=np.float64)
        label = int(rng.integers(0, 6))
        loss = L.adaptive_focal_loss(logits, [label, label],
                                     coeffs=[c1, c2], gamma=2.0)
        T.backward(loss)
        ratio = (np.linalg.norm(logits.grad[0]) / np.linalg.norm(logits.grad[1]))
        worst = max(worst, abs(ratio - (1 + c1) / (1 + c2)))
    report(5, worst < 1e-10,
           f"logit-gradient norm ratio equals (1+c1)/(1+c2); "
           f"max deviation {worst:.2e} (tol 1e-10)")


def test_criterion_6_aggregation_correctness(smoke_runs):
    # simplex constraint on every logged round of every smoke run
    simplex_worst = 0.0
    anti_ok = True
    for key, run in smoke_runs.items():
        if key == "elapsed":
            continue
        for rec in run.records:
            simplex_worst = max(simplex_worst,
                                abs(sum(rec.weights.values()) - 1.0))
            ids = sorted(rec.client_coeffs)
            coeffs = np.array([rec.client_coeffs[k] for k in ids])
            weights = np.array([rec.weights[k] for k in ids])
            order = np.argsort(coeffs, kind="stable")
            anti_ok &= list(np.argsort(-weights, kind="stable")) == list(order)
    # equal skew collapses to uniform averaging
    rng = np.random.default_rng(3)
    clients = M.ModelParams.from_flat([("w", (9,))],
                                      np.stack([rng.normal(size=9) for _ in range(3)]))
    a = F.aggregate(clients, F.aggregation_weights([2.0, 2.0, 2.0], eps=1e-6))
    b = F.aggregate(clients, np.full(3, 1.0 / 3.0))
    equal_gap = float(np.max(np.abs(a["w"].data - b["w"].data)))
    ok = simplex_worst < 1e-12 and anti_ok and equal_gap < 1e-12
    report(6, ok, f"weights sum to 1 within 1e-12 every round (worst "
                  f"{simplex_worst:.1e}), anti-monotone in client skew: "
                  f"{anti_ok}, equal-skew vs uniform gap {equal_gap:.1e}")


def test_criterion_7_determinism_serial_vs_concurrent(tmp_path):
    base = X.preset_config("smoke", seed=0).with_overrides({
        "dataset.synth.counts": (240, 120, 60, 24, 12),
        "federation.rounds": 5,
        "partition.mode": "dirichlet",
        "partition.beta": 0.5,
    })
    outputs = {}
    for tag, concurrent in (("serial", False), ("threads", True)):
        cfg = base.with_overrides({"federation.concurrent": concurrent})
        X.run_experiment(cfg, tmp_path / tag)
        outputs[tag] = (tmp_path / tag / "metrics.csv").read_bytes()
    ok = outputs["serial"] == outputs["threads"]
    report(7, ok, "serial and thread-pool client execution produce "
                  "byte-identical metrics CSVs")


def test_criterion_8_desk_scale_efficacy(smoke_runs):
    accs, tail_adaptive, tail_ce = [], [], []
    for seed in range(5):
        rd = smoke_runs[("adaptive_focal", seed)]
        rc = smoke_runs[("ce", seed)]
        md, mc = rd.records[-1].metrics, rc.records[-1].metrics
        accs.append(md.accuracy)
        tail_adaptive.append(float(np.mean([md.per_class["recall"][c]
                                        for c in rd.tail_classes])))
        tail_ce.append(float(np.mean([mc.per_class["recall"][c]
                                      for c in rc.tail_classes])))
    acc_med = float(np.median(accs))
    adaptive_med = float(np.median(tail_adaptive))
    ce_med = float(np.median(tail_ce))
    elapsed = smoke_runs["elapsed"]
    ok = acc_med >= 0.85 and adaptive_med >= ce_med and elapsed < 300.0
    report(8, ok, f"median accuracy {acc_med:.4f} (>= 0.85), median tail "
                  f"recall adaptive {adaptive_med:.4f} vs cross-entropy "
                  f"{ce_med:.4f}, all 10 runs in {elapsed:.0f}s (limit 300s)")


def test_criterion_9_gradient_norm_analysis(smoke_runs):
    fractions = []
    for seed in range(5):
        rd = smoke_runs[("adaptive_focal", seed)]
        rc = smoke_runs[("ce", seed)]
        per_round = [float(a.tail_grad_norm >= b.tail_grad_norm)
                     for a, b in zip(rd.records, rc.records)
                     if a.tail_grad_norm is not None and b.tail_grad_norm is not None]
        fractions.append(float(np.mean(per_round)))
    med = float(np.median(fractions))
    report(9, med >= 0.70,
           f"tail-group gradient norm under the adaptive loss >= "
           f"cross-entropy in a median {med:.0%} of rounds (needs >= 70%)")


def test_criterion_10_small_instance_oracles():
    # rank-based AUC equals exhaustive pair counting on tiny sets
    rng = np.random.default_rng(4)
    auc_ok = True
    for _ in range(60):
        n = int(rng.integers(2, 11))
        labels = rng.integers(0, 2, size=n)
        scores = np.round(rng.uniform(size=(n, 2)), 1)
        _, detail = ME.auc_ovr(scores, labels)
        for i in range(2):
            pos = labels == i
            if pos.sum() in (0, n):
                continue
            pairs = 0.0
            count = 0
            for a, b in itertools.product(np.flatnonzero(pos),
                                          np.flatnonzero(~pos)):
                count += 1
                sa, sb = scores[a, i], scores[b, i]
                pairs += 1.0 if sa > sb else (0.5 if sa == sb else 0.0)
            auc_ok &= math.isclose(detail["auc"][i], pairs / count,
                                   rel_tol=0, abs_tol=1e-12)

    # two-layer rollout equals a hand-unrolled matrix product
    n = 4
    maps, grads = [], []
    for _ in range(2):
        layer = [rng.uniform(size=(n + 1, n + 1)) for _ in range(3)]
        maps.append([m / m.sum(axis=1, keepdims=True) for m in layer])
        grads.append([rng.normal(size=(n + 1, n + 1)) for _ in range(3)])
    mask = ME.attention_rollout(maps, grads)
    mats = []
    for lm, lg in zip(maps, grads):
        fused = sum(np.maximum(m * g, 0.0) for m, g in zip(lm, lg)) / len(lm)
        fused += np.eye(n + 1)
        fused /= fused.sum(axis=1, keepdims=True)
        mats.append(fused)
    expected = (mats[1] @ mats[0])[0, 1:]
    expected = (expected - expected.min()) / (expected.max() - expected.min())
    rollout_gap = float(np.max(np.abs(mask - expected)))
    ok = auc_ok and rollout_gap < 1e-10
    report(10, ok, f"AUC == pair counting on <=10-sample sets: {auc_ok}; "
                   f"2-layer rollout vs hand product gap {rollout_gap:.1e} "
                   f"(tol 1e-10)")
