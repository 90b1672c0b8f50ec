"""The layers the traced run measures: which public functions are wrapped,
how spans become per-layer metrics, and which end-to-end metric on which
workload each per-layer metric is expected to move.

The layers are the modules of `src/fedfocal/`. Times and counts are per
repetition, that is per training run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from spans import Patches, Tracer, self_times

# (module, attribute or Class.method, span name)
SPANNED = (
    ("fedfocal.experiment", "run_experiment", "experiment.run_experiment"),
    ("fedfocal.experiment", "assemble_dataset", "data.assemble_dataset"),
    ("fedfocal.partition", "build_partition", "partition.build_partition"),
    ("fedfocal.imbalance", "dynamic_coefficient", "imbalance.dynamic_coefficient"),
    ("fedfocal.models", "MlpClassifier.batch_logits", "models.batch_logits"),
    ("fedfocal.models", "ViTClassifier.batch_logits", "models.batch_logits"),
    ("fedfocal.losses", "batch_loss", "losses.batch_loss"),
    ("fedfocal.tensor", "backward", "tensor.backward"),
    ("fedfocal.federation", "run_federation", "federation.run_federation"),
    ("fedfocal.federation", "local_train", "federation.local_train"),
    ("fedfocal.federation", "Adam.step", "federation.adam_step"),
    ("fedfocal.federation", "aggregate", "federation.aggregate"),
    ("fedfocal.federation", "eval_scores", "federation.eval_scores"),
    ("fedfocal.metrics", "evaluate_scores", "metrics.evaluate_scores"),
    ("fedfocal.metrics", "auc_ovr", "metrics.auc_ovr"),
    ("fedfocal.metrics", "per_sample_logit_grad_norms", "metrics.grad_norms"),
)

# Tensor primitives that each record one tape node when an operand needs a
# gradient. `mean` is left out: it records its nodes through sum_ and scale.
# Their calls are counted under the innermost open local_train or
# eval_scores call.
PRIMITIVES = ("matmul", "transpose", "reshape", "add", "sub", "mul", "scale",
              "relu", "log", "power", "clamp", "concat", "slice_axis", "sum_",
              "softmax", "layer_norm")

TRAIN_SPAN = "federation.local_train"

EVAL_SPAN = "federation.eval_scores"
MARKED = (TRAIN_SPAN, EVAL_SPAN)

# name -> (unit, better, what it measures, which end-to-end metric on which
#          workload it should move, where it should stay flat)
METRICS = {
    "data.assemble_s": ("s", "lower", "experiment.assemble_dataset", "setup_s on both", "-"),
    "partition.build_s": ("s", "lower", "build_partition", "setup_s on both", "-"),
    "imbalance.coeff_s": ("s", "lower", "dynamic_coefficient, once per training sample",
                          "round_s.p50 on both", "-"),
    "imbalance.coeff_calls": ("count", "lower", "calls of dynamic_coefficient",
                              "exact count", "-"),
    "models.train_forward_s": ("s", "lower", "batch_logits outside eval_scores",
                               "round_s.p50 on both (~9% on mlp-smoke)", "-"),
    "models.train_forward_calls": ("count", "lower", "batch_logits calls outside eval_scores",
                                   "exact count", "-"),
    "models.eval_forward_s": ("s", "lower", "batch_logits inside eval_scores",
                              "round_s.p50 (small on both MLP workloads)", "-"),
    "losses.loss_s": ("s", "lower", "losses.batch_loss",
                      "round_s.p50 on mlp-smoke (~28%) and dir20-threads", "-"),
    "losses.calls": ("count", "lower", "calls of losses.batch_loss", "exact count", "-"),
    "tensor.backward_s": ("s", "lower", "tensor.backward",
                          "round_s.p50 on mlp-smoke (~23%) and dir20-threads", "-"),
    "tensor.tape_nodes_per_step": ("nodes/step", "lower",
                                   "calls of the node-recording tensor primitives inside "
                                   "local_train, divided by federation.steps",
                                   "round_s.p50 on both", "-"),
    "tensor.eval_calls_per_forward": ("calls", "lower",
                                      "calls of the same primitives inside eval_scores, "
                                      "divided by its calls", "exact count", "-"),
    "federation.local_train_s": ("s", "lower", "local_train, summed over clients",
                                 "round_s.p50 on both", "-"),
    "federation.local_train_self_s": ("s", "lower",
                                      "local_train minus its wrapped children: batch gather, "
                                      "per-sample tally loop, clone",
                                      "round_s.p50 on mlp-smoke (~11%)", "-"),
    "federation.adam_s": ("s", "lower", "Adam.step",
                          "round_s.p50 on mlp-smoke (~11%) and dir20-threads", "-"),
    "federation.steps": ("count", "lower", "calls of Adam.step", "exact count", "-"),
    "federation.aggregate_s": ("s", "lower", "federation.aggregate",
                               "round_s.p50 on dir20-threads (20 parameter sets)",
                               "mlp-smoke"),
    "federation.client_updates": ("count", "lower", "calls of local_train", "exact count",
                                  "-"),
    "federation.client_overlap": ("ratio", "lower",
                                  "sum of local_train span time / wall time of each round's "
                                  "client phase; above 1 on threads it is mostly GIL waiting",
                                  "round_s.p50 on dir20-threads",
                                  "mlp-smoke (1.0 when serial)"),
    "metrics.evaluate_scores_s": ("s", "lower", "metrics.evaluate_scores",
                                  "round_s.p50 on mlp-smoke (~12%) and dir20-threads", "-"),
    "metrics.auc_s": ("s", "lower", "metrics.auc_ovr",
                      "round_s.p50 on mlp-smoke and dir20-threads", "-"),
    "metrics.roc_discard_ratio": ("ratio", "lower",
                                  "share of auc_ovr calls made from evaluate_scores, whose ROC "
                                  "point lists are thrown away",
                                  "round_s.p50 on mlp-smoke and dir20-threads", "-"),
    "metrics.grad_norms_s": ("s", "lower", "per_sample_logit_grad_norms",
                             "round_s.p50 on mlp-smoke (~2%)", "-"),
    "experiment.artifacts_s": ("s", "lower",
                               "run_experiment after run_federation returns: imbalance "
                               "report, rounds.jsonl, metrics.csv, checkpoint, summary",
                               "none of the bounded metrics (after the last round)", "-"),
    "src_lines": ("lines", "lower", "line count of src/fedfocal/*.py", "exact count", "-"),
    "trace.overhead": ("ratio", "lower",
                       "fastest traced repetition / fastest untraced repetition - 1",
                       "-", "-"),
}


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def install(tracer: Tracer) -> Patches:
    """Wrap every target; the caller restores through the returned Patches."""
    patches = Patches()
    for module_name, attr, name in SPANNED:
        owner, leaf = _resolve(module_name, attr)
        fn = owner.__dict__[leaf]
        wrapper = (tracer.marking if name in MARKED else tracer.wrap)(fn, name)
        patches.replace(owner, leaf, wrapper, package="fedfocal")
    tensor = importlib.import_module("fedfocal.tensor")
    for prim in PRIMITIVES:
        fn = tensor.__dict__[prim]
        patches.replace(tensor, prim, tracer.counting(fn), package="fedfocal")
    return patches


def _rounds_overlap(spans) -> float:
    """Sum of local_train time over the wall time of each round's client
    phase. A round's clients are the local_train spans that start before
    that round's aggregate."""
    trains = sorted((s for s in spans if s[1] == TRAIN_SPAN), key=lambda s: s[3])
    aggs = sorted(s[3] for s in spans if s[1] == "federation.aggregate")
    busy = wall = 0.0
    i = 0
    for agg_start in aggs:
        phase = []
        while i < len(trains) and trains[i][3] < agg_start:
            phase.append(trains[i])
            i += 1
        if phase:
            busy += sum(s[4] - s[3] for s in phase)
            wall += max(s[4] for s in phase) - min(s[3] for s in phase)
    return busy / wall if wall > 0 else 0.0


def summarize(spans, counts: dict, reps: int) -> dict[str, float]:
    """Per-layer metrics per repetition from the spans of `reps` repetitions."""
    by_id = {s[0]: s for s in spans}
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        busy[s[1]] += s[4] - s[3]
        calls[s[1]] += 1

    def parent_name(s):
        parent = by_id.get(s[2])
        return parent[1] if parent else ""

    forwards = [s for s in spans if s[1] == "models.batch_logits"]
    eval_fw = [s for s in forwards if parent_name(s) == EVAL_SPAN]
    train_fw_s = sum(s[4] - s[3] for s in forwards) - sum(s[4] - s[3] for s in eval_fw)
    selfs = self_times(spans)
    auc = [s for s in spans if s[1] == "metrics.auc_ovr"]
    discarded = sum(1 for s in auc if parent_name(s) == "metrics.evaluate_scores")

    artifacts = 0.0
    for s in spans:
        if s[1] == "federation.run_federation" and parent_name(s) == "experiment.run_experiment":
            artifacts += by_id[s[2]][4] - s[4]

    steps = calls["federation.adam_step"]
    raw = {
        "data.assemble_s": busy["data.assemble_dataset"],
        "partition.build_s": busy["partition.build_partition"],
        "imbalance.coeff_s": busy["imbalance.dynamic_coefficient"],
        "imbalance.coeff_calls": calls["imbalance.dynamic_coefficient"],
        "models.train_forward_s": train_fw_s,
        "models.train_forward_calls": len(forwards) - len(eval_fw),
        "models.eval_forward_s": sum(s[4] - s[3] for s in eval_fw),
        "losses.loss_s": busy["losses.batch_loss"],
        "losses.calls": calls["losses.batch_loss"],
        "tensor.backward_s": busy["tensor.backward"],
        "federation.local_train_s": busy[TRAIN_SPAN],
        "federation.local_train_self_s": sum(selfs[s[0]] for s in spans if s[1] == TRAIN_SPAN),
        "federation.adam_s": busy["federation.adam_step"],
        "federation.steps": steps,
        "federation.aggregate_s": busy["federation.aggregate"],
        "federation.client_updates": calls[TRAIN_SPAN],
        "metrics.evaluate_scores_s": busy["metrics.evaluate_scores"],
        "metrics.auc_s": busy["metrics.auc_ovr"],
        "metrics.grad_norms_s": busy["metrics.grad_norms"],
        "experiment.artifacts_s": artifacts,
    }
    out = {k: v / reps for k, v in raw.items()}
    for k, v in out.items():
        if METRICS[k][0] == "count" and v == int(v):
            out[k] = int(v)
    out["tensor.tape_nodes_per_step"] = counts.get(TRAIN_SPAN, 0) / steps if steps else 0.0
    evals = calls[EVAL_SPAN]
    out["tensor.eval_calls_per_forward"] = counts.get(EVAL_SPAN, 0) / evals if evals else 0.0
    out["federation.client_overlap"] = _rounds_overlap(spans)
    out["metrics.roc_discard_ratio"] = discarded / len(auc) if auc else 0.0
    return out
