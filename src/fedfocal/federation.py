"""Federated training loop: broadcast, local optimization, statistics
exchange, and imbalance-aware aggregation.

One communication round proceeds as: the server broadcasts the global
parameters; every selected client recomputes its skew statistic, trains for
the configured local epochs with moment-reset Adam, and returns its updated
parameters plus per-class gradient-norm tallies; the server recomputes the
global class-rarity vector from the client histograms, derives aggregation
weights, averages the parameter sets in fixed client order, and evaluates
the new global model on the held-out test set.

Determinism: every random stream is derived from the master seed together
with its role and (round, client) coordinates, and the selected clients
train one after another in ascending index order, which is also the order
aggregation consumes them in, so reruns are identical bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import losses as L
from . import metrics as ME
from . import tensor as T
from .errors import ConfigError, ContractError
from .imbalance import (ClassHistogram, client_imbalance, dynamic_coefficient,
                        global_class_imbalance, head_tail_split, imbalance_score)
from .models import ModelParams, check_manifests_match
from .partition import PartitionResult, PartitionSpec, build_partition

AGGREGATION_MODES = ("inverse_imbalance", "sample_size", "uniform")

# seed-derivation roles; streams are SeedSequence([master, role, *coords])
_INIT_ROLE = 1
_SELECT_ROLE = 2
_CLIENT_ROLE = 3


@dataclass(frozen=True)
class FederationConfig:
    num_clients: int = 3
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    client_fraction: float = 1.0
    aggregation: str = "inverse_imbalance"
    seed: int = 0
    tail_fraction: float = 0.3

    def __post_init__(self):
        if min(self.num_clients, self.rounds, self.local_epochs, self.batch_size) < 1:
            raise ConfigError("clients, rounds, epochs, and batch size must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ConfigError(f"client_fraction must lie in (0, 1], got {self.client_fraction}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}; "
                              f"expected one of {AGGREGATION_MODES}")
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ConfigError("tail_fraction must lie in (0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), "
                              f"got {self.beta1} and {self.beta2}")
        if not self.adam_eps > 0.0:
            raise ConfigError(f"adam_eps must be > 0, got {self.adam_eps}")


@dataclass
class RoundRecord:
    round_index: int
    selected: list[int]
    client_coeffs: dict[int, float]
    weights: dict[int, float]
    metrics: ME.MetricReport
    per_class_grad_norms: list[float | None]
    tail_grad_norm: float | None
    head_grad_norm: float | None
    gamma: float
    train_loss: float
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.weights:
            total = sum(self.weights.values())
            if abs(total - 1.0) > 1e-12:
                raise ContractError(f"aggregation weights sum to {total!r}, not 1")


@dataclass
class FederationRun:
    records: list[RoundRecord]
    params: ModelParams
    class_coeffs: list[float]
    tail_classes: list[int]
    head_classes: list[int]


def derive_rng(master_seed: int, role: int, *coords: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, role, *coords]))


class Adam:
    """Adaptive-moment optimizer over one parameter set's flat buffer;
    moments start at zero on construction, so one instance per round gives
    the stateless-across-rounds behavior the protocol requires."""

    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self) -> None:
        """Update moments and parameters in place, in the operand order of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p = p - lr*m_hat / (sqrt(v_hat) + eps).

        One pass over the whole buffer: every op is elementwise, so each
        scalar gets the bits a per-tensor loop would give it. A tensor
        without a gradient keeps its value and its moments."""
        self.t += 1
        tensors = self.params.tensors()
        present = [i for i, t in enumerate(tensors) if t.grad is not None]
        if not present:
            return
        g = np.concatenate([tensors[i].grad.reshape(-1) for i in present])
        p, m, v = self.params.flat, self.m, self.v
        live = None
        if len(present) < len(tensors):
            ends = np.cumsum([t.data.size for t in tensors])
            live = np.concatenate([np.arange(ends[i] - tensors[i].data.size, ends[i])
                                   for i in present])
            p, m, v = p[live], m[live], v[live]
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        m_hat = m / (1 - self.beta1 ** self.t)
        denom = np.sqrt(v / (1 - self.beta2 ** self.t))
        denom += self.eps
        p -= self.lr * m_hat / denom
        if live is not None:
            self.params.flat[live], self.m[live], self.v[live] = p, m, v


@dataclass
class _LocalResult:
    client_id: int
    params: ModelParams
    client_coeff: float
    sample_count: int
    norm_sums: np.ndarray
    norm_counts: np.ndarray
    loss_sum: float
    batch_count: int


def local_train(model, global_params: ModelParams, features: np.ndarray,
                labels: np.ndarray, hist: ClassHistogram, class_coeffs: list[float],
                loss_cfg: L.LossConfig, fed_cfg: FederationConfig,
                rng: np.random.Generator, client_id: int = 0) -> _LocalResult:
    """One client's round: clone the broadcast, run E epochs of minibatch
    Adam, and tally per-class logit-gradient norms along the way."""
    params = global_params.clone()
    c_k = client_imbalance(hist, loss_cfg.epsilon)
    opt = Adam(params, fed_cfg.learning_rate, fed_cfg.beta1,
               fed_cfg.beta2, fed_cfg.adam_eps)
    num_classes = hist.num_classes
    norm_sums = np.zeros(num_classes)
    norm_counts = np.zeros(num_classes, dtype=np.int64)
    loss_sum = 0.0
    batch_count = 0
    n = labels.size
    gamma_param = L.trainable_gamma(params, loss_cfg)
    # elementwise in the labels, so indexing it per batch gives each batch's
    # coefficients bit for bit
    shard_coeffs = None
    if loss_cfg.kind == "adaptive_focal":
        shard_coeffs = dynamic_coefficient(c_k, class_coeffs, labels, loss_cfg.blend)
    for _ in range(fed_cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, fed_cfg.batch_size):
            batch_idx = order[start:start + fed_cfg.batch_size]
            x = features[batch_idx]
            y = labels[batch_idx]
            coeffs = None if shard_coeffs is None else shard_coeffs[batch_idx]
            logits = model.batch_logits(params, x)
            loss = L.batch_loss(logits, y, loss_cfg, coeffs=coeffs,
                                gamma_param=gamma_param)
            params.zero_grads()
            T.backward(loss)
            norms = ME.per_sample_logit_grad_norms(logits)
            # unbuffered, in batch order: the sums of a per-sample loop
            np.add.at(norm_sums, y, norms)
            np.add.at(norm_counts, y, 1)
            opt.step()
            if gamma_param is not None:
                L.clamp_gamma(params, loss_cfg)
            loss_sum += loss.item()
            batch_count += 1
    return _LocalResult(client_id, params, c_k, n, norm_sums, norm_counts,
                        loss_sum, batch_count)


def aggregation_weights(client_coeffs, eps: float) -> np.ndarray:
    """Normalized inverse of (coeff + eps): balanced clients weigh more."""
    coeffs = np.asarray(client_coeffs, dtype=np.float64)
    if np.any(coeffs < 0):
        raise ContractError("client imbalance coefficients must be >= 0")
    w = 1.0 / (coeffs + eps)
    return w / w.sum()


def sample_size_weights(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    return counts / counts.sum()


def aggregate(params_list: list[ModelParams], weights) -> ModelParams:
    """Convex combination of the flat buffers in fixed client-index order.

    Computed anchored at the first participant, theta_0 + sum_k w_k *
    (theta_k - theta_0), which is the same convex combination but makes a
    unanimous parameter set an exact fixed point bit for bit. Every op is
    elementwise, so each scalar gets the bits of a per-tensor loop.
    """
    if not params_list:
        raise ContractError("nothing to aggregate")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != len(params_list):
        raise ContractError(f"{weights.size} weights for {len(params_list)} clients")
    check_manifests_match(params_list)
    first = params_list[0]
    anchor = first.flat.astype(np.float64)
    acc = anchor.copy()
    for w, params in zip(weights[1:], params_list[1:]):
        acc += w * (params.flat.astype(np.float64) - anchor)
    return ModelParams.from_flat(first.manifest(), acc.astype(first.flat.dtype))


def eval_scores(model, params: ModelParams, features: np.ndarray,
                batch_size: int = 512) -> np.ndarray:
    """Softmax class scores without gradient tracking."""
    frozen = ModelParams.from_flat(params.manifest(), params.flat, requires_grad=False)
    rows = []
    for start in range(0, features.shape[0], batch_size):
        logits = model.batch_logits(frozen, features[start:start + batch_size]).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        ex = np.exp(shifted)
        rows.append(ex / ex.sum(axis=1, keepdims=True))
    return np.concatenate(rows)


def initial_params(model, loss_cfg: L.LossConfig, seed: int) -> ModelParams:
    """The round-0 global parameters; gamma is a parameter exactly when it
    is trainable."""
    gamma_init = loss_cfg.gamma if loss_cfg.gamma_trainable else None
    return model.init_params(derive_rng(seed, _INIT_ROLE), gamma_init=gamma_init)


def _select_clients(fed_cfg: FederationConfig, round_index: int,
                    eligible: list[int]) -> list[int]:
    if fed_cfg.client_fraction >= 1.0:
        return list(eligible)
    m = max(1, int(round(fed_cfg.client_fraction * len(eligible))))
    rng = derive_rng(fed_cfg.seed, _SELECT_ROLE, round_index)
    return sorted(rng.choice(eligible, size=m, replace=False).tolist())


def run_federation(bundle, partition: PartitionResult, model,
                   loss_cfg: L.LossConfig, fed_cfg: FederationConfig) -> FederationRun:
    """Full multi-round protocol; see the module docstring for the order of
    operations inside one round."""
    if len(partition.client_indices) != fed_cfg.num_clients:
        raise ConfigError(f"partition has {len(partition.client_indices)} clients, "
                          f"config says {fed_cfg.num_clients}")
    features, labels = bundle.features, bundle.labels
    num_classes = bundle.num_classes
    shards = [(features[list(idx)], labels[list(idx)])
              for idx in partition.client_indices]
    test_idx = list(partition.test_indices)
    if not test_idx:
        raise ConfigError("partition has no global test set to evaluate on")
    test_x, test_y = features[test_idx], labels[test_idx]

    global_params = initial_params(model, loss_cfg, fed_cfg.seed)

    pooled = partition.histograms[0]
    for h in partition.histograms[1:]:
        pooled = pooled.merge(h)
    present = [c for c, n in enumerate(pooled.counts) if n > 0]
    scores = [imbalance_score(pooled.total, pooled.counts[c]) for c in present]
    tail_pos, head_pos = head_tail_split(scores, fed_cfg.tail_fraction)
    tail_classes = [present[i] for i in tail_pos]
    head_classes = [present[i] for i in head_pos]

    eligible = [k for k in range(fed_cfg.num_clients) if shards[k][1].size > 0]
    skipped = [k for k in range(fed_cfg.num_clients) if k not in eligible]
    if not eligible:
        raise ConfigError("every client shard is empty; nothing to train")

    records: list[RoundRecord] = []
    class_coeffs: list[float] = []
    for t in range(1, fed_cfg.rounds + 1):
        selected = _select_clients(fed_cfg, t, eligible)
        warnings = [f"client {k} skipped: empty shard" for k in skipped]

        # the class-rarity vector each client trains with this round
        class_coeffs = global_class_imbalance(
            [partition.histograms[k] for k in selected], loss_cfg.epsilon)

        # selected is ascending, so results arrive in aggregation order
        results = [local_train(model, global_params, shards[k][0], shards[k][1],
                               partition.histograms[k], class_coeffs, loss_cfg,
                               fed_cfg, derive_rng(fed_cfg.seed, _CLIENT_ROLE, t, k),
                               client_id=k)
                   for k in selected]

        coeffs = [r.client_coeff for r in results]
        if fed_cfg.aggregation == "inverse_imbalance":
            weights = aggregation_weights(coeffs, loss_cfg.epsilon)
        elif fed_cfg.aggregation == "sample_size":
            weights = sample_size_weights([r.sample_count for r in results])
        else:
            weights = np.full(len(results), 1.0 / len(results))
        global_params = aggregate([r.params for r in results], weights)

        scores_test = eval_scores(model, global_params, test_x)
        report = ME.evaluate_scores(scores_test, test_y, num_classes)

        norm_sums = np.zeros(num_classes)
        norm_counts = np.zeros(num_classes, dtype=np.int64)
        for r in results:
            norm_sums += r.norm_sums
            norm_counts += r.norm_counts
        per_class = [float(norm_sums[c] / norm_counts[c]) if norm_counts[c] else None
                     for c in range(num_classes)]

        def group_mean(group: list[int]) -> float | None:
            total = sum(norm_counts[c] for c in group)
            if total == 0:
                return None
            return float(sum(norm_sums[c] for c in group) / total)

        total_batches = sum(r.batch_count for r in results)
        records.append(RoundRecord(
            round_index=t,
            selected=list(selected),
            client_coeffs={r.client_id: r.client_coeff for r in results},
            weights={r.client_id: float(w) for r, w in zip(results, weights)},
            metrics=report,
            per_class_grad_norms=per_class,
            tail_grad_norm=group_mean(tail_classes),
            head_grad_norm=group_mean(head_classes),
            gamma=L.gamma_value(global_params, loss_cfg),
            train_loss=float(sum(r.loss_sum for r in results) / total_batches)
            if total_batches else float("nan"),
            warnings=warnings,
        ))
    return FederationRun(records, global_params, class_coeffs,
                         tail_classes, head_classes)


def centralized_partition(bundle, val_fraction: float, seed: int) -> PartitionResult:
    """One shard holding the whole training pool beside a stratified
    validation split."""
    spec = PartitionSpec(mode="fixed", ratios=(1.0,), num_clients=1,
                         test_fraction=val_fraction, seed=seed)
    return build_partition(bundle.labels, spec, bundle.num_classes)


def run_centralized(bundle, model, loss_cfg: L.LossConfig,
                    fed_cfg: FederationConfig,
                    val_fraction: float = 0.1) -> FederationRun:
    """Single-trainer reference: one shard holding the whole training pool,
    a stratified validation split, and one synchronization per epoch (so a
    K=1 federation with matched total epochs follows the same trajectory)."""
    partition = centralized_partition(bundle, val_fraction, fed_cfg.seed)
    cfg = replace(fed_cfg, num_clients=1, client_fraction=1.0,
                  aggregation="uniform")
    return run_federation(bundle, partition, model, loss_cfg, cfg)
