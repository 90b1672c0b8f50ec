"""Federated training loop: broadcast, local optimization, statistics
exchange, and imbalance-aware aggregation.

One communication round proceeds as: the server broadcasts the global
parameters; every selected client trains for the configured local epochs
with moment-reset Adam, its loss weighted by its skew statistic and the
global class-rarity vector of the selected clients' histograms, and tallies
per-class gradient norms; the server derives aggregation weights, averages
the trained parameters in fixed client order, and evaluates the new global
model on the held-out test set.

A round is one [K, P] stack from broadcast to aggregate, one row per
selected client, and so are its Adam moments. Epoch by epoch, at each tick,
each run of adjacent rows whose next minibatches have the same size takes
one stacked forward on its slice; the tick takes one loss-and-gradient
call over all its groups' samples, each group's backward, and one Adam
step on the rows that stepped (``local_train``); the MLP's tick records no
tape node. ``aggregate`` reads the trained rows. No client's
arithmetic depends on another's, so each row ends with the bits it would
have training alone. What depends only on the selection (statistics,
labels, features, schedule, the stack and its views, batch buffers, and
each tick's operands bound to them, with the model and configs they were
bound with) is a ``RoundPlan``, rebuilt only when the selection changes:
once a run under full participation. ``local_train`` reads only its plan,
the broadcast and the round's streams. The test set is bound once a run,
for ``eval_scores``.

Determinism: every random stream is derived from the master seed together
with its role and (round, client) coordinates, each client draws its
minibatches from its own stream, and aggregation consumes the clients in
ascending index order, so reruns are identical bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import losses as L
from . import metrics as ME
from . import tensor as T
from .errors import ConfigError, ContractError, NumericError
from .imbalance import (ClassHistogram, client_imbalance, dynamic_coefficient,
                        global_class_imbalance, head_tail_split, imbalance_score)
from .models import ModelParams
from .partition import PartitionResult

AGGREGATION_MODES = ("inverse_imbalance", "sample_size", "uniform")

# seed-derivation roles; streams are SeedSequence([master, role, *coords])
_INIT_ROLE = 1
_SELECT_ROLE = 2
_CLIENT_ROLE = 3


@dataclass(frozen=True)
class FederationConfig:
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
        if min(self.rounds, self.local_epochs, self.batch_size) < 1:
            raise ConfigError("rounds, epochs, and batch size must be >= 1")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ConfigError(f"client_fraction must lie in (0, 1], got {self.client_fraction}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}; "
                              f"expected one of {AGGREGATION_MODES}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 < self.tail_fraction < 1.0:
            raise ConfigError("tail_fraction must lie in (0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), "
                              f"got {self.beta1} and {self.beta2}")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if self.seed < 0:
            raise ConfigError(f"federation seed must be >= 0, got {self.seed}")


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
    tail_classes: list[int]
    head_classes: list[int]


def derive_rng(master_seed: int, role: int, *coords: int) -> np.random.Generator:
    words = [master_seed, role, *coords]
    if 0 <= min(words) and max(words) < 2**32:  # the same words, which SeedSequence reads faster
        words = np.array(words, np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


class Adam:
    """Adaptive-moment optimizer over one parameter set's flat buffer, or
    over a [K, P] stack of them with one row, one moment pair and one step
    count per client. Moments start at zero on construction, so one
    instance per round, or one ``reset`` before each, gives the
    stateless-across-rounds behavior the protocol requires."""

    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = np.zeros(params.flat.shape[:-1], dtype=np.int64)
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        # row t: the correction 1 - b**t of step t; no count exceeds the calls
        self._calls = 0
        self._c1 = self._c2 = np.empty((0, 1), dtype=params.flat.dtype)

    def reset(self) -> None:
        """Moments and step counts back to zero, as on construction."""
        self.t[...], self.m[...], self.v[...], self._calls = 0, 0, 0, 0

    def step(self, rows: slice | None = None) -> None:
        """Update moments and parameters in place, in the operand order of
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p = p - lr*m_hat / (sqrt(v_hat) + eps).

        Every row steps, or only rows, a slice of the stack, where they lie,
        from the set's ``grad`` buffer as it stands; a slot nothing wrote
        holds zeros, which keep a value with zero moments. Each row's bias
        corrections 1 - b**t, looked up by its step count in tables of the
        Python floats a lone step would compute and cast to the parameter
        dtype, divide the row as a column. Every op is elementwise, so each
        scalar gets the bits a per-tensor, per-client loop would give it."""
        params, sel = self.params, ... if rows is None else rows
        counts = self.t[sel]
        counts += 1
        self._calls += 1
        if self._calls >= len(self._c1):
            self._c1, self._c2 = (np.array([[1 - b ** t] for t in range(2 * self._calls + 1)],
                                           dtype=self.m.dtype) for b in (self.beta1, self.beta2))
        p, g, m, v = params.flat[sel], params.grad[sel], self.m[sel], self.v[sel]
        c1, c2 = self._c1.take(counts, axis=0), self._c2.take(counts, axis=0)
        # in place where the operands allow; a product's operand order does not change its bits
        m *= self.beta1
        step = g * (1 - self.beta1)
        m += step
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=step)
        step *= g
        v += step
        np.divide(m, c1, out=step)  # m_hat
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += self.eps
        step *= self.lr
        step /= denom
        p -= step


@dataclass
class RoundResult:
    """One round's trained [K, P] stack and per-client statistics, rows in client order."""
    params: ModelParams
    client_coeffs: list[float]
    norm_sums: np.ndarray  # [K, C] per-class sums of logit-gradient norms
    norm_counts: np.ndarray  # [K, C] samples tallied into them
    loss_sums: list[float]
    batch_counts: list[int]  # optimizer steps each row took


def _permutations(sizes: list[int], fed_cfg: FederationConfig,
                  rngs: list[np.random.Generator]) -> np.ndarray:
    """Each client's sample order of each local epoch as one [E, K, n_max]
    array of indices into the round's concatenated shards: one permutation
    of its n samples per epoch from its own stream, padded with zeros.
    Batch t of a client is its epoch's order cut at t * batch_size."""
    perms = np.zeros((fed_cfg.local_epochs, len(sizes), max(sizes, default=0)), dtype=np.int64)
    for k, (n, offset, rng) in enumerate(zip(sizes, itertools.accumulate([0] + sizes), rngs)):
        for epoch in range(fed_cfg.local_epochs):
            perms[epoch, k, :n] = offset + rng.permutation(n)
    return perms


class Group(NamedTuple):
    """Adjacent rows whose batches at a tick have one size, bound once per plan."""
    rows: slice
    x: np.ndarray  # their [K', B, ...] samples: a view of the plan's batch buffer
    forward: Callable[[], np.ndarray]  # their logits, bound to the rows' view and x
    backward: Callable[[np.ndarray], None]  # the logits' gradient into the rows' slots


class Tick(NamedTuple):
    """One position in the clients' shared batch schedule, bound once per plan."""
    rows: slice  # the rows that step: a prefix of the stack
    groups: list[Group]
    loss: L.TickLoss  # bound to the groups' targets, back to back


@dataclass
class RoundPlan:
    """What a round's training needs that stays fixed while the selected
    clients do; ``plan_round`` builds it. A round only copies the broadcast
    into ``stack``, resets ``opt``, draws the clients' sample orders and
    gathers its batches into ``x`` and ``batches``, which every tick's
    bound operands view."""
    model: object
    loss_cfg: L.LossConfig
    fed_cfg: FederationConfig
    client_ids: list[int]
    client_coeffs: list[float]
    features: np.ndarray  # the shards, concatenated and cast to the model dtype
    targets: L.Targets
    sizes: list[int]
    order: list[int]  # the clients in row order
    row_of: np.ndarray  # each client's row, in client order
    x: np.ndarray  # every step's samples, in step order
    batches: L.Targets  # their targets
    inv_batch: np.ndarray  # [N]: dtype(1 / B) of each one's batch of B
    scale: np.ndarray  # [N]: that times its weight, the loss gradient's seed
    nll: np.ndarray  # [N]: each one's -log(p_t), which its tick writes
    focal: np.ndarray  # [N]: and its focal factor
    places: list[tuple[np.ndarray, np.ndarray]]  # per batch size, its steps and their samples
    step_rows: np.ndarray  # each step's row, in step order
    epochs: list[list[Tick]]  # per epoch, its ticks
    gather_at: np.ndarray  # each trained sample's place in the sample orders, in step order
    tally_rows: np.ndarray  # its row
    tally_batch: np.ndarray  # [N, 1]: the size of its batch, in the model dtype
    stack: ModelParams
    opt: Adam


def plan_round(model, global_params: ModelParams,
               shards: list[tuple[np.ndarray, np.ndarray]],
               hists: list[ClassHistogram], loss_cfg: L.LossConfig,
               fed_cfg: FederationConfig, client_ids: list[int] | None = None) -> RoundPlan:
    """The plan of every round that trains these clients on these shards,
    with their skews and the class-rarity vector of their histograms;
    global_params gives only the stack's shape. A client's epochs share one
    batch-size sequence; the rows are sorted by it, longest and largest
    first: a tick's rows are a prefix, and its runs long. Labels are checked here."""
    ids = list(range(len(shards))) if client_ids is None else list(client_ids)
    client_coeffs = [client_imbalance(h, loss_cfg.epsilon) for h in hists]
    class_coeffs = global_class_imbalance(hists, loss_cfg.epsilon)
    sizes = [y.size for _, y in shards]
    features = np.concatenate([x for x, _ in shards], dtype=model.dtype)
    # coefficients and weights are elementwise in the labels, so indexing the
    # round's targets per batch gives each batch's weights bit for bit; the
    # kinds that read no coefficients weigh each sample 1 + 0
    coeffs = (np.concatenate([dynamic_coefficient(c_k, class_coeffs, y, loss_cfg.blend)
                              for c_k, (_, y) in zip(client_coeffs, shards)])
              if loss_cfg.kind == "adaptive_focal" else np.zeros(sum(sizes)))
    targets = L.targets(np.concatenate([y for _, y in shards]), model.num_classes, coeffs,
                        model.dtype)
    b, k, n_max = fed_cfg.batch_size, len(shards), max(sizes, default=0)
    sequences = [[min(b, n - start) for start in range(0, n, b)] for n in sizes]
    order = sorted(range(k), key=sequences.__getitem__, reverse=True)
    sequences = [sequences[i] for i in order]
    flat = global_params.flat
    stack = ModelParams.from_flat(global_params.manifest(),
                                  np.empty((k,) + flat.shape, dtype=flat.dtype))
    views = {(0, k): stack}  # one view of each run of rows, for all its ticks
    ticks = []  # each tick's rows with a batch (a prefix), and its groups' rows and bounds
    for tick in range(max(map(len, sequences), default=0)):
        at = [seq[tick] for seq in sequences if tick < len(seq)]  # its rows' batch sizes
        # each maximal run of rows with one batch size is a group
        ends = list(itertools.accumulate(len(list(run)) for _, run in itertools.groupby(at)))
        ticks.append((slice(0, len(at)), [(slice(lo, hi), tick * b, tick * b + at[lo])
                                          for lo, hi in zip([0] + ends, ends)]))
    epochs = range(fed_cfg.local_epochs)
    # each row's steps, in step order: the row, its batch size and the
    # batch's first place in the [E, K, n_max] sample orders of the clients
    step_rows, step_batch, first = np.array(
        [(r, hi - lo, (e * k + order[r]) * n_max + lo) for e in epochs
         for _, groups in ticks for s, lo, hi in groups for r in range(s.start, s.stop)],
        dtype=np.int64).reshape(-1, 3).T
    starts = np.cumsum(step_batch) - step_batch  # each step's first sample
    at = np.repeat(first - starts, step_batch)
    at += np.arange(at.size)  # each trained sample's place in the sample orders
    x = np.empty(at.shape + features.shape[1:], dtype=features.dtype)
    batches = L.Targets(*(np.empty(at.shape + a.shape[1:], dtype=a.dtype)
                          for a in (targets.labels, targets.weights, targets.onehot)))
    inv_batch = np.repeat(1.0 / step_batch, step_batch).astype(model.dtype)
    scale, nll, focal = (np.empty_like(inv_batch) for _ in range(3))
    places = [(i, starts[i, None] + np.arange(b)) for b in sorted(set(step_batch.tolist()))
              for i in [np.flatnonzero(step_batch == b)]]  # for losses.step_means
    plan_epochs, stop = [], 0
    for _ in epochs:
        plan_epochs.append([])
        for rows, groups in ticks:
            steps, gammas, first = [], [], stop
            for s, lo, hi in groups:  # its samples: the next [K', B] block of the buffers
                shape = (s.stop - s.start, hi - lo)
                start, stop = stop, stop + math.prod(shape)
                if (s.start, s.stop) not in views:
                    views[s.start, s.stop] = stack.rows(s)
                view, xs = views[s.start, s.stop], x[start:stop].reshape(shape + x.shape[1:])
                steps.append(Group(s, xs, *model.bind(view, xs)))
                gammas.append(L.trainable_gamma(view, loss_cfg))
            plan_epochs[-1].append(Tick(rows, steps, L.bind_loss(
                [g.x.shape[:2] + (model.num_classes,) for g in steps], model.dtype,
                batches[first:stop], scale[first:stop], nll[first:stop], focal[first:stop],
                loss_cfg, None if gammas[0] is None else gammas)))
    opt = Adam(stack, fed_cfg.learning_rate, fed_cfg.beta1, fed_cfg.beta2, fed_cfg.adam_eps)
    return RoundPlan(model, loss_cfg, fed_cfg, ids, client_coeffs, features,
                     targets, sizes, order, np.argsort(order), x, batches, inv_batch, scale,
                     nll, focal, places, step_rows, plan_epochs, at,
                     np.repeat(step_rows, step_batch),
                     np.repeat(step_batch.astype(model.dtype), step_batch)[:, None], stack, opt)


def local_train(plan: RoundPlan, global_params: ModelParams,
                rngs: list[np.random.Generator], round_index: int = 0) -> RoundResult:
    """One round's local training of the plan's clients on its [K, P] stack,
    from the broadcast global_params, with one stream per client.

    Each client starts from the broadcast, runs E epochs of minibatch Adam
    on its shard, one row of the stack and of Adam's moments, and tallies
    per-class logit-gradient norms. Within an epoch, at each tick, each
    maximal run of adjacent rows whose next batches have the same size is
    a group: one bound forward on its [K', B, ...] batch and the plan's
    view of its rows. Then one ``batch_loss`` over the tick's groups writes
    each sample's loss factors into the plan and gives each group's logits
    gradient (of ones over the rows' batch means), and a trainable gamma's
    gradient in its slots; each group's bound backward writes its
    parameters' gradients into theirs; one Adam step runs on the rows that
    stepped, in place, and one clamp of a trainable gamma over the whole
    stack, which leaves a row that sat the tick out as it was: every row
    with samples steps at tick 0 of an epoch and was clamped then. A
    client whose epoch is used up sits out its last ticks. Each client does
    the arithmetic it would do alone, so the results are those of training
    the clients one after another, bit for bit.

    Once per client selection, ``plan_round`` builds everything else, the
    model and the loss and federation configs included. Once a round: the
    broadcast is copied into the stack, Adam reset, the epochs' sample
    orders drawn and their batches gathered into the plan (each sample's
    loss seed made in one multiply), and after the last step, in step
    order, the per-class norms tallied and each step's batch mean of the
    loss (``losses.step_means``) summed per row. The rows return, copied,
    in the plan's client order, with their optimizer steps as batch counts.
    A NaN in training names its round and the clients among the tick's rows
    that hold it."""
    ids, loss_cfg, stack, opt = plan.client_ids, plan.loss_cfg, plan.stack, plan.opt
    order, batches = plan.order, plan.batches
    stack.flat[...] = global_params.flat
    opt.reset()
    samples = _permutations(plan.sizes, plan.fed_cfg, rngs).reshape(-1)[plan.gather_at]
    for src, out in ((plan.features, plan.x), (plan.targets.labels, batches.labels),
                     (plan.targets.weights, batches.weights),
                     (plan.targets.onehot, batches.onehot)):
        # the indices are in range; "clip" skips the buffered copy
        np.take(src, samples, axis=0, out=out, mode="clip")
    np.multiply(plan.inv_batch, batches.weights, out=plan.scale)
    clamp = L.trainable_gamma(stack, loss_cfg) is not None
    grads = []  # each step's logit gradients, tallied after the epochs
    for ticks in plan.epochs:
        for rows, groups, loss in ticks:
            logits = []
            try:
                for group in groups:
                    logits.append(group.forward())
                dlogits, _ = L.batch_loss(logits, loss)
            except NumericError as exc:
                culprits = _culprits([ids[i] for i in order[rows]],
                                     [r for group in groups for r in group.x], stack.flat[rows])
                raise NumericError(f"round {round_index}, {culprits}: {exc}") from exc
            for group, g in zip(groups, dlogits):
                group.backward(g)
            grads += dlogits
            opt.step(rows)
            if clamp:
                L.clamp_gamma(stack, loss_cfg)
    means = L.step_means(T.focal_product(plan.nll, plan.focal, batches.weights), plan.places)
    # float64 adds in step order: each row's sum gets the bits of one add per tick
    loss_sums = np.bincount(plan.step_rows, means, len(ids))
    num_classes = plan.model.num_classes
    norm_sums = np.zeros((len(ids), num_classes))
    norm_counts = np.zeros((len(ids), num_classes), dtype=np.int64)
    if grads:
        at = plan.tally_rows * num_classes + batches.labels
        norms = ME.per_sample_logit_grad_norms(
            np.concatenate([g.reshape(-1, num_classes) for g in grads]), plan.tally_batch)
        # float64 and in step order: each cell takes a per-sample loop's adds
        norm_sums = np.bincount(at, norms, norm_sums.size).reshape(norm_sums.shape)
        norm_counts = np.bincount(at, None, norm_sums.size).reshape(norm_sums.shape)
    row_of = plan.row_of
    return RoundResult(ModelParams.from_flat(stack.manifest(), stack.flat[row_of],
                                             requires_grad=False),
                       list(plan.client_coeffs), norm_sums[row_of], norm_counts[row_of],
                       loss_sums[row_of].tolist(), opt.t[row_of].tolist())


def _culprits(ids: list[int], *stacks: np.ndarray) -> str:
    """The clients whose rows of the [K, ...] stacks hold a non-finite
    value, or every client when none does: "client 3" or "clients 0, 2"."""
    bad = [k for k, *rows in zip(ids, *stacks)
           if not all(np.isfinite(row).all() for row in rows)] or ids
    return ("client " if len(bad) == 1 else "clients ") + ", ".join(map(str, bad))


def aggregation_weights(client_coeffs, eps: float) -> np.ndarray:
    """Normalized inverse of (coeff + eps): balanced clients weigh more."""
    coeffs = np.asarray(client_coeffs, dtype=np.float64)
    if not np.all(coeffs >= 0):  # NaN fails this, as it must
        raise ContractError("client imbalance coefficients must be >= 0")
    w = 1.0 / (coeffs + eps)
    return w / w.sum()


def sample_size_weights(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    if not (np.all(counts >= 0) and counts.sum() > 0):
        raise ContractError(f"sample counts must be >= 0, not all 0: {counts.tolist()}")
    return counts / counts.sum()


def aggregate(stack: ModelParams, weights) -> ModelParams:
    """The global parameter set: a convex combination of a [K, P] stack's rows, in order.

    Computed anchored at row 0, theta_0 + sum_k w_k * (theta_k - theta_0),
    which is the same convex combination but makes a unanimous stack an
    exact fixed point bit for bit. Every op is elementwise, so each scalar
    gets the bits of a per-tensor loop. Weights must be convex: >= 0 and
    summing to 1 within the tolerance ``RoundRecord`` checks.
    """
    rows = stack.flat
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ContractError(f"aggregation needs a [K, P] stack with K >= 1, got {rows.shape}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size != rows.shape[0]:
        raise ContractError(f"{weights.size} weights for {rows.shape[0]} clients")
    if not (np.all(weights >= 0) and abs(sum(weights.tolist()) - 1.0) <= 1e-12):
        raise ContractError(f"aggregation weights must be >= 0 and sum to 1: {weights.tolist()}")
    anchor = rows[0].astype(np.float64)
    diffs = rows[1:].astype(np.float64)
    diffs -= anchor
    diffs *= weights[1:, None]
    acc = anchor.copy()
    for d in diffs:
        acc += d
    return ModelParams.from_flat(stack.manifest(), acc.astype(rows.dtype))


def bind_test_set(model, params: ModelParams, features: np.ndarray, indices) -> tuple:
    """The samples features[indices] bound once for ``eval_scores``: a
    frozen parameter set (params gives only its shape), which records no
    tape node, and per 512 samples their dataset indices, the samples
    gathered and cast once, and their forward under the frozen set."""
    frozen = ModelParams.from_flat(params.manifest(), np.empty_like(params.flat),
                                   requires_grad=False)
    chunks = []
    for start in range(0, len(indices), 512):
        at = np.asarray(indices[start:start + 512], dtype=np.int64)
        x = np.asarray(features[at], dtype=model.dtype)
        chunks.append((at, x, model.bind(frozen, x)[0]))
    return frozen, chunks


def eval_scores(test: tuple, params: ModelParams) -> np.ndarray:
    """Softmax class scores of the test samples bound by ``bind_test_set``
    under params, copied into its frozen set. A sample whose max logit is
    not finite, or a non-finite one a forward rejects first, is a
    NumericError naming it."""
    frozen, chunks = test
    frozen.flat[...] = params.flat
    rows = []
    for at, x, forward in chunks:
        try:
            logits = forward()
        except NumericError as exc:
            bad = np.flatnonzero(~np.isfinite(x.reshape(len(x), -1)).all(axis=-1))
            if not bad.size:
                raise
            raise NumericError(f"test sample {at[bad[0]]}: non-finite class scores") from exc
        if not np.isfinite(logits).all():  # a cheap screen; a row's max decides
            bad = np.flatnonzero(~np.isfinite(logits.max(axis=-1)))
            if bad.size:
                raise NumericError(f"test sample {at[bad[0]]}: non-finite class scores")
        rows.append(T.softmax_kernel(logits, -1))
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
    features, labels = bundle.features, bundle.labels
    num_classes = bundle.num_classes
    shards = [(features[list(idx)], labels[list(idx)])
              for idx in partition.client_indices]
    test_idx = np.asarray(partition.test_indices, dtype=np.int64)
    if not test_idx.size:
        raise ConfigError("partition has no global test set to evaluate on")
    test_y = labels[test_idx]

    global_params = initial_params(model, loss_cfg, fed_cfg.seed)
    test_set = bind_test_set(model, global_params, features, test_idx)

    pooled = functools.reduce(ClassHistogram.merge, partition.histograms)
    present = [c for c, n in enumerate(pooled.counts) if n > 0]
    scores = [imbalance_score(pooled.total, pooled.counts[c]) for c in present]
    tail_pos, head_pos = head_tail_split(scores, fed_cfg.tail_fraction)
    tail_classes = [present[i] for i in tail_pos]
    head_classes = [present[i] for i in head_pos]

    eligible = [k for k, (_, y) in enumerate(shards) if y.size > 0]
    skipped = [k for k in range(len(shards)) if k not in eligible]
    if not eligible:
        raise ConfigError("every client shard is empty; nothing to train")

    records: list[RoundRecord] = []
    plan = None
    for t in range(1, fed_cfg.rounds + 1):
        selected = _select_clients(fed_cfg, t, eligible)
        warnings = [f"client {k} skipped: empty shard" for k in skipped]
        # the plan, with the class-rarity vector the clients train with,
        # changes only with the selection
        if plan is None or plan.client_ids != selected:
            plan = plan_round(model, global_params, [shards[k] for k in selected],
                              [partition.histograms[k] for k in selected], loss_cfg, fed_cfg,
                              selected)

        # selected is ascending, so the stack's rows are in aggregation order
        trained = local_train(plan, global_params,
                              [derive_rng(fed_cfg.seed, _CLIENT_ROLE, t, k) for k in selected],
                              round_index=t)
        if not np.isfinite(trained.params.flat).all():
            culprits = _culprits(selected, trained.params.flat)
            raise NumericError(f"round {t}, {culprits}: non-finite parameters after training")

        if fed_cfg.aggregation == "inverse_imbalance":
            weights = aggregation_weights(trained.client_coeffs, loss_cfg.epsilon)
        elif fed_cfg.aggregation == "sample_size":
            weights = sample_size_weights([shards[k][1].size for k in selected])
        else:
            weights = np.full(len(selected), 1.0 / len(selected))
        global_params = aggregate(trained.params, weights)

        try:
            scores_test = eval_scores(test_set, global_params)
        except NumericError as exc:
            raise NumericError(f"round {t}, {exc}") from exc
        report = ME.evaluate_scores(scores_test, test_y, num_classes)

        # adds rows in order (pairwise only for one class, whose norms are all 0)
        norm_sums = trained.norm_sums.sum(axis=0)
        norm_counts = trained.norm_counts.sum(axis=0)
        per_class = [float(norm_sums[c] / norm_counts[c]) if norm_counts[c] else None
                     for c in range(num_classes)]

        def group_mean(group: list[int]) -> float | None:
            total = sum(norm_counts[c] for c in group)
            return float(sum(norm_sums[c] for c in group) / total) if total else None

        total_batches = sum(trained.batch_counts)
        records.append(RoundRecord(
            round_index=t,
            selected=list(selected),
            client_coeffs=dict(zip(selected, trained.client_coeffs)),
            weights={k: float(w) for k, w in zip(selected, weights)},
            metrics=report,
            per_class_grad_norms=per_class,
            tail_grad_norm=group_mean(tail_classes),
            head_grad_norm=group_mean(head_classes),
            gamma=L.gamma_value(global_params, loss_cfg),
            # a sequential sum over clients; np.sum would add pairwise
            train_loss=float(sum(trained.loss_sums) / total_batches)
            if total_batches else float("nan"),
            warnings=warnings,
        ))
    return FederationRun(records, global_params, tail_classes, head_classes)

