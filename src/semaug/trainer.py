"""End-to-end training of the embedding network under any loss variant.

Training is single-threaded and fully deterministic for a given seed:
parameter init, per-epoch shuffling, and trial building each use their
own counter-based RNG stream.  Each batch makes one embedder forward, one
loss call over the batch's rows, computed against the covariance bank as
of the batch start, and one backward; the bank then merges the batch's
embeddings and the optimizer steps on the batch-mean gradient.  The
per-epoch evaluation embeds every eval row in one forward.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .covariance import DIAGONAL, FULL, CovarianceBank
from .data import FLOAT, Dataset, EVAL, TRAIN, float_cells, open_csv, read_csv_rows, write_csv
from .embedder import TinyEmbedder
from .losses import AFFINE_VARIANTS, ClassifierHead, LossConfig, variant_loss
from .metrics import DcfParams, build_trials, compute_eer, compute_min_dcf, score_trials
from .rng import philox_rng


class TrainingDivergedError(RuntimeError):
    def __init__(self, iteration: int, quantity: str = "loss"):
        super().__init__(f"non-finite {quantity} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class TrainSettings:
    hidden: list = field(default_factory=lambda: [64])
    embed_dim: int = 16
    epochs: int = 60
    batch_size: int = 32
    lr_init: float = 0.05
    lr_final: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-4
    scale: float = 12.0
    margin: float = 0.2
    cov_mode: str = "full"
    stats_after_deferred_only: bool = False
    max_nontarget_per_target: float = 10.0
    dcf: DcfParams = field(default_factory=DcfParams)
    seed: int = 0
    diagnostics_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (0 < self.lr_init < math.inf and 0 < self.lr_final < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be >= 0 and finite")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be nonnegative and finite, got {self.margin}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if not self.max_nontarget_per_target > 0:  # inf takes every non-target pair
            raise ValueError(f"max_nontarget_per_target must be > 0, got {self.max_nontarget_per_target}")
        if self.cov_mode not in (FULL, DIAGONAL):
            raise ValueError(f"cov_mode must be {FULL!r} or {DIAGONAL!r}, got {self.cov_mode!r}")


METRICS_HEADER = ["epoch", "loss", "mean_cos_y", "mean_coef", "lambda", "eer", "min_dcf"]


@dataclass
class MetricsRow:
    """One epoch's line of ``metrics.csv``: the fields in the order of :data:`METRICS_HEADER`."""
    epoch: int
    loss: float
    mean_cos_y: float
    mean_coef: float
    lam: float
    eer: float
    min_dcf: float


@dataclass
class TrainRun:
    embedder: TinyEmbedder
    head: ClassifierHead
    bank: CovarianceBank
    config: LossConfig
    metrics: list
    total_iters: int
    fallback_count: int
    eval_indices: np.ndarray
    eval_embeddings: np.ndarray
    trials: object

    @property
    def final_eer(self) -> float:
        return self.metrics[-1].eer

    @property
    def final_min_dcf(self) -> float:
        return self.metrics[-1].min_dcf


class SgdNesterov:
    """SGD with Nesterov momentum, exponential LR decay, weight decay.

    Update convention (stated so runs are reproducible bit for bit):
    g <- g + wd*theta; v' = mu*v - lr*g; theta' = theta + mu*v' - lr*g.
    lr(t) = lr_init * (lr_final/lr_init)^(t/T), with the endpoints
    returned exactly at t=0 and t=T.
    """

    def __init__(self, params: list, lr_init: float, lr_final: float,
                 total_iters: int, momentum: float = 0.9, weight_decay: float = 1e-4):
        if total_iters < 1:
            raise ValueError("total_iters must be >= 1")
        self.params = params
        self.velocity = [np.zeros_like(p) for p in params]
        self.lr_init = float(lr_init)
        self.lr_final = float(lr_final)
        self.total_iters = int(total_iters)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

    def lr_at(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"iteration must be >= 0, got {t}")
        if t == 0:
            return self.lr_init
        if t >= self.total_iters:
            return self.lr_final
        return self.lr_init * (self.lr_final / self.lr_init) ** (t / self.total_iters)

    def step(self, grads: list, t: int) -> None:
        lr = self.lr_at(t)
        mu = self.momentum
        for p, v, g in zip(self.params, self.velocity, grads):
            g = g + self.weight_decay * p
            v *= mu
            v -= lr * g
            p += mu * v
            p -= lr * g


def train(dataset: Dataset, loss_config: LossConfig, settings: TrainSettings) -> TrainRun:
    X = dataset.features
    y = dataset.labels
    C = dataset.num_classes
    if C < 2:
        raise ValueError("training needs at least 2 classes")
    train_idx = dataset.indices(TRAIN)
    eval_idx = dataset.indices(EVAL)
    if train_idx.size == 0 or eval_idx.size == 0:
        raise ValueError("dataset must contain both train and eval samples")

    n_train = train_idx.size
    B = settings.batch_size
    iters_per_epoch = math.ceil(n_train / B)
    total_iters = settings.epochs * iters_per_epoch
    cfg = replace(loss_config, ramp_total_iters=total_iters)

    F = settings.embed_dim
    init_rng = philox_rng(settings.seed, 1)
    embedder = TinyEmbedder([dataset.dim] + list(settings.hidden) + [F], init_rng)
    head_w = init_rng.standard_normal((C, F)) / math.sqrt(F)
    head = ClassifierHead(weights=head_w,
                          biases=np.zeros(C) if cfg.variant in AFFINE_VARIANTS else None,
                          scale=settings.scale, margin=settings.margin)
    bank = CovarianceBank(C, F, settings.cov_mode)

    params = embedder.parameters() + [head.weights]
    if head.biases is not None:
        params.append(head.biases)
    opt = SgdNesterov(params, settings.lr_init, settings.lr_final, total_iters,
                      settings.momentum, settings.weight_decay)

    shuffle_rng = philox_rng(settings.seed, 2)
    trials = build_trials(y[eval_idx], settings.max_nontarget_per_target,
                          (settings.seed, 3))

    def stats_allowed(t: int) -> bool:
        if not settings.stats_after_deferred_only:
            return True
        return t / total_iters >= cfg.deferred_fraction

    metrics = []
    eval_embs = None
    t = 0
    diag_row = "%d,%d," + float_cells(4)
    # opened before the first step, so a bad path fails before any training
    with (nullcontext() if settings.diagnostics_path is None else
          open_csv(settings.diagnostics_path, ["iteration", "sample_id", "cos_y", "coef", "lambda", "loss"])) as diag:
        for epoch in range(settings.epochs):
            order = shuffle_rng.permutation(train_idx)
            ep_loss = ep_cos = ep_coef = ep_lam = 0.0
            for start in range(0, n_train, B):
                batch = order[start:start + B]
                labels = y[batch]
                f, cache = embedder.forward(X[batch])
                # blown-up parameters surface here as a non-finite
                # embedding before any loss sees them
                if not (np.isfinite(cache.prenorm).all() and np.isfinite(f).all()):
                    raise TrainingDivergedError(t, "embedding")
                out = variant_loss(f, head, bank, labels, cfg, t)
                if not np.isfinite(out.value).all():
                    raise TrainingDivergedError(t)
                per = out.per_sample_terms
                ep_loss += float(out.value.sum())
                ep_cos += float(per["cos_y"].sum())
                ep_coef += float(per["coef"].sum())
                ep_lam += float(per["lambda"].sum())
                if diag is not None:
                    diag(diag_row,
                         zip(repeat(t), batch.tolist(), per["cos_y"].tolist(), per["coef"].tolist(),
                             per["lambda"].tolist(), out.value.tolist()))
                grads = [g for pair in embedder.backward(cache, out.grad_embedding) for g in pair]
                grads.append(out.grad_weights)
                if head.biases is not None:
                    grads.append(out.grad_biases)
                if stats_allowed(t):
                    bank.update(f, labels)
                inv = 1.0 / len(batch)
                opt.step([g * inv for g in grads], t)
                t += 1

            # a blow-up in the epoch's last step shows first here
            if not all(np.isfinite(p).all() for p in params):
                raise TrainingDivergedError(t, "parameters")
            eval_embs = embedder.forward(X[eval_idx])[0]
            if not np.isfinite(eval_embs).all():
                raise TrainingDivergedError(t, "eval embeddings")
            scores = score_trials(eval_embs, trials)
            eer, _ = compute_eer(scores)
            mdcf = compute_min_dcf(scores, settings.dcf)
            values = (ep_loss / n_train, ep_cos / n_train, ep_coef / n_train, ep_lam / n_train, eer, mdcf)
            for name, v in zip(METRICS_HEADER[1:], values):
                if not math.isfinite(v):
                    raise TrainingDivergedError(t, name)
            metrics.append(MetricsRow(epoch, *values))

    return TrainRun(embedder=embedder, head=head, bank=bank, config=cfg,
                    metrics=metrics, total_iters=total_iters,
                    fallback_count=embedder.fallback_count,
                    eval_indices=eval_idx, eval_embeddings=eval_embs, trials=trials)


def save_metrics(path, metrics: list) -> None:
    write_csv(path, METRICS_HEADER, "%d," + float_cells(6),
              ((r.epoch, r.loss, r.mean_cos_y, r.mean_coef, r.lam, r.eer, r.min_dcf) for r in metrics))


def save_model(path, embedder: TinyEmbedder, head: ClassifierHead) -> None:
    """Layer dump, one CSV line per tensor, 17-significant-digit decimals."""
    with open_csv(path, ["semaug-model", "1"]) as write:
        def tensor(name, arr):
            values = np.asarray(arr, dtype=float).ravel().tolist()
            write(name + "," + float_cells(len(values)), [values])

        sizes = embedder.layer_sizes
        write("layers" + ",%d" * len(sizes), [sizes])
        write("scale," + FLOAT, [(head.scale,)])
        write("margin," + FLOAT, [(head.margin,)])
        write("head_biases,%d", [(head.biases is not None,)])
        for k, (W, b) in enumerate(zip(embedder.weights, embedder.biases)):
            tensor(f"W{k}", W)
            tensor(f"b{k}", b)
        tensor("HW", head.weights)
        if head.biases is not None:
            tensor("Hb", head.biases)


def load_model(path) -> tuple[TinyEmbedder, ClassifierHead]:
    """Read a snapshot written by :func:`save_model`.

    Rows must come in the order ``save_model`` writes them, with the
    lengths the ``layers`` row implies.  Every defect (a missing, foreign
    or surplus row, a wrong length, a non-numeric or non-finite value, a
    bad layer size, scale or margin) raises ``ValueError("<path>: line N: ...")``.
    """
    table, lines = read_csv_rows(path)
    kept = [i for i, r in enumerate(table) if r]
    rows = [(lines[i], table[i]) for i in kept]
    if not rows or rows[0][1][:1] != ["semaug-model"]:
        raise ValueError(f"{path}: line 1: not a model snapshot")
    rest = iter(rows[1:])
    end = lines[kept[-1] + 1]  # the line after the last row

    def take(name: str, length: int | None = None) -> tuple[int, list]:
        n, r = next(rest, (end, None))
        if r is None:
            raise ValueError(f"{path}: line {n}: missing row {name!r}")
        if r[0] != name:
            raise ValueError(f"{path}: line {n}: expected row {name!r}, found {r[0]!r}")
        if length is not None and len(r) - 1 != length:
            raise ValueError(f"{path}: line {n}: row {name!r} has {len(r) - 1} values, expected {length}")
        return n, r[1:]

    def numbers(name: str, length: int | None = None, kind=float) -> tuple[int, list]:
        n, cells = take(name, length)
        try:
            values = [kind(v) for v in cells]
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: row {name!r}: {exc}") from None
        if kind is float and not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}: line {n}: row {name!r} has a non-finite value")
        return n, values

    n, sizes = numbers("layers", kind=int)
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"{path}: line {n}: layer sizes {sizes} need >= 2 positive entries")
    n, (scale,) = numbers("scale", 1)
    if not scale > 0:
        raise ValueError(f"{path}: line {n}: scale must be positive, got {scale}")
    n, (margin,) = numbers("margin", 1)
    if margin < 0:
        raise ValueError(f"{path}: line {n}: margin must be nonnegative, got {margin}")
    n, (has_biases,) = numbers("head_biases", 1, kind=int)
    if has_biases not in (0, 1):
        raise ValueError(f"{path}: line {n}: head_biases must be 0 or 1, got {has_biases}")
    # Every tensor row is read and length-checked before the embedder
    # allocates, so the layer sizes cannot claim more memory than the file holds.
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        W = np.array(numbers(f"W{k}", fan_in * fan_out)[1]).reshape(fan_out, fan_in)
        layers.append((W, np.array(numbers(f"b{k}", fan_out)[1])))
    n, hw = numbers("HW")
    F = sizes[-1]
    if not hw or len(hw) % F:
        raise ValueError(f"{path}: line {n}: row 'HW' has {len(hw)} values, expected a positive multiple of {F}")
    C = len(hw) // F
    biases = np.array(numbers("Hb", C)[1]) if has_biases else None
    extra = next(rest, None)
    if extra is not None:
        raise ValueError(f"{path}: line {extra[0]}: unexpected row {extra[1][0]!r}")
    emb = TinyEmbedder(sizes, rng=None)
    emb.weights = [W for W, _ in layers]
    emb.biases = [b for _, b in layers]
    head = ClassifierHead(weights=np.array(hw).reshape(C, F), biases=biases, scale=scale, margin=margin)
    return emb, head
