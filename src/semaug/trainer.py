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

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import CovarianceBank
from .data import FLOAT, Dataset, EVAL, TRAIN, float_cells, read_csv_rows, write_csv
from .embedder import TinyEmbedder
from .losses import ClassifierHead, LossConfig, variant_loss
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
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class MetricsRow:
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
    softmax_path = cfg.variant in ("softmax", "isda")
    head = ClassifierHead(weights=head_w,
                          biases=np.zeros(C) if softmax_path else None,
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

    diag = None
    diag_file = None
    if settings.diagnostics_path is not None:
        diag_file = open(settings.diagnostics_path, "w", newline="")
        diag = csv.writer(diag_file)
        diag.writerow(["iteration", "sample_id", "cos_y", "coef", "lambda", "loss"])

    def stats_allowed(t: int) -> bool:
        if not settings.stats_after_deferred_only:
            return True
        return t / total_iters >= cfg.deferred_fraction

    metrics = []
    eval_embs = None
    t = 0
    try:
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
                    raise TrainingDivergedError(t)
                out = variant_loss(f, head, bank, labels, cfg, t)
                if not np.isfinite(out.value).all():
                    raise TrainingDivergedError(t)
                per = out.per_sample_terms
                ep_loss += float(out.value.sum())
                ep_cos += float(per["cos_y"].sum())
                ep_coef += float(per["coef"].sum())
                ep_lam += float(per["lambda"].sum())
                if diag is not None:
                    diag.writerows([t, i] + [format(v, ".17g") for v in row] for i, *row in
                                   zip(batch.tolist(), per["cos_y"].tolist(), per["coef"].tolist(),
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
            row = MetricsRow(epoch=epoch,
                             loss=ep_loss / n_train,
                             mean_cos_y=ep_cos / n_train,
                             mean_coef=ep_coef / n_train,
                             lam=ep_lam / n_train,
                             eer=eer, min_dcf=mdcf)
            for v in (row.loss, row.mean_cos_y, row.mean_coef, row.lam, row.eer, row.min_dcf):
                if not math.isfinite(v):
                    raise TrainingDivergedError(t)
            metrics.append(row)
    finally:
        if diag_file is not None:
            diag_file.close()

    return TrainRun(embedder=embedder, head=head, bank=bank, config=cfg,
                    metrics=metrics, total_iters=total_iters,
                    fallback_count=embedder.fallback_count,
                    eval_indices=eval_idx, eval_embeddings=eval_embs, trials=trials)


def save_metrics(path, metrics: list) -> None:
    row = "%d," + float_cells(6)
    write_csv(path, ["epoch", "loss", "mean_cos_y", "mean_coef", "lambda", "eer", "min_dcf"],
              ((row, (r.epoch, r.loss, r.mean_cos_y, r.mean_coef, r.lam, r.eer, r.min_dcf))
               for r in metrics))


def save_model(path, embedder: TinyEmbedder, head: ClassifierHead) -> None:
    """Layer dump, one CSV line per tensor, 17-significant-digit decimals."""
    def tensor(name, arr):
        values = np.asarray(arr, dtype=float).ravel().tolist()
        return name + "," + float_cells(len(values)), tuple(values)

    def lines():
        sizes = embedder.layer_sizes
        yield "layers" + ",%d" * len(sizes), tuple(sizes)
        yield "scale," + FLOAT, (head.scale,)
        yield "margin," + FLOAT, (head.margin,)
        yield "head_biases,%d", (head.biases is not None,)
        for k, (W, b) in enumerate(zip(embedder.weights, embedder.biases)):
            yield tensor(f"W{k}", W)
            yield tensor(f"b{k}", b)
        yield tensor("HW", head.weights)
        if head.biases is not None:
            yield tensor("Hb", head.biases)

    write_csv(path, ["semaug-model", "1"], lines())


def load_model(path) -> tuple[TinyEmbedder, ClassifierHead]:
    """Read a snapshot written by :func:`save_model`.

    Rows must come in the order ``save_model`` writes them, with the
    lengths the ``layers`` row implies.  Every defect (a missing, foreign
    or surplus row, a wrong length, a non-numeric or non-finite value, a
    bad layer size, scale or margin) raises ``ValueError("<path>: line N: ...")``.
    """
    rows = [(n, r) for n, r in enumerate(read_csv_rows(path), start=1) if r]
    if not rows or rows[0][1][:1] != ["semaug-model"]:
        raise ValueError(f"{path}: line 1: not a model snapshot")
    rest = iter(rows[1:])
    end = rows[-1][0] + 1

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
