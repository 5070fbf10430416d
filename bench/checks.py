"""Checks of the outputs of `semaug` commands, made apart from the program.

Every check raises CheckFailed with a message naming the file and the
quantity that is wrong.  Verification metrics are recomputed from the
written CSV files with this module's own parsing, cosines and threshold
enumeration; nothing here calls into `semaug.metrics`.  Where a check
needs the program's loss functions (the bound ordering on a reloaded
model), it feeds them parameters parsed here, never the program's loaders.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np


class CheckFailed(Exception):
    pass


# What a check of a malformed or missing output file can raise.
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError)


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_csv_rows(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    require(len(rows) >= 2, f"{path}: no data rows")
    return rows[0], rows[1:]


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features, labels and eval flags of a dataset.csv, in file order."""
    header, rows = read_csv_rows(path)
    require(header[0] == "label" and header[-1] == "split", f"{path}: bad header")
    features = np.array([r[1:-1] for r in rows], dtype=float)
    labels = np.array([int(r[0]) for r in rows])
    is_eval = np.array([r[-1] == "eval" for r in rows])
    return features, labels, is_eval


def read_embeddings(path) -> np.ndarray:
    header, rows = read_csv_rows(path)
    require(header[0] == "index", f"{path}: bad header")
    idx = [int(r[0]) for r in rows]
    require(idx == list(range(len(rows))), f"{path}: rows are not indexed 0..n-1 in order")
    return np.array([[float(v) for v in r[1:]] for r in rows])


def read_trials(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    header, rows = read_csv_rows(path)
    require(header == ["index_a", "index_b", "is_target"], f"{path}: bad header")
    arr = np.array([[int(v) for v in r] for r in rows])
    require(set(np.unique(arr[:, 2])) <= {0, 1}, f"{path}: is_target is not 0/1")
    return arr[:, 0], arr[:, 1], arr[:, 2].astype(bool)


def read_metrics(path) -> list[dict]:
    header, rows = read_csv_rows(path)
    return [dict(zip(header, (float(v) for v in r))) for r in rows]


# --- verification metrics ---------------------------------------------------

def cosines(E: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    a, b = E[ia], E[ib]
    dots = np.einsum("ij,ij->i", a, b)
    return dots / (np.sqrt(np.einsum("ij,ij->i", a, a)) * np.sqrt(np.einsum("ij,ij->i", b, b)))


def eer_and_min_dcf(scores: np.ndarray, is_target: np.ndarray,
                    p_target: float, c_miss: float, c_fa: float) -> tuple[float, float]:
    """EER and minDCF by enumerating every threshold.

    The thresholds are every distinct score plus one below all scores and
    one above, with the accept-at-or-above rule.  The counts at each
    threshold come from one pass over the scores in descending order.
    EER is where FAR - FRR crosses zero: exact when a threshold hits it,
    otherwise linear between the two neighbouring thresholds.
    """
    n_t = int(is_target.sum())
    n_n = int(is_target.size - n_t)
    require(n_t > 0 and n_n > 0, "trials need targets and nontargets")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    tgt = is_target[order]
    # accepted counts when the threshold is s[k]: every score >= s[k]
    last_of_value = np.r_[s[1:] != s[:-1], True]
    acc_t = np.cumsum(tgt)[last_of_value]
    acc_n = np.cumsum(~tgt)[last_of_value]
    # thresholds in ascending order: below-all, distinct scores, above-all
    acc_t = np.r_[n_t, acc_t[::-1], 0]
    acc_n = np.r_[n_n, acc_n[::-1], 0]
    frr = (n_t - acc_t) / n_t
    far = acc_n / n_n
    gap = far - frr
    k = 0
    while gap[k] > 0.0:
        k += 1
    if gap[k] == 0.0:
        eer = float(frr[k])
    else:
        alpha = gap[k - 1] / (gap[k - 1] - gap[k])
        eer = float(frr[k - 1] + alpha * (frr[k] - frr[k - 1]))
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    dcf = (c_miss * p_target * frr + c_fa * (1.0 - p_target) * far) / norm
    return eer, float(dcf.min())


_LINE = re.compile(r"^EER\(%\)=(-?[0-9.]+) minDCF=(-?[0-9.]+)$")


def check_metric_line(line: str, eer: float, min_dcf: float, where: str) -> None:
    m = _LINE.match(line.strip())
    require(m is not None, f"{where}: no 'EER(%)=... minDCF=...' line in {line!r}")
    require(m.group(1) == f"{100.0 * eer:.3f}" and m.group(2) == f"{min_dcf:.3f}",
            f"{where}: printed {line.strip()!r}, recomputed EER(%)={100.0 * eer:.3f} "
            f"minDCF={min_dcf:.3f}")


def check_verification(run_dir, eval_labels: np.ndarray, dcf: tuple) -> tuple[float, float]:
    """Embeddings, trials and the final metrics row of one `semaug train`."""
    E = read_embeddings(f"{run_dir}/embeddings.csv")
    require(E.shape[0] == eval_labels.size,
            f"{run_dir}/embeddings.csv: {E.shape[0]} rows for {eval_labels.size} eval samples")
    norms = np.sqrt(np.einsum("ij,ij->i", E, E))
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)
    require(bad.size == 0, f"{run_dir}/embeddings.csv: row {bad[:1]} has norm "
                           f"{norms[bad[:1]]}, expected 1")

    ia, ib, tgt = read_trials(f"{run_dir}/trials.csv")
    n = eval_labels.size
    require(bool(np.all((ia >= 0) & (ia < n) & (ib >= 0) & (ib < n) & (ia != ib))),
            f"{run_dir}/trials.csv: an index is out of range or pairs a row with itself")
    same = eval_labels[ia] == eval_labels[ib]
    require(bool(np.all(same == tgt)), f"{run_dir}/trials.csv: a target crosses classes "
                                       "or a within-class pair is not a target")
    ta, tb = np.minimum(ia[tgt], ib[tgt]), np.maximum(ia[tgt], ib[tgt])
    want = {(a, b) for a in range(n) for b in range(a + 1, n) if eval_labels[a] == eval_labels[b]}
    got = set(zip(ta.tolist(), tb.tolist()))
    require(got == want and len(got) == ta.size,
            f"{run_dir}/trials.csv: {len(want - got)} within-class pairs missing, "
            f"{ta.size - len(got)} duplicated")

    eer, mdcf = eer_and_min_dcf(cosines(E, ia, ib), tgt, *dcf)
    last = read_metrics(f"{run_dir}/metrics.csv")[-1]
    require(abs(last["eer"] - eer) <= 1e-12 and abs(last["min_dcf"] - mdcf) <= 1e-12,
            f"{run_dir}/metrics.csv: last row eer={last['eer']!r} min_dcf={last['min_dcf']!r}, "
            f"recomputed {eer!r} {mdcf!r}")
    return eer, mdcf


def check_scores(scores_path, embeddings_path) -> None:
    """Every score of a scores.csv is the cosine of its two embeddings."""
    header, rows = read_csv_rows(scores_path)
    require(header == ["index_a", "index_b", "score", "is_target"], f"{scores_path}: bad header")
    ia = np.array([int(r[0]) for r in rows])
    ib = np.array([int(r[1]) for r in rows])
    got = np.array([float(r[2]) for r in rows])
    want = cosines(read_embeddings(embeddings_path), ia, ib)
    err = float(np.max(np.abs(got - want)))
    require(err <= 1e-12, f"{scores_path}: a score is {err:.3e} away from its cosine")


def check_schedule(run_dir, variant: str, epochs: int, iters_per_epoch: int,
                   deferred_fraction: float) -> None:
    """Per-epoch mean strength: 0 for the variants without augmentation,
    and 0 in every epoch that lies wholly before the deferred fraction."""
    rows = read_metrics(f"{run_dir}/metrics.csv")
    require(len(rows) == epochs, f"{run_dir}/metrics.csv: {len(rows)} rows for {epochs} epochs")
    total = epochs * iters_per_epoch
    for e, r in enumerate(rows):
        last_t = (e + 1) * iters_per_epoch - 1
        deferred = last_t / total < deferred_fraction
        if variant in ("softmax", "am", "daam") or deferred:
            require(r["lambda"] == 0.0, f"{run_dir}/metrics.csv: epoch {e} lambda="
                                        f"{r['lambda']!r}, expected exactly 0")


# --- covariance bank ----------------------------------------------------------

def iter_bank(path):
    """(class_id, count, mean, cov) per row of a bank.csv, one row at a time."""
    with open(path, encoding="utf-8") as fh:
        header = dict(item.split("=", 1) for item in fh.readline().strip().split(","))
        dim, mode = int(header["dim"]), header["mode"]
        cov_len = dim * dim if mode == "full" else dim
        yield int(header["num_classes"]), dim, mode
        for ln, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            require(len(cells) == 2 + dim + cov_len, f"{path}: line {ln}: {len(cells)} cells")
            vals = np.array(cells[2:], dtype=float)
            cov = vals[dim:].reshape(dim, dim) if mode == "full" else vals[dim:]
            yield int(cells[0]), int(cells[1]), vals[:dim], cov


def check_bank(path, expected_counts: np.ndarray, keep=()) -> dict:
    """Counts equal epochs x training samples per class; every covariance is
    symmetric with smallest eigenvalue >= -1e-12 * trace.  Returns the
    (mean, cov) of the classes named in ``keep``."""
    rows = iter_bank(path)
    num_classes, dim, mode = next(rows)
    require(num_classes == expected_counts.size,
            f"{path}: {num_classes} classes, expected {expected_counts.size}")
    seen = np.zeros(num_classes, dtype=bool)
    kept = {}
    for cid, count, mean, cov in rows:
        require(0 <= cid < num_classes and not seen[cid], f"{path}: class id {cid} out of range or repeated")
        seen[cid] = True
        require(count == expected_counts[cid],
                f"{path}: class {cid} count {count}, expected {expected_counts[cid]}")
        require(bool(np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))),
                f"{path}: class {cid} has non-finite statistics")
        if mode == "full":
            trace = float(np.trace(cov))
            asym = float(np.max(np.abs(cov - cov.T)))
            require(asym <= 1e-12 * max(trace, 1e-300),
                    f"{path}: class {cid} covariance asymmetry {asym:.3e} (trace {trace:.3e})")
            low = float(np.linalg.eigvalsh(0.5 * (cov + cov.T))[0])
        else:
            trace = float(np.sum(cov))
            low = float(np.min(cov))
        require(low >= -1e-12 * trace,
                f"{path}: class {cid} smallest eigenvalue {low:.3e} below -1e-12 * trace {trace:.3e}")
        if cid in keep:
            kept[cid] = (mean, cov)
    require(bool(seen.all()), f"{path}: {int((~seen).sum())} classes missing")
    return kept


# --- model snapshot -----------------------------------------------------------

def read_model(path) -> dict:
    """Tensors of a model.csv, shaped by its layer sizes."""
    with open(path, newline="") as fh:
        rows = {r[0]: r[1:] for r in csv.reader(fh) if r}
    require("semaug-model" in rows, f"{path}: not a model snapshot")
    sizes = [int(s) for s in rows["layers"]]
    model = {"sizes": sizes, "scale": float(rows["scale"][0]), "margin": float(rows["margin"][0])}
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        model[f"W{k}"] = np.array(rows[f"W{k}"], dtype=float).reshape(fan_out, fan_in)
        model[f"b{k}"] = np.array(rows[f"b{k}"], dtype=float)
    hw = np.array(rows["HW"], dtype=float)
    model["HW"] = hw.reshape(hw.size // sizes[-1], sizes[-1])
    return model


def embed(model: dict, x: np.ndarray) -> np.ndarray:
    """The snapshot's network applied to one input: rectified hidden
    layers, unit-normalized output."""
    h = x
    n_layers = len(model["sizes"]) - 1
    for k in range(n_layers):
        h = model[f"W{k}"] @ h + model[f"b{k}"]
        if k < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h / np.linalg.norm(h)


def quadratic_forms_reference(W_hat: np.ndarray, cov: np.ndarray, label: int) -> np.ndarray:
    """d_j^T Cov d_j with d_j = w_j - w_label, one row at a time."""
    d = W_hat - W_hat[label]
    return np.array([float(row @ cov @ row) for row in d])


# --- verify outputs -----------------------------------------------------------

def check_bound_csv(path, expected_rows: int) -> None:
    """slack = bound - mc_mean and z = slack / se on every row; per family
    at most 2% of trials below z = -3 and a nonnegative mean slack."""
    header, rows = read_csv_rows(path)
    col = {name: i for i, name in enumerate(header)}
    require(len(rows) == expected_rows, f"{path}: {len(rows)} rows, expected {expected_rows}")
    families: dict = {}
    for k, r in enumerate(rows, start=2):
        mean, se, bound = (float(r[col[c]]) for c in ("mc_mean", "se", "bound"))
        slack, z = float(r[col["slack"]]), float(r[col["z_score"]])
        require(math.isfinite(se) and se > 0.0, f"{path}: line {k}: standard error {se!r}")
        require(slack == bound - mean, f"{path}: line {k}: slack {slack!r} != bound - mc_mean")
        require(abs(z - slack / se) <= 1e-12 * max(1.0, abs(z)),
                f"{path}: line {k}: z {z!r} != slack / se")
        families.setdefault(r[col["variant"]], []).append((slack, z))
    for fam, vals in families.items():
        low = sum(1 for _, z in vals if z < -3.0)
        require(low <= 0.02 * len(vals), f"{path}: family {fam}: {low} of {len(vals)} trials below z=-3")
        require(sum(s for s, _ in vals) / len(vals) >= 0.0, f"{path}: family {fam}: mean slack < 0")


# --- closed forms against mpmath ----------------------------------------------

def check_closed_forms(seed: int, cases: int = 3) -> None:
    """The bound values that mc_expected_ce and mc_expected_margin report,
    on inputs built here, against the closed forms evaluated in 50-digit
    arithmetic:
      ce:     log sum_j exp((w_j - w_y).f + b_j - b_y + lam/2 d_j^T S d_j)
      margin: log(1 + sum_{j != y} exp(s(u_j - u_y) + s m c + lam s^2/2 d_j^T S d_j))
    with d_j = w_j - w_y on raw rows for ce and on unit rows for margin,
    u_j the cosine of row j with f, and c the DA difficulty (1 - u_y)/2."""
    import mpmath as mp
    from semaug.covariance import ClassStats
    from semaug.losses import ClassifierHead
    from semaug.montecarlo import mc_expected_ce, mc_expected_margin

    mp.mp.dps = 50
    rng = np.random.default_rng([seed, 7])

    def quad(d, S):
        return mp.fsum(d[a] * S[a][b] * d[b] for a in range(len(d)) for b in range(len(d)))

    for case in range(cases):
        C, F = int(rng.integers(3, 9)), int(rng.integers(3, 11))
        A = rng.standard_normal((F, F)) / math.sqrt(F)
        cov = A @ A.T
        f = rng.standard_normal(F)
        f /= np.linalg.norm(f)
        W = rng.standard_normal((C, F)) / math.sqrt(F)
        b = 0.5 * rng.standard_normal(C)
        lam = float(10.0 ** rng.uniform(-2.0, 0.3))
        y = int(rng.integers(0, C))
        s, m = float(2.0 + 10.0 * rng.random()), float(0.05 + 0.35 * rng.random())
        stats = ClassStats(class_id=y, count=F + 5, mean=np.zeros(F), cov=cov)

        Sm = [[mp.mpf(float(v)) for v in row] for row in cov]
        fm = [mp.mpf(float(v)) for v in f]
        Wm = [[mp.mpf(float(v)) for v in row] for row in W]
        terms = []
        for j in range(C):
            d = [Wm[j][a] - Wm[y][a] for a in range(F)]
            terms.append(mp.fsum(d[a] * fm[a] for a in range(F)) + mp.mpf(float(b[j])) - mp.mpf(float(b[y]))
                         + lam * quad(d, Sm) / 2)
        want = mp.log(mp.fsum(mp.exp(t) for t in terms))
        got = mc_expected_ce(f, ClassifierHead(weights=W, biases=b), stats, lam, y, 100,
                             (seed, 7, case)).bound_value
        require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                f"mc_expected_ce case {case}: bound {got!r}, mpmath {mp.nstr(want, 17)}")

        Wh = [[v / mp.sqrt(mp.fsum(x * x for x in row)) for v in row] for row in Wm]
        u = [mp.fsum(Wh[j][a] * fm[a] for a in range(F)) for j in range(C)]
        coef = (1 - u[y]) / 2
        terms = []
        for j in range(C):
            if j == y:
                continue
            d = [Wh[j][a] - Wh[y][a] for a in range(F)]
            terms.append(s * (u[j] - u[y]) + s * m * coef + lam * s * s * quad(d, Sm) / 2)
        want = mp.log(1 + mp.fsum(mp.exp(t) for t in terms))
        got = mc_expected_margin(f, ClassifierHead(weights=W, biases=None, scale=s, margin=m),
                                 stats, lam, y, float(coef), 100, (seed, 8, case)).bound_value
        require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                f"mc_expected_margin case {case}: bound {got!r}, mpmath {mp.nstr(want, 17)}")
