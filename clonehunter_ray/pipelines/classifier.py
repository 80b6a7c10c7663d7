"""Classifier-based quality filtering (CCNet / GPT-3 style).

The canonical LLM-curation pattern the heuristic quality scores can't
replace: train a linear classifier to recognise "reference-like" text
(CCNet trains fastText on Wikipedia vs Common Crawl; GPT-3/LLaMA use
the same shape) and keep documents the classifier scores highly.

Ray-Data-first layout — no parameter server, no per-row Python:

  featurize    one ``map_batches`` pass: hashed bag-of-words (unigram +
               bigram feature hashing into ``dim`` buckets, tf
               normalisation), fully vectorised (tokenize_hash_flat +
               bincount run-length); output is a bounded feature table
               (doc_id, label, feat indices, values) that is
               materialized once so the epoch loop never re-tokenizes.
  train        full-batch logistic regression. Per epoch: the weight
               vector (dim float64, ~0.5 MB at 2^16) is ``ray.put``
               ONCE and read zero-copy in every task; each block
               computes ONE partial-gradient row (dim floats); a
               pre-combine ``map_batches`` collapses up to
               ``combine_width`` partials per task; the driver streams
               the survivors via ``iter_batches`` holding only a
               running sum. Driver state is O(dim), never O(corpus).
  score        broadcast final weights, one streaming pass appending
               the sigmoid probability.

Determinism: full-batch GD from zero init is order-independent up to
float summation order; tests pin distributed training against a
single-process numpy reference at rtol=1e-6.

At 100 TB each epoch is one streaming pass; cut passes by sampling the
training split (the classifier needs ~1e6 labelled docs, not the
corpus) — ``train_quality_classifier`` takes whatever (small) labelled
Dataset it is given and the corpus-scale work is the single scoring
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray
import ray.data

from clonehunter_ray.functions import hashing as H

_BIGRAM_MIX = np.uint64(0x9E3779B97F4A7C15)


def hashed_features_flat(
    texts, dim: int, bigrams: bool = True, norm: str = "l2"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hashed bag-of-words for a batch of texts, flat + aggregated.

    Returns ``(row int64[M], feat int64[M], val float64[M])`` with one
    entry per distinct (row, feature) pair; ``val`` is the count
    L2-normalized per row (``norm="l2"``, keeps the logistic Hessian
    well-conditioned) or term frequency (``norm="tf"``). One vectorized
    pass: tokenize via Arrow kernels, bigram hashes on the flat
    token-hash array with row-boundary masking, per-(row,feat) counts
    via sort + run-length.
    """
    flat, lens = H.tokenize_hash_flat(texts)
    n = len(lens)
    if n == 0 or len(flat) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), np.empty(0, dtype=np.float64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    feat_parts = [(flat % np.uint64(dim)).astype(np.int64)]
    row_parts = [row_of]
    if bigrams and len(flat) >= 2:
        acc = H._mix64((flat[:-1] * _BIGRAM_MIX) ^ flat[1:])
        valid = row_of[:-1] == row_of[1:]
        feat_parts.append((acc[valid] % np.uint64(dim)).astype(np.int64))
        row_parts.append(row_of[:-1][valid])
    feat = np.concatenate(feat_parts)
    row = np.concatenate(row_parts)
    # aggregate duplicates: sort by (row, feat), run-length count
    key = row * np.int64(dim) + feat
    order = np.argsort(key, kind="stable")
    k = key[order]
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
    counts = np.diff(np.r_[starts, len(k)]).astype(np.float64)
    uk = k[starts]
    urow = uk // dim
    ufeat = uk % dim
    if norm == "tf":
        # term frequency: count / document token length
        denom = np.maximum(lens[urow], 1).astype(np.float64)
        return urow, ufeat, counts / denom
    # L2 per row: ||x_r|| = 1 for every non-empty row
    sq = np.bincount(urow, weights=counts * counts, minlength=n)
    denom = np.sqrt(np.maximum(sq, 1e-300))[urow]
    return urow, ufeat, counts / denom


@dataclass
class ClassifierModel:
    """Trained hashed-linear model (weights are the whole state)."""

    weights: np.ndarray
    bias: float
    dim: int
    bigrams: bool
    norm: str = "l2"
    losses: list[float] = field(default_factory=list)

    def predict_proba(self, texts) -> np.ndarray:
        row, feat, val = hashed_features_flat(
            texts, self.dim, self.bigrams, self.norm
        )
        n = len(texts)
        s = np.bincount(
            row, weights=val * self.weights[feat], minlength=n
        ) + self.bias
        return 1.0 / (1.0 + np.exp(-s))


def _featurize_batch(
    batch: pa.Table, *, dim: int, bigrams: bool, norm: str, text_col: str,
    label_col: str | None, id_col: str,
) -> pa.Table:
    row, feat, val = hashed_features_flat(batch[text_col], dim, bigrams, norm)
    n = batch.num_rows
    if n == 0:
        out = {
            id_col: batch[id_col],
            "feat": pa.array([], pa.list_(pa.int64())),
            "val": pa.array([], pa.list_(pa.float64())),
        }
        if label_col is not None:
            out["label"] = pa.array([], pa.float64())
        return pa.table(out)
    splits = np.cumsum(np.bincount(row, minlength=n).astype(np.int64))[:-1]
    out = {
        id_col: batch[id_col],
        "feat": pa.array(
            [a.tolist() for a in np.split(feat, splits)],
            pa.list_(pa.int64()),
        ),
        "val": pa.array(
            [a.tolist() for a in np.split(val, splits)],
            pa.list_(pa.float64()),
        ),
    }
    if label_col is not None:
        out["label"] = batch[label_col].cast(pa.float64())
    return pa.table(out)


def _flat_from_lists(batch: pa.Table):
    """Zero-copy-ish flat view of the feature-list columns."""
    feat_col = batch["feat"].combine_chunks()
    val_col = batch["val"].combine_chunks()
    lens = feat_col.value_lengths().to_numpy(zero_copy_only=False)
    row = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
    feat = feat_col.flatten().to_numpy(zero_copy_only=False)
    val = val_col.flatten().to_numpy(zero_copy_only=False)
    return row, feat, val


def _grad_batch(batch: pa.Table, *, w_ref, dim: int) -> pa.Table:
    """One partial-gradient row per batch: d(logloss)/dw over the rows
    this task saw, weights read zero-copy from the plasma broadcast."""
    wb = ray.get(w_ref)
    w, b = wb[:-1], wb[-1]
    row, feat, val = _flat_from_lists(batch)
    y = batch.column("label").combine_chunks().to_numpy(zero_copy_only=False)
    n = batch.num_rows
    s = np.bincount(row, weights=val * w[feat], minlength=n) + b
    p = 1.0 / (1.0 + np.exp(-s))
    g = p - y
    grad = np.bincount(feat, weights=val * g[row], minlength=dim)
    eps = 1e-12
    loss = float(-np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
    out = np.empty(dim + 3, dtype=np.float64)
    out[:dim] = grad
    out[dim] = float(g.sum())  # bias gradient
    out[dim + 1] = loss
    out[dim + 2] = float(n)
    return pa.table({"partial": pa.array([out.tolist()], pa.list_(pa.float64()))})


def _sum_partials(batch: pa.Table) -> pa.Table:
    col = batch["partial"].combine_chunks()
    if len(col) == 0:
        return batch
    flat = col.flatten().to_numpy(zero_copy_only=False)
    width = col.value_lengths()[0].as_py()
    acc = flat.reshape(len(col), width).sum(axis=0)
    return pa.table({"partial": pa.array([acc.tolist()], pa.list_(pa.float64()))})


def featurize(
    ds: "ray.data.Dataset",
    *,
    dim: int = 2**16,
    bigrams: bool = True,
    norm: str = "l2",
    text_col: str = "text",
    label_col: str | None = "label",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Hash-featurize a (small, labelled) training Dataset."""
    return ds.map_batches(
        _featurize_batch,
        fn_kwargs={
            "dim": dim, "bigrams": bigrams, "norm": norm,
            "text_col": text_col, "label_col": label_col, "id_col": id_col,
        },
        batch_format="pyarrow",
    )


def train_quality_classifier(
    ds: "ray.data.Dataset",
    *,
    dim: int = 2**16,
    epochs: int = 30,
    lr: float = 8.0,
    l2: float = 1e-6,
    bigrams: bool = True,
    norm: str = "l2",
    text_col: str = "text",
    label_col: str = "label",
    id_col: str = "doc_id",
    combine_width: int = 32,
) -> ClassifierModel:
    """Full-batch logistic regression over hashed features.

    ``ds`` is the LABELLED TRAINING SPLIT (weak labels per CCNet: the
    reference corpus vs a random sample) — small relative to the
    corpus being scored. Featurization runs once and is materialized;
    each epoch is one streaming gradient pass with the weight vector
    broadcast via ``ray.put``. The step size backtracks (revert +
    halve) whenever an epoch's mean logloss rises, so the default
    ``lr`` is deliberately aggressive — convergence is monotone
    without hand-tuning.
    """
    feats = featurize(
        ds, dim=dim, bigrams=bigrams, norm=norm, text_col=text_col,
        label_col=label_col, id_col=id_col,
    ).materialize()
    wb = np.zeros(dim + 1, dtype=np.float64)
    prev_wb: np.ndarray | None = None
    losses: list[float] = []
    step = lr
    epoch = 0

    def _epoch_pass(weights: np.ndarray) -> np.ndarray:
        w_ref = ray.put(weights)
        partials = feats.map_batches(
            _grad_batch,
            fn_kwargs={"w_ref": w_ref, "dim": dim},
            batch_format="pyarrow",
        ).map_batches(
            _sum_partials, batch_format="pyarrow", batch_size=combine_width
        )
        acc = np.zeros(dim + 3, dtype=np.float64)
        for b in partials.iter_batches(batch_format="pyarrow"):
            if b.num_rows:
                acc += _sum_partials(b)["partial"][0].as_py()
        return acc

    while epoch < epochs:
        acc = _epoch_pass(wb)
        n = max(acc[dim + 2], 1.0)
        loss = float(acc[dim + 1] / n)
        if losses and loss > losses[-1] and prev_wb is not None and step > lr / 64:
            # the last step overshot: revert and retry at half the rate
            # (the retried epoch still counts toward the budget)
            wb = prev_wb
            step /= 2.0
            epoch += 1
            continue
        losses.append(loss)
        prev_wb = wb.copy()
        wb[:dim] -= step * (acc[:dim] / n + l2 * wb[:dim])
        wb[dim] -= step * (acc[dim] / n)
        epoch += 1

    # the loop only loss-checks a step at the NEXT epoch's evaluation,
    # so the final update exits unchecked — with an aggressive lr the
    # returned model could be an unvalidated overshoot. One extra loss
    # pass keeps whichever of (final wb, last accepted weights) is
    # actually better.
    if prev_wb is not None and not np.array_equal(wb, prev_wb):
        acc = _epoch_pass(wb)
        final_loss = float(acc[dim + 1] / max(acc[dim + 2], 1.0))
        if losses and final_loss > losses[-1]:
            wb = prev_wb
        # losses keeps its per-epoch-start contract (one entry per
        # accepted epoch evaluation) — the extra pass only decides
        # which weights to return
    return ClassifierModel(
        weights=wb[:dim].copy(), bias=float(wb[dim]), dim=dim,
        bigrams=bigrams, norm=norm, losses=losses,
    )


class _ScoreStage:
    """Actor-pool scorer: the weight vector is fetched zero-copy once
    per actor in ``__init__``, not per batch."""

    def __init__(self, w_ref, dim: int, bigrams: bool, norm: str,
                 text_col: str, out_col: str) -> None:
        wb = ray.get(w_ref)
        self.w, self.b = wb[:-1], float(wb[-1])
        self.dim, self.bigrams, self.norm = dim, bigrams, norm
        self.text_col, self.out_col = text_col, out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        row, feat, val = hashed_features_flat(
            batch[self.text_col], self.dim, self.bigrams, self.norm
        )
        s = np.bincount(
            row, weights=val * self.w[feat], minlength=batch.num_rows
        ) + self.b
        p = 1.0 / (1.0 + np.exp(-s))
        return batch.append_column(self.out_col, pa.array(p, pa.float64()))


def score_with_classifier(
    ds: "ray.data.Dataset",
    model: ClassifierModel,
    *,
    text_col: str = "text",
    out_col: str = "quality_prob",
    concurrency: int | tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Append the classifier probability — ONE streaming pass; this is
    the corpus-scale side of the pattern, so the pool autoscales to
    the cluster by default (a fixed constant would cap the whole
    stage; dedup.py documents the same rule)."""
    if concurrency is None:
        from clonehunter_ray.util import auto_actor_pool

        concurrency = auto_actor_pool()
    wb = np.empty(model.dim + 1, dtype=np.float64)
    wb[:-1] = model.weights
    wb[-1] = model.bias
    w_ref = ray.put(wb)
    return ds.map_batches(
        _ScoreStage,
        fn_constructor_args=(
            w_ref, model.dim, model.bigrams, model.norm, text_col, out_col,
        ),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
