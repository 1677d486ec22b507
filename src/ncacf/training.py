"""Estimation procedures: weighted ALS, hybrid ALS+gradient schemes, unified
gradient training for the dot-product and deep-interaction models, and the
two-stage content baseline.

All data-term sums run over item batches crossed with every user; pairs
without a stored playcount contribute with r=0 and confidence 1. Training on
a cold split passes the training items as `item_pool`: batches, ALS sweeps
and regularizers then never touch held-out items.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ConfidenceScheme, FeatureTable, SparsePlaycounts
from .errors import ConfigError, DataError, TrainingDivergedError
from .models import (Embeddings, Hyperparams, Model, ModelVariant,
                     attach_tower, init_model, tower_grid_backward,
                     tower_grid_forward)
from .numerics import AdamState, adam_step, mlp_backward, mlp_forward, solve_spd
from .rng import rng_for

# ---------------------------------------------------------------------------
# Item batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSchedule:
    """Seeded per-epoch permutation of item indices, cut into batches."""

    seed: int
    epoch: int
    batch_size: int
    batches: tuple[np.ndarray, ...]


def make_batches(num_items: int, batch_size: int, seed: int, epoch: int) -> BatchSchedule:
    """Every index in 0..num_items-1 exactly once; the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = rng_for(seed, "batches", epoch).permutation(num_items)
    batches = tuple(perm[s:s + batch_size] for s in range(0, num_items, batch_size))
    return BatchSchedule(seed, epoch, batch_size, batches)


def _pool_dims(num_items: int, item_pool) -> np.ndarray:
    if item_pool is None:
        return np.arange(num_items, dtype=np.int64)
    return np.asarray(item_pool, dtype=np.int64)


# ---------------------------------------------------------------------------
# Losses and analytic gradients
# ---------------------------------------------------------------------------

def _batch_rc(data: SparsePlaycounts, scheme: ConfidenceScheme, items: np.ndarray):
    """Dense binarized playcounts and confidences for users x batch items."""
    users, cols, counts = data.by_item.take(items)
    R = np.zeros((data.num_users, items.size))
    C = np.ones((data.num_users, items.size))
    C[users, cols] = scheme.c(counts)
    R[users, cols] = scheme.r(counts)
    return R, C


def _batch_objective(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
                     features: FeatureTable | None, lam_w: float, lam_h: float,
                     batch: np.ndarray, pool_size: int, want_grads: bool,
                     owned: frozenset[str] = frozenset()):
    """Confidence-weighted prediction error over (all users) x (batch items),
    plus regularizers.

    The user regularizer is scaled by batch/pool so the batch objectives of
    one epoch sum to the full objective; the item-side terms are summed over
    the batch only. Returns (loss, grads keyed by parameter group).
    """
    variant = model.variant
    W = model.embeddings.W
    strict = variant.coupling == "strict"
    batch = np.asarray(batch, dtype=np.int64)

    phi = phi_cache = None
    if variant.has_content:
        phi_out, phi_cache = mlp_forward(model.extractor, features.values[batch])
        phi = phi_out.T  # (K, B)
    H_use = phi if strict else model.embeddings.H[:, batch]

    R, C = _batch_rc(data, scheme, batch)
    deep = model.interaction is not None
    if deep:
        S, tower_cache = tower_grid_forward(model.interaction, W, H_use,
                                            variant.combination)
    else:
        S = W.T @ H_use

    diff = S - R
    scale_w = batch.size / pool_size
    loss = float(np.sum(C * diff * diff)) + lam_w * float(np.sum(W * W)) * scale_w
    D = None
    if not strict:
        prior = phi if variant.has_content else 0.0
        D = H_use - prior
        loss += lam_h * float(np.sum(D * D))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"objective is not finite ({loss})")
    if not want_grads:
        return loss, {}

    dS = 2.0 * C * diff
    grads: dict[str, object] = {}
    if deep:
        tower_grads, gW_data, gH_use = tower_grid_backward(model.interaction,
                                                           tower_cache, dS)
        if "interaction" in owned:
            grads["interaction"] = tower_grads
    else:
        gW_data = H_use @ dS.T
        gH_use = W @ dS

    if "W" in owned:
        grads["W"] = gW_data + (2.0 * lam_w * scale_w) * W
    if strict:
        if "extractor" in owned:
            bundle, _ = mlp_backward(model.extractor, phi_cache, gH_use.T)
            grads["extractor"] = bundle.arrays
    else:
        if "H" in owned:
            gH = np.zeros_like(model.embeddings.H)
            gH[:, batch] = gH_use + 2.0 * lam_h * D
            grads["H"] = gH
        if "extractor" in owned and variant.has_content:
            bundle, _ = mlp_backward(model.extractor, phi_cache, (-2.0 * lam_h * D).T)
            grads["extractor"] = bundle.arrays
    return loss, grads


# Floats in each users x items x width grid of one block of the full
# objective: the dense R, C and scores (width 1) and, for a deep model, each
# layer of the tower grid.
_LOSS_BLOCK_FLOATS = 1 << 21


def _grid_width(model: Model) -> int:
    """Widest grid per (user, item) pair that _batch_objective builds: 1 for
    a dot product, else the widest tower layer (and the product grid's K)."""
    if model.interaction is None:
        return 1
    widths = [layer.out_dim for layer in model.interaction.layers]
    if model.variant.combination == "multiplication":
        widths.append(model.interaction.in_dim)
    return max(widths)


def _chunked_loss(model, data, scheme, features, lam_w, lam_h, pool) -> float:
    # Confidences and tower grids are only ever expanded for one block of
    # items at a time.
    block = max(1, _LOSS_BLOCK_FLOATS // (model.num_users * _grid_width(model)))
    total = 0.0
    for start in range(0, pool.size, block):
        part, _ = _batch_objective(model, data, scheme, features, lam_w, lam_h,
                                   pool[start:start + block], pool.size,
                                   want_grads=False)
        total += part
    return total


def loss_relaxed(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
                 features: FeatureTable | None, lam_w: float, lam_h: float,
                 item_pool=None) -> float:
    """Weighted prediction error + lambda_W ||W||^2 + lambda_H sum over items
    of ||h_i - phi(x_i)||^2 (prior 0 for content-free models)."""
    if model.variant.coupling == "strict":
        raise ConfigError("loss_relaxed needs a model with free item embeddings")
    pool = _pool_dims(model.num_items, item_pool)
    return _chunked_loss(model, data, scheme, features, lam_w, lam_h, pool)


def loss_strict(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
                features: FeatureTable, lam_w: float, item_pool=None) -> float:
    """Weighted prediction error with h_i = phi(x_i), plus lambda_W ||W||^2."""
    if model.variant.coupling != "strict":
        raise ConfigError("loss_strict needs a strict-coupling model")
    pool = _pool_dims(model.num_items, item_pool)
    return _chunked_loss(model, data, scheme, features, lam_w, 0.0, pool)


def full_loss(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
              features: FeatureTable | None, lam_w: float, lam_h: float,
              item_pool=None) -> float:
    if model.variant.coupling == "strict":
        return loss_strict(model, data, scheme, features, lam_w, item_pool)
    return loss_relaxed(model, data, scheme, features, lam_w, lam_h, item_pool)


def full_loss_gradients(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
                        features: FeatureTable | None, lam_w: float, lam_h: float,
                        owned, item_pool=None):
    """Full-objective analytic gradients for the given parameter groups."""
    pool = _pool_dims(model.num_items, item_pool)
    return _batch_objective(model, data, scheme, features, lam_w, lam_h,
                            pool, pool.size, want_grads=True,
                            owned=frozenset(owned))


# ---------------------------------------------------------------------------
# ALS updates
# ---------------------------------------------------------------------------

# Floats in each temporary of one block of an ALS sweep. A block holds the
# rows whose gathered columns (rows x width x K, width being the block's
# longest row) and systems (rows x K x K) both fit, for every K and row length.
_ALS_BLOCK_FLOATS = 1 << 18


def _ridge_rows(F: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                indices: np.ndarray, c1: np.ndarray, cr: np.ndarray, lam: float,
                prior: np.ndarray | None = None) -> np.ndarray:
    """Minimize sum_i c_i (r_i - x . f_i)^2 + lam ||x - prior||^2 over the
    columns f_i of F (K, m), exactly, for n rows of a compressed sparse
    matrix: row j stores the columns indices[starts[j]:starts[j] + lengths[j]]
    with c1 = c - 1 and cr = c * r aligned to `indices`. prior (K, n) aligns
    with the rows.

    Unstored entries have c = 1 and r = 0, so each system is the shared
    F F^T + lam I plus G^T diag(c1) G over the row's stored columns G. Rows
    are taken shortest first, in blocks padded to the block's longest row
    (padding weighs 0); one stacked product builds a block's systems and one
    stacked solve_spd solves them. Returns (K, n).
    """
    k, n = F.shape[0], lengths.size
    Ft = np.ascontiguousarray(F.T)
    shared = F @ F.T + lam * np.eye(k)
    order = np.argsort(lengths, kind="stable")
    row_floats = k * np.maximum(lengths[order], k)  # ascending
    out = np.empty((k, n))
    start = 0
    while start < n:
        # Block [start, stop) costs its size times its last (longest) row.
        block_floats = np.arange(1, n - start + 1) * row_floats[start:]
        stop = start + max(1, int(np.searchsorted(block_floats, _ALS_BLOCK_FLOATS,
                                                  side="right")))
        rows = order[start:stop]
        offset = np.arange(lengths[rows[-1]])
        stored = offset < lengths[rows, None]
        entry = np.where(stored, starts[rows, None] + offset, 0)
        G = Ft[indices[entry]]  # (rows, width, K)
        Gt = G.transpose(0, 2, 1)
        A = (Gt * np.where(stored, c1[entry], 0.0)[:, None, :]) @ G
        A += shared
        b = (Gt @ np.where(stored, cr[entry], 0.0)[:, :, None])[..., 0]
        if prior is not None:
            b += lam * prior[:, rows].T
        out[:, rows] = solve_spd(A, b).T
        start = stop
    return out


def _dense_row(F: np.ndarray, r, c, lam: float, prior=None) -> np.ndarray:
    """_ridge_rows for one row that stores every column of F."""
    m = F.shape[1]
    c = np.asarray(c, dtype=np.float64)
    prior = None if prior is None else np.reshape(prior, (-1, 1))
    return _ridge_rows(F, np.zeros(1, dtype=np.int64), np.array([m]), np.arange(m),
                       c - 1.0, c * np.asarray(r), lam, prior)[:, 0]


def als_update_w(H: np.ndarray, r_u: np.ndarray, c_u: np.ndarray, lam_w: float) -> np.ndarray:
    """Exact per-user minimizer: (H diag(c) H^T + lam I)^-1 H diag(c) r."""
    if lam_w <= 0:
        raise ValueError("lambda_W must be positive")
    return _dense_row(H, r_u, c_u, lam_w)


def als_update_h(W: np.ndarray, r_i: np.ndarray, c_i: np.ndarray, lam_h: float,
                 prior: np.ndarray | None = None) -> np.ndarray:
    """Exact per-item minimizer with a content prior:
    (W diag(c) W^T + lam I)^-1 (W diag(c) r + lam * prior)."""
    if lam_h <= 0:
        raise ValueError("lambda_H must be positive")
    return _dense_row(W, r_i, c_i, lam_h, prior)


def als_sweep_users(H_pool: np.ndarray, data: SparsePlaycounts, scheme: ConfidenceScheme,
                    lam_w: float, pool_index: np.ndarray, threads: int = 1) -> np.ndarray:
    """Solve every user's system against the pooled item matrix.

    H_pool holds the columns for `pool_index` items only; an interaction
    with an item outside the pool is a DataError. `threads` is accepted and
    ignored: the sweep runs block by block in one thread.
    """
    col_of = np.full(data.num_items, -1, dtype=np.int64)
    col_of[pool_index] = np.arange(pool_index.size)
    cols = col_of[data.by_user.indices]
    if np.any(cols < 0):
        item = int(data.by_user.indices[np.argmax(cols < 0)])
        raise DataError(f"item {item} has interactions but is outside the item pool")
    indptr = data.by_user.indptr
    return _ridge_rows(H_pool, indptr[:-1], np.diff(indptr), cols,
                       *scheme.als_terms(data.by_user.counts), lam_w)


def als_sweep_items(W: np.ndarray, data: SparsePlaycounts, scheme: ConfidenceScheme,
                    lam_h: float, pool_index: np.ndarray,
                    prior: np.ndarray | None = None, threads: int = 1) -> np.ndarray:
    """Solve the pooled items' systems; prior columns align with pool_index.
    `threads` is ignored, as in als_sweep_users."""
    indptr = data.by_item.indptr
    starts = indptr[pool_index]
    return _ridge_rows(W, starts, indptr[pool_index + 1] - starts, data.by_item.indices,
                       *scheme.als_terms(data.by_item.counts), lam_h, prior)


# ---------------------------------------------------------------------------
# Gradient epochs
# ---------------------------------------------------------------------------

def content_mse(extractor, target: np.ndarray, rows: np.ndarray) -> float:
    """sum_i ||h_i - phi(x_i)||^2 with target columns (K, n) aligned to rows."""
    out, _ = mlp_forward(extractor, rows)
    d = out - target.T
    return float(np.sum(d * d))


def gd_content_mse(extractor, target: np.ndarray, rows: np.ndarray,
                   adam: AdamState, schedule: BatchSchedule):
    """One epoch of batched gradient steps on the content MSE.

    target is (K, n) aligned with the feature rows (n, L); the schedule
    batches index into those n items. Returns (extractor, adam).
    """
    for batch in schedule.batches:
        out, cache = mlp_forward(extractor, rows[batch])
        d = out - target.T[batch]
        if not np.all(np.isfinite(d)):
            raise TrainingDivergedError("content MSE diverged")
        bundle, _ = mlp_backward(extractor, cache, 2.0 * d)
        params, adam = adam_step(adam, extractor.param_dict(), bundle.arrays)
        extractor = extractor.with_params(params)
    return extractor, adam


def gd_wpe(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
           features: FeatureTable | None, lam_w: float, lam_h: float,
           owned: frozenset[str], adams: dict[str, AdamState],
           schedule: BatchSchedule, item_pool: np.ndarray):
    """One epoch of batched steps on the weighted-prediction-error objective.

    Exactly the `owned` parameter groups move. Embedding moments follow
    dense-optimizer semantics: items outside a batch contribute zero
    gradient but their moments still decay. Returns (model, adams).
    """
    for batch in schedule.batches:
        items = item_pool[batch]
        _, grads = _batch_objective(model, data, scheme, features, lam_w, lam_h,
                                    items, item_pool.size, want_grads=True,
                                    owned=owned)
        model = _apply_updates(model, grads, adams)
    return model, adams


def _apply_updates(model: Model, grads: dict, adams: dict[str, AdamState]) -> Model:
    model = replace(model)
    for group, g in grads.items():
        if group == "W":
            params, adams["W"] = adam_step(adams["W"], {"W": model.embeddings.W}, {"W": g})
            model.embeddings = Embeddings(params["W"], model.embeddings.H)
        elif group == "H":
            params, adams["H"] = adam_step(adams["H"], {"H": model.embeddings.H}, {"H": g})
            model.embeddings = Embeddings(model.embeddings.W, params["H"])
        elif group == "extractor":
            params, adams["extractor"] = adam_step(
                adams["extractor"], model.extractor.param_dict(), g)
            model.extractor = model.extractor.with_params(params)
        elif group == "interaction":
            params, adams["interaction"] = adam_step(
                adams["interaction"], model.interaction.param_dict(), g)
            model.interaction = model.interaction.with_params(params)
        else:
            raise KeyError(f"unknown parameter group {group!r}")
    return model


def owned_groups(variant: ModelVariant, with_interaction: bool) -> frozenset[str]:
    groups = {"W"}
    if variant.has_free_items:
        groups.add("H")
    if variant.has_content:
        groups.add("extractor")
    if variant.interaction_kind == "deep" and with_interaction:
        groups.add("interaction")
    return frozenset(groups)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    """Per-epoch objective/validation trace plus the run's final settings."""

    rows: list = field(default_factory=list)
    best_epoch: int | None = None
    best_val: float | None = None
    settings: dict = field(default_factory=dict)

    def log(self, epoch: int, phase: str, objective: float,
            val_ndcg: float | None, seconds: float) -> None:
        self.rows.append((epoch, phase, objective, val_ndcg, seconds))

    def observe_val(self, epoch: int, val_ndcg: float | None) -> bool:
        """Track the best validation score; True when it improved."""
        if val_ndcg is None:
            return False
        if self.best_val is None or val_ndcg > self.best_val:
            self.best_val = val_ndcg
            self.best_epoch = epoch
            return True
        return False

    def objectives(self) -> list[float]:
        return [row[2] for row in self.rows]


def write_report(path, report: TrainReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(report.settings):
            fh.write(f"# {key} = {report.settings[key]}\n")
        if report.best_epoch is not None:
            fh.write(f"# best_epoch = {report.best_epoch}\n")
            fh.write(f"# best_val = {report.best_val!r}\n")
        fh.write("epoch\tphase\tobjective\tval_ndcg\tseconds\n")
        for epoch, phase, obj, val, secs in report.rows:
            val_s = "-" if val is None else repr(val)
            fh.write(f"{epoch}\t{phase}\t{obj!r}\t{val_s}\t{secs:.3f}\n")


def read_report(path) -> TrainReport:
    report = TrainReport()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("epoch\t"):
                continue
            epoch, phase, obj, val, secs = line.split("\t")
            report.rows.append((int(epoch), phase, float(obj),
                                None if val == "-" else float(val), float(secs)))
    return report


# ---------------------------------------------------------------------------
# Training drivers
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    """Resumable snapshot of a gradient or hybrid run."""

    model: Model
    adams: dict[str, AdamState]
    phase_idx: int
    epoch_in_phase: int
    global_epoch: int
    best_model: Model | None = None


def train_wmf(data: SparsePlaycounts, hyper: Hyperparams, num_users: int,
              num_items: int, seed: int, item_pool=None, threads: int = 1,
              validator=None, after_iteration=None, start_state=None,
              initial_best=None) -> tuple[Model, TrainReport]:
    """Content-free weighted matrix factorization by alternating sweeps
    (item prior 0). n_iters=0 returns the initial embeddings."""
    if start_state is not None:
        model, adam, start_iter = start_state
    else:
        variant = ModelVariant("wmf", "content_free")
        model = init_model(variant, num_users, num_items, hyper.embed_dim, 0, seed)
        adam, start_iter = None, 0
    return _als_loop(model, data, None, hyper, seed, item_pool, threads,
                     validator, after_iteration, start_iter=start_iter,
                     adam=adam, initial_best=initial_best)


def train_mf_hybrid(data: SparsePlaycounts, features: FeatureTable, coupling: str,
                    hyper: Hyperparams, num_users: int, num_items: int, seed: int,
                    item_pool=None, threads: int = 1, validator=None,
                    full_batch: bool = False, after_iteration=None,
                    start_state=None, initial_best=None) -> tuple[Model, TrainReport]:
    """Alternate closed-form embedding updates with n_gd gradient epochs on
    the content extractor, following the hybrid iteration scheme (relaxed:
    item-embedding MSE target; strict: weighted prediction error with the
    user factors frozen between sweeps)."""
    if hyper.n_iters < 1 or hyper.n_gd < 1:
        raise ConfigError("mf_hybrid needs n_iters >= 1 and n_gd >= 1")
    if start_state is not None:
        model, adam, start_iter = start_state
    else:
        variant = ModelVariant("mf_hybrid", coupling)
        model = init_model(variant, num_users, num_items, hyper.embed_dim,
                           features.dim, seed, hyper.hidden_width,
                           hyper.extractor_layers)
        adam, start_iter = None, 0
    return _als_loop(model, data, features, hyper, seed, item_pool, threads,
                     validator, after_iteration, start_iter=start_iter,
                     adam=adam, full_batch=full_batch, initial_best=initial_best)


def _als_loop(model: Model, data, features, hyper: Hyperparams, seed: int,
              item_pool, threads, validator, after_iteration,
              start_iter: int = 0, adam: AdamState | None = None,
              full_batch: bool = False, initial_best=None):
    """Shared outer loop for WMF and MF-Hybrid: per iteration, ALS sweep(s)
    over W (and H for models that own it), then n_gd gradient epochs on the
    content extractor."""
    scheme = hyper.scheme()
    pool = _pool_dims(model.num_items, item_pool)
    report = TrainReport()
    if initial_best is not None:
        report.best_epoch, report.best_val = initial_best
    variant = model.variant
    relaxed_content = variant.has_content and variant.coupling == "relaxed"
    strict_content = variant.has_content and variant.coupling == "strict"
    rows = features.values[pool] if variant.has_content else None
    if variant.has_content and adam is None:
        adam = AdamState.init(model.extractor.param_dict(), hyper.eta)

    for it in range(start_iter, hyper.n_iters):
        t0 = time.perf_counter()
        if strict_content:
            phi = _phi_columns(model, features, pool)
            W = als_sweep_users(phi, data, scheme, hyper.lambda_w, pool, threads)
            model.embeddings = Embeddings(W, None)
        else:
            H_pool = model.embeddings.H[:, pool]
            W = als_sweep_users(H_pool, data, scheme, hyper.lambda_w, pool, threads)
            model.embeddings = Embeddings(W, model.embeddings.H)
            prior = _phi_columns(model, features, pool) if relaxed_content else None
            H_new = model.embeddings.H.copy()
            H_new[:, pool] = als_sweep_items(W, data, scheme, hyper.lambda_h,
                                             pool, prior, threads)
            model.embeddings = Embeddings(W, H_new)

        phase = "als"
        if variant.has_content:
            phase = "als+gd"
            batch_size = pool.size if full_batch else min(hyper.batch_items, pool.size)
            target = model.embeddings.H[:, pool] if relaxed_content else None
            for j in range(hyper.n_gd):
                schedule = make_batches(pool.size, batch_size, seed,
                                        it * hyper.n_gd + j)
                if relaxed_content:
                    model.extractor, adam = gd_content_mse(
                        model.extractor, target, rows, adam, schedule)
                else:
                    adams = {"extractor": adam}
                    model, adams = gd_wpe(model, data, scheme, features,
                                          hyper.lambda_w, hyper.lambda_h,
                                          frozenset({"extractor"}), adams,
                                          schedule, pool)
                    adam = adams["extractor"]

        objective = full_loss(model, data, scheme, features,
                              hyper.lambda_w, hyper.lambda_h, pool)
        val = None
        if validator is not None and (
                (it + 1) % hyper.eval_every == 0 or it == hyper.n_iters - 1):
            val = validator(model)
        report.observe_val(it, val)
        report.log(it, phase, objective, val, time.perf_counter() - t0)
        if after_iteration is not None:
            after_iteration(it, model, adam, report)
    return model, report


def _phi_columns(model: Model, features: FeatureTable, pool: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(model.extractor, features.values[pool])
    return out.T


def train_dcb(data: SparsePlaycounts, features: FeatureTable, coupling: str,
              hyper: Hyperparams, num_users: int, num_items: int, seed: int,
              item_pool=None, threads: int = 1, validator=None) -> tuple[Model, TrainReport]:
    """Two-stage baseline: content-free WMF first, then fit the extractor
    with the stage-1 embeddings frozen. Stage 2 gets the hybrid methods'
    total gradient budget (n_iters * n_gd epochs)."""
    scheme = hyper.scheme()
    pool = _pool_dims(num_items, item_pool)
    wmf_model, report = train_wmf(data, hyper, num_users, num_items, seed,
                                  item_pool, threads)
    variant = ModelVariant("dcb", coupling)
    model = init_model(variant, num_users, num_items, hyper.embed_dim,
                       features.dim, seed, hyper.hidden_width,
                       hyper.extractor_layers)
    if variant.has_free_items:
        model.embeddings = Embeddings(wmf_model.embeddings.W.copy(),
                                      wmf_model.embeddings.H.copy())
    else:
        model.embeddings = Embeddings(wmf_model.embeddings.W.copy(), None)
    adam = AdamState.init(model.extractor.param_dict(), hyper.eta)
    rows = features.values[pool]
    target = wmf_model.embeddings.H[:, pool]
    stage2_epochs = hyper.n_iters * hyper.n_gd
    for epoch in range(stage2_epochs):
        t0 = time.perf_counter()
        schedule = make_batches(pool.size, min(hyper.batch_items, pool.size),
                                seed, epoch)
        if coupling == "relaxed":
            model.extractor, adam = gd_content_mse(model.extractor, target,
                                                   rows, adam, schedule)
            objective = content_mse(model.extractor, target, rows)
        else:
            adams = {"extractor": adam}
            model, adams = gd_wpe(model, data, scheme, features, hyper.lambda_w,
                                  hyper.lambda_h, frozenset({"extractor"}),
                                  adams, schedule, pool)
            adam = adams["extractor"]
            objective = loss_strict(model, data, scheme, features,
                                    hyper.lambda_w, pool)
        val = None
        if validator is not None and (
                (epoch + 1) % hyper.eval_every == 0 or epoch == stage2_epochs - 1):
            val = validator(model)
        report.observe_val(hyper.n_iters + epoch, val)
        report.log(hyper.n_iters + epoch, "stage2", objective, val,
                   time.perf_counter() - t0)
    return model, report


def train_unified(variant: ModelVariant, data: SparsePlaycounts,
                  features: FeatureTable | None, hyper: Hyperparams,
                  num_users: int, num_items: int, seed: int, item_pool=None,
                  threads: int = 1, validator=None, full_batch: bool = False,
                  freeze_interaction: bool = False, state: TrainState | None = None,
                  after_epoch=None, initial_best=None) -> tuple[Model, Model, TrainReport]:
    """Single gradient loop over all owned parameters, batched by items.

    Deep-interaction variants run two phases: a dot-product pretraining
    phase (tower absent), then the tower is attached with fresh optimizer
    state and everything is fine-tuned. Returns (final model,
    best-validation model, report).
    """
    scheme = hyper.scheme()
    feature_dim = features.dim if features is not None else 0
    pool = _pool_dims(num_items, item_pool)
    deep = variant.interaction_kind == "deep"
    phases = [("pretrain", hyper.pretrain_epochs), ("finetune", hyper.finetune_epochs)] \
        if deep else [("train", hyper.max_epochs)]

    if state is None:
        model = init_model(variant, num_users, num_items, hyper.embed_dim,
                           feature_dim, seed, hyper.hidden_width,
                           hyper.extractor_layers, with_interaction=False)
        state = TrainState(model=model, adams={}, phase_idx=0, epoch_in_phase=0,
                           global_epoch=0, best_model=None)
        _enter_phase(state, variant, hyper, seed, freeze_interaction, phases[0][0])
    elif not state.adams:
        # Injected state (e.g. a pretrained checkpoint): build optimizer
        # state for the phase it starts in.
        _enter_phase(state, variant, hyper, seed, freeze_interaction,
                     phases[state.phase_idx][0])
    report = TrainReport()
    if initial_best is not None:
        report.best_epoch, report.best_val = initial_best
    batch_size = pool.size if full_batch else min(hyper.batch_items, pool.size)

    while state.phase_idx < len(phases):
        phase_name, phase_epochs = phases[state.phase_idx]
        while state.epoch_in_phase < phase_epochs:
            t0 = time.perf_counter()
            owned = _phase_owned(variant, phase_name, freeze_interaction)
            schedule = make_batches(pool.size, batch_size, seed, state.global_epoch)
            state.model, state.adams = gd_wpe(
                state.model, data, scheme, features, hyper.lambda_w,
                hyper.lambda_h, owned, state.adams, schedule, pool)
            objective = full_loss(state.model, data, scheme, features,
                                  hyper.lambda_w, hyper.lambda_h, pool)
            val = None
            last = (state.epoch_in_phase == phase_epochs - 1
                    and state.phase_idx == len(phases) - 1)
            if validator is not None and (
                    (state.global_epoch + 1) % hyper.eval_every == 0 or last):
                val = validator(state.model)
            if report.observe_val(state.global_epoch, val):
                state.best_model = state.model.copy()
            report.log(state.global_epoch, phase_name, objective, val,
                       time.perf_counter() - t0)
            state.epoch_in_phase += 1
            state.global_epoch += 1
            if after_epoch is not None:
                after_epoch(state, report)
        state.phase_idx += 1
        state.epoch_in_phase = 0
        if state.phase_idx < len(phases):
            _enter_phase(state, variant, hyper, seed, freeze_interaction,
                         phases[state.phase_idx][0])
    best = state.best_model if state.best_model is not None else state.model
    return state.model, best, report


def _enter_phase(state: TrainState, variant: ModelVariant, hyper: Hyperparams,
                 seed: int, freeze_interaction: bool, phase_name: str) -> None:
    """(Re)build optimizer state at a phase boundary; attach the tower when
    fine-tuning starts."""
    model = state.model
    if phase_name == "finetune" and model.interaction is None:
        model.interaction = attach_tower(variant, model.embed_dim, seed)
    owned = _phase_owned(variant, phase_name, freeze_interaction)
    adams: dict[str, AdamState] = {}
    if "W" in owned:
        adams["W"] = AdamState.init({"W": model.embeddings.W}, hyper.eta)
    if "H" in owned:
        adams["H"] = AdamState.init({"H": model.embeddings.H}, hyper.eta)
    if "extractor" in owned:
        adams["extractor"] = AdamState.init(model.extractor.param_dict(), hyper.eta)
    if "interaction" in owned:
        adams["interaction"] = AdamState.init(model.interaction.param_dict(), hyper.eta)
    state.adams = adams


def _phase_owned(variant: ModelVariant, phase_name: str,
                 freeze_interaction: bool) -> frozenset[str]:
    owned = owned_groups(variant, with_interaction=(phase_name != "pretrain"))
    if freeze_interaction:
        owned = owned - {"interaction"}
    return owned


def train_mf_uni(data: SparsePlaycounts, features: FeatureTable, coupling: str,
                 hyper: Hyperparams, num_users: int, num_items: int, seed: int,
                 item_pool=None, threads: int = 1, validator=None,
                 full_batch: bool = False, state=None, after_epoch=None,
                 initial_best=None):
    variant = ModelVariant("mf_uni", coupling)
    return train_unified(variant, data, features, hyper, num_users, num_items,
                         seed, item_pool, threads, validator, full_batch,
                         state=state, after_epoch=after_epoch,
                         initial_best=initial_best)


def train_ncacf(data: SparsePlaycounts, features: FeatureTable | None, coupling: str,
                combination: str, q_hidden: int, hyper: Hyperparams,
                num_users: int, num_items: int, seed: int, item_pool=None,
                threads: int = 1, validator=None, full_batch: bool = False,
                freeze_interaction: bool = False, output_activation: str = "sigmoid",
                family: str = "ncacf", state=None, after_epoch=None,
                initial_best=None):
    variant = ModelVariant(family, coupling, "deep", combination, q_hidden,
                           output_activation)
    return train_unified(variant, data, features, hyper, num_users, num_items,
                         seed, item_pool, threads, validator, full_batch,
                         freeze_interaction, state=state, after_epoch=after_epoch,
                         initial_best=initial_best)
