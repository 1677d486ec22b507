"""Estimation procedures: weighted ALS, hybrid ALS+gradient schemes, unified
gradient training for the dot-product and deep-interaction models, and the
two-stage content baseline, all behind one entry point, `train`.

`train` runs every family as a list of phases through one epoch loop. A
phase has a name, an epoch count, an entry step that sets up the model and
its Adam state, and a one-epoch body that returns the objective. wmf and
mf_hybrid run one ALS phase, mf_uni one gradient phase, ncacf and ncf a
dot-product pretraining phase and then a fine-tuning phase with the tower,
and dcb an unvalidated, uncheckpointed WMF phase and then its stage 2.

All data-term sums run over item batches crossed with every user; pairs
without a stored playcount contribute with r=0 and confidence 1. A dot
product sums them at nnz cost through K x K Gramians; only a tower expands
the users x batch grid, and it runs its forward and backward passes on
cache-sized sub-blocks of users, two at a time on two cores
(numerics.map_blocks), summing the sub-blocks' gradients in block order into
one optimizer step per batch. An ALS sweep solves its blocks of rows on the
same two workers, each block into its own columns. Either way the worker
count changes no bit. Training on a cold split passes the training items as
`item_pool`: batches, ALS sweeps and regularizers then never touch held-out
items.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import ConfidenceScheme, FeatureTable, SparsePlaycounts, write_text
from .errors import ConfigError, DataError, TrainingDivergedError
from .models import (Embeddings, Hyperparams, Model, ModelVariant,
                     attach_tower, block_units, extract_item_embeddings,
                     grid_width, init_model, load_model, tower_grid_backward,
                     tower_grid_forward, tower_user_blocks)
from .numerics import (AdamState, adam_step, map_blocks, mlp_backward, mlp_forward,
                       solve_spd)
from .rng import rng_for

# ---------------------------------------------------------------------------
# Item batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchSchedule:
    """Seeded per-epoch permutation of item indices, cut into batches."""

    batches: tuple[np.ndarray, ...]


def make_batches(num_items: int, batch_size: int, seed: int, epoch: int) -> BatchSchedule:
    """Every index in 0..num_items-1 exactly once; the last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = rng_for(seed, "batches", epoch).permutation(num_items)
    batches = tuple(perm[s:s + batch_size] for s in range(0, num_items, batch_size))
    return BatchSchedule(batches)


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
                     batch: np.ndarray, pool_size: int,
                     owned: frozenset[str] = frozenset()):
    """Confidence-weighted prediction error over (all users) x (batch items),
    plus regularizers.

    A dot product s = w . h never expands that grid: the error of every
    pair scored as unobserved (r = 0, c = 1) is <W W^T, H_b H_b^T>, and the
    batch's stored pairs add c (s - r)^2 - s^2 each; the gradients split the
    same way. That costs O(nnz K + (U + B) K^2). A tower scores the dense
    users x batch grid in sub-blocks of users (models.tower_user_blocks),
    on up to two workers, and sums the sub-blocks' parts in block order.

    The user regularizer is scaled by batch/pool so the batch objectives of
    one epoch sum to the full objective; the item-side terms are summed over
    the batch only. Returns (loss, grads of the `owned` parameter groups);
    with none owned, no gradient is computed.
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

    deep = model.interaction is not None
    if deep:
        # Each user sub-block runs its forward pass, its error and at once its
        # backward pass, so that no grid outlives its sub-block. The
        # sub-blocks may run on two workers; their parts are summed here in
        # block order.
        R, C = _batch_rc(data, scheme, batch)

        def sub_block(users):
            S, cache = tower_grid_forward(model.interaction, W[:, users], H_use,
                                          variant.combination)
            diff = S - R[users]
            part = np.sum(C[users] * diff * diff)
            if not owned:
                return part, None
            return part, tower_grid_backward(model.interaction, cache,
                                             2.0 * C[users] * diff)

        data_loss, tower_grads = 0.0, {}
        gW_data, gH_use = np.empty_like(W), np.zeros_like(H_use)
        blocks = tower_user_blocks(model, W.shape[1], batch.size)
        for users, (part, back) in zip(blocks, map_blocks(sub_block, blocks)):
            data_loss += part
            if owned:
                grads_b, gW_data[:, users], gH_b = back
                gH_use += gH_b
                for name, g in grads_b.items():
                    tower_grads[name] = tower_grads.get(name, 0.0) + g
    else:
        users, cols, counts = data.by_item.take(batch)
        # Non-finite parameters give inf - inf here; the check below raises.
        with np.errstate(over="ignore", invalid="ignore"):
            gram_w, gram_h = W @ W.T, H_use @ H_use.T
            s = sum(w[users] * h[cols] for w, h in zip(W, H_use))
            c, diff = scheme.c(counts), s - scheme.r(counts)
            data_loss = np.sum(gram_w * gram_h) + np.sum(c * diff * diff - s * s)

    scale_w = batch.size / pool_size
    loss = float(data_loss) + lam_w * float(np.sum(W * W)) * scale_w
    D = None
    if not strict:
        prior = phi if variant.has_content else 0.0
        D = H_use - prior
        loss += lam_h * float(np.sum(D * D))
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"objective is not finite ({loss})")
    if not owned:
        return loss, {}

    grads: dict[str, object] = {}
    if deep:
        if "interaction" in owned:
            grads["interaction"] = tower_grads
    else:
        # dS = 2 S everywhere, plus q where a pair is stored.
        q = 2.0 * (c * diff - s)
        gW_data = 2.0 * (gram_h @ W) + np.stack(
            [np.bincount(users, q * h[cols], minlength=W.shape[1]) for h in H_use])
        gH_use = 2.0 * (gram_w @ H_use) + np.stack(
            [np.bincount(cols, q * w[users], minlength=batch.size) for w in W])

    if "W" in owned:
        grads["W"] = gW_data + (2.0 * lam_w * scale_w) * W
    if strict:
        if "extractor" in owned:
            grads["extractor"], _ = mlp_backward(model.extractor, phi_cache, gH_use.T)
    else:
        if "H" in owned:
            gH = np.zeros_like(model.embeddings.H)
            gH[:, batch] = gH_use + 2.0 * lam_h * D
            grads["H"] = gH
        if "extractor" in owned and variant.has_content:
            grads["extractor"], _ = mlp_backward(model.extractor, phi_cache,
                                                 (-2.0 * lam_h * D).T)
    return loss, grads


def full_loss(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
              features: FeatureTable | None, lam_w: float, lam_h: float,
              item_pool=None) -> float:
    """Weighted prediction error over every user x pooled item, plus
    lambda_W ||W||^2 and, for free item embeddings, lambda_H times the sum over
    pooled items of ||h_i - phi(x_i)||^2 (prior 0 for content-free models).
    Strict coupling scores h_i = phi(x_i) and has no lambda_H term.

    A dot product takes one pass over the pool; a tower takes one block of
    items at a time, and each block in user sub-blocks as _batch_objective
    does.
    """
    pool = _pool_dims(model.num_items, item_pool)
    block = max(1, pool.size)
    if model.interaction is not None:
        block = block_units(model.num_users * grid_width(model))
    total = 0.0
    for start in range(0, pool.size, block):
        part, _ = _batch_objective(model, data, scheme, features, lam_w, lam_h,
                                   pool[start:start + block], pool.size)
        total += part
    return total


# ---------------------------------------------------------------------------
# ALS updates
# ---------------------------------------------------------------------------

# Floats in each temporary of one block of an ALS sweep. A block holds the
# rows whose gathered columns (rows x width x K, width being the block's
# longest row) and systems (rows x K x K) both fit, for every K and row length.
# Two blocks are in flight at once on two cores (numerics.map_blocks); 2^18
# was the fastest budget for them on hybrid_cold (K = 16).
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
    stacked solve_spd factors each of them once and solves it. No row's
    system depends on another's, so the blocks run on up to two workers
    (numerics.map_blocks), each writing only its own columns of the result,
    with the same bits on one worker and on two. Returns (K, n).

    Raises _RowNotPD naming the lowest-numbered row whose system is not
    positive definite, after every block was tried.
    """
    k, n = F.shape[0], lengths.size
    Ft = np.ascontiguousarray(F.T)
    shared = F @ F.T + lam * np.eye(k)
    order = np.argsort(lengths, kind="stable")
    row_floats = k * np.maximum(lengths[order], k)  # ascending
    out = np.empty((k, n))
    blocks, start = [], 0
    while start < n:
        # Block [start, stop) costs its size times its last (longest) row.
        block_floats = np.arange(1, n - start + 1) * row_floats[start:]
        stop = start + max(1, int(np.searchsorted(block_floats, _ALS_BLOCK_FLOATS,
                                                  side="right")))
        blocks.append(order[start:stop])
        start = stop

    def solve_block(rows):
        """Solve the block's rows into out; n, or the lowest row whose
        system failed to factor."""
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
        del G, Gt  # two blocks are in flight at once: free the gather first
        try:
            out[:, rows] = solve_spd(A, b).T
        except np.linalg.LinAlgError:
            return _first_not_pd(rows, A)
        return n

    bad = min(map_blocks(solve_block, blocks), default=n)
    if bad < n:
        raise _RowNotPD(bad)
    return out


class _RowNotPD(np.linalg.LinAlgError):
    """An ALS row whose system is not positive definite."""

    def __init__(self, row: int):
        super().__init__(f"the ALS system of row {row} is not positive definite")
        self.row = row


def _first_not_pd(rows: np.ndarray, A: np.ndarray) -> int:
    """The lowest of `rows` whose system in the stack A fails to factor on
    its own (the lowest of them all, should none fail alone)."""
    for i in np.argsort(rows):
        try:
            np.linalg.cholesky(A[i])
        except np.linalg.LinAlgError:
            return int(rows[i])
    return int(rows.min())


def _not_pd_error(side: str, unit: int, lam_name: str, lam: float) -> ConfigError:
    msg = (f"ALS {side} sweep: the system of {side} {unit} is not positive "
           f"definite with {lam_name} = {lam:g}")
    if lam == 0:
        msg += f"; a zero {lam_name} leaves rank-deficient systems singular, set {lam_name} > 0"
    return ConfigError(msg)


def als_sweep_users(H_pool: np.ndarray, data: SparsePlaycounts, scheme: ConfidenceScheme,
                    lam_w: float, pool_index: np.ndarray) -> np.ndarray:
    """Solve every user's system against the pooled item matrix.

    H_pool holds the columns for `pool_index` items only; an interaction
    with an item outside the pool is a DataError.
    """
    col_of = np.full(data.num_items, -1, dtype=np.int64)
    col_of[pool_index] = np.arange(pool_index.size)
    cols = col_of[data.by_user.indices]
    if np.any(cols < 0):
        item = int(data.by_user.indices[np.argmax(cols < 0)])
        raise DataError(f"item {item} has interactions but is outside the item pool")
    indptr = data.by_user.indptr
    try:
        return _ridge_rows(H_pool, indptr[:-1], np.diff(indptr), cols,
                           *scheme.als_terms(data.by_user.counts), lam_w)
    except _RowNotPD as exc:
        raise _not_pd_error("user", exc.row, "lambda_w", lam_w) from exc


def als_sweep_items(W: np.ndarray, data: SparsePlaycounts, scheme: ConfidenceScheme,
                    lam_h: float, pool_index: np.ndarray,
                    prior: np.ndarray | None = None) -> np.ndarray:
    """Solve the pooled items' systems; prior columns align with pool_index."""
    indptr = data.by_item.indptr
    starts = indptr[pool_index]
    try:
        return _ridge_rows(W, starts, indptr[pool_index + 1] - starts,
                           data.by_item.indices, *scheme.als_terms(data.by_item.counts),
                           lam_h, prior)
    except _RowNotPD as exc:
        raise _not_pd_error("item", int(pool_index[exc.row]), "lambda_h", lam_h) from exc


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
    batches index into those n items. The steps update the extractor's
    arrays and adam in place; returns (extractor, adam).
    """
    for batch in schedule.batches:
        out, cache = mlp_forward(extractor, rows[batch])
        d = out - target.T[batch]
        if not np.all(np.isfinite(d)):
            raise TrainingDivergedError("content MSE diverged")
        grads, _ = mlp_backward(extractor, cache, 2.0 * d)
        adam_step(adam, extractor.param_dict(), grads)
    return extractor, adam


def gd_wpe(model: Model, data: SparsePlaycounts, scheme: ConfidenceScheme,
           features: FeatureTable | None, lam_w: float, lam_h: float,
           adams: dict[str, AdamState], schedule: BatchSchedule,
           item_pool: np.ndarray):
    """One epoch of batched steps on the weighted-prediction-error objective.

    Exactly the parameter groups with Adam state in `adams` move. Embedding
    moments follow dense-optimizer semantics: items outside a batch
    contribute zero gradient but their moments still decay. The steps update
    the model's arrays and adams in place; returns (model, adams).
    """
    owned = frozenset(adams)
    for batch in schedule.batches:
        items = item_pool[batch]
        _, grads = _batch_objective(model, data, scheme, features, lam_w, lam_h,
                                    items, item_pool.size, owned)
        for group, g in grads.items():
            adam_step(adams[group], group_params(model, group),
                      g if isinstance(g, dict) else {group: g})
    return model, adams


_GROUPS = ("W", "H", "extractor", "interaction")


def group_params(model: Model, group: str) -> dict[str, np.ndarray]:
    """The named arrays of one parameter group: {"W": W} or {"H": H} from the
    embeddings, the MLP's param_dict() for "extractor" and "interaction"."""
    if group in ("W", "H"):
        return {group: getattr(model.embeddings, group)}
    return getattr(model, group).param_dict()


def _fresh_adams(model: Model, groups, eta: float) -> dict[str, AdamState]:
    return {g: AdamState.init(group_params(model, g), eta) for g in _GROUPS if g in groups}


def owned_groups(variant: ModelVariant, with_interaction: bool) -> frozenset[str]:
    groups = {"W"}
    if variant.has_free_items:
        groups.add("H")
    if variant.has_content:
        groups.add("extractor")
    if variant.deep and with_interaction:
        groups.add("interaction")
    return frozenset(groups)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

_ALS_FAMILIES = ("wmf", "mf_hybrid")


@dataclass
class TrainState:
    """The run's record: the model and its Adam moments, the position
    reached, the best validation score so far and its epoch, and one report
    row (epoch, phase, objective, val_ndcg or None, seconds) per epoch done.

    The position is the phase, the epochs done in it, and the epochs done in
    all phases; an ALS iteration is one epoch. model is None until the first
    phase of a fresh run builds it. The state holds one model, the current
    one: a caller that keeps the best model saves it in the epoch that sets
    best_epoch. A resumed run's rows start with the earlier rows that its
    caller kept (checkpoints do not hold them).
    """

    model: Model | None = None
    adams: dict[str, AdamState] = field(default_factory=dict)
    phase_idx: int = 0
    epoch_in_phase: int = 0
    global_epoch: int = 0
    best_epoch: int | None = None
    best_val: float | None = None
    rows: list = field(default_factory=list)


@dataclass(frozen=True)
class Phase:
    """A stretch of `epochs` epochs that the report labels `name`.
    enter(state) sets up the model and its Adam state when the phase starts,
    but not when a run resumes inside it; epoch(state) runs one epoch and
    returns the objective. An unobserved phase is neither validated nor
    checkpointed."""

    name: str
    epochs: int
    enter: Callable[[TrainState], None]
    epoch: Callable[[TrainState], float]
    observed: bool = True


def train(variant: ModelVariant, data: SparsePlaycounts, features: FeatureTable | None,
          hyper: Hyperparams, seed: int, item_pool=None, validator=None,
          state: TrainState | None = None,
          on_epoch=None) -> TrainState:
    """Train one variant; returns the final state: its model is the final
    model, best_epoch and best_val the best validation (None when nothing
    was validated), and its rows one report row per epoch, unobserved ones
    included.

    One loop runs the family's phases (`_phases`):
    - wmf and mf_hybrid: "als" / "als+gd", n_iters iterations of ALS sweeps
      and, with content, n_gd extractor epochs each;
    - mf_uni: "train", max_epochs gradient epochs over every parameter;
    - ncacf and ncf: "pretrain", dot-product gradient epochs without the
      tower, then "finetune", which attaches it with fresh Adam state;
    - dcb: "als", an unobserved content-free WMF run, then "stage2",
      n_iters * n_gd epochs that fit the extractor to the frozen embeddings.

    `state` continues a run of any family (resume_state) or starts a deep
    variant's fine-tuning (pretrained_state). validator(model) -> float
    runs after every epoch whose number + 1 is a multiple of eval_every
    (eval_every = 0: none) and after the last epoch of the last phase;
    on_epoch(state) runs after every epoch, once its row is in state.rows;
    state.model is then the epoch's model, the best one when best_epoch is
    that epoch, and the next epoch updates it in place. Neither runs in an
    unobserved phase.
    """
    if state is None:
        state = TrainState()
    phases = _phases(variant, data, features, hyper, seed,
                     _pool_dims(data.num_items, item_pool))
    while state.phase_idx < len(phases):
        phase = phases[state.phase_idx]
        if state.epoch_in_phase == 0:
            phase.enter(state)
        while state.epoch_in_phase < phase.epochs:
            t0 = time.perf_counter()
            objective = phase.epoch(state)
            epoch = state.global_epoch
            last = (state.phase_idx == len(phases) - 1
                    and state.epoch_in_phase == phase.epochs - 1)
            val = None
            if validator is not None and phase.observed and (
                    last or hyper.eval_every and (epoch + 1) % hyper.eval_every == 0):
                val = validator(state.model)
                if state.best_val is None or val > state.best_val:
                    state.best_epoch, state.best_val = epoch, val
            state.rows.append((epoch, phase.name, objective, val, time.perf_counter() - t0))
            state.epoch_in_phase += 1
            state.global_epoch += 1
            if on_epoch is not None and phase.observed:
                on_epoch(state)
        state.phase_idx += 1
        state.epoch_in_phase = 0
    return state


def _phases(variant: ModelVariant, data: SparsePlaycounts, features: FeatureTable | None,
            hyper: Hyperparams, seed: int, pool: np.ndarray) -> list[Phase]:
    """The phases that train `variant` on the pooled items (see train)."""
    scheme = hyper.scheme()
    batch_size = min(hyper.batch_items, pool.size)
    rows = features.values[pool] if variant.has_content else None

    def fresh_model(v: ModelVariant) -> Model:
        return init_model(v, data.num_users, data.num_items, hyper.embed_dim,
                          features.dim if v.has_content else 0, seed,
                          hyper.hidden_width, hyper.extractor_layers,
                          with_interaction=False)

    def entry(groups, tower: bool = False):
        """Build the model on a fresh start, attach the tower if asked, and
        give `groups` fresh Adam state."""
        def enter(state: TrainState) -> None:
            if state.model is None:
                state.model = fresh_model(variant)
            if tower and state.model.interaction is None:
                state.model.interaction = attach_tower(variant, state.model.embed_dim,
                                                       seed)
            state.adams = _fresh_adams(state.model, groups, hyper.eta)
        return enter

    def objective(state: TrainState) -> float:
        return full_loss(state.model, data, scheme, features,
                         hyper.lambda_w, hyper.lambda_h, pool)

    def gradient_epoch(state: TrainState, epoch: int) -> None:
        """Batched steps on the weighted prediction error; the groups that
        have Adam state move."""
        gd_wpe(state.model, data, scheme, features, hyper.lambda_w, hyper.lambda_h,
               state.adams, schedule=make_batches(pool.size, batch_size, seed, epoch),
               item_pool=pool)

    def extractor_epoch(state: TrainState, epoch: int) -> None:
        """Fit the extractor alone: relaxed coupling to the item embeddings,
        strict coupling to the weighted prediction error."""
        if variant.coupling == "strict":
            gradient_epoch(state, epoch)
        else:
            gd_content_mse(state.model.extractor, state.model.embeddings.H[:, pool], rows,
                           state.adams["extractor"],
                           make_batches(pool.size, batch_size, seed, epoch))

    def als_epoch(state: TrainState) -> float:
        """ALS sweeps over W and, when the model has it, H; then n_gd
        extractor epochs when it has content (not in dcb's WMF stage)."""
        model = state.model
        content = model.variant.has_content
        if model.variant.coupling == "strict":
            phi = extract_item_embeddings(model, features, pool)
            model.embeddings = Embeddings(
                als_sweep_users(phi, data, scheme, hyper.lambda_w, pool), None)
        else:
            W = als_sweep_users(model.embeddings.H[:, pool], data, scheme,
                                hyper.lambda_w, pool)
            prior = extract_item_embeddings(model, features, pool) if content else None
            model.embeddings.W = W
            model.embeddings.H[:, pool] = als_sweep_items(W, data, scheme, hyper.lambda_h,
                                                          pool, prior)
        for j in range(hyper.n_gd if content else 0):
            extractor_epoch(state, state.epoch_in_phase * hyper.n_gd + j)
        return objective(state)

    if variant.family == "dcb":
        def enter_stage1(state: TrainState) -> None:
            state.model = fresh_model(ModelVariant("wmf", "content_free"))

        def enter_stage2(state: TrainState) -> None:
            wmf = state.model.embeddings
            state.model = fresh_model(variant)
            state.model.embeddings = Embeddings(
                wmf.W, wmf.H if variant.has_free_items else None)
            state.adams = _fresh_adams(state.model, {"extractor"}, hyper.eta)

        def stage2_epoch(state: TrainState) -> float:
            extractor_epoch(state, state.epoch_in_phase)
            if variant.coupling == "strict":
                return objective(state)
            return content_mse(state.model.extractor,
                               state.model.embeddings.H[:, pool], rows)

        return [Phase("als", hyper.n_iters, enter_stage1, als_epoch, observed=False),
                Phase("stage2", hyper.n_iters * hyper.n_gd, enter_stage2, stage2_epoch)]

    if variant.family in _ALS_FAMILIES:
        groups = {"extractor"} if variant.has_content else set()
        return [Phase("als+gd" if variant.has_content else "als", hyper.n_iters,
                      entry(groups), als_epoch)]

    def wpe_epoch(state: TrainState) -> float:
        gradient_epoch(state, state.global_epoch)
        return objective(state)

    if variant.deep:
        return [Phase("pretrain", hyper.pretrain_epochs,
                      entry(owned_groups(variant, False)), wpe_epoch),
                Phase("finetune", hyper.finetune_epochs,
                      entry(owned_groups(variant, True), tower=True), wpe_epoch)]
    return [Phase("train", hyper.max_epochs, entry(owned_groups(variant, False)),
                  wpe_epoch)]


# ---------------------------------------------------------------------------
# Checkpointed runs
# ---------------------------------------------------------------------------

_POSITION = ("phase_idx", "epoch_in_phase", "global_epoch")


def checkpoint_header(state: TrainState) -> dict:
    """The checkpoint header entries that resume_state reads back: the run's
    position (phase, epochs done in it and epochs done in all phases; the
    same three keys for every family) and its best validation so far."""
    return {"progress": {key: getattr(state, key) for key in _POSITION},
            "best": {"best_epoch": state.best_epoch, "best_val": state.best_val}}


def write_report(path, state: TrainState, settings: dict) -> None:
    """Write report.tsv through data.write_text, so that a failed write
    leaves the previous file: the sorted `# key = value` settings, the best
    epoch and score once one is known, and format_report_rows(state.rows)."""
    lines = [f"# {key} = {settings[key]}\n" for key in sorted(settings)]
    if state.best_epoch is not None:
        lines += [f"# best_epoch = {state.best_epoch}\n", f"# best_val = {state.best_val!r}\n"]
    write_text(path, "".join(lines) + format_report_rows(state.rows))


def format_report_rows(rows, seconds: bool = True) -> str:
    """The column header and one line per row of report.tsv; without the
    seconds column, the convergence table that `ncacf report` writes."""
    lines = ["epoch\tphase\tobjective\tval_ndcg" + ("\tseconds\n" if seconds else "\n")]
    lines += [f"{epoch}\t{phase}\t{obj!r}\t{'-' if val is None else repr(val)}"
              + (f"\t{secs:.3f}\n" if seconds else "\n")
              for epoch, phase, obj, val, secs in rows]
    return "".join(lines)


def read_report(path) -> list:
    """The rows of the report.tsv at path, as write_report wrote them. A row
    that does not parse, or that lacks its line end (a cut file), is a
    DataError naming path:line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if line == "\n" or line.startswith(("#", "epoch\t")):
                continue
            try:
                if not line.endswith("\n"):
                    raise ValueError("the row has no line end")
                epoch, phase, obj, val, secs = line[:-1].split("\t")
                rows.append((int(epoch), phase, float(obj),
                             None if val == "-" else float(val), float(secs)))
            except ValueError as exc:
                raise DataError(f"{path}:{n}: damaged report row ({exc})") from exc
    return rows


def resume_state(variant: ModelVariant, path) -> tuple[TrainState, dict]:
    """The state that the checkpoint at `path` recorded, for any family (its
    model, Adam moments, position and best validation score), and its
    header. It reads no other file; the best model stays where it was saved."""
    model, header, adams, _ = load_model(path)
    if model.variant != variant:
        raise ConfigError(f"{path}: checkpoint variant {model.variant} does not "
                          f"match config {variant}")
    progress, best = header.get("progress") or {}, header.get("best") or {}
    try:
        state = TrainState(model, adams, **{key: progress[key] for key in _POSITION},
                           best_epoch=best.get("best_epoch"), best_val=best.get("best_val"))
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint records no {exc} to resume from; "
                        f"rerun `ncacf train`") from exc
    return state, header


def pretrained_state(variant: ModelVariant, hyper: Hyperparams,
                     path) -> tuple[TrainState, dict]:
    """A deep variant's fine-tuning start from the dot-product model in the
    checkpoint at `path` (for example a finished mf_uni run): its embeddings,
    and its extractor when the variant has content, with pretraining done;
    and the checkpoint's header."""
    if not variant.deep:
        raise ConfigError(f"{variant.family} has no pretraining phase; only a "
                          f"deep-interaction variant starts from a pretrained "
                          f"checkpoint")
    model, header, _, _ = load_model(path)
    if model.embed_dim != hyper.embed_dim:
        raise ConfigError("pretrained checkpoint embed_dim differs from config")
    if variant.has_content and model.extractor is None:
        raise ConfigError(f"{path}: checkpoint has no content extractor for "
                          f"{variant.family} with {variant.coupling} coupling")
    model.variant = variant
    model.interaction = None
    if not variant.has_content:
        model.extractor = None
    if not variant.has_free_items:
        model.embeddings = Embeddings(model.embeddings.W, None)
    progress = header.get("progress") or {}
    return TrainState(model, phase_idx=1, global_epoch=progress.get(
        "global_epoch", hyper.pretrain_epochs)), header
