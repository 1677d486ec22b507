"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain loops and naive
elimination so it shares no code path with the library, apart from
`full_loss_gradients`, the library's own full-objective gradients that the
finite-difference checks test. The dense batch
objective is the one-pass users x items version of the library's nnz-cost
dot-product objective and of its tower objective, which the library runs
one user sub-block at a time; it shares the model containers, the content
extractor and the tower's grid passes, not the blocking. The per-pair
scoring (`combine`, `predict`, `predict_all_items`), the per-row ALS
updates (`als_update_w`, `als_update_h`) and the central-difference
gradient (`finite_diff_grad`) are the references for the library's grid
scoring, blocked ALS sweeps and analytic gradients. The data-file
oracles are per-line and per-item versions of the library's bulk parser,
writers, warm split and orphan scan; they build the library's containers
and draw from the library's random partition, so only the loops differ.
`read_split_plan` parses a written split plan back, which the library never
does: its verbs read the plans from the prepared snapshot.
The per-user ranking (`rank_items`, `ndcg_user`, `evaluate_per_user`)
sorts each user's whole candidate list with one lexsort and scores it with
Python sets; the library ranks blocks of users with a partial sort.
`block_dcg_lexsort` is the library's block ranking before it sorted each
row's top k on its own: one lexsort over every entry tied with or above
its row's k-th score. The
reference kernels (`sigmoid_reference`, `mlp_forward_reference`,
`mlp_backward_reference` and the tower-grid pair) are the library's MLP
passes before they moved to in-place activations and faster exact
reductions, which must reproduce them bit for bit. `solve_spd_lu` and
`compressed_axis_lexsort` are the library's stacked SPD solve and sparse
layout build before the solve moved onto the Cholesky factor and the build
onto one single-key sort. `copy_model` and `copy_mlp` copy a model's
arrays for the tests that compare it before and after an in-place step;
training itself keeps no copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from ncacf.data import (CompressedAxis, ConfidenceScheme, FoldMembership,
                        InteractionTriplets, SplitPlan, _partition_units)
from ncacf.errors import DataError, ParseError, TrainingDivergedError
from ncacf.evaluation import EvalResult, _dcg_by_length, fold_mean_std, grid_search
from ncacf.models import (Model, item_vectors, score_matrix,
                          tower_grid_backward, tower_grid_forward)
from ncacf.numerics import Layer, MLPParams, mlp_backward, mlp_forward
from ncacf.rng import rng_for
from ncacf.training import _batch_objective, _pool_dims, _ridge_rows


def gauss_solve(A, b):
    """Dense linear solve by Gaussian elimination with partial pivoting."""
    A = [list(map(float, row)) for row in np.asarray(A)]
    b = [float(x) for x in np.asarray(b)]
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[pivot][col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            f = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / A[r][r]
    return np.array(x)


def solve_spd_lu(A, b):
    """A x = b for one system or a stack by np.linalg.solve's LU, which
    solve_spd ran after a Cholesky factorization that only checked A."""
    return np.linalg.solve(A, np.asarray(b)[..., None])[..., 0]


def compressed_axis_lexsort(keys, values, counts, n: int) -> CompressedAxis:
    """CompressedAxis.build ordering its entries by a two-key lexsort."""
    order = np.lexsort((values, keys))
    indptr = np.searchsorted(keys[order], np.arange(n + 1))
    return CompressedAxis(indptr, values[order], counts[order])


def weighted_ridge_solve(columns, r, c, lam, prior=None):
    """Minimize sum_j c_j (r_j - x . col_j)^2 + lam ||x - prior||^2 by
    explicitly building the normal equations and eliminating."""
    k = columns.shape[0]
    n = columns.shape[1]
    A = [[0.0] * k for _ in range(k)]
    b = [0.0] * k
    for a in range(k):
        for d in range(k):
            s = 0.0
            for j in range(n):
                s += c[j] * columns[a, j] * columns[d, j]
            A[a][d] = s + (lam if a == d else 0.0)
        s = 0.0
        for j in range(n):
            s += c[j] * r[j] * columns[a, j]
        b[a] = s + (lam * prior[a] if prior is not None else 0.0)
    return gauss_solve(A, b)


def scalar_activation(name, v):
    if name == "relu":
        return max(v, 0.0)
    if name == "identity":
        return v
    if name == "sigmoid":
        return 1.0 / (1.0 + math.exp(-v))
    raise ValueError(name)


def mlp_scalar_forward(layers, x):
    """Per-neuron loop evaluation of a dense MLP.

    layers: list of (weights (out,in) array, bias array or None, activation).
    """
    h = [float(v) for v in x]
    for weights, bias, act in layers:
        out = []
        for neuron in range(weights.shape[0]):
            v = sum(weights[neuron, j] * h[j] for j in range(len(h)))
            if bias is not None:
                v += bias[neuron]
            out.append(scalar_activation(act, v))
        h = out
    return np.array(h)


# The library's MLP, sigmoid and tower-grid kernels as they were before they
# moved to in-place activations, einsum reductions and a broadcast
# one-neuron layer: the fast kernels must reproduce these bit for bit.

def _activation_reference(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "identity":
        return x
    return sigmoid_reference(x)


def _activation_grad_reference(name, pre, post):
    if name == "relu":
        return pre > 0
    if name == "identity":
        return np.ones_like(pre)
    return post * (1.0 - post)


def sigmoid_reference(x):
    """Sign-split sigmoid: gathers each sign's entries, clamps into (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def mlp_forward_reference(params, x):
    """(output, per-layer (input, pre, post)) for a batch x (n, in)."""
    h = np.asarray(x, dtype=np.float64)
    cache = []
    for layer in params.layers:
        pre = h @ layer.weights.T
        if layer.bias is not None:
            pre += layer.bias
        post = _activation_reference(layer.activation, pre)
        cache.append((h, pre, post))
        h = post
    return h, cache


def mlp_backward_reference(params, cache, grad_output):
    """(parameter gradients keyed like param_dict(), input gradient)."""
    g = np.asarray(grad_output, dtype=np.float64)
    grads = {}
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        inp, pre, post = cache[i]
        g_pre = g * _activation_grad_reference(layer.activation, pre, post)
        grads[f"layer{i}.weight"] = g_pre.T @ inp
        if layer.bias is not None:
            grads[f"layer{i}.bias"] = g_pre.sum(axis=0)
        g = g_pre @ layer.weights
    return grads, g


def tower_grid_forward_reference(tower, W, item_vecs, combination):
    """(U, n) scores of every user of W (K, U) against item_vecs (K, n), and
    the cache tower_grid_backward_reference consumes."""
    U, n = W.shape[1], item_vecs.shape[1]
    if combination == "multiplication":
        grid = (W.T[:, None, :] * item_vecs.T[None, :, :]).reshape(U * n, -1)
        out, cache = mlp_forward_reference(tower, grid)
        return out.reshape(U, n), (W, item_vecs, None, cache)
    first = tower.layers[0]
    k = W.shape[0]
    per_user = W.T @ first.weights[:, :k].T
    if first.bias is not None:
        per_user += first.bias
    pre = per_user[:, None, :] + (item_vecs.T @ first.weights[:, k:].T)[None, :, :]
    post = _activation_reference(first.activation, pre)
    if len(tower.layers) == 1:
        return post[:, :, 0], (W, item_vecs, (pre, post), None)
    out, cache = mlp_forward_reference(MLPParams(tower.layers[1:]), post.reshape(U * n, -1))
    return out.reshape(U, n), (W, item_vecs, (pre, post), cache)


def tower_grid_backward_reference(tower, cache, grad_scores):
    """(tower gradients, gW (K, U), gH (K, n)) for the (U, n) score gradient."""
    W, item_vecs, first_cache, rest_cache = cache
    U, n = grad_scores.shape
    if first_cache is None:
        grads, g_grid = mlp_backward_reference(tower, rest_cache,
                                               grad_scores.reshape(-1, 1))
        g_grid = g_grid.reshape(U, n, -1)
        gW = np.einsum("unk,kn->ku", g_grid, item_vecs)
        gH = np.einsum("unk,ku->kn", g_grid, W)
        return grads, gW, gH
    first = tower.layers[0]
    pre, post = first_cache
    grads = {}
    if rest_cache is None:
        g_post = grad_scores[:, :, None]
    else:
        rest, g_post = mlp_backward_reference(MLPParams(tower.layers[1:]), rest_cache,
                                              grad_scores.reshape(-1, 1))
        for name, arr in rest.items():
            i, part = name[len("layer"):].split(".")
            grads[f"layer{int(i) + 1}.{part}"] = arr
        g_post = g_post.reshape(U, n, -1)
    g_pre = g_post * _activation_grad_reference(first.activation, pre, post)
    G_u = g_pre.sum(axis=1)
    G_i = g_pre.sum(axis=0)
    k = W.shape[0]
    grads["layer0.weight"] = np.concatenate([G_u.T @ W.T, G_i.T @ item_vecs.T], axis=1)
    if first.bias is not None:
        grads["layer0.bias"] = G_u.sum(axis=0)
    gW = first.weights[:, :k].T @ G_u.T
    gH = first.weights[:, k:].T @ G_i.T
    return grads, gW, gH


def dense_weighted_loss(W, H_eff, R, C, lam_w, lam_h=0.0, prior=None,
                        score_fn=None):
    """Triple-loop evaluation of the confidence-weighted objective.

    score_fn(w, h) defaults to the dot product. prior (K, I) enables the
    item-embedding penalty; lam_h=0 drops it.
    """
    U = R.shape[0]
    I = R.shape[1]
    total = 0.0
    for u in range(U):
        for i in range(I):
            s = score_fn(W[:, u], H_eff[:, i]) if score_fn is not None \
                else sum(W[k, u] * H_eff[k, i] for k in range(W.shape[0]))
            total += C[u, i] * (R[u, i] - s) ** 2
    for u in range(U):
        total += lam_w * sum(W[k, u] ** 2 for k in range(W.shape[0]))
    if lam_h > 0.0:
        for i in range(I):
            p = prior[:, i] if prior is not None else np.zeros(H_eff.shape[0])
            total += lam_h * sum((H_eff[k, i] - p[k]) ** 2 for k in range(H_eff.shape[0]))
    return total


def dense_batch_objective(model, data, scheme, features, lam_w, lam_h, batch,
                          pool_size, owned):
    """The batch objective over the dense users x batch grid in one pass,
    with its gradients for the owned groups: for a dot product the library's
    objective before it moved to nnz cost, for a tower before it split the
    grid into user sub-blocks. Returns (loss, grads)."""
    variant = model.variant
    W = model.W
    strict = variant.coupling == "strict"
    batch = np.asarray(batch, dtype=np.int64)
    R = np.zeros((data.num_users, batch.size))
    C = np.ones((data.num_users, batch.size))
    cols = data.by_item
    for j, item in enumerate(batch):
        seg = slice(cols.indptr[item], cols.indptr[item + 1])
        R[cols.indices[seg], j] = scheme.r(cols.counts[seg])
        C[cols.indices[seg], j] = scheme.c(cols.counts[seg])

    phi = phi_cache = None
    if variant.has_content:
        phi_out, phi_cache = mlp_forward(model.extractor, features[batch])
        phi = phi_out.T
    H_use = phi if strict else model.H[:, batch]
    if model.interaction is None:
        S = W.T @ H_use
    else:
        S, tower_cache = tower_grid_forward(model.interaction, W, H_use,
                                            variant.combination)
    diff = S - R
    scale_w = batch.size / pool_size
    loss = float(np.sum(C * diff * diff)) + lam_w * float(np.sum(W * W)) * scale_w
    D = None
    if not strict:
        D = H_use - (phi if variant.has_content else 0.0)
        loss += lam_h * float(np.sum(D * D))

    dS = 2.0 * C * diff
    grads = {}
    if model.interaction is None:
        gW_data, gH_use = H_use @ dS.T, W @ dS
    else:
        tower_grads, gW_data, gH_use = tower_grid_backward(model.interaction,
                                                           tower_cache, dS)
        if "interaction" in owned:
            grads["interaction"] = tower_grads
    if "W" in owned:
        grads["W"] = gW_data + (2.0 * lam_w * scale_w) * W
    if strict:
        if "extractor" in owned:
            grads["extractor"] = mlp_backward(model.extractor, phi_cache,
                                              gH_use.T)[0]
    else:
        if "H" in owned:
            gH = np.zeros_like(model.H)
            gH[:, batch] = gH_use + 2.0 * lam_h * D
            grads["H"] = gH
        if "extractor" in owned and variant.has_content:
            grads["extractor"] = mlp_backward(model.extractor, phi_cache,
                                              (-2.0 * lam_h * D).T)[0]
    return loss, grads


def full_loss_gradients(model, data, scheme, features, lam_w, lam_h, owned,
                        item_pool=None):
    """The library's analytic gradients of the full objective for the given
    parameter groups: its batch objective taken over the whole item pool as
    one batch. Not an independent oracle; the finite-difference checks are
    what test it."""
    pool = _pool_dims(model.num_items, item_pool)
    return _batch_objective(model, data, scheme, features, lam_w, lam_h,
                            pool, pool.size, frozenset(owned))


def copy_mlp(params: MLPParams) -> MLPParams:
    """An MLP with copies of every weight and bias."""
    return MLPParams([Layer(l.weights.copy(), None if l.bias is None else l.bias.copy(),
                            l.activation) for l in params.layers])


def copy_model(model: Model) -> Model:
    """A model with copies of every array, so that in-place training steps on
    the original leave it as it was."""
    return replace(model, W=model.W.copy(), H=None if model.H is None else model.H.copy(),
                   extractor=None if model.extractor is None else copy_mlp(model.extractor),
                   interaction=(None if model.interaction is None
                                else copy_mlp(model.interaction)))


# ---------------------------------------------------------------------------
# Per-pair scoring, per-row ALS updates and central differences: the
# references for models.score_matrix, the blocked ALS sweeps and the
# analytic gradients.
# ---------------------------------------------------------------------------

def combine(w: np.ndarray, h: np.ndarray, mode: str) -> np.ndarray:
    """Elementwise product (length K) or stacked [w; h] (length 2K)."""
    w = np.asarray(w, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if w.shape != h.shape:
        raise ValueError("embedding lengths differ")
    if mode == "multiplication":
        return w * h
    if mode == "concatenation":
        return np.concatenate([w, h])
    raise ValueError(f"unknown combination {mode!r}")


def item_vector(model: Model, item: int, features: np.ndarray | None,
                setting: str) -> np.ndarray:
    return item_vectors(model, np.array([item]), features, setting)[:, 0]


def predict(model: Model, user: int, item_vec: np.ndarray) -> float:
    """Score one (user, item-vector) pair.

    Deep variants fall back to the plain dot product while their tower is
    not attached (the pretraining configuration).
    """
    w = model.W[:, user]
    if model.interaction is None:
        return float(w @ item_vec)
    v = combine(w, item_vec, model.variant.combination)
    out, _ = mlp_forward(model.interaction, v[None, :])
    return float(out[0, 0])


def predict_all_items(model: Model, user: int, items: np.ndarray,
                      features: np.ndarray | None, setting: str) -> np.ndarray:
    """Scores for one user over an ordered item list."""
    iv = item_vectors(model, items, features, setting)
    if model.interaction is None:
        return model.W[:, user] @ iv
    scores, _ = tower_grid_forward(model.interaction, model.W[:, [user]],
                                   iv, model.variant.combination)
    return scores[0]


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


def finite_diff_grad(fn, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at `point`."""
    if h <= 0:
        raise ValueError("h must be positive")
    point = np.asarray(point, dtype=np.float64)
    grad = np.empty_like(point)
    flat = point.ravel()
    gflat = grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = fn(point)
        flat[j] = orig - h
        fm = fn(point)
        flat[j] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite evaluation at coordinate {j}")
        gflat[j] = (fp - fm) / (2.0 * h)
    return grad



def dcg_positions(rel):
    return sum(r / math.log2(pos + 2) for pos, r in enumerate(rel))


def ndcg_by_permutations(rel):
    """NDCG of a relevance list, normalizing by the best permutation."""
    best = max(dcg_positions(p) for p in itertools.permutations(rel))
    if best == 0.0:
        return None
    return dcg_positions(rel) / best


def two_pass_stats(values):
    """Column means and population variances via an explicit two-pass loop."""
    n, width = values.shape
    means = []
    variances = []
    for c in range(width):
        s = 0.0
        for r in range(n):
            s += values[r, c]
        mean = s / n
        q = 0.0
        for r in range(n):
            q += (values[r, c] - mean) ** 2
        means.append(mean)
        variances.append(q / n)
    return np.array(means), np.array(variances)


def adam_reference(params, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Direct simulation of the bias-corrected moment recursion."""
    p = np.array(params, dtype=float)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        g = np.asarray(g, dtype=float)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def load_triplets_per_line(path):
    """Per-line triplet parser with a (user, item) dict for duplicates."""
    user_index = {}
    item_index = {}
    seen = {}
    users, items, counts = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected user<TAB>item<TAB>count")
            raw_u, raw_i, raw_c = parts
            try:
                count = int(raw_c)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: count {raw_c!r} is not an integer")
            if count <= 0:
                raise ParseError(f"{path}:{lineno}: count must be positive")
            u = user_index.setdefault(raw_u, len(user_index))
            i = item_index.setdefault(raw_i, len(item_index))
            if (u, i) in seen:
                raise ParseError(
                    f"{path}:{lineno}: duplicate pair ({raw_u!r}, {raw_i!r}), "
                    f"first seen on line {seen[(u, i)]}")
            seen[(u, i)] = lineno
            users.append(u)
            items.append(i)
            counts.append(count)
    return InteractionTriplets.create(
        np.array(users, dtype=np.int64), np.array(items, dtype=np.int64),
        np.array(counts, dtype=np.float64),
        len(user_index), len(item_index),
        tuple(user_index), tuple(item_index))


def write_triplets_per_line(path, triplets):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# user\titem\tcount\n")
        for u, i, c in zip(triplets.users, triplets.items, triplets.counts):
            fh.write(f"{triplets.user_labels[u]}\t{triplets.item_labels[i]}\t{int(c)}\n")


def write_features_per_line(path, labels, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# item\tfeatures...\n")
        for label, row in zip(labels, values):
            fh.write(label + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")


def write_split_plan_per_unit(path, plan):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# split plan; units are item ids (cold) or triplet row indices (warm)\n")
        fh.write(f"mode = {plan.mode}\n")
        fh.write(f"seed = {plan.seed}\n")
        fh.write(f"num_folds = {plan.num_folds}\n")
        fh.write(f"val_fraction = {plan.val_fraction!r}\n")
        fh.write(f"num_units = {plan.num_units}\n")
        fh.write("[validation]\n")
        fh.write(" ".join(str(int(x)) for x in plan.validation) + "\n")
        for k, fold in enumerate(plan.folds):
            fh.write(f"[fold {k}]\n")
            fh.write(" ".join(str(int(x)) for x in fold) + "\n")
        fh.write("[train_always]\n")
        fh.write(" ".join(str(int(x)) for x in plan.train_always) + "\n")


def read_split_plan(path) -> SplitPlan:
    """The text-plan reader: a SplitPlan from the file write_split_plan
    wrote, or ParseError naming the file (and the line, for a line defect).
    The library itself reads its plans from the prepared snapshot."""
    header: dict[str, str] = {}
    sections: dict[str, np.ndarray] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = np.empty(0, dtype=np.int64)
            elif current is not None:
                try:
                    sections[current] = np.array(list(map(int, line.split())), dtype=np.int64)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: split units must be integers")
            elif "=" in line:
                key, _, value = line.partition("=")
                header[key.strip()] = value.strip()
            else:
                raise ParseError(f"{path}:{lineno}: unparseable line")
    try:
        num_folds = int(header["num_folds"])
        plan = SplitPlan(
            mode=header["mode"],
            seed=int(header["seed"]),
            num_folds=num_folds,
            val_fraction=float(header["val_fraction"]),
            validation=sections["validation"],
            folds=tuple(sections[f"fold {k}"] for k in range(num_folds)),
            train_always=sections.get("train_always", np.empty(0, dtype=np.int64)),
        )
        num_units = int(header["num_units"])
    except KeyError as exc:
        raise ParseError(f"{path}: missing split-plan field {exc}")
    except ValueError as exc:
        raise ParseError(f"{path}: bad split-plan header value ({exc})")
    if plan.num_units != num_units:
        raise ParseError(f"{path}: unit count mismatch")
    return plan


def split_warm_per_item(triplets, num_folds, val_fraction, seed):
    """Warm split with the orphan repair run item by item."""
    rng = rng_for(seed, "split.warm")
    validation, folds = _partition_units(triplets.num_entries, num_folds,
                                         val_fraction, rng)
    fold_of = np.full(triplets.num_entries, -2, dtype=np.int64)
    in_val = np.zeros(triplets.num_entries, dtype=bool)
    in_val[validation] = True
    for k, fold in enumerate(folds):
        fold_of[fold] = k

    always = np.zeros(triplets.num_entries, dtype=bool)
    order = np.argsort(triplets.items, kind="stable")
    item_bounds = np.searchsorted(triplets.items[order], np.arange(triplets.num_items + 1))
    for i in range(triplets.num_items):
        idx = order[item_bounds[i]:item_bounds[i + 1]]
        if idx.size == 0:
            continue
        if idx.size == 1:
            always[idx[0]] = True
            in_val[idx[0]] = False
            continue
        covered = np.unique(fold_of[idx][~in_val[idx]])
        covered = covered[covered >= 0]
        if covered.size >= 2:
            continue
        val_members = idx[in_val[idx]]
        pool = val_members if val_members.size else idx
        pick = int(pool[rng.integers(pool.size)])
        always[pick] = True
        in_val[pick] = False

    always_idx = np.flatnonzero(always)
    validation = np.flatnonzero(in_val)
    new_folds = tuple(np.array([e for e in fold if not always[e]], dtype=np.int64)
                      for fold in folds)
    return SplitPlan("warm", seed, num_folds, val_fraction, validation,
                     new_folds, always_idx)


def scan_warm_orphans_sets(plan, triplets):
    """(fold, item) pairs evaluated in a rotation without a training triplet,
    from Python sets per rotation."""
    violations = []
    for k in range(plan.num_folds):
        train_items = set(triplets.items[plan.train_always])
        for j, fold in enumerate(plan.folds):
            if j != k:
                train_items.update(triplets.items[fold])
        eval_items = set(triplets.items[plan.validation])
        eval_items.update(triplets.items[plan.folds[k]])
        for item in sorted(eval_items - train_items):
            violations.append((k, int(item)))
    return violations


# ---------------------------------------------------------------------------
# Per-user ranking and NDCG, the reference for evaluation.evaluate's blocked
# kernel; the exact random-ranking baseline; cross-validation over folds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankedList:
    """Top-k items for one user, scores non-increasing, ties by item index."""

    user: int
    items: np.ndarray
    scores: np.ndarray


def rank_items(scores: np.ndarray, top_k: int, mask=None,
               candidates: np.ndarray | None = None, user: int = -1) -> RankedList:
    """Rank candidate items by score, excluding masked ones.

    `scores` is indexed by item id over the candidate set (default: all ids
    0..len(scores)-1). Ties break toward the smaller item index so rankings
    are bit-reproducible.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(scores.size)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    if mask is not None and len(mask):
        mask_arr = np.asarray(sorted(mask), dtype=np.int64)
        keep = ~np.isin(candidates, mask_arr)
        candidates = candidates[keep]
        scores = scores[keep]
    if candidates.size == 0:
        raise DataError("no candidate items to rank")
    # lexsort: last key is primary. Sort by score descending, then id ascending.
    order = np.lexsort((candidates, -scores))[:top_k]
    return RankedList(user, candidates[order], scores[order])


def block_dcg_lexsort(scores: np.ndarray, users: np.ndarray, valid: np.ndarray,
                      consumed: CompressedAxis | None, candidates: np.ndarray,
                      truth: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """evaluation._block_dcg with one (row, score, item) lexsort over every
    entry tied with or above its row's k-th score. The second result marks the
    rows of more than one candidate whose candidates all scored the same."""
    n = candidates.size
    k = min(top_k, n)
    if not np.isfinite(scores).all():
        raise TrainingDivergedError("a model score is not finite")
    neg = -scores
    if consumed is not None:
        cols, rows, _ = consumed.take(users)
        neg[rows, cols] = np.inf
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(neg <= kth)
    order = np.lexsort((candidates[cols], neg[rows, cols], rows))
    per_row = np.bincount(rows, minlength=users.size)
    top = cols[order[(np.cumsum(per_row) - per_row)[:, None] + np.arange(k)]]
    keys = users[:, None] * n + top
    found = truth[np.minimum(np.searchsorted(truth, keys), truth.size - 1)]
    dcg_values = _dcg_by_length((found == keys).astype(np.float64), np.minimum(valid, k))
    open_rows = [row[np.isfinite(row)] for row in neg]
    all_tied = np.array([row.size > 1 and _tied(row) for row in open_rows])
    return dcg_values, all_tied


def _tied(scores: np.ndarray) -> bool:
    """Whether every score equals the first."""
    return all(s == scores[0] for s in scores)


def dcg(relevance) -> float:
    """Sum of rel_j / log2(j + 1) over 1-based positions."""
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.size == 0:
        return 0.0
    positions = np.arange(1, rel.size + 1, dtype=np.float64)
    return float(np.sum(rel / np.log2(positions + 1.0)))


def ndcg_user(ranked: RankedList, ground_truth, top_k: int | None = None):
    """DCG over IDCG for one ranked list; None when the truth set is empty.

    The ideal list places min(|truth|, top_k) relevant items at the head;
    top_k defaults to the ranked list's length.
    """
    truth = set(int(i) for i in ground_truth)
    if not truth:
        return None
    if top_k is None:
        top_k = len(ranked.items)
    rel = np.fromiter((1.0 if int(i) in truth else 0.0 for i in ranked.items),
                      dtype=np.float64, count=len(ranked.items))
    ideal = dcg(np.ones(min(len(truth), top_k)))
    return dcg(rel) / ideal


def _bucket_relevance(triplets: InteractionTriplets, entry_idx: np.ndarray,
                      scheme: ConfidenceScheme):
    """user -> set of relevant (binarized-positive) items among the bucket
    entries."""
    truth: dict[int, set[int]] = {}
    counts = triplets.counts[entry_idx]
    positive = entry_idx[scheme.r(counts) > 0]
    for e in positive:
        truth.setdefault(int(triplets.users[e]), set()).add(int(triplets.items[e]))
    return truth


def evaluate_per_user(model: Model, membership: FoldMembership, bucket: str,
             triplets: InteractionTriplets, scheme: ConfidenceScheme,
             features, top_k: int) -> EvalResult:
    """evaluation.evaluate as one rank_items and one ndcg_user call per
    eligible user, over the unblocked score matrix of every user."""
    setting = membership.mode
    if setting == "cold":
        bucket_items = membership.bucket_units(bucket)
        if bucket_items.size == 0:
            raise DataError(f"bucket {bucket!r} holds no items")
        keep = np.isin(triplets.items, bucket_items)
        truth = _bucket_relevance(triplets, np.flatnonzero(keep), scheme)
        iv = item_vectors(model, bucket_items, features, "cold")
        scores_all = score_matrix(model, iv)
        per_user: dict[int, float] = {}
        pool_total = all_tied = 0
        for u in sorted(truth):
            ranked = rank_items(scores_all[u], top_k, candidates=bucket_items, user=u)
            per_user[u] = ndcg_user(ranked, truth[u], top_k)
            pool_total += bucket_items.size
            all_tied += bucket_items.size > 1 and _tied(scores_all[u])
        excluded = model.num_users - len(per_user)
        return EvalResult(setting, bucket, membership.fold, per_user, excluded, pool_total,
                          all_tied)

    # Warm: candidates are all items minus the user's training items.
    bucket_idx = membership.bucket_units(bucket)
    if bucket_idx.size == 0:
        raise DataError(f"bucket {bucket!r} holds no interactions")
    truth = _bucket_relevance(triplets, bucket_idx, scheme)
    train_idx = membership.train_entry_idx(triplets)
    consumed: dict[int, set[int]] = {}
    for e in train_idx:
        consumed.setdefault(int(triplets.users[e]), set()).add(int(triplets.items[e]))
    all_items = np.arange(triplets.num_items)
    iv = item_vectors(model, all_items, features, "warm")
    scores_all = score_matrix(model, iv)
    per_user = {}
    pool_total = all_tied = 0
    for u in sorted(truth):
        mask = consumed.get(u, set())
        ranked = rank_items(scores_all[u], top_k, mask=mask, candidates=all_items, user=u)
        per_user[u] = ndcg_user(ranked, truth[u], top_k)
        pool_total += triplets.num_items - len(mask)
        open_scores = [scores_all[u][i] for i in all_items if i not in mask]
        all_tied += len(open_scores) > 1 and _tied(open_scores)
    excluded = model.num_users - len(per_user)
    return EvalResult(setting, bucket, membership.fold, per_user, excluded, pool_total,
                      all_tied)


def random_ndcg_baseline(pool_sizes, truth_sizes, top_k: int) -> float:
    """Exact mean NDCG of uniformly random rankings: each of a user's first
    min(top_k, n) positions holds one of its m relevant items out of n
    candidates with probability m / n.

    pool_sizes and truth_sizes are parallel per-user lists; users without
    relevant items are skipped.
    """
    vals = [m / n * dcg(np.ones(min(top_k, n))) / dcg(np.ones(min(m, top_k)))
            for n, m in zip(pool_sizes, truth_sizes) if m > 0]
    if not vals:
        raise DataError("random baseline needs at least one user with relevant items")
    return float(np.mean(vals))


def cross_validate(num_folds: int, train_and_score, grid_w=None, grid_h=None,
                   tune_fold: int = 0):
    """Drive a full cross-validation: tune (lambda_W, lambda_H) on one fold's
    validation bucket, then train/test every fold with the chosen pair.

    train_and_score(fold, lam_w, lam_h, bucket) must train on the fold's
    training buckets and return the bucket's EvalResult. Returns
    (per-fold EvalResults, mean, std, (lam_w, lam_h)).
    """
    if num_folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    best = (None, None)
    if grid_w is not None and grid_h is not None:
        best, _ = grid_search(
            grid_w, grid_h,
            lambda lw, lh: train_and_score(tune_fold, lw, lh, "validation").mean)
    results = [train_and_score(k, best[0], best[1], "test")
               for k in range(num_folds)]
    mean, std = fold_mean_std([r.mean for r in results])
    return results, mean, std, best
