"""Ranking construction and NDCG-based evaluation.

Warm evaluation ranks every item the user did not consume in training
(masking is total) and scores relevance against the chosen evaluation
bucket. Cold evaluation ranks exactly the bucket's items, which the model
never saw. Every candidate is ranked, none is sampled, and ties break
toward the smaller item index. Users with no relevant item in the bucket are
excluded from the mean; the exclusion count is reported, and so is the count
of users whose candidates all tied, whom the tie-break alone ranked. Users
are scored and ranked a block at a time: each user's top k is sorted within
its row, and only the users of a block tied at their k-th score share one
lexsort. Every per-user quantity is computed within the user's row, so the
block size changes no bit. A non-finite score raises TrainingDivergedError.

A best.ckpt that `ncacf train` wrote stores the validation result of the
epoch that made its model the best (stored_result), with the tau and top_k
it was ranked with. The same model, prepared data, tau and top_k rank the
same bits, so `evaluate` reads that result back (stored_validation) in place
of ranking the validation bucket again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import (CompressedAxis, ConfidenceScheme, FoldMembership,
                   InteractionTriplets, write_text)
from .errors import DataError, TrainingDivergedError
from .models import Model, block_units, item_vectors, score_matrix


@dataclass(frozen=True)
class EvalResult:
    """Per-user NDCG values for one (bucket, setting) evaluation."""

    setting: str
    bucket: str
    fold: int | None
    ndcg: dict[int, float]
    num_excluded: int
    pool_size_total: int
    # Users whose candidates all scored the same, so that the item-index
    # tie-break alone ranked them.
    num_all_tied: int = 0

    @property
    def mean(self) -> float:
        if not self.ndcg:
            return float("nan")
        return float(np.mean(list(self.ndcg.values())))

    @property
    def num_users(self) -> int:
        return len(self.ndcg)


# Temporaries per (user, candidate) pair of one evaluation block, each counted
# as a float: the scores (negated in place), their partitioned copy, and the
# finiteness and boundary masks. The boundary entries, top_k per user plus
# every entry of a row tied at its k-th score, and their sort orders are not
# counted, and neither is a tower's grid: score_matrix builds it in user
# sub-blocks that models.TOWER_BLOCK_FLOATS bounds.
_RANK_FLOATS = 4

# Floats one evaluation block's scores and ranking temporaries may hold. The
# blocks run one after another; a tower scores each block's user sub-blocks
# on the two workers. On a 2-vCPU host, a fresh `evaluate` of the perfbench
# hybrid_cold data took about 7 % less time at 2^19 than at 2^21, with a
# lower peak memory; 2^18 and 2^20 were no faster. Any value gives the same
# bits.
_RANK_BLOCK_FLOATS = 1 << 19


def evaluate(model: Model, membership: FoldMembership, bucket: str,
             triplets: InteractionTriplets, scheme: ConfidenceScheme,
             features, top_k: int) -> EvalResult:
    """Rank and score one evaluation bucket for every eligible user.

    Eligible users are ranked a block at a time, each block sized so that its
    scores and ranking temporaries fit _RANK_BLOCK_FLOATS.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    setting = membership.mode
    consumed = None
    if setting == "cold":
        candidates = membership.bucket_units(bucket)
        if candidates.size == 0:
            raise DataError(f"bucket {bucket!r} holds no items")
        column = np.full(triplets.num_items, -1, dtype=np.int64)
        column[candidates] = np.arange(candidates.size)
        entries = np.flatnonzero(column[triplets.items] >= 0)
    else:
        # Warm: candidates are all items minus the user's training items.
        entries = membership.bucket_units(bucket)
        if entries.size == 0:
            raise DataError(f"bucket {bucket!r} holds no interactions")
        candidates = column = np.arange(triplets.num_items)
        train = membership.train_entry_idx(triplets)
        consumed = CompressedAxis.build(triplets.users[train], triplets.items[train],
                                        triplets.counts[train], triplets.num_users)
    n = candidates.size
    positive = entries[scheme.r(triplets.counts[entries]) > 0]
    # Relevant (user, candidate column) pairs as sorted keys user * n + column;
    # triplets hold each (user, item) pair once.
    truth = np.sort(triplets.users[positive] * n + column[triplets.items[positive]])
    users, truth_sizes = np.unique(truth // n, return_counts=True)
    valid = np.full(users.size, n)
    if consumed is not None:
        valid -= np.diff(consumed.indptr)[users]
    if np.any(valid == 0):
        raise DataError("no candidate items to rank")
    iv = item_vectors(model, candidates, features, setting)
    step = block_units(n * _RANK_FLOATS, _RANK_BLOCK_FLOATS)
    dcg = np.empty(users.size)
    all_tied = np.empty(users.size, dtype=bool)
    for lo in range(0, users.size, step):
        block = slice(lo, lo + step)
        dcg[block], all_tied[block] = _block_dcg(
            score_matrix(model, iv, users[block]), users[block], valid[block],
            consumed, candidates, truth, top_k)
    # The ideal list places min(|truth|, top_k) relevant items at the head.
    ideal_len, at = np.unique(np.minimum(truth_sizes, top_k), return_inverse=True)
    ideal = np.array([_dcg(np.ones((1, m)))[0] for m in ideal_len])
    ndcg = dcg / ideal[at]
    return EvalResult(setting, bucket, membership.fold,
                      dict(zip(users.tolist(), ndcg.tolist())),
                      model.num_users - users.size, int(valid.sum()),
                      int(all_tied.sum()))


def _block_dcg(scores: np.ndarray, users: np.ndarray, valid: np.ndarray,
               consumed: CompressedAxis | None, candidates: np.ndarray,
               truth: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """DCG of each user's top-k list over the candidate columns, and whether
    the user's candidates all tied.

    `scores` (users x candidates) is overwritten. Candidates rank by score,
    highest first, ties toward the smaller item index. A warm user's training
    items (the `consumed` rows) rank after every candidate and are cut, so
    user r's list holds min(top_k, valid[r]) items. A non-finite score raises
    TrainingDivergedError: sorting would place NaN arbitrarily.

    Only the entries tied with or above a row's k-th score can enter its list.
    A row with exactly k of them sorts them on its own; a row with more (a tie
    at the k-th score, or a warm row whose list is shorter than k) goes
    through one lexsort by (row, score, item) with the other such rows.
    """
    n = candidates.size
    k = min(top_k, n)
    if not np.isfinite(scores).all():
        raise TrainingDivergedError("a model score is not finite")
    neg = np.negative(scores, out=scores)
    if consumed is not None:
        cols, rows, _ = consumed.take(users)
        neg[rows, cols] = np.inf
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.divmod(np.flatnonzero(neg <= kth), n)
    per_row = np.bincount(rows, minlength=users.size)
    top = np.empty((users.size, k), dtype=np.int64)
    exact = per_row == k
    # Entries come in row-major order, so an exact row's k entries are
    # adjacent. Order them by item, then stably by score.
    head = cols[exact[rows]].reshape(-1, k)
    head = np.take_along_axis(head, np.argsort(candidates[head], axis=1), 1)
    by_score = np.argsort(neg[np.flatnonzero(exact)[:, None], head], axis=1, kind="stable")
    top[exact] = np.take_along_axis(head, by_score, 1)
    tied = ~exact
    if tied.any():
        sel = tied[rows]
        rows, cols = rows[sel], cols[sel]
        order = np.lexsort((candidates[cols], neg[rows, cols], rows))
        first = np.cumsum(per_row[tied]) - per_row[tied]
        top[tied] = cols[order[first[:, None] + np.arange(k)]]
    r = np.arange(users.size)
    listed = np.minimum(valid, k)
    # The list's first and last scores are equal, and no candidate outside a
    # full list scored below its last: every candidate tied.
    all_tied = ((valid > 1) & (per_row >= valid)
                & (neg[r, top[:, 0]] == neg[r, top[r, listed - 1]]))
    keys = users[:, None] * n + top
    found = truth[np.minimum(np.searchsorted(truth, keys), truth.size - 1)]
    return _dcg_by_length((found == keys).astype(np.float64), listed), all_tied


def _dcg(rel: np.ndarray) -> np.ndarray:
    """Row sums of rel_j / log2(j + 1) over the 1-based positions j of a
    (rows, length) relevance matrix."""
    positions = np.arange(1, rel.shape[1] + 1, dtype=np.float64)
    return np.sum(rel / np.log2(positions + 1.0), axis=1)


def _dcg_by_length(rel: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """DCG of each row r over its first lengths[r] positions. Rows are summed
    in groups of one length, because padding a row with zeros changes the
    order of numpy's pairwise summation and so the last bits."""
    out = np.empty(lengths.size)
    distinct, group = np.unique(lengths, return_inverse=True)
    for g, length in enumerate(distinct):
        rows = group == g
        out[rows] = _dcg(rel[rows, :length])
    return out


def stored_result(result: EvalResult, tau: float, top_k: int) -> dict:
    """The stored form of a validation result that models.save_model writes:
    its scalars, the tau and top_k it was ranked with, and the per-user NDCG
    as the arrays users (int64) and ndcg (float64), in the result's order."""
    return {"setting": result.setting, "fold": result.fold,
            "num_excluded": result.num_excluded,
            "pool_size_total": result.pool_size_total,
            "num_all_tied": result.num_all_tied, "tau": tau, "top_k": top_k,
            "users": np.fromiter(result.ndcg.keys(), np.int64, len(result.ndcg)),
            "ndcg": np.fromiter(result.ndcg.values(), np.float64, len(result.ndcg))}


def stored_validation(stored: dict | None, tau: float, top_k: int) -> EvalResult | None:
    """The validation EvalResult that stored_result stored, when it was
    ranked with this tau and top_k; None otherwise, and when nothing was
    stored."""
    if stored is None or (stored["tau"], stored["top_k"]) != (tau, top_k):
        return None
    return EvalResult(stored["setting"], "validation", stored["fold"],
                      dict(zip(stored["users"].tolist(), stored["ndcg"].tolist())),
                      stored["num_excluded"], stored["pool_size_total"],
                      stored["num_all_tied"])


def fold_mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation of per-fold metrics."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def grid_search(grid_w, grid_h, evaluate_pair) -> tuple[tuple[float, float], list]:
    """Exhaustive search over (lambda_W, lambda_H); ties toward larger values.

    evaluate_pair(lw, lh) must return the validation NDCG for that pair.
    Returns ((best_lw, best_lh), table of (lw, lh, ndcg) rows).
    """
    if not len(grid_w) or not len(grid_h):
        raise ValueError("grids must be non-empty")
    table = []
    best = None
    for lw in grid_w:
        for lh in grid_h:
            score = float(evaluate_pair(lw, lh))
            table.append((float(lw), float(lh), score))
            key = (score, float(lw), float(lh))
            if best is None or key > best:
                best = key
    return (best[1], best[2]), table


def write_eval_result(path, result: EvalResult, checkpoint: list[int]) -> None:
    """Structured text export through data.write_text: summary record plus
    per-user values. `checkpoint` is the scored checkpoint's digest, as
    models.load_model returns it."""
    lines = ["# field\tvalue\n",
             f"setting\t{result.setting}\n",
             f"bucket\t{result.bucket}\n",
             f"fold\t{'-' if result.fold is None else result.fold}\n",
             f"checkpoint\t{checkpoint}\n",
             f"num_users\t{result.num_users}\n",
             f"num_excluded\t{result.num_excluded}\n",
             f"pool_size_total\t{result.pool_size_total}\n",
             f"mean_ndcg\t{result.mean!r}\n",
             "# user\tndcg\n"]
    lines += [f"{u}\t{result.ndcg[u]!r}\n" for u in sorted(result.ndcg)]
    write_text(path, "".join(lines))


def read_eval_mean(path, fold: int, checkpoint: list[int]):
    """The mean_ndcg of the eval file at path, or None when there is no such
    file. A fold line that names another fold than `fold`, its run's (a file
    copied from another fold's run, say), and a file without a whole,
    parseable mean_ndcg line (one cut short by a killed write, say) are
    DataErrors naming path:line. So is a file whose checkpoint line, before
    its mean_ndcg line, is missing or names another digest than
    `checkpoint`, its run's best.ckpt's (the file of an `evaluate` of
    last.ckpt, say)."""
    if not os.path.exists(path):
        return None
    n, scored = 0, "none"
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            if line.startswith("fold\t"):
                have = line[len("fold\t"):].rstrip("\n")
                if have != str(fold):
                    raise DataError(f"{path}:{n}: the eval file is of fold {have}, its "
                                    f"run's config.ini of fold {fold}")
            if line.startswith("checkpoint\t"):
                scored = line[len("checkpoint\t"):].rstrip("\n")
            if line.startswith("mean_ndcg\t"):
                if scored != str(checkpoint):
                    raise DataError(f"{path}: the eval file scored checkpoint {scored}, "
                                    f"not its run's best.ckpt {checkpoint}; evaluate "
                                    f"that best.ckpt again")
                try:
                    if not line.endswith("\n"):
                        raise ValueError("the line has no line end")
                    return float(line[len("mean_ndcg\t"):-1])
                except ValueError as exc:
                    raise DataError(f"{path}:{n}: damaged mean_ndcg ({exc})") from exc
    raise DataError(f"{path}:{n + 1}: the eval file ends before its mean_ndcg line")
