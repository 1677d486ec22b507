"""Seeded input generator for the benchmark workloads.

Draws a planted low-rank model whose item factors are a linear function of
the item features (plus noise), then samples exactly `per_user` distinct
items for every user, preferring items the user likes. The planted model is
fixed; the seed draws which items each user consumed and the playcounts. The cost is
proportional to the number of interactions: each user draws a fixed-size
candidate list and only those candidates are ever scored, so no
users x items array is built.

The program under test receives only the two files written here
(`triplets.tsv` and `features.tsv`); this module never imports it, so later
changes to the library cannot change the inputs.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

TAU = 7  # binarization threshold; the library's default `tau`
NOISE = 0.1  # item-factor noise beyond the features, and decision noise
CANDIDATES_PER_PICK = 3  # candidate list length per consumed item
PREFERENCE = 3.0  # weight of the standardized affinity in the pick
# The planted model is the same for every seed; the seed draws the sample.
PLANTED_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """What the generator wrote, for the record and for the checks."""

    num_users: int
    num_items: int
    nnz: int
    positives: int


def _rng(seed: int, label: bytes) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(label)]))


def _distinct_candidates(rng, num_users: int, num_items: int, count: int) -> np.ndarray:
    """`count` distinct uniformly drawn items per user, as a (U, count) array.

    Draws with replacement in draw order and keeps the first `count` distinct
    values of each row, which is uniform sampling without replacement. Rows
    that come up short are redrawn.
    """
    if count > num_items:
        raise ValueError("more candidates requested than items exist")
    extra = max(8, int(2.0 * count * count / num_items) + 8)
    out = np.empty((num_users, count), dtype=np.int64)
    todo = np.arange(num_users)
    while todo.size:
        draws = rng.integers(0, num_items, size=(todo.size, count + extra))
        order = np.argsort(draws, axis=1, kind="stable")
        ranked = np.take_along_axis(draws, order, axis=1)
        dup = np.zeros_like(draws, dtype=bool)
        np.put_along_axis(dup, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
        keep = ~dup & (np.cumsum(~dup, axis=1) <= count)
        full = keep.sum(axis=1) == count
        out[todo[full]] = draws[full][keep[full]].reshape(-1, count)
        todo = todo[~full]
    return out


def generate(out_dir: str, num_users: int, num_items: int, per_user: int,
             num_features: int, k_true: int, seed: int) -> Inputs:
    """Write `triplets.tsv` and `features.tsv` under out_dir.

    Every user gets exactly `per_user` interactions, so nnz = U * per_user
    for every seed. A pair is positive (count >= TAU) when its noisy planted
    affinity is above the median affinity of the chosen pairs.
    """
    planted = _rng(PLANTED_SEED, b"perfbench.planted")
    W = planted.normal(0.0, 1.0, size=(k_true, num_users)) / math.sqrt(k_true)
    X = planted.normal(0.0, 1.0, size=(num_items, num_features))
    M = planted.normal(0.0, 1.0, size=(k_true, num_features)) / math.sqrt(num_features)
    H = M @ X.T + NOISE * planted.normal(0.0, 1.0, size=(k_true, num_items))

    rng = _rng(seed, b"perfbench.sample")
    cand = _distinct_candidates(rng, num_users, num_items,
                                min(num_items, CANDIDATES_PER_PICK * per_user))
    # Affinity of each user with its own candidates only: (U, c).
    aff = np.einsum("ku,kuc->uc", W, H[:, cand])
    z = (aff - aff.mean()) / max(float(aff.std()), 1e-12)
    gumbel = -np.log(-np.log(rng.random(size=aff.shape)))
    pick = np.argpartition(-(PREFERENCE * z + gumbel), per_user - 1, axis=1)[:, :per_user]
    items = np.take_along_axis(cand, pick, axis=1)
    chosen = np.take_along_axis(aff, pick, axis=1)

    decision = chosen + NOISE * rng.normal(0.0, 1.0, size=chosen.shape)
    positive = decision >= float(np.median(chosen))
    counts = np.where(positive,
                      TAU + rng.geometric(0.5, size=chosen.shape) - 1,
                      rng.integers(1, TAU, size=chosen.shape))

    os.makedirs(out_dir, exist_ok=True)
    tri_path = os.path.join(out_dir, "triplets.tsv")
    feat_path = os.path.join(out_dir, "features.tsv")
    users = np.repeat(np.arange(num_users), per_user)
    items = items.ravel()
    # Item-major order: the library indexes items in first-seen order, so
    # every seed sees the same item indices and the program seed picks the
    # same cold items.
    order = np.lexsort((users, items))
    with open(tri_path, "w", encoding="utf-8") as fh:
        fh.write("# user\titem\tcount\n")
        fh.write("".join(f"u{u}\ti{i}\t{c}\n" for u, i, c in
                         zip(users[order].tolist(), items[order].tolist(),
                             counts.ravel()[order].tolist())))
    with open(feat_path, "w", encoding="utf-8") as fh:
        fh.write("# item\tfeatures...\n")
        fh.write("".join(f"i{i}\t" + "\t".join(repr(v) for v in row) + "\n"
                         for i, row in enumerate(X.tolist())))
    return Inputs(num_users, num_items, int(users.size), int(positive.sum()))
