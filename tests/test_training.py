import os
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import (gradcheck_full_loss, half_writing, pinned_cores, random_triplets,
                      record_solves)
from oracles import (als_update_h, als_update_w, combine, copy_mlp, copy_model,
                     dense_batch_objective, dense_weighted_loss, finite_diff_grad,
                     full_loss_gradients, weighted_ridge_solve)
from ncacf import models, numerics, training
from ncacf.data import ConfidenceScheme, InteractionTriplets, SparsePlaycounts
from ncacf.errors import ConfigError, DataError, TrainingDivergedError
from ncacf.models import (Hyperparams, ModelVariant, init_model,
                          mlp_forward)
from ncacf.numerics import AdamState, MLPParams
from ncacf.training import (als_sweep_items, als_sweep_users, content_mse, full_loss,
                            gd_content_mse, make_batches, owned_groups, train,
                            TrainState, _batch_objective)


def make_weighted(num_users, num_items, density, seed):
    t = random_triplets(num_users, num_items, density, seed)
    return t, SparsePlaycounts.from_triplets(t), ConfidenceScheme()


def record_tower_grids(monkeypatch):
    """Per tower_grid_forward call: (users, largest array it builds)."""
    calls = []
    forward = models.tower_grid_forward

    def recording(tower, W, item_vecs, combination):
        scores, cache = forward(tower, W, item_vecs, combination)
        _, _, first, rest = cache
        arrays = list(first or ()) + [a for layer in rest or () for a in layer]
        calls.append((W.shape[1], max([scores.size] + [a.size for a in arrays])))
        return scores, cache

    monkeypatch.setattr(models, "tower_grid_forward", recording)
    monkeypatch.setattr(training, "tower_grid_forward", recording)
    return calls


def finetune_adams(model):
    """The fresh Adam state a deep model's fine-tuning phase starts with."""
    return {group: AdamState.init(training.group_params(model, group), Hyperparams().eta)
            for group in owned_groups(model.variant, True)}


def dense_rc(data, scheme):
    R = np.zeros((data.num_users, data.num_items))
    C = np.ones((data.num_users, data.num_items))
    rows = data.by_user
    for u in range(data.num_users):
        seg = slice(rows.indptr[u], rows.indptr[u + 1])
        R[u, rows.indices[seg]] = scheme.r(rows.counts[seg])
        C[u, rows.indices[seg]] = scheme.c(rows.counts[seg])
    return R, C


WMF = ModelVariant("wmf", "content_free")
DCB_RELAXED = ModelVariant("dcb", "relaxed")
UNI_RELAXED = ModelVariant("mf_uni", "relaxed")


def _frozen_reduction(monkeypatch, data, feats, hyper, seed):
    """ncacf with a tower that reduces to the dot product (multiplication, no
    hidden layer, identity output) and stays frozen (no phase owns it);
    returns (final model, report)."""
    variant = ModelVariant("ncacf", "relaxed", "multiplication", 0)

    def identity_tower(*args):
        tower = models.attach_tower(*args)
        tower.layers[-1].activation = "identity"
        return tower

    monkeypatch.setattr(training, "attach_tower", identity_tower)
    monkeypatch.setattr(training, "owned_groups",
                        lambda v, tower: owned_groups(v, tower) - {"interaction"})
    report = train(variant, data, feats, hyper, seed)
    return report.model, report


class TestAlsUpdates:
    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        H = rng.normal(0, 1, (3, 6))
        w = als_update_w(H, rng.integers(0, 2, 6).astype(float),
                         np.full(6, 5.0), lam_w=1e9)
        assert np.linalg.norm(w) <= 1e-6

    def test_hand_solved_scalar_case(self):
        w = als_update_w(np.array([[1.0, 1.0]]), np.array([1.0, 0.0]),
                         np.array([2.0, 1.0]), lam_w=1.0)
        npt.assert_allclose(w, [0.5], atol=1e-14)

    def test_w_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            k, n = 4, int(rng.integers(3, 9))
            H = rng.normal(0, 1, (k, n))
            r = rng.integers(0, 2, n).astype(float)
            c = rng.uniform(1, 30, n)
            lam = float(rng.uniform(0.05, 2))
            got = als_update_w(H, r, c, lam)
            want = weighted_ridge_solve(H, r, c, lam)
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_h_with_zero_users_returns_prior(self):
        prior = np.array([0.3, -0.7])
        got = als_update_h(np.zeros((2, 5)), np.zeros(5), np.ones(5), 2.0, prior)
        npt.assert_allclose(got, prior, atol=1e-14)

    def test_h_prior_zero_is_classical_update(self):
        rng = np.random.default_rng(2)
        W = rng.normal(0, 1, (3, 7))
        r = rng.integers(0, 2, 7).astype(float)
        c = rng.uniform(1, 10, 7)
        npt.assert_allclose(als_update_h(W, r, c, 0.5),
                            als_update_h(W, r, c, 0.5, np.zeros(3)), atol=1e-15)

    def test_h_matches_oracle_with_prior(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            k, n = 3, int(rng.integers(3, 9))
            W = rng.normal(0, 1, (k, n))
            r = rng.integers(0, 2, n).astype(float)
            c = rng.uniform(1, 30, n)
            lam = float(rng.uniform(0.05, 2))
            prior = rng.normal(0, 1, k)
            got = als_update_h(W, r, c, lam, prior)
            want = weighted_ridge_solve(W, r, c, lam, prior=prior)
            npt.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_update_is_subproblem_minimizer(self):
        rng = np.random.default_rng(4)
        k, n = 3, 8
        H = rng.normal(0, 1, (k, n))
        r = rng.integers(0, 2, n).astype(float)
        c = rng.uniform(1, 20, n)
        lam = 0.7
        w = als_update_w(H, r, c, lam)

        def objective(v):
            return float(np.sum(c * (r - v @ H) ** 2) + lam * v @ v)

        base = objective(w)
        for _ in range(10):
            probe = w + 1e-3 * rng.normal(0, 1, k)
            assert objective(probe) >= base - 1e-12

    def test_item_update_is_subproblem_minimizer(self):
        rng = np.random.default_rng(44)
        k, n = 3, 8
        W = rng.normal(0, 1, (k, n))
        r = rng.integers(0, 2, n).astype(float)
        c = rng.uniform(1, 20, n)
        lam = 0.9
        prior = rng.normal(0, 1, k)
        h = als_update_h(W, r, c, lam, prior)

        def objective(v):
            return float(np.sum(c * (r - v @ W) ** 2) + lam * np.sum((v - prior) ** 2))

        base = objective(h)
        for _ in range(10):
            probe = h + 1e-3 * rng.normal(0, 1, k)
            assert objective(probe) >= base - 1e-12

    def test_sweeps_match_dense_updates(self):
        t, data, scheme = make_weighted(8, 6, 0.4, seed=5)
        rng = np.random.default_rng(6)
        H = rng.normal(0, 1, (3, 6))
        R, C = dense_rc(data, scheme)
        pool = np.arange(6)
        W_sweep = als_sweep_users(H, data, scheme, 0.4, pool)
        for u in range(8):
            npt.assert_allclose(W_sweep[:, u], als_update_w(H, R[u], C[u], 0.4),
                                rtol=1e-10, atol=1e-12)
        W = rng.normal(0, 1, (3, 8))
        prior = rng.normal(0, 1, (3, 6))
        H_sweep = als_sweep_items(W, data, scheme, 0.9, pool, prior)
        for i in range(6):
            npt.assert_allclose(
                H_sweep[:, i],
                als_update_h(W, R[:, i], C[:, i], 0.9, prior[:, i]),
                rtol=1e-10, atol=1e-12)

    def test_item_outside_pool_is_data_error(self):
        t = InteractionTriplets.create([0, 0, 1], [0, 2, 1], [9.0, 9.0, 9.0], 2, 3)
        data = SparsePlaycounts.from_triplets(t)
        H_pool = np.ones((2, 2))
        with pytest.raises(DataError, match="item 1 "):
            als_sweep_users(H_pool, data, ConfidenceScheme(), 0.5, np.array([0, 2]))

    def test_parallel_sweep_bit_identical(self, monkeypatch):
        """Sweeps of several blocks, with a prior and without, give the same
        bits on one worker and on two, whose writes into one result array
        interleave often under a short thread switch interval."""
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", 4 * 4 * 8)  # a few rows each
        t, data, scheme = make_weighted(40, 25, 0.2, seed=7)
        rng = np.random.default_rng(8)
        H, W, prior = (rng.normal(0, 1, (4, n)) for n in (25, 40, 25))
        pool = np.arange(25)
        sweeps, interval = [], sys.getswitchinterval()
        for cores in (1, 2):
            with pinned_cores(monkeypatch, cores):
                sys.setswitchinterval(1e-6)
                try:
                    sweeps.append((als_sweep_users(H, data, scheme, 0.3, pool),
                                   als_sweep_items(W, data, scheme, 0.3, pool, prior)))
                finally:
                    sys.setswitchinterval(interval)
                assert (numerics._POOL is not None) == (cores == 2)
        for one, two in zip(*sweeps):
            assert np.array_equal(one, two)


class TestSweepOracle:
    """Every column of a sweep against the brute-force normal equations."""

    # Unsorted strict subset of the 9 items; item 4 and users 0, 5 have no
    # interactions.
    POOL = np.array([7, 1, 4, 2, 8])

    def _data(self, rng, pool_only):
        mask = rng.random((13, 9)) < 0.45
        mask[[0, 5]] = False
        mask[:, 4] = False
        if pool_only:
            mask[:, np.setdiff1d(np.arange(9), self.POOL)] = False
        users, items = np.nonzero(mask)
        counts = rng.integers(1, 20, users.size).astype(float)
        t = InteractionTriplets.create(users, items, counts, 13, 9)
        return SparsePlaycounts.from_triplets(t)

    # Block budgets: everything in one block, then blocks of a few rows, then
    # one row per block (K = 3: a row costs at least 3 x 3 floats).
    @pytest.mark.parametrize("floats", [1 << 18, 30, 9])
    def test_sweeps_match_ridge_oracle(self, monkeypatch, floats):
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", floats)
        rng = np.random.default_rng(12)
        scheme = ConfidenceScheme()
        pool = self.POOL
        data = self._data(rng, pool_only=True)
        R, C = dense_rc(data, scheme)
        H_pool = rng.normal(0, 1, (3, pool.size))
        W = als_sweep_users(H_pool, data, scheme, 0.4, pool)
        for u in range(13):
            npt.assert_allclose(
                W[:, u], weighted_ridge_solve(H_pool, R[u, pool], C[u, pool], 0.4),
                rtol=1e-9, atol=1e-11)

        # Items outside the pool may carry interactions; they are not swept.
        data = self._data(rng, pool_only=False)
        R, C = dense_rc(data, scheme)
        prior = rng.normal(0, 1, (3, pool.size))
        H = als_sweep_items(W, data, scheme, 0.9, pool, prior)
        for j, i in enumerate(pool):
            npt.assert_allclose(
                H[:, j], weighted_ridge_solve(W, R[:, i], C[:, i], 0.9, prior=prior[:, j]),
                rtol=1e-9, atol=1e-11)

    def test_block_size_and_threads_do_not_change_sweeps(self, monkeypatch):
        rng = np.random.default_rng(13)
        scheme = ConfidenceScheme()
        data = self._data(rng, pool_only=True)
        H_pool = rng.normal(0, 1, (3, self.POOL.size))
        W = rng.normal(0, 1, (3, 13))
        users = als_sweep_users(H_pool, data, scheme, 0.3, self.POOL)
        items = als_sweep_items(W, data, scheme, 0.3, self.POOL, None)
        assert np.array_equal(
            users, als_sweep_users(H_pool, data, scheme, 0.3, self.POOL))
        assert np.array_equal(
            items, als_sweep_items(W, data, scheme, 0.3, self.POOL, None))
        for floats in (9, 30):
            monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", floats)
            npt.assert_allclose(
                als_sweep_users(H_pool, data, scheme, 0.3, self.POOL), users,
                rtol=1e-12, atol=1e-14)
            npt.assert_allclose(
                als_sweep_items(W, data, scheme, 0.3, self.POOL), items,
                rtol=1e-12, atol=1e-14)

    # One block, then one row per block: item 4 (pool position 2, no
    # interactions) is then the first block to fail, yet item 7 is named.
    @pytest.mark.parametrize("floats", [1 << 18, 9])
    def test_singular_systems_at_zero_ridge_are_config_errors(self, monkeypatch,
                                                              floats):
        """With lambda = 0 and a rank-deficient F every system is singular;
        the sweep names its side, its first row that cannot be solved (an
        item by its id, not its pool position) and the zero lambda."""
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", floats)
        rng = np.random.default_rng(14)
        scheme = ConfidenceScheme()
        data = self._data(rng, pool_only=True)
        H_pool = rng.normal(0, 1, (3, self.POOL.size))
        H_pool[2] = 0.0
        with pytest.raises(ConfigError, match=r"ALS user sweep: the system of user 0 "
                           r"is not positive definite with lambda_w = 0;.*lambda_w > 0"):
            als_sweep_users(H_pool, data, scheme, 0.0, self.POOL)
        W = rng.normal(0, 1, (3, 13))
        W[1] = 0.0
        with pytest.raises(ConfigError, match=r"ALS item sweep: the system of item 7 "
                           r"is not positive definite with lambda_h = 0;.*lambda_h > 0"):
            als_sweep_items(W, data, scheme, 0.0, self.POOL)
        # A positive ridge makes the same systems solvable.
        assert np.all(np.isfinite(als_sweep_users(H_pool, data, scheme, 1e-3, self.POOL)))

    def test_lowest_failing_row_named_when_its_block_finishes_last(self,
                                                                  monkeypatch):
        """The not-PD error names the lowest failing row even when the block
        that holds it is the last of two workers' blocks to finish."""
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", 9)  # one row per block
        rng = np.random.default_rng(14)
        scheme = ConfidenceScheme()
        data = self._data(rng, pool_only=True)
        W = rng.normal(0, 1, (3, 13))
        W[1] = 0.0  # every item's system is singular at lambda_h = 0
        first, finished = training._first_not_pd, []

        def slow_for_pool_position_0(rows, A):
            row = first(rows, A)
            if row == 0:
                time.sleep(0.2)
            finished.append(row)
            return row

        monkeypatch.setattr(training, "_first_not_pd", slow_for_pool_position_0)
        with pinned_cores(monkeypatch, 2):
            with pytest.raises(ConfigError, match="the system of item 7 "):
                als_sweep_items(W, data, scheme, 0.0, self.POOL)
        assert sorted(finished) == list(range(self.POOL.size)) and finished[-1] == 0

    @pytest.mark.parametrize("k", [2, 6])
    def test_block_temporaries_bounded(self, monkeypatch, k):
        """A block of rows (shortest first) holds at most _ALS_BLOCK_FLOATS
        floats of systems and of gathered columns, or is a single row."""
        floats = 300
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", floats)
        blocks, stacks = [], record_solves(monkeypatch)
        map_blocks = training.map_blocks

        def recording_map(fn, rows):
            blocks.extend(rows)
            return map_blocks(fn, rows)

        monkeypatch.setattr(training, "map_blocks", recording_map)
        t, data, scheme = make_weighted(60, 25, 0.4, seed=21)
        rng = np.random.default_rng(22)
        for axis, F in ((data.by_user, rng.normal(0, 1, (k, 25))),
                        (data.by_item, rng.normal(0, 1, (k, 60)))):
            blocks.clear()
            stacks.clear()
            if axis is data.by_user:
                als_sweep_users(F, data, scheme, 0.3, np.arange(25))
            else:
                als_sweep_items(F, data, scheme, 0.3, np.arange(25))
            lengths = np.diff(axis.indptr)
            # The blocks cut the rows, shortest first, and each is one stack.
            assert np.array_equal(np.concatenate(blocks),
                                  np.argsort(lengths, kind="stable"))
            assert sorted(stacks) == sorted(rows.size for rows in blocks)
            assert len(blocks) > 1
            for rows in blocks:
                n, width = rows.size, lengths[rows].max()
                assert n == 1 or n * k * max(k, width) <= floats


class TestObjectiveBlocks:
    """full_loss sums a tower's objective over consecutive item blocks of the
    given batch size; a dot product expands no users x items grid at all."""

    # Unsorted strict subset of the 23 items.
    POOL = np.array([21, 3, 9, 0, 14, 7, 18, 2, 11, 5, 20, 16, 8, 1, 13, 6, 22])
    VARIANTS = {
        "mult-q0": ModelVariant("ncacf", "relaxed", "multiplication", 0),
        "mult-q2": ModelVariant("ncacf", "relaxed", "multiplication", 2),
        "concat-q0": ModelVariant("ncacf", "relaxed", "concatenation", 0),
        "concat-q2": ModelVariant("ncacf", "relaxed", "concatenation", 2),
    }

    def _setup(self, name):
        t, data, scheme = make_weighted(7, 23, 0.4, seed=31)
        feats = np.random.default_rng(32).normal(0, 1, (23, 4))
        model = init_model(self.VARIANTS[name], 7, 23, 3, 4, seed=11,
                           hidden_width=5, extractor_layers=2)
        return model, data, scheme, feats

    def _record_blocks(self, monkeypatch):
        """Per block of full_loss: [items, [largest array of each tower pass]]
        (appended to, as the tower's workers may record at once)."""
        blocks = []
        objective = training._batch_objective
        forward = models.mlp_forward

        def recording_objective(model, data, scheme, features, lam_w, lam_h,
                                batch, *args, **kwargs):
            blocks.append([len(batch), []])
            return objective(model, data, scheme, features, lam_w, lam_h, batch,
                             *args, **kwargs)

        def recording_forward(params, x):
            out, cache = forward(params, x)
            blocks[-1][1].append(max([out.size]
                                     + [a.size for layer in cache for a in layer]))
            return out, cache

        monkeypatch.setattr(training, "_batch_objective", recording_objective)
        monkeypatch.setattr(models, "mlp_forward", recording_forward)
        return blocks

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_block_edges_do_not_change_loss(self, monkeypatch, name):
        model, data, scheme, feats = self._setup(name)
        want = full_loss(model, data, scheme, feats, 0.3, 0.7, self.POOL,
                         batch_items=self.POOL.size)
        blocks = self._record_blocks(monkeypatch)
        for batch_items in (5, 2, 1):
            blocks.clear()
            got = full_loss(model, data, scheme, feats, 0.3, 0.7, self.POOL,
                            batch_items=batch_items)
            assert len(blocks) > 1 and sum(n for n, _ in blocks) == self.POOL.size
            npt.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_block_grids_bounded(self, monkeypatch, name):
        """Every block holds at most the batch's items, so its dense users x
        items arrays fit one users x batch array, and so does every tower
        array. Every tower grid that full_loss and score_matrix build fits
        models.TOWER_BLOCK_FLOATS, or its sub-block is a single user."""
        batch_items, tower_floats = 4, 20
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", tower_floats)
        model, data, scheme, feats = self._setup(name)
        blocks = self._record_blocks(monkeypatch)
        grids = record_tower_grids(monkeypatch)
        full_loss(model, data, scheme, feats, 0.3, 0.7, self.POOL,
                            batch_items=batch_items)
        assert [n for n, _ in blocks] == [4, 4, 4, 4, 1]
        batch_floats = data.num_users * batch_items * models.grid_width(model)
        for n, sizes in blocks:
            assert max([n * data.num_users, *sizes]) <= batch_floats
        assert len(grids) > len(blocks) and any(users > 1 for users, _ in grids)
        for users, grid in grids:
            assert users == 1 or grid <= tower_floats
        # Three users to a sub-block of the scores: 3 + 3 + 1, recorded in the
        # order the workers finish them.
        tower_floats = 3 * self.POOL.size * models.grid_width(model) + 1
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", tower_floats)
        grids.clear()
        scores = models.score_matrix(model, model.H[:, self.POOL])
        assert scores.shape == (data.num_users, self.POOL.size)
        assert sorted((users for users, _ in grids), reverse=True) == [3, 3, 1]
        assert all(grid <= tower_floats for _, grid in grids)

    @pytest.mark.parametrize("variant", [ModelVariant("mf_uni", "relaxed"),
                                         ModelVariant("mf_uni", "strict"),
                                         ModelVariant("wmf", "content_free")],
                             ids=["mf_uni-relaxed", "mf_uni-strict", "wmf"])
    def test_dot_product_allocates_below_one_users_x_pool_grid(self, variant):
        """At 0.5% density, the peak of every allocation a dot-product
        full_loss makes stays below one float per user x pooled item."""
        users, items = 2000, 400
        t, data, scheme = make_weighted(users, items, 0.005, seed=33)
        feats = np.random.default_rng(34).normal(0, 1, (items, 6))
        model = init_model(variant, users, items, 8, 6, seed=12, hidden_width=8,
                           extractor_layers=2)
        pool = np.random.default_rng(35).permutation(items)[:300]
        assert t.num_entries * 50 < users * pool.size
        want = full_loss(model, data, scheme, feats, 0.3, 0.7, pool, batch_items=pool.size)
        tracemalloc.start()
        try:
            got = full_loss(model, data, scheme, feats, 0.3, 0.7, pool, batch_items=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < users * pool.size * 8


class TestNnzObjective:
    """The nnz-cost objective of every model without a tower matches the dense
    users x items reference, on single batches of an unsorted item pool."""

    VARIANTS = [ModelVariant("mf_uni", "relaxed"), ModelVariant("mf_uni", "strict"),
                ModelVariant("dcb", "relaxed"), ModelVariant("dcb", "strict"),
                ModelVariant("mf_hybrid", "relaxed"), ModelVariant("mf_hybrid", "strict"),
                ModelVariant("wmf", "content_free"),
                ModelVariant("ncacf", "relaxed"),
                ModelVariant("ncacf", "strict"),
                ModelVariant("ncf", "content_free")]
    # Unsorted strict subset of the 40 items, and batches of it.
    POOL = np.random.default_rng(36).permutation(40)[:31]
    BATCHES = (POOL[:7], POOL[7:8], POOL[8:], POOL)

    @staticmethod
    def _assert_relative(got, want):
        # Relative to the largest entry: a sum over pairs can cancel to a
        # small entry that carries only the rounding of its larger terms.
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"{v.family}-{v.coupling}")
    def test_matches_dense_reference(self, variant):
        t, data, scheme = make_weighted(25, 40, 0.15, seed=37)
        feats = np.random.default_rng(38).normal(0, 1, (40, 5))
        model = init_model(variant, 25, 40, 4, 5, seed=13, hidden_width=6,
                           extractor_layers=2, with_interaction=False)
        # W and H large enough that scores and playcounts are comparable.
        model.W[...] *= 60.0
        if model.H is not None:
            model.H[...] *= 60.0
        owned = owned_groups(variant, with_interaction=False)
        for batch in self.BATCHES:
            got, grads = _batch_objective(model, data, scheme, feats, 0.3, 0.7, batch,
                                          self.POOL.size, owned)
            want, ref = dense_batch_objective(model, data, scheme, feats, 0.3, 0.7,
                                              batch, self.POOL.size, owned)
            npt.assert_allclose(got, want, rtol=1e-12, atol=0)
            assert set(grads) == set(ref) == owned
            for group in owned:
                if group == "extractor":
                    assert set(grads[group]) == set(ref[group])
                    for name in ref[group]:
                        self._assert_relative(grads[group][name], ref[group][name])
                else:
                    self._assert_relative(grads[group], ref[group])
        want, _ = dense_batch_objective(model, data, scheme, feats, 0.3, 0.7, self.POOL,
                                        self.POOL.size, frozenset())
        npt.assert_allclose(full_loss(model, data, scheme, feats, 0.3, 0.7, self.POOL,
                                      batch_items=self.POOL.size),
                            want, rtol=1e-12, atol=0)


class TestTowerSubBlocks:
    """A tower's batch objective runs one user sub-block at a time, sized by
    models.TOWER_BLOCK_FLOATS, and matches the one-pass users x batch oracle
    whether a sub-block holds one user, an uneven share, or every user."""

    VARIANTS = {
        "concat-q0": ModelVariant("ncacf", "relaxed", "concatenation", 0),
        "concat-q2": ModelVariant("ncacf", "relaxed", "concatenation", 2),
        "mult-q0": ModelVariant("ncacf", "relaxed", "multiplication", 0),
        "mult-q2": ModelVariant("ncacf", "relaxed", "multiplication", 2),
        "strict-concat-q2": ModelVariant("ncacf", "strict", "concatenation", 2),
        "strict-mult-q0": ModelVariant("ncacf", "strict", "multiplication", 0),
        "ncf-concat-q2": ModelVariant("ncf", "content_free", "concatenation", 2),
        "ncf-mult-q2": ModelVariant("ncf", "content_free", "multiplication", 2),
    }
    USERS = 11
    # Unsorted strict subset of the 30 items, and batches of it.
    POOL = np.random.default_rng(71).permutation(30)[:23]
    BATCHES = (POOL[:7], POOL[7:8], POOL[8:], POOL)

    def _setup(self, name):
        t, data, scheme = make_weighted(self.USERS, 30, 0.3, seed=72)
        feats = np.random.default_rng(73).normal(0, 1, (30, 5))
        model = init_model(self.VARIANTS[name], self.USERS, 30, 4, 5, seed=14,
                           hidden_width=6, extractor_layers=2)
        # W and H large enough that the relus switch across the grid.
        model.W[...] *= 50.0
        if model.H is not None:
            model.H[...] *= 50.0
        return model, data, scheme, feats

    @staticmethod
    def _assert_relative(got, want):
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_matches_unsplit_oracle(self, monkeypatch, name):
        model, data, scheme, feats = self._setup(name)
        owned = owned_groups(model.variant, with_interaction=True)
        backward = training.tower_grid_backward
        rows = []

        def recording_backward(tower, cache, grad_scores):
            rows.append(grad_scores.shape[0])
            return backward(tower, cache, grad_scores)

        monkeypatch.setattr(training, "tower_grid_backward", recording_backward)
        width = models.grid_width(model)
        for batch in self.BATCHES:
            want, ref = dense_batch_objective(model, data, scheme, feats, 0.3, 0.7,
                                              batch, self.POOL.size, owned)
            assert set(ref) == owned
            for per_block in (1, 4, self.USERS):  # 4 + 4 + 3 users is uneven
                monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS",
                                    per_block * batch.size * width + width - 1)
                rows.clear()
                got, grads = _batch_objective(model, data, scheme, feats, 0.3, 0.7,
                                              batch, self.POOL.size, owned)
                # One backward call per sub-block, of the expected sizes; two
                # workers record them in the order they finish.
                assert sorted(rows, reverse=True) == [per_block] * (self.USERS // per_block) \
                    + ([self.USERS % per_block] if self.USERS % per_block else [])
                npt.assert_allclose(got, want, rtol=1e-12, atol=0)
                assert set(grads) == owned
                for group in owned:
                    if isinstance(ref[group], dict):
                        assert set(grads[group]) == set(ref[group])
                        for part in ref[group]:
                            self._assert_relative(grads[group][part], ref[group][part])
                    else:
                        self._assert_relative(grads[group], ref[group])

    def test_repeated_epoch_bit_identical(self, monkeypatch):
        from ncacf.training import gd_wpe
        model, data, scheme, feats = self._setup("concat-q2")
        # Batches of 5 items, 3 users to a sub-block.
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", 3 * 5 * models.grid_width(model))
        schedule = make_batches(self.POOL.size, 5, seed=3, epoch=0)
        runs = []
        for _ in range(2):
            start = copy_model(model)
            end, _ = gd_wpe(start, data, scheme, feats, 0.3, 0.7,
                            finetune_adams(start), schedule, self.POOL)
            runs.append([end.W, end.H,
                         *end.extractor.param_dict().values(),
                         *end.interaction.param_dict().values()])
        assert not np.array_equal(runs[0][0], model.W)
        assert all(np.array_equal(x, y) for x, y in zip(*runs))

    def test_two_workers_bit_identical_under_fast_switching(self, monkeypatch):
        """One worker and two give the same loss, gradients and scores, with
        one user to a sub-block and the threads switching as often as the
        interpreter allows."""
        model, data, scheme, feats = self._setup("concat-q2")
        owned = owned_groups(model.variant, with_interaction=True)
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", 1)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
                loss, grads = _batch_objective(model, data, scheme, feats, 0.3, 0.7,
                                               self.POOL, self.POOL.size, owned)
                flat = {(group, name): arr for group, part in grads.items()
                        for name, arr in (part.items() if isinstance(part, dict)
                                          else [(group, part)])}
                scores = models.score_matrix(model, model.H[:, self.POOL])
                runs.append((loss, flat, scores))
        finally:
            sys.setswitchinterval(interval)
        (loss_1, grads_1, scores_1), (loss_2, grads_2, scores_2) = runs
        assert loss_1 == loss_2 and np.array_equal(scores_1, scores_2)
        assert grads_1.keys() == grads_2.keys()
        assert all(np.array_equal(grads_1[key], grads_2[key]) for key in grads_1)

    def test_batch_allocates_below_one_users_x_batch_grid(self):
        """The peak of every allocation one gd_wpe batch of a concatenation
        tower makes (2000 users x 64 items, grid width 32) stays below one
        users x batch x width grid of floats, with up to two sub-blocks live,
        one per worker: 9.4-9.9 MB of the 32.8 MB bound on two workers at a
        TOWER_BLOCK_FLOATS of 2^17, against 4.1 MB on one worker at 2^16."""
        users, items = 2000, 64
        t, data, scheme = make_weighted(users, items, 0.02, seed=74)
        feats = np.random.default_rng(75).normal(0, 1, (items, 6))
        variant = ModelVariant("ncacf", "relaxed", "concatenation", 2)
        model = init_model(variant, users, items, 16, 6, seed=15, hidden_width=8,
                           extractor_layers=2)
        assert models.grid_width(model) == 32
        adams = finetune_adams(model)
        schedule = make_batches(items, items, seed=0, epoch=0)
        assert len(schedule.batches) == 1
        tracemalloc.start()
        try:
            training.gd_wpe(model, data, scheme, feats, 0.3, 0.7, adams,
                            schedule, np.arange(items))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < users * items * 32 * 8


class TestLosses:
    def test_relaxed_matches_triple_loop_oracle(self):
        t, data, scheme = make_weighted(4, 3, 0.6, seed=9)
        rng = np.random.default_rng(10)
        feats = rng.normal(0, 1, (3, 5))
        variant = ModelVariant("mf_uni", "relaxed")
        model = init_model(variant, 4, 3, 2, 5, seed=1, hidden_width=4,
                           extractor_layers=2)
        got = full_loss(model, data, scheme, feats, 0.3, 0.8, batch_items=data.num_items)
        R, C = dense_rc(data, scheme)
        prior, _ = mlp_forward(model.extractor, feats)
        want = dense_weighted_loss(model.W, model.H,
                                   R, C, 0.3, 0.8, prior.T)
        npt.assert_allclose(got, want, rtol=1e-10)

    def test_strict_equals_relaxed_with_substituted_items(self):
        t, data, scheme = make_weighted(4, 3, 0.6, seed=11)
        rng = np.random.default_rng(12)
        feats = rng.normal(0, 1, (3, 5))
        strict = init_model(ModelVariant("mf_uni", "strict"), 4, 3, 2, 5,
                            seed=2, hidden_width=4, extractor_layers=2)
        got = full_loss(strict, data, scheme, feats, 0.3, 0.0, batch_items=data.num_items)
        phi, _ = mlp_forward(strict.extractor, feats)
        relaxed = init_model(ModelVariant("mf_uni", "relaxed"), 4, 3, 2, 5,
                             seed=2, hidden_width=4, extractor_layers=2)
        relaxed.W, relaxed.H = strict.W.copy(), phi.T.copy()
        relaxed.extractor = copy_mlp(strict.extractor)
        want = full_loss(relaxed, data, scheme, feats, 0.3, 123.0,
                         batch_items=data.num_items)
        npt.assert_allclose(got, want, rtol=1e-12)  # lam_h term vanishes

    def test_strict_loss_with_zeroed_extractor(self):
        t, data, scheme = make_weighted(4, 3, 0.6, seed=59)
        rng = np.random.default_rng(60)
        feats = rng.normal(0, 1, (3, 5))
        model = init_model(ModelVariant("mf_uni", "strict"), 4, 3, 2, 5,
                           seed=18, hidden_width=4, extractor_layers=2)
        for layer in model.extractor.layers:
            layer.weights[...] = 0.0
            layer.bias[...] = 0.0
        got = full_loss(model, data, scheme, feats, lam_w=1.0, lam_h=0.0,
                        batch_items=data.num_items)
        R, C = dense_rc(data, scheme)
        want = np.sum(C * R * R) + np.sum(model.W ** 2)
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_perfect_predictor_zero_loss(self):
        users = np.array([0, 1])
        items = np.array([0, 1])
        counts = np.array([9.0, 9.0])
        from ncacf.data import InteractionTriplets
        t = InteractionTriplets.create(users, items, counts, 2, 2)
        data = SparsePlaycounts.from_triplets(t)
        scheme = ConfidenceScheme()
        model = init_model(ModelVariant("wmf", "content_free"), 2, 2, 2, 0, seed=0)
        model.W, model.H = np.eye(2), np.eye(2)  # W^T H = I = R
        got = full_loss(model, data, scheme, None, 0.0, 0.0, batch_items=data.num_items)
        npt.assert_allclose(got, 0.0, atol=1e-20)

    def test_zero_model_loss_is_weighted_positives(self):
        t, data, scheme = make_weighted(5, 4, 0.5, seed=13)
        model = init_model(ModelVariant("wmf", "content_free"), 5, 4, 2, 0, seed=0)
        model.W, model.H = np.zeros((2, 5)), np.zeros((2, 4))
        got = full_loss(model, data, scheme, None, 1.0, 0.0, batch_items=data.num_items)
        R, C = dense_rc(data, scheme)
        npt.assert_allclose(got, np.sum(C * R * R), rtol=1e-12)

    def test_deep_loss_matches_pairwise_oracle(self):
        t, data, scheme = make_weighted(3, 3, 0.7, seed=14)
        rng = np.random.default_rng(15)
        feats = rng.normal(0, 1, (3, 4))
        model = init_model(
            ModelVariant("ncacf", "relaxed", "concatenation", 1),
            3, 3, 2, 4, seed=3, hidden_width=4, extractor_layers=2)
        got = full_loss(model, data, scheme, feats, 0.2, 0.5, batch_items=data.num_items)
        R, C = dense_rc(data, scheme)

        def deep_score(w, h):
            out, _ = mlp_forward(model.interaction,
                                 combine(w, h, "concatenation")[None, :])
            return float(out[0, 0])

        prior, _ = mlp_forward(model.extractor, feats)
        want = dense_weighted_loss(model.W, model.H, R, C,
                                   0.2, 0.5, prior.T, score_fn=deep_score)
        npt.assert_allclose(got, want, rtol=1e-10)


class TestGradients:
    @pytest.mark.parametrize("coupling", ["relaxed", "strict"])
    def test_dot_product_losses(self, coupling):
        t, data, scheme = make_weighted(3, 4, 0.5, seed=16)
        rng = np.random.default_rng(17)
        feats = rng.normal(0, 1, (4, 5))
        model = init_model(ModelVariant("mf_uni", coupling), 3, 4, 2, 5,
                           seed=4, hidden_width=4, extractor_layers=2)
        owned = owned_groups(model.variant, with_interaction=False)
        gradcheck_full_loss(model, data, scheme, feats, 0.3, 0.7, owned)

    def test_deep_interaction_loss(self):
        t, data, scheme = make_weighted(3, 4, 0.5, seed=18)
        rng = np.random.default_rng(19)
        feats = rng.normal(0, 1, (4, 5))
        model = init_model(
            ModelVariant("ncacf", "relaxed", "multiplication", 1),
            3, 4, 3, 5, seed=5, hidden_width=4, extractor_layers=2)
        owned = owned_groups(model.variant, with_interaction=True)
        gradcheck_full_loss(model, data, scheme, feats, 0.3, 0.7, owned)

    def test_gradients_respect_item_pool(self):
        t, data, scheme = make_weighted(4, 6, 0.5, seed=20)
        rng = np.random.default_rng(21)
        feats = rng.normal(0, 1, (6, 3))
        model = init_model(ModelVariant("mf_uni", "relaxed"), 4, 6, 2, 3,
                           seed=6, hidden_width=4, extractor_layers=2)
        pool = np.array([0, 2, 5])
        owned = owned_groups(model.variant, with_interaction=False)
        gradcheck_full_loss(model, data, scheme, feats, 0.3, 0.7, owned,
                            item_pool=pool)
        _, grads = full_loss_gradients(model, data, scheme, feats, 0.3, 0.7,
                                       owned, pool)
        outside = np.setdiff1d(np.arange(6), pool)
        assert not grads["H"][:, outside].any()

    def test_batch_gradients_sum_to_full_gradient(self):
        """For ncf with its tower, ncf with the tower absent, and the
        dot-product mf_uni and strict dcb; the parts' losses sum to
        full_loss as well."""
        t, data, scheme = make_weighted(4, 6, 0.5, seed=22)
        feats = np.random.default_rng(62).normal(0, 1, (6, 3))
        ncf = ModelVariant("ncf", "content_free")
        cases = [(ncf, True), (ncf, False), (ModelVariant("mf_uni", "relaxed"), False),
                 (ModelVariant("dcb", "strict"), False)]
        for variant, tower in cases:
            model = init_model(variant, 4, 6, 2, 3 if variant.has_content else 0,
                               seed=7, hidden_width=4, extractor_layers=2,
                               with_interaction=tower)
            owned = owned_groups(model.variant, with_interaction=tower)
            pool = np.arange(6)
            _, full = _batch_objective(model, data, scheme, feats, 0.3, 0.7, pool,
                                       pool.size, owned)
            assert set(full) == owned
            parts = [np.array([0, 1, 2]), np.array([3, 4, 5])]
            acc, loss = {}, 0.0
            for part in parts:
                part_loss, g = _batch_objective(model, data, scheme, feats, 0.3, 0.7,
                                                part, pool.size, owned)
                loss += part_loss
                for group, val in g.items():
                    if isinstance(val, dict):
                        acc.setdefault(group, {})
                        for name, arr in val.items():
                            acc[group][name] = acc[group].get(name, 0) + arr
                    else:
                        acc[group] = acc.get(group, 0) + val
            for group in full:
                if isinstance(full[group], dict):
                    for name in full[group]:
                        npt.assert_allclose(acc[group][name], full[group][name],
                                            rtol=1e-10, atol=1e-12)
                else:
                    npt.assert_allclose(acc[group], full[group], rtol=1e-10, atol=1e-12)
            npt.assert_allclose(loss, full_loss(model, data, scheme, feats, 0.3, 0.7, pool,
                                                  batch_items=pool.size),
                                rtol=1e-12, atol=0)

    def test_non_finite_objective_raises(self):
        """An inf or nan in W or H raises, with no numpy warning on the way."""
        t, data, scheme = make_weighted(3, 3, 0.5, seed=23)
        for group in ("W", "H"):
            for value in (np.inf, -np.inf, np.nan):
                model = init_model(ModelVariant("wmf", "content_free"), 3, 3, 2, 0,
                                   seed=8)
                getattr(model, group)[0, 0] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(TrainingDivergedError):
                        full_loss(model, data, scheme, None, 0.1, 0.1,
                                  batch_items=data.num_items)
                    with pytest.raises(TrainingDivergedError):
                        full_loss_gradients(model, data, scheme, None, 0.1, 0.1,
                                            {"W", "H"})

    @pytest.mark.parametrize("fault, message", [
        ("objective", "objective is not finite (nan)"),
        ("gradient", "non-finite gradient for 'W'")], ids=["objective", "gradient"])
    def test_divergence_names_phase_epoch_and_batch(self, monkeypatch, fault, message):
        """A non-finite objective, or a non-finite gradient that reaches its
        Adam step, in the third batch of the fine-tuning epoch leaves train
        with its message, then the batch, the phase and the epoch."""
        t, data, scheme = make_weighted(6, 10, 0.5, seed=25)
        feats = np.random.default_rng(26).normal(0, 1, (10, 3))
        hyper = Hyperparams(embed_dim=2, batch_items=3, pretrain_epochs=2,
                            finetune_epochs=1, hidden_width=4, extractor_layers=2)
        objective = training._batch_objective
        tower_batches = []

        def poisoned(model, data, scheme, features, lam_w, lam_h, batch, pool_size,
                     owned=frozenset()):
            poison = owned and model.interaction is not None
            if poison:
                tower_batches.append(batch)
                poison = len(tower_batches) == 3
            if poison and fault == "objective":
                model.W[0, 0] = np.nan
            loss, grads = objective(model, data, scheme, features, lam_w, lam_h, batch,
                                    pool_size, owned)
            if poison and fault == "gradient":
                grads["W"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "_batch_objective", poisoned)
        with pytest.raises(TrainingDivergedError) as info:
            train(ModelVariant("ncacf", "relaxed", "concatenation", 1), data, feats,
                  hyper, seed=9)
        assert str(info.value).startswith(message)
        assert str(info.value).endswith(" (batch 3 of 4) (phase finetune, epoch 2)")
        assert len(tower_batches) == 3


class TestGdContentMse:
    def test_zero_gradient_at_optimum(self):
        rng = np.random.default_rng(24)
        model = init_model(ModelVariant("dcb", "relaxed"), 3, 5, 2, 4, seed=9,
                           hidden_width=4, extractor_layers=2)
        rows = rng.normal(0, 1, (5, 4))
        target, _ = mlp_forward(model.extractor, rows)
        adam = AdamState.init(model.extractor.param_dict(), lr=1e-2)
        before = copy_mlp(model.extractor)
        schedule = make_batches(5, 5, seed=0, epoch=0)
        after, _ = gd_content_mse(model.extractor, target.T, rows, adam, schedule)
        for la, lb in zip(before.layers, after.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_gradient_matches_finite_differences(self):
        from ncacf.numerics import mlp_backward, mlp_forward
        rng = np.random.default_rng(61)
        model = init_model(ModelVariant("dcb", "relaxed"), 3, 5, 2, 4, seed=19,
                           hidden_width=4, extractor_layers=2)
        rows = rng.normal(0, 1, (5, 4))
        target = rng.normal(0, 1, (2, 5))
        extractor = model.extractor
        out, cache = mlp_forward(extractor, rows)
        grads, _ = mlp_backward(extractor, cache, 2.0 * (out - target.T))
        for li, layer in enumerate(extractor.layers):
            for name, arr in (("weight", layer.weights), ("bias", layer.bias)):
                def f(values, _arr=arr):
                    _arr[...] = values
                    return content_mse(extractor, target, rows)
                original = arr.copy()
                numeric = finite_diff_grad(f, original.copy(), h=1e-5)
                arr[...] = original
                npt.assert_allclose(grads[f"layer{li}.{name}"], numeric,
                                    rtol=1e-4, atol=1e-7)

    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(25)
        model = init_model(ModelVariant("dcb", "relaxed"), 3, 6, 2, 4, seed=10,
                           hidden_width=4, extractor_layers=2)
        rows = rng.normal(0, 1, (6, 4))
        target = rng.normal(0, 1, (2, 6))
        adam = AdamState.init(model.extractor.param_dict(), lr=1e-4)
        extractor = model.extractor
        losses = [content_mse(extractor, target, rows)]
        for epoch in range(15):
            schedule = make_batches(6, 6, seed=1, epoch=epoch)
            extractor, adam = gd_content_mse(extractor, target, rows, adam, schedule)
            losses.append(content_mse(extractor, target, rows))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-6 * np.abs(np.array(losses[:-1])))


class TestGdWpe:
    def test_only_owned_groups_move(self):
        from ncacf.training import gd_wpe
        t, data, scheme = make_weighted(5, 4, 0.6, seed=57)
        rng = np.random.default_rng(58)
        feats = rng.normal(0, 1, (4, 3))
        model = init_model(ModelVariant("mf_uni", "relaxed"), 5, 4, 2, 3,
                           seed=17, hidden_width=4, extractor_layers=2)
        before = copy_model(model)
        adams = {"W": AdamState.init({"W": model.W}, lr=1e-2)}
        schedule = make_batches(4, 2, seed=0, epoch=0)
        model, _ = gd_wpe(model, data, scheme, feats, 0.1, 0.5,
                          adams, schedule, np.arange(4))
        assert not np.array_equal(model.W, before.W)
        assert np.array_equal(model.H, before.H)
        for la, lb in zip(model.extractor.layers, before.extractor.layers):
            assert np.array_equal(la.weights, lb.weights)


class TestMakeBatches:
    def test_partition_sizes(self):
        sched = make_batches(5, 2, seed=0, epoch=0)
        assert [len(b) for b in sched.batches] == [2, 2, 1]
        union = np.sort(np.concatenate(sched.batches))
        npt.assert_array_equal(union, np.arange(5))

    def test_deterministic_per_seed_epoch(self):
        a = make_batches(10, 3, seed=4, epoch=7)
        b = make_batches(10, 3, seed=4, epoch=7)
        for x, y in zip(a.batches, b.batches):
            npt.assert_array_equal(x, y)
        c = make_batches(10, 3, seed=4, epoch=8)
        assert any(not np.array_equal(x, y) for x, y in zip(a.batches, c.batches))

    def test_union_property_random_sizes(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            bs = int(rng.integers(1, 12))
            sched = make_batches(n, bs, int(rng.integers(1000)), int(rng.integers(50)))
            union = np.sort(np.concatenate(sched.batches))
            npt.assert_array_equal(union, np.arange(n))


class TestTrainWmf:
    def _rank_one_data(self):
        from ncacf.data import InteractionTriplets
        a = np.array([1, 1, 0, 1, 0, 1, 0, 1])  # users
        b = np.array([1, 0, 1, 1, 0, 1])        # items
        R = np.outer(a, b)
        users, items = np.nonzero(R)
        counts = np.full(users.size, 8.0)
        t = InteractionTriplets.create(users, items, counts, 8, 6)
        return SparsePlaycounts.from_triplets(t), R

    def test_rank_one_recovery(self):
        data, R = self._rank_one_data()
        hyper = Hyperparams(embed_dim=1, lambda_w=1e-4, lambda_h=1e-4, n_iters=20)
        model = train(WMF, data, None, hyper, seed=0).model
        approx = model.W.T @ model.H
        assert np.max(np.abs(approx - R)) < 1e-3

    def test_objective_non_increasing_per_sweep(self):
        t, data, scheme = make_weighted(12, 9, 0.3, seed=27)
        hyper = Hyperparams(embed_dim=3, lambda_w=0.2, lambda_h=0.2, n_iters=10)
        report = train(WMF, data, None, hyper, seed=1)
        obj = [row[2] for row in report.rows]
        for prev, cur in zip(obj, obj[1:]):
            assert cur <= prev + 1e-8 * abs(prev)

    def test_zero_iterations_returns_initial_embeddings(self):
        t, data, scheme = make_weighted(5, 4, 0.5, seed=28)
        hyper = Hyperparams(embed_dim=2, n_iters=0)
        report = train(WMF, data, None, hyper, seed=2)
        model = report.model
        fresh = init_model(ModelVariant("wmf", "content_free"), 5, 4, 2, 0, seed=2)
        assert np.array_equal(model.W, fresh.W)
        assert np.array_equal(model.H, fresh.H)
        assert report.rows == []


class TestTrainHybrid:
    def test_relaxed_als_iteration_updates_pooled_items_in_place(self):
        pool = np.array([0, 2, 3])  # items 1 and 4 are held out, as on a cold split
        t = random_triplets(6, pool.size, 0.6, seed=85)
        data = SparsePlaycounts.from_triplets(
            InteractionTriplets.create(t.users, pool[t.items], t.counts, 6, 5))
        feats = np.random.default_rng(86).normal(0, 1, (5, 3))
        variant = ModelVariant("mf_hybrid", "relaxed")
        model = init_model(variant, 6, 5, 2, 3, seed=8, hidden_width=4, extractor_layers=2)
        H = model.H
        before = H.copy()
        hyper = Hyperparams(embed_dim=2, n_iters=1, n_gd=1, hidden_width=4,
                            extractor_layers=2)
        train(variant, data, feats, hyper, seed=8, item_pool=pool, state=TrainState(model))
        assert model.H is H
        assert not np.array_equal(H[:, pool], before[:, pool])
        assert np.array_equal(H[:, [1, 4]], before[:, [1, 4]])

    def test_zeroed_frozen_extractor_matches_wmf_trajectory(self):
        t, data, scheme = make_weighted(10, 8, 0.3, seed=29)
        rng = np.random.default_rng(30)
        feats = rng.normal(0, 1, (8, 4))
        hyper = Hyperparams(embed_dim=2, lambda_w=0.3, lambda_h=0.6, n_iters=6,
                            n_gd=1, eta=0.0)  # eta=0 freezes the extractor
        variant = ModelVariant("mf_hybrid", "relaxed")
        model = init_model(variant, 10, 8, 2, 4, seed=3, hidden_width=4,
                           extractor_layers=2)
        for layer in model.extractor.layers:
            layer.weights[...] = 0.0
            layer.bias[...] = 0.0
        hybrid_report = train(variant, data, feats, hyper, seed=3, state=TrainState(model))
        hybrid_model = hybrid_report.model
        wmf_report = train(WMF, data, None, hyper, seed=3)
        wmf_model = wmf_report.model
        assert np.array_equal(hybrid_model.W, wmf_model.W)
        assert np.array_equal(hybrid_model.H, wmf_model.H)
        npt.assert_allclose([row[2] for row in hybrid_report.rows],
                            [row[2] for row in wmf_report.rows], rtol=1e-12)

    def test_full_objective_non_increasing(self):
        t, data, scheme = make_weighted(5, 4, 0.6, seed=31)
        rng = np.random.default_rng(32)
        feats = rng.normal(0, 1, (4, 3))
        hyper = Hyperparams(embed_dim=2, lambda_w=0.2, lambda_h=0.5, n_iters=8,
                            n_gd=1, eta=1e-4, hidden_width=4, extractor_layers=2,
                            batch_items=4)  # one batch: the whole pool
        report = train(ModelVariant("mf_hybrid", "relaxed"), data, feats, hyper, seed=4)
        obj = [row[2] for row in report.rows]
        for prev, cur in zip(obj, obj[1:]):
            assert cur <= prev + 1e-8 * abs(prev)

    def test_strict_variant_owns_w_and_theta_only(self):
        t, data, scheme = make_weighted(5, 4, 0.6, seed=33)
        rng = np.random.default_rng(34)
        feats = rng.normal(0, 1, (4, 3))
        hyper = Hyperparams(embed_dim=2, n_iters=2, n_gd=1, hidden_width=4,
                            extractor_layers=2)
        model = train(ModelVariant("mf_hybrid", "strict"), data, feats, hyper, seed=5).model
        assert model.H is None


class TestTrainDcb:
    def _setup(self, seed=35):
        t, data, scheme = make_weighted(6, 5, 0.6, seed=seed)
        rng = np.random.default_rng(seed + 1)
        feats = rng.normal(0, 1, (5, 3))
        return data, feats

    def test_stage_one_embeddings_never_revisited(self):
        data, feats = self._setup()
        hyper = Hyperparams(embed_dim=2, n_iters=4, n_gd=2, hidden_width=4,
                            extractor_layers=2)
        report = train(DCB_RELAXED, data, feats, hyper, seed=6)
        model = report.model
        wmf_model = train(WMF, data, None, hyper, seed=6).model
        assert np.array_equal(model.W, wmf_model.W)
        assert np.array_equal(model.H, wmf_model.H)

    def test_stage_boundary_recorded(self):
        data, feats = self._setup(37)
        hyper = Hyperparams(embed_dim=2, n_iters=3, n_gd=2, hidden_width=4,
                            extractor_layers=2)
        report = train(DCB_RELAXED, data, feats, hyper, seed=7)
        phases = [row[1] for row in report.rows]
        assert phases[:3] == ["als"] * 3
        assert phases[3:] == ["stage2"] * 6  # n_iters * n_gd epochs

    def test_overfit_extractor_reproduces_warm_scores_cold(self):
        data, feats = self._setup(39)
        hyper = Hyperparams(embed_dim=2, n_iters=10, n_gd=40, eta=1e-2,
                            hidden_width=16, extractor_layers=2,
                            lambda_w=0.05, lambda_h=0.05)
        model = train(DCB_RELAXED, data, feats, hyper, seed=8).model
        mse = content_mse(model.extractor, model.H, feats)
        assert mse < 1e-3
        phi, _ = mlp_forward(model.extractor, feats)
        warm = model.W.T @ model.H
        cold = model.W.T @ phi.T
        npt.assert_allclose(cold, warm, atol=0.05)

    def test_strict_has_no_item_matrix(self):
        data, feats = self._setup(41)
        hyper = Hyperparams(embed_dim=2, n_iters=2, n_gd=1, hidden_width=4,
                            extractor_layers=2)
        model = train(ModelVariant("dcb", "strict"), data, feats, hyper, seed=9).model
        assert model.H is None


@pytest.mark.parametrize("variant", [
    WMF, ModelVariant("mf_hybrid", "relaxed"), DCB_RELAXED, UNI_RELAXED,
    ModelVariant("ncacf", "relaxed", q_hidden=1),
    ModelVariant("ncf", "content_free", q_hidden=1),
], ids=lambda v: v.family)
def test_validation_cadence_counts_reported_epochs(variant):
    """Every family validates the reported epochs e with (e + 1) % eval_every
    == 0, and the last; dcb's WMF stage is never validated."""
    t, data, scheme = make_weighted(6, 5, 0.5, seed=57)
    feats = np.random.default_rng(58).normal(0, 1, (5, 3))
    hyper = Hyperparams(embed_dim=2, n_iters=4, n_gd=2, max_epochs=5,
                        pretrain_epochs=2, finetune_epochs=4, eval_every=3,
                        hidden_width=4, extractor_layers=2)
    report = train(variant, data, feats, hyper, seed=17, validator=lambda model: 0.5)
    assert len(report.rows) == {"wmf": 4, "mf_hybrid": 4, "dcb": 4 + 8, "mf_uni": 5,
                                "ncacf": 6, "ncf": 6}[variant.family]
    last = report.rows[-1][0]
    observed = [row for row in report.rows if (variant.family, row[1]) != ("dcb", "als")]
    assert [row[0] for row in report.rows if row[3] is not None] == \
        [row[0] for row in observed if (row[0] + 1) % 3 == 0 or row[0] == last]


class TestTrainUnified:
    def _setup(self, seed=43, num_users=6, num_items=5):
        t, data, scheme = make_weighted(num_users, num_items, 0.5, seed=seed)
        rng = np.random.default_rng(seed + 1)
        feats = rng.normal(0, 1, (num_items, 3))
        return data, feats

    def test_lr_zero_keeps_parameters(self):
        data, feats = self._setup()
        hyper = Hyperparams(embed_dim=2, eta=0.0, max_epochs=3, hidden_width=4,
                            extractor_layers=2)
        model = train(UNI_RELAXED, data, feats, hyper, seed=10).model
        fresh = init_model(ModelVariant("mf_uni", "relaxed"), 6, 5, 2, 3,
                           seed=10, hidden_width=4, extractor_layers=2)
        assert np.array_equal(model.W, fresh.W)
        assert np.array_equal(model.H, fresh.H)

    def test_strict_never_allocates_h(self):
        data, feats = self._setup(45)
        hyper = Hyperparams(embed_dim=2, max_epochs=3, hidden_width=4,
                            extractor_layers=2)
        model = train(ModelVariant("mf_uni", "strict"), data, feats, hyper, seed=11).model
        assert model.H is None

    def test_full_batch_loss_decreases_small_lr(self):
        data, feats = self._setup(47, num_users=5, num_items=4)
        hyper = Hyperparams(embed_dim=2, eta=1e-4, max_epochs=12, hidden_width=4,
                            extractor_layers=2, lambda_w=0.1, lambda_h=0.3,
                            batch_items=4)  # one batch: the whole pool
        report = train(UNI_RELAXED, data, feats, hyper, seed=12)
        obj = [row[2] for row in report.rows]
        for prev, cur in zip(obj, obj[1:]):
            assert cur <= prev + 1e-6 * abs(prev)

    def test_ncacf_freeze_keeps_tower_at_init(self, monkeypatch):
        data, feats = self._setup(49)
        hyper = Hyperparams(embed_dim=2, max_epochs=2, pretrain_epochs=0,
                            finetune_epochs=3, hidden_width=4, extractor_layers=2)
        model = _frozen_reduction(monkeypatch, data, feats, hyper, seed=13)[0]
        assert np.all(model.interaction.layers[-1].weights == 1.0)

    def test_reduction_trajectory_matches_mf_uni(self, monkeypatch):
        data, feats = self._setup(51)
        hyper = Hyperparams(embed_dim=2, eta=1e-3, max_epochs=4, pretrain_epochs=0,
                            finetune_epochs=4, batch_items=2, hidden_width=4,
                            extractor_layers=2)
        uni_report = train(UNI_RELAXED, data, feats, hyper, seed=14)
        uni_model = uni_report.model
        red_model, red_report = _frozen_reduction(monkeypatch, data, feats, hyper,
                                                  seed=14)
        npt.assert_allclose(red_model.W, uni_model.W,
                            rtol=0, atol=1e-9)
        npt.assert_allclose(red_model.H, uni_model.H,
                            rtol=0, atol=1e-9)
        npt.assert_allclose([row[2] for row in red_report.rows],
                            [row[2] for row in uni_report.rows], rtol=1e-9)

    def test_phase_boundary_visible_in_report(self):
        data, feats = self._setup(53)
        hyper = Hyperparams(embed_dim=2, pretrain_epochs=2, finetune_epochs=3,
                            hidden_width=4, extractor_layers=2)
        report = train(ModelVariant("ncacf", "relaxed", q_hidden=1),
                       data, feats, hyper, seed=15)
        phases = [row[1] for row in report.rows]
        assert phases == ["pretrain"] * 2 + ["finetune"] * 3

    def test_ncf_trains_without_features(self):
        data, _ = self._setup(55)
        hyper = Hyperparams(embed_dim=2, pretrain_epochs=1, finetune_epochs=2,
                            hidden_width=4)
        report = train(ModelVariant("ncf", "content_free", q_hidden=1),
                       data, None, hyper, seed=16)
        model = report.model
        assert model.extractor is None
        assert model.interaction is not None
        assert len(report.rows) == 3


class TestReportFile:
    SETTINGS = {"family": "wmf", "seed": 7}

    def test_round_trip(self, tmp_path):
        rows = [(0, "als", 12.5, None, 0.25), (1, "als", 11.0, 0.3125, 0.5)]
        state = TrainState(best_epoch=1, best_val=0.3125, rows=rows)
        path = tmp_path / "report.tsv"
        training.write_report(path, state, self.SETTINGS)
        assert training.read_report(path) == rows
        assert path.read_text() == (
            "# family = wmf\n# seed = 7\n# best_epoch = 1\n# best_val = 0.3125\n"
            "epoch\tphase\tobjective\tval_ndcg\tseconds\n"
            "0\tals\t12.5\t-\t0.250\n1\tals\t11.0\t0.3125\t0.500\n")

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        from ncacf import data

        path = tmp_path / "report.tsv"
        state = TrainState(rows=[(0, "train", 3.0, None, 0.1)])
        training.write_report(path, state, self.SETTINGS)
        before = path.read_bytes()
        monkeypatch.setattr(data, "replacing", half_writing(data.replacing))
        state.rows.append((1, "train", 2.0, 0.5, 0.1))
        with pytest.raises(OSError):
            training.write_report(path, state, self.SETTINGS)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.tsv"]

    @pytest.mark.parametrize("tail, reason", [
        ("2\tals\t1.5\t-", "no line end"), ("2\tals\t1.5\n", "expected 5"),
        ("x\tals\t1.5\t-\t0.1\n", "invalid literal")])
    def test_damaged_row_is_data_error_naming_its_line(self, tmp_path, tail, reason):
        path = tmp_path / "report.tsv"
        training.write_report(path, TrainState(rows=[(0, "als", 1.0, None, 0.1)]), {})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        with pytest.raises(DataError, match=re.escape(f"{path}:3: ") + f".*{reason}"):
            training.read_report(path)


class TestKeptModelsOwnTheirArrays:
    """Adam updates the model's arrays in place and training keeps no copy
    of the model, so every checkpoint a run writes (each last.ckpt, and
    best.ckpt in the epoch that sets the best) must hold that epoch's
    arrays."""

    @staticmethod
    def _arrays(model):
        mlps = [m for m in (model.extractor, model.interaction) if m is not None]
        return [a.copy() for a in (model.W, model.H,
                                   *(a for m in mlps for a in m.param_dict().values()))]

    @staticmethod
    def _equal(xs, ys):
        return len(xs) == len(ys) and all(np.array_equal(x, y) for x, y in zip(xs, ys))

    def _run(self, tmp_path):
        """ncacf validated after every epoch by falling scores, so that the
        first validated model stays best; returns (final state, kept), kept
        holding each epoch's last.ckpt path and a copy of the model's arrays."""
        t, data, scheme = make_weighted(6, 5, 0.5, seed=81)
        feats = np.random.default_rng(82).normal(0, 1, (5, 3))
        variant = ModelVariant("ncacf", "relaxed", "concatenation", 1)
        hyper = Hyperparams(embed_dim=2, pretrain_epochs=2, finetune_epochs=3,
                            eval_every=1, hidden_width=4, extractor_layers=2)
        scores = iter(np.arange(100.0, 0.0, -1.0))
        kept = []

        def on_epoch(snapshot):
            path = tmp_path / f"last{snapshot.global_epoch}.ckpt"
            models.save_model(path, snapshot.model, training.checkpoint_header(snapshot),
                              adams=snapshot.adams)
            kept.append((path, self._arrays(snapshot.model)))
            if snapshot.best_epoch == snapshot.global_epoch - 1:
                models.save_model(tmp_path / "best.ckpt", snapshot.model)

        final = train(variant, data, feats, hyper, seed=7,
                      validator=lambda model: float(next(scores)), on_epoch=on_epoch)
        return final, kept

    def test_best_model_and_checkpoints_unchanged_by_later_steps(self, tmp_path):
        final, kept = self._run(tmp_path)
        assert len(kept) == 5 and final.best_epoch == 0
        first = kept[0][1]
        assert not self._equal(self._arrays(final.model), first)  # training moved on
        assert self._equal(self._arrays(models.load_model(tmp_path / "best.ckpt")[0]),
                           first)
        for path, arrays in kept:
            assert self._equal(self._arrays(models.load_model(path)[0]), arrays), path

    @pytest.mark.parametrize("variant", [
        WMF, ModelVariant("mf_hybrid", "relaxed"), UNI_RELAXED, DCB_RELAXED,
        ModelVariant("ncacf", "relaxed", q_hidden=1)],
        ids=lambda v: v.family)
    def test_new_best_every_epoch_copies_no_model(self, monkeypatch, variant):
        def no_copy(self):
            raise AssertionError(f"training copied a {type(self).__name__}")

        monkeypatch.setattr(models.Model, "copy", no_copy, raising=False)
        monkeypatch.setattr(MLPParams, "copy", no_copy, raising=False)
        t, data, scheme = make_weighted(6, 5, 0.5, seed=83)
        feats = np.random.default_rng(84).normal(0, 1, (5, 3))
        hyper = Hyperparams(embed_dim=2, n_iters=2, n_gd=1, max_epochs=2,
                            pretrain_epochs=1, finetune_epochs=2, eval_every=1,
                            hidden_width=4, extractor_layers=2)
        scores = iter(np.arange(1.0, 100.0))
        final = train(variant, data, feats, hyper, seed=7,
                      validator=lambda model: float(next(scores)))
        assert final.best_epoch == final.rows[-1][0]
