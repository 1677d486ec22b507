import itertools

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from conftest import half_writing, random_triplets
from oracles import (RankedList, cross_validate, dcg, dcg_positions,
                     evaluate_per_user, ndcg_by_permutations, ndcg_user,
                     random_ndcg_baseline, rank_items)
from ncacf import evaluation, models
from ncacf.data import (CompressedAxis, ConfidenceScheme, FeatureTable, FoldMembership,
                        InteractionTriplets, SparsePlaycounts, materialize_fold,
                        split_cold, split_warm)
from ncacf.errors import ColdStartUnsupportedError, DataError, TrainingDivergedError
from ncacf.evaluation import (EvalResult, evaluate, fold_mean_std, grid_search,
                              stored_result, stored_validation, write_eval_result)
from ncacf.models import Embeddings, ModelVariant, init_model


class TestRankItems:
    def test_top_k_by_score(self):
        ranked = rank_items(np.array([0.1, 0.9, 0.5]), 2)
        npt.assert_array_equal(ranked.items, [1, 2])
        npt.assert_array_equal(ranked.scores, [0.9, 0.5])

    def test_ties_break_by_ascending_index(self):
        ranked = rank_items(np.full(5, 3.3), 5)
        npt.assert_array_equal(ranked.items, [0, 1, 2, 3, 4])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        scores = rng.choice(np.linspace(0, 1, 7), size=30)  # force ties
        ranked = rank_items(scores, 30)
        oracle = sorted(range(30), key=lambda i: (-scores[i], i))
        npt.assert_array_equal(ranked.items, oracle)

    def test_mask_excluded(self):
        ranked = rank_items(np.array([5.0, 4.0, 3.0]), 3, mask={0})
        npt.assert_array_equal(ranked.items, [1, 2])

    def test_empty_pool_raises(self):
        with pytest.raises(DataError):
            rank_items(np.array([1.0]), 1, mask={0})


class TestDcg:
    def test_single_relevant(self):
        assert dcg([1]) == 1.0

    def test_second_position(self):
        npt.assert_allclose(dcg([0, 1]), 0.6309297535714574, rtol=1e-15)

    def test_three_ones(self):
        npt.assert_allclose(dcg([1, 1, 1]), 2.1309297535714575, rtol=1e-15)

    def test_matches_position_oracle(self):
        rng = np.random.default_rng(1)
        rel = rng.integers(0, 2, 12)
        npt.assert_allclose(dcg(rel), dcg_positions(rel), rtol=1e-14)


class TestNdcgUser:
    def test_perfect_ranking(self):
        ranked = RankedList(0, np.array([3, 1, 2]), np.zeros(3))
        assert ndcg_user(ranked, {3, 1, 2}) == 1.0

    def test_one_of_two_candidates_ranked_second(self):
        ranked = RankedList(0, np.array([5, 9]), np.zeros(2))
        npt.assert_allclose(ndcg_user(ranked, {9}), 0.6309297535714574, rtol=1e-14)

    def test_empty_truth_excluded(self):
        ranked = RankedList(0, np.array([1, 2]), np.zeros(2))
        assert ndcg_user(ranked, set()) is None

    def test_matches_permutation_oracle_exhaustively(self):
        # Every relevance pattern on lists of length <= 6.
        for n in range(1, 7):
            for bits in itertools.product([0, 1], repeat=n):
                if not any(bits):
                    continue
                items = np.arange(n)
                truth = {i for i in items if bits[i]}
                ranked = RankedList(0, items, np.zeros(n))
                got = ndcg_user(ranked, truth, top_k=n)
                want = ndcg_by_permutations(list(bits))
                npt.assert_allclose(got, want, rtol=1e-12)

    def test_truncated_idcg(self):
        # 3 relevant items but a length-2 list: ideal has two hits.
        ranked = RankedList(0, np.array([0, 9]), np.zeros(2))
        got = ndcg_user(ranked, {0, 1, 2}, top_k=2)
        npt.assert_allclose(got, 1.0 / dcg([1, 1]), rtol=1e-14)

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 1, 12)
        truth = {1, 5, 7}
        a = rank_items(scores, 6)
        b = rank_items(np.exp(3 * scores), 6)
        npt.assert_allclose(ndcg_user(a, truth, 6), ndcg_user(b, truth, 6), rtol=1e-14)


def _wmf_model(W, H):
    model = init_model(ModelVariant("wmf", "content_free"),
                       W.shape[1], H.shape[1], W.shape[0], 0, seed=0)
    model.embeddings = Embeddings(W, H)
    return model


def _identity_extractor_model(W, num_items):
    """Relaxed model whose extractor is the identity map, so cold scores are
    exactly W^T x_i for feature rows x_i."""
    from ncacf.numerics import Layer, MLPParams
    k = W.shape[0]
    model = init_model(ModelVariant("mf_uni", "relaxed"), W.shape[1], num_items,
                       k, k, seed=0, hidden_width=4, extractor_layers=2)
    model.embeddings = Embeddings(W, model.embeddings.H)
    model.extractor = MLPParams([Layer(np.eye(k), np.zeros(k), "identity")])
    return model


class TestEvaluate:
    def _cold_setup(self, seed=3):
        t = random_triplets(12, 20, 0.4, seed=seed)
        data = SparsePlaycounts.from_triplets(t)
        plan = split_cold(20, 4, 0.2, seed=seed)
        membership = materialize_fold(plan, 0)
        rng = np.random.default_rng(seed)
        feats = FeatureTable(rng.normal(0, 1, (20, 5)))
        return t, data, membership, feats

    def test_oracle_model_scores_one(self):
        t, data, membership, feats = self._cold_setup()
        scheme = ConfidenceScheme()
        variant = ModelVariant("mf_uni", "strict")
        model = init_model(variant, 12, 20, 3, 5, seed=1, hidden_width=4,
                           extractor_layers=2)
        # Warm relaxed model that scores exactly the test-bucket relevant
        # pairs sky-high: the resulting ranking must be perfect.
        relaxed = init_model(ModelVariant("mf_uni", "relaxed"), 12, 20, 20, 5,
                             seed=1, hidden_width=4, extractor_layers=2)
        warm_plan = split_warm(t, 4, 0.2, seed=9)
        warm_membership = materialize_fold(warm_plan, 0)
        R = np.zeros((12, 20))
        for e in warm_membership.test:
            if t.counts[e] >= scheme.tau:
                R[t.users[e], t.items[e]] = 1.0
        relaxed.embeddings = Embeddings(R.T * 1000.0, np.eye(20))
        result = evaluate(relaxed, warm_membership, "test", t, scheme, None, 5)
        assert result.num_users > 0
        npt.assert_allclose(result.mean, 1.0, atol=1e-12)

    def test_single_user_hand_computed(self):
        t, data, membership, feats = self._cold_setup(seed=5)
        scheme = ConfidenceScheme()
        bucket_items = membership.test
        # Identity extractor: user 7's cold score for item i is feats[i, 0].
        W = np.zeros((3, 12))
        W[0, 7] = 1.0
        model = _identity_extractor_model(W, 20)
        vals = np.zeros((20, 3))
        target = int(bucket_items[0])
        decoy = int(bucket_items[1])
        vals[decoy, 0] = 2.0   # ranks first
        vals[target, 0] = 1.0  # relevant item ranks second
        feats = FeatureTable(vals)
        # Relevance: user 7 interacts with `target` above threshold only.
        mask = (t.users == 7) & np.isin(t.items, bucket_items)
        t2_users = np.concatenate([t.users[~mask], [7]])
        t2_items = np.concatenate([t.items[~mask], [target]])
        t2_counts = np.concatenate([t.counts[~mask], [9.0]])
        from ncacf.data import InteractionTriplets
        t2 = InteractionTriplets.create(*map(np.asarray, (t2_users, t2_items, t2_counts)),
                                        12, 20)
        result = evaluate(model, membership, "test", t2, scheme, feats, 3)
        npt.assert_allclose(result.ndcg[7], 1.0 / np.log2(3), rtol=1e-12)

    def test_random_scores_match_monte_carlo_baseline(self):
        t, data, membership, feats = self._cold_setup(seed=7)
        scheme = ConfidenceScheme()
        bucket = membership.test
        keep = np.isin(t.items, bucket)
        truth_sizes = {}
        for u, i, c in zip(t.users[keep], t.items[keep], t.counts[keep]):
            if c >= scheme.tau:
                truth_sizes[u] = truth_sizes.get(u, 0) + 1
        users = sorted(truth_sizes)
        pools = [bucket.size] * len(users)
        sizes = [truth_sizes[u] for u in users]
        base_mean = random_ndcg_baseline(pools, sizes, 3)

        rng = np.random.default_rng(11)
        trials = []
        for rep in range(200):
            # Fresh iid features each trial make every user's ranking a
            # uniformly random permutation of the bucket.
            W = rng.normal(0, 1, (4, 12))
            model = _identity_extractor_model(W, 20)
            feats_rand = FeatureTable(rng.normal(0, 1, (20, 4)))
            res = evaluate(model, membership, "test", t, scheme, feats_rand, 3)
            trials.append(res.mean)
        got = np.mean(trials)
        se = np.std(trials, ddof=1) / np.sqrt(len(trials))
        assert abs(got - base_mean) <= 3 * se

    def test_warm_masking_is_total(self):
        t = random_triplets(10, 15, 0.5, seed=13)
        plan = split_warm(t, 3, 0.2, seed=13)
        membership = materialize_fold(plan, 1)
        rng = np.random.default_rng(14)
        model = _wmf_model(rng.normal(0, 1, (3, 10)), rng.normal(0, 1, (3, 15)))
        scheme = ConfidenceScheme()
        result = evaluate(model, membership, "test", t, scheme, None, 15)
        train_idx = membership.train_entry_idx(t)
        consumed = {}
        for e in train_idx:
            consumed.setdefault(int(t.users[e]), set()).add(int(t.items[e]))
        # Re-rank and confirm no consumed item ever appears.
        from ncacf.models import item_vectors, score_matrix
        iv = item_vectors(model, np.arange(15), None, "warm")
        S = score_matrix(model, iv)
        for u in result.ndcg:
            ranked = rank_items(S[u], 15, mask=consumed.get(u, set()),
                                candidates=np.arange(15), user=u)
            assert not (set(ranked.items.tolist()) & consumed.get(u, set()))

    def test_content_free_cold_rejected(self):
        t, data, membership, feats = self._cold_setup(seed=15)
        model = _wmf_model(np.zeros((2, 12)), np.zeros((2, 20)))
        with pytest.raises(ColdStartUnsupportedError):
            evaluate(model, membership, "test", t, ConfidenceScheme(), None, 3)

    def test_excluded_users_counted(self):
        t, data, membership, feats = self._cold_setup(seed=17)
        rng = np.random.default_rng(18)
        model = _identity_extractor_model(rng.normal(0, 1, (2, 12)), 20)
        feats2 = FeatureTable(rng.normal(0, 1, (20, 2)))
        res = evaluate(model, membership, "test", t, ConfidenceScheme(), feats2, 3)
        assert res.num_users + res.num_excluded == 12
        assert all(0.0 <= v <= 1.0 for v in res.ndcg.values())


class TestBlockedRanking:
    """evaluate ranks blocks of users with a partial sort; evaluate_per_user
    (tests/oracles.py) ranks one user at a time with a full lexsort. Per-user
    NDCGs, pool sizes and exclusion counts must be equal, not close."""

    VARIANTS = {
        "dot": ModelVariant("mf_uni", "relaxed"),
        "concat": ModelVariant("ncacf", "relaxed", "concatenation", 2),
        "mult": ModelVariant("ncacf", "relaxed", "multiplication", 1),
    }

    def _setup(self, setting, kind, seed=41):
        """40 users x 30 items; a warm fold or a cold fold whose test bucket
        is listed in descending item order."""
        t = random_triplets(40, 30, 0.4, seed=seed)
        if setting == "warm":
            membership = materialize_fold(split_warm(t, 3, 0.2, seed=seed), 1)
        else:
            m = materialize_fold(split_cold(30, 3, 0.2, seed=seed), 1)
            membership = FoldMembership("cold", 1, m.train, m.validation, m.test[::-1])
        rng = np.random.default_rng(seed + 1)
        model = init_model(self.VARIANTS[kind], 40, 30, 4, 5, seed=seed,
                           hidden_width=6, extractor_layers=2)
        # Small embeddings keep the scores in a narrow range, so that scores
        # rounded to two decimals tie often.
        model.embeddings = Embeddings(rng.normal(0, 0.05, (4, 40)),
                                      rng.normal(0, 0.05, (4, 30)))
        feats = FeatureTable(rng.normal(0, 1, (30, 5)))
        return t, membership, model, feats

    @staticmethod
    def _round_scores(monkeypatch):
        """Round every score to two decimals, in the library and the oracle.
        Returns a list that receives the user count of every scored block."""
        blocks = []

        def rounded(model, item_vecs, users=slice(None)):
            scores = models.score_matrix(model, item_vecs, users)
            blocks.append(scores.shape[0])
            return np.round(scores, 2)

        monkeypatch.setattr(evaluation, "score_matrix", rounded)
        monkeypatch.setattr(oracles, "score_matrix", rounded)
        return blocks

    @staticmethod
    def _record_blocks(monkeypatch):
        """Per block: [users, candidates, largest tower-grid array]."""
        blocks = []
        score = evaluation.score_matrix
        forward = models.mlp_forward

        def recording_score(model, item_vecs, users=slice(None)):
            blocks.append([len(users), item_vecs.shape[1], 0])
            return score(model, item_vecs, users)

        def recording_forward(params, x):
            out, cache = forward(params, x)
            if blocks:
                blocks[-1][2] = max([blocks[-1][2], out.size]
                                    + [a.size for layer in cache for a in layer])
            return out, cache

        monkeypatch.setattr(evaluation, "score_matrix", recording_score)
        monkeypatch.setattr(models, "mlp_forward", recording_forward)
        return blocks

    @pytest.mark.parametrize("kind", list(VARIANTS))
    @pytest.mark.parametrize("setting", ["cold", "warm"])
    def test_matches_per_user_oracle(self, monkeypatch, setting, kind):
        t, membership, model, feats = self._setup(setting, kind)
        scheme = ConfidenceScheme()
        blocks = self._round_scores(monkeypatch)
        default = evaluation._RANK_BLOCK_FLOATS
        iv = models.item_vectors(model, np.arange(30), feats, setting)
        S = evaluation.score_matrix(model, iv)
        assert max(row.size - np.unique(row).size for row in S) > 5  # heavy ties
        # Lists of 3; longer than some warm users' candidate lists (22); and
        # longer than every cold bucket and warm candidate list (40).
        for top_k in (3, 22, 40):
            for bucket in ("validation", "test"):
                want = evaluate_per_user(model, membership, bucket, t, scheme,
                                         feats, top_k)
                if setting == "warm" and top_k == 22:
                    valid = 30 - np.bincount(t.users[membership.train], minlength=40)
                    users = np.array(sorted(want.ndcg))
                    assert (valid[users] < top_k).any() and (valid[users] >= top_k).any()
                per_user = want.pool_size_total // max(1, want.num_users)
                # Default budget (one block here); one user per block; three
                # users per block.
                for floats in (default, 1, None):
                    if floats is None:
                        width = 0 if model.interaction is None else models.grid_width(model)
                        floats = 3 * per_user * (evaluation._RANK_FLOATS + width)
                    monkeypatch.setattr(evaluation, "_RANK_BLOCK_FLOATS", floats)
                    blocks.clear()
                    got = evaluate(model, membership, bucket, t, scheme, feats, top_k)
                    assert got == want, (top_k, bucket, floats)
                    assert (len(blocks) > 1) == (floats != default), (floats, blocks)

    @pytest.mark.parametrize("kind", list(VARIANTS))
    def test_block_temporaries_bounded(self, monkeypatch, kind):
        """Every block's scores, ranking temporaries and tower grids fit
        evaluation._RANK_BLOCK_FLOATS, or the block is a single user."""
        floats = 900
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_FLOATS", floats)
        for setting in ("cold", "warm"):
            t, membership, model, feats = self._setup(setting, kind)
            blocks = self._record_blocks(monkeypatch)
            result = evaluate(model, membership, "test", t, ConfidenceScheme(),
                              feats, 5)
            assert len(blocks) > 1 and sum(b[0] for b in blocks) == result.num_users
            for users, n, grid in blocks:
                assert users == 1 or evaluation._RANK_FLOATS * users * n + grid <= floats

    def test_user_without_candidates_is_data_error(self):
        """A warm user whose every item is a training item has nothing to rank."""
        t = random_triplets(6, 8, 0.5, seed=43)
        users = np.concatenate([np.zeros(8, dtype=np.int64), t.users + 1])
        items = np.concatenate([np.arange(8), t.items])
        counts = np.concatenate([np.full(8, 9.0), t.counts])
        t = InteractionTriplets.create(users, items, counts, 7, 8)
        # The test bucket repeats one of user 0's training entries.
        membership = FoldMembership("warm", 0, np.arange(t.num_entries),
                                    np.arange(8, 12), np.array([0, 9]))
        model = _wmf_model(np.ones((2, 7)), np.ones((2, 8)))
        for fn in (evaluate, evaluate_per_user):
            with pytest.raises(DataError, match="no candidate"):
                fn(model, membership, "test", t, ConfidenceScheme(), None, 3)
        # The validation bucket's users all have candidates.
        assert evaluate(model, membership, "validation", t, ConfidenceScheme(),
                        None, 3) == evaluate_per_user(model, membership, "validation",
                                                      t, ConfidenceScheme(), None, 3)

    @pytest.mark.parametrize("kind, value", [("dot", np.nan), ("dot", np.inf),
                                             ("dot", -np.inf), ("concat", np.nan),
                                             ("mult", np.nan)])
    @pytest.mark.parametrize("setting", ["cold", "warm"])
    def test_non_finite_score_raises(self, setting, kind, value):
        t, membership, model, feats = self._setup(setting, kind)
        result = evaluate(model, membership, "test", t, ConfidenceScheme(), feats, 5)
        user = max(result.ndcg)  # an eligible user, in the last block
        model.embeddings.W[1, user] = value
        with pytest.raises(TrainingDivergedError, match="not finite"):
            evaluate(model, membership, "test", t, ConfidenceScheme(), feats, 5)


class TestRowSortedRanking:
    """_block_dcg sorts each row's top k within the row and lexsorts only the
    rows tied at their k-th score; oracles.block_dcg_lexsort lexsorts every
    entry at or above its row's k-th score. Both must agree bit for bit."""

    @staticmethod
    def _block(case, seed):
        """Scores, block users, valid counts, consumed items, candidates and
        truth keys of one random block of 12 users x 15 candidates."""
        rng = np.random.default_rng(seed)
        b, n = 12, 15
        # Four score levels tie heavily; a thousand tie seldom.
        levels = 4 if case in ("straddle", "shuffled") else 1000
        scores = rng.integers(0, levels, (b, n)) / levels
        if case in ("all_tie", "shuffled", "k_ge_n"):
            scores[[0, 5, 9]] = 0.0  # W = 0 users
        users = np.sort(rng.choice(50, b, replace=False))
        candidates = np.arange(n) * 3 + 1
        if case == "shuffled":
            candidates = rng.permutation(candidates)
        consumed, valid = None, np.full(b, n)
        if case == "warm_short":
            candidates = np.arange(n)
            sizes = rng.integers(0, n - 1, b)
            cols = [rng.choice(n, size, replace=False) for size in sizes]
            consumed = CompressedAxis.build(np.repeat(users, sizes), np.concatenate(cols),
                                            np.ones(sizes.sum()), 50)
            valid = n - sizes
        truth = np.unique(np.repeat(users, 4) * n + rng.integers(0, n, 4 * b))
        return scores, users, valid, consumed, candidates, truth

    @pytest.mark.parametrize("case, top_k", [("all_tie", 5), ("straddle", 4),
                                             ("warm_short", 8), ("k_ge_n", 20),
                                             ("shuffled", 5)])
    def test_matches_lexsort_oracle(self, case, top_k):
        for seed in range(20):
            scores, *rest = self._block(case, seed)
            got = evaluation._block_dcg(scores.copy(), *rest, top_k)
            want = oracles.block_dcg_lexsort(scores.copy(), *rest, top_k)
            assert got[0].tobytes() == want[0].tobytes(), (case, seed)
            npt.assert_array_equal(got[1], want[1])
            if case in ("all_tie", "shuffled", "k_ge_n"):
                assert got[1][[0, 5, 9]].all()
            if case == "straddle":  # some row has more than k entries at the cut
                kth = np.sort(-scores, axis=1)[:, top_k - 1:top_k]
                assert ((-scores <= kth).sum(axis=1) > top_k).any()
            if case == "warm_short":
                assert (rest[1] < top_k).any() and (rest[1] >= top_k).any()

    def test_lexsort_sorts_only_tied_rows(self, monkeypatch):
        """A count, not a timing: a block without a row tied at its k-th
        score calls np.lexsort not at all, and a block with m users whose
        candidates all tie passes it exactly m x n entries."""
        t = random_triplets(40, 30, 0.4, seed=5)
        m = materialize_fold(split_cold(30, 3, 0.2, seed=5), 1)
        model = init_model(ModelVariant("mf_uni", "relaxed"), 40, 30, 4, 5, seed=5)
        feats = FeatureTable(np.random.default_rng(6).normal(0, 1, (30, 5)))
        lengths = []
        real = np.lexsort

        def recording(keys, *args, **kwargs):
            lengths.append([len(key) for key in keys])
            return real(keys, *args, **kwargs)

        monkeypatch.setattr(evaluation.np, "lexsort", recording)
        result = evaluate(model, m, "test", t, ConfidenceScheme(), feats, 5)
        assert lengths == [] and result.num_all_tied == 0
        tied = sorted(result.ndcg)[::7]
        model.embeddings.W[:, tied] = 0.0
        result = evaluate(model, m, "test", t, ConfidenceScheme(), feats, 5)
        n = m.test.size
        assert lengths == [[len(tied) * n] * 3]
        assert result.num_all_tied == len(tied) > 1
        assert result == evaluate_per_user(model, m, "test", t, ConfidenceScheme(), feats, 5)


class TestGridSearch:
    def test_singleton(self):
        best, table = grid_search([0.5], [2.0], lambda lw, lh: 0.7)
        assert best == (0.5, 2.0)
        assert table == [(0.5, 2.0, 0.7)]

    def test_planted_optimum_found(self):
        def score(lw, lh):
            return -((lw - 1.0) ** 2 + (lh - 10.0) ** 2)
        best, table = grid_search([0.1, 1.0, 5.0], [1.0, 10.0, 100.0], score)
        assert best == (1.0, 10.0)
        assert len(table) == 9

    def test_ties_break_to_larger_lambdas(self):
        best, _ = grid_search([0.1, 1.0], [0.5, 5.0], lambda lw, lh: 0.42)
        assert best == (1.0, 5.0)


class TestCrossValidate:
    def _runner(self, seed=21):
        t = random_triplets(15, 12, 0.5, seed=seed)
        plan = split_warm(t, 3, 0.2, seed=seed)
        data_scheme = ConfidenceScheme()
        from ncacf.models import Hyperparams
        from ncacf.models import ModelVariant
        from ncacf import training
        from ncacf.data import SparsePlaycounts

        def train_and_score(fold, lw, lh, bucket):
            membership = materialize_fold(plan, fold)
            train = t.subset(membership.train_entry_idx(t))
            data = SparsePlaycounts.from_triplets(train)
            hyper = Hyperparams(embed_dim=2, n_iters=3,
                                lambda_w=lw or 0.1, lambda_h=lh or 1.0)
            model = training.train(ModelVariant("wmf", "content_free"), data,
                                   None, hyper, seed=seed).model
            return evaluate(model, membership, bucket, t, data_scheme, None, 5)

        return train_and_score

    def test_deterministic_rerun(self):
        fn = self._runner()
        a = cross_validate(3, fn, grid_w=[0.1, 1.0], grid_h=[1.0])
        b = cross_validate(3, fn, grid_w=[0.1, 1.0], grid_h=[1.0])
        assert a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
        assert len(a[0]) == 3

    def test_mean_permutation_invariant(self):
        fn = self._runner()
        results, mean, std, _ = cross_validate(3, fn)
        per_fold = [r.mean for r in results]
        m2, s2 = fold_mean_std(per_fold[::-1])
        npt.assert_allclose(mean, m2, rtol=1e-15)
        npt.assert_allclose(std, s2, rtol=1e-15)

    def test_needs_two_folds(self):
        with pytest.raises(ValueError):
            cross_validate(1, lambda *a: None)


class TestFoldStats:
    def test_mean_std_direct_formula(self):
        vals = [0.2, 0.25, 0.3, 0.4]
        mean, std = fold_mean_std(vals)
        npt.assert_allclose(mean, np.mean(vals), rtol=1e-15)
        npt.assert_allclose(std, np.std(vals, ddof=1), rtol=1e-15)

    def test_single_fold_std_zero(self):
        assert fold_mean_std([0.5]) == (0.5, 0.0)


class TestEvalExport:
    def test_written_summary_matches_result(self, tmp_path):
        res = EvalResult("cold", "test", 0, {1: 0.5, 3: 0.75}, 2, 40)
        path = tmp_path / "eval.tsv"
        write_eval_result(path, res)
        text = path.read_text()
        assert f"mean_ndcg\t{res.mean!r}" in text
        assert "num_excluded\t2" in text
        assert "1\t0.5" in text

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        from ncacf import data

        path = tmp_path / "eval.tsv"
        write_eval_result(path, EvalResult("cold", "test", 0, {1: 0.5}, 2, 40))
        before = path.read_bytes()
        monkeypatch.setattr(data, "replacing", half_writing(data.replacing))
        with pytest.raises(OSError):
            write_eval_result(path, EvalResult("cold", "test", 0, {1: 0.25, 3: 0.5}, 2, 40))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.tsv"]


class TestStoredResult:
    def test_reads_back_the_stored_result(self, tmp_path):
        """The result comes back with its users in their order, so its mean
        and eval file are the same bits."""
        ndcg = {3: 0.1, 7: 1.0, 9: 0.0, 12: 1 / 3}
        result = EvalResult("cold", "validation", 2, ndcg, 4, 120, 1)
        back = stored_validation(stored_result(result, 7.0, 10), 7.0, 10)
        assert back == result and list(back.ndcg) == list(ndcg)
        assert back.mean == result.mean
        write_eval_result(tmp_path / "a.tsv", result)
        write_eval_result(tmp_path / "b.tsv", back)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @pytest.mark.parametrize("tau, top_k", [(8.0, 10), (7.0, 5)])
    def test_another_tau_or_top_k_reads_nothing(self, tau, top_k):
        stored = stored_result(EvalResult("warm", "validation", 0, {1: 0.5}, 0, 9), 7.0, 10)
        assert stored_validation(stored, tau, top_k) is None
        assert stored_validation(None, 7.0, 10) is None
