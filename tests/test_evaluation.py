import itertools

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_triplets
from oracles import dcg_positions, ndcg_by_permutations
from ncacf.data import (ConfidenceScheme, FeatureTable, SparsePlaycounts,
                        materialize_fold, split_cold, split_warm)
from ncacf.errors import ColdStartUnsupportedError, DataError
from ncacf.evaluation import (EvalResult, RankedList, dcg, evaluate,
                              fold_mean_std, grid_search, ndcg_user,
                              random_ndcg_baseline, rank_items,
                              write_eval_result)
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
        base_mean, base_se = random_ndcg_baseline(pools, sizes, 3, seed=0, trials=400)

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
        assert abs(got - base_mean) <= 3 * np.sqrt(se ** 2 + base_se ** 2)

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
            model, _, _ = training.train(ModelVariant("wmf", "content_free"), data,
                                         None, hyper, seed=seed)
            return evaluate(model, membership, bucket, t, data_scheme, None, 5)

        return train_and_score

    def test_deterministic_rerun(self):
        from ncacf.evaluation import cross_validate
        fn = self._runner()
        a = cross_validate(3, fn, grid_w=[0.1, 1.0], grid_h=[1.0])
        b = cross_validate(3, fn, grid_w=[0.1, 1.0], grid_h=[1.0])
        assert a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
        assert len(a[0]) == 3

    def test_mean_permutation_invariant(self):
        from ncacf.evaluation import cross_validate
        fn = self._runner()
        results, mean, std, _ = cross_validate(3, fn)
        per_fold = [r.mean for r in results]
        m2, s2 = fold_mean_std(per_fold[::-1])
        npt.assert_allclose(mean, m2, rtol=1e-15)
        npt.assert_allclose(std, s2, rtol=1e-15)

    def test_needs_two_folds(self):
        from ncacf.evaluation import cross_validate
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
        write_eval_result(path, res, per_user=True)
        text = path.read_text()
        assert f"mean_ndcg\t{res.mean!r}" in text
        assert "num_excluded\t2" in text
        assert "1\t0.5" in text
