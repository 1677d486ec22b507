import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_triplets
from oracles import two_pass_stats
from ncacf.data import (ConfidenceScheme, FeatureTable, InteractionTriplets,
                        SparsePlaycounts, binarize, confidence, filter_activity,
                        generate_synthetic, load_features, load_triplets,
                        materialize_fold, read_split_plan, scan_warm_orphans,
                        split_cold, split_warm, standardize_features,
                        write_split_plan, write_triplets)
from ncacf.errors import DataError, ParseError


class TestLoadTriplets:
    def test_reindexes_in_first_seen_order(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\t3\na\tc\t1\n")
        t = load_triplets(p)
        assert (t.num_users, t.num_items) == (1, 2)
        assert list(zip(t.users, t.items, t.counts)) == [(0, 0, 3.0), (0, 1, 1.0)]
        assert t.user_labels == ("a",) and t.item_labels == ("b", "c")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("")
        t = load_triplets(p)
        assert (t.num_users, t.num_items, t.num_entries) == (0, 0, 0)

    def test_duplicate_reports_both_lines(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\t3\na\tb\t3\n")
        with pytest.raises(ParseError, match=r"2.*line 1|line 1"):
            load_triplets(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\t3\nbroken line\n")
        with pytest.raises(ParseError, match=":2"):
            load_triplets(p)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header\na\tb\t3\n")
        assert load_triplets(p).num_entries == 1

    def test_roundtrip(self, tmp_path):
        # Full density so every id appears in the file and re-indexing is stable.
        t = random_triplets(6, 5, 1.0, seed=0)
        write_triplets(tmp_path / "t.tsv", t)
        back = load_triplets(tmp_path / "t.tsv")
        assert back.num_users == t.num_users and back.num_items == t.num_items
        npt.assert_array_equal(back.counts, t.counts)


class TestBinarizeConfidence:
    def test_threshold_values(self):
        assert binarize(7, 7) == 1.0
        assert binarize(6, 7) == 0.0
        assert binarize(0, 7) == 0.0

    def test_confidence_at_zero_is_one(self):
        assert confidence(0, 2.0, 1e-6) == 1.0

    def test_confidence_frozen_values(self):
        # 1 + 2*ln(1 + p/1e-6), evaluated with 30-digit arithmetic.
        npt.assert_allclose(confidence(1, 2.0, 1e-6), 28.631023115927548, rtol=1e-15)
        npt.assert_allclose(confidence(7, 2.0, 1e-6), 32.522841699753440, rtol=1e-15)

    def test_binarize_monotone(self):
        rng = np.random.default_rng(0)
        p = np.sort(rng.uniform(0, 20, 50))
        r = binarize(p, 7)
        assert np.all(np.diff(r) >= 0)

    def test_confidence_strictly_increasing(self):
        p = np.linspace(0, 30, 200)
        c = confidence(p, 2.0, 1e-6)
        assert np.all(np.diff(c) > 0)


def _segments(axis):
    """(key, index, count) of every entry of a compressed layout."""
    return [(k, int(axis.indices[e]), float(axis.counts[e]))
            for k in range(axis.indptr.size - 1)
            for e in range(axis.indptr[k], axis.indptr[k + 1])]


class TestSparsePlaycounts:
    def test_views_agree(self, tiny_data):
        t, sp, _ = tiny_data
        from_rows = set(_segments(sp.by_user))
        from_cols = {(u, i, c) for i, u, c in _segments(sp.by_item)}
        direct = set(zip(t.users.tolist(), t.items.tolist(), t.counts.tolist()))
        assert from_rows == from_cols == direct
        assert sp.by_user.indptr[-1] == sp.by_item.indptr[-1] == len(direct)

    def test_take_gathers_segments_in_key_order(self):
        t = random_triplets(9, 7, 0.4, seed=3)
        axis = SparsePlaycounts.from_triplets(t).by_item
        keys = np.array([5, 0, 5, 3, 6, 1])
        want = [(int(u), pos, float(c)) for pos, i in enumerate(keys)
                for u, c in zip(axis.indices[axis.indptr[i]:axis.indptr[i + 1]],
                                axis.counts[axis.indptr[i]:axis.indptr[i + 1]])]
        users, pos, counts = axis.take(keys)
        assert list(zip(users.tolist(), pos.tolist(), counts.tolist())) == want
        assert all(a.size == 0 for a in axis.take(np.array([], dtype=np.int64)))

    def test_sorted_ascending(self, tiny_data):
        _, sp, _ = tiny_data
        for axis in (sp.by_user, sp.by_item):
            for k in range(axis.indptr.size - 1):
                assert np.all(np.diff(axis.indices[axis.indptr[k]:axis.indptr[k + 1]]) > 0)


class TestFilterActivity:
    def test_compliant_input_unchanged(self):
        t = random_triplets(5, 5, 1.0, seed=1)
        out = filter_activity(t, 1, 1)
        assert out.num_entries == t.num_entries

    def test_chain_collapse_matches_repeated_pass_oracle(self):
        # 3x3 chain: removing the weakest item knocks a user below threshold.
        users = np.array([0, 0, 1, 1, 2, 2, 2])
        items = np.array([0, 1, 1, 2, 0, 1, 2])
        counts = np.ones(7)
        t = InteractionTriplets.create(users, items, counts, 3, 3)
        got = filter_activity(t, 2, 2)

        keep = set(zip(users.tolist(), items.tolist()))
        while True:
            u_deg = {}
            i_deg = {}
            for u, i in keep:
                u_deg[u] = u_deg.get(u, 0) + 1
                i_deg[i] = i_deg.get(i, 0) + 1
            nxt = {(u, i) for (u, i) in keep if u_deg[u] >= 2 and i_deg[i] >= 2}
            if nxt == keep:
                break
            keep = nxt
        assert got.num_entries == len(keep)

    def test_fixpoint_idempotent(self):
        t = random_triplets(30, 25, 0.15, seed=2)
        once = filter_activity(t, 2, 2)
        twice = filter_activity(once, 2, 2)
        assert twice.num_entries == once.num_entries
        assert (twice.num_users, twice.num_items) == (once.num_users, once.num_items)

    def test_empty_result_raises(self):
        t = random_triplets(4, 4, 0.2, seed=3)
        with pytest.raises(DataError):
            filter_activity(t, 100, 100)


class TestSplitCold:
    def test_sizes(self):
        plan = split_cold(10, 4, 0.2, seed=0)
        assert plan.validation.size == 2
        assert sorted(f.size for f in plan.folds) == [2, 2, 2, 2]

    def test_partition_and_determinism(self):
        a = split_cold(57, 10, 0.2, seed=5)
        b = split_cold(57, 10, 0.2, seed=5)
        npt.assert_array_equal(a.validation, b.validation)
        for fa, fb in zip(a.folds, b.folds):
            npt.assert_array_equal(fa, fb)
        units = np.concatenate([a.validation] + list(a.folds))
        npt.assert_array_equal(np.sort(units), np.arange(57))
        sizes = [f.size for f in a.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_infeasible_sizes_rejected(self):
        with pytest.raises(DataError):
            split_cold(10, 10, 0.2, seed=0)


class TestSplitWarm:
    def test_single_interaction_item_pinned_to_training(self):
        users = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0])
        items = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2])  # item 2 has one triplet
        t = InteractionTriplets.create(users, items, np.full(9, 8.0), 4, 3)
        plan = split_warm(t, 2, 0.25, seed=1)
        lone = np.flatnonzero(items == 2)[0]
        assert lone in plan.train_always

    def test_two_triplet_item_keeps_one_trainable(self):
        users = np.array([0, 1, 0, 1, 2, 3, 2, 3])
        items = np.array([0, 0, 1, 1, 0, 1, 2, 2])
        t = InteractionTriplets.create(users, items, np.full(8, 9.0), 4, 3)
        plan = split_warm(t, 2, 0.25, seed=3)
        assert scan_warm_orphans(plan, t) == []

    def test_random_instance_scan_clean(self):
        t = random_triplets(50, 40, 0.08, seed=7)
        plan = split_warm(t, 5, 0.2, seed=11)
        assert scan_warm_orphans(plan, t) == []
        units = np.concatenate([plan.validation, plan.train_always] + list(plan.folds))
        npt.assert_array_equal(np.sort(units), np.arange(t.num_entries))

    def test_determinism(self):
        t = random_triplets(20, 15, 0.2, seed=9)
        a = split_warm(t, 3, 0.2, seed=2)
        b = split_warm(t, 3, 0.2, seed=2)
        npt.assert_array_equal(a.validation, b.validation)
        npt.assert_array_equal(a.train_always, b.train_always)


class TestMaterializeFold:
    def test_cold_rotation(self):
        plan = split_cold(20, 4, 0.2, seed=0)
        m = materialize_fold(plan, 1)
        assert set(m.test) == set(plan.folds[1])
        expect_train = set(np.concatenate([plan.folds[0], plan.folds[2], plan.folds[3]]))
        assert set(m.train) == expect_train
        assert not (set(m.train) & set(m.test))
        assert not (set(m.validation) & set(m.train))

    def test_no_test_fold(self):
        plan = split_cold(20, 4, 0.2, seed=0)
        m = materialize_fold(plan, None)
        assert m.test.size == 0
        assert m.train.size == 20 - plan.validation.size

    def test_warm_train_entry_idx(self):
        t = random_triplets(15, 12, 0.3, seed=4)
        plan = split_warm(t, 3, 0.2, seed=4)
        m = materialize_fold(plan, 0)
        idx = m.train_entry_idx(t)
        assert set(idx) == set(plan.train_always) | set(plan.folds[1]) | set(plan.folds[2])


class TestSplitPlanIO:
    @pytest.mark.parametrize("mode", ["cold", "warm"])
    def test_roundtrip(self, tmp_path, mode):
        if mode == "cold":
            plan = split_cold(33, 4, 0.2, seed=6)
        else:
            plan = split_warm(random_triplets(20, 15, 0.25, seed=5), 4, 0.2, seed=6)
        path = tmp_path / "plan.txt"
        write_split_plan(path, plan)
        back = read_split_plan(path)
        assert back.mode == plan.mode and back.seed == plan.seed
        npt.assert_array_equal(back.validation, plan.validation)
        npt.assert_array_equal(back.train_always, plan.train_always)
        for fa, fb in zip(back.folds, plan.folds):
            npt.assert_array_equal(fa, fb)

    def test_bytes_stable_across_rewrites(self, tmp_path):
        plan = split_cold(33, 4, 0.2, seed=6)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_split_plan(a, plan)
        write_split_plan(b, plan)
        assert a.read_bytes() == b.read_bytes()


class TestStandardize:
    def test_two_point_case(self):
        table = FeatureTable(np.array([[1.0], [3.0], [10.0]]))
        out = standardize_features(table, [0, 1])
        npt.assert_allclose(out.means, [2.0])
        npt.assert_allclose(out.stds, [1.0])
        npt.assert_allclose(out.values[:2, 0], [-1.0, 1.0])
        npt.assert_allclose(out.values[2, 0], 8.0)  # non-training item transformed too

    def test_idempotent_on_standardized_columns(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0, 1, (40, 3))
        v = (v - v.mean(axis=0)) / v.std(axis=0)
        out = standardize_features(FeatureTable(v), np.arange(40))
        npt.assert_allclose(out.values, v, atol=1e-9)

    def test_stats_match_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        v = rng.normal(3, 2, (5, 4))
        out = standardize_features(FeatureTable(v), np.arange(5))
        means, variances = two_pass_stats(v)
        npt.assert_allclose(out.means, means, atol=1e-10)
        npt.assert_allclose(out.stds, np.sqrt(variances), atol=1e-10)

    def test_training_columns_centered(self):
        rng = np.random.default_rng(2)
        v = rng.normal(5, 3, (60, 6))
        train = np.arange(0, 60, 2)
        out = standardize_features(FeatureTable(v), train)
        sub = out.values[train]
        assert np.max(np.abs(sub.mean(axis=0))) < 1e-6
        assert np.max(np.abs(sub.var(axis=0) - 1)) < 1e-3

    def test_constant_dimension_names_index(self):
        v = np.ones((4, 2))
        v[:, 0] = [1, 2, 3, 4]
        with pytest.raises(DataError, match="dimension 1"):
            standardize_features(FeatureTable(v), np.arange(4))


class TestGenerateSynthetic:
    def test_noiseless_interactions_follow_sign_rule(self):
        synth = generate_synthetic(30, 20, 4, 8, noise=0.0, density=1.0, seed=0)
        z = synth.planted.W.T @ synth.planted.H
        med = synth.planted.affinity_median
        scheme = ConfidenceScheme()
        for u, i, c in zip(synth.triplets.users, synth.triplets.items,
                           synth.triplets.counts):
            assert (scheme.r(c) == 1.0) == (z[u, i] >= med)

    def test_determinism(self):
        a = generate_synthetic(25, 20, 3, 6, 0.1, 0.2, seed=9)
        b = generate_synthetic(25, 20, 3, 6, 0.1, 0.2, seed=9)
        npt.assert_array_equal(a.triplets.counts, b.triplets.counts)
        npt.assert_array_equal(a.features.values, b.features.values)
        npt.assert_array_equal(a.planted.W, b.planted.W)

    def test_density_close_to_request(self):
        synth = generate_synthetic(200, 150, 8, 20, 0.1, 0.05, seed=3)
        got = synth.triplets.num_entries / (200 * 150)
        assert abs(got - 0.05) <= 0.2 * 0.05

    def test_features_predict_embeddings_when_noiseless(self):
        synth = generate_synthetic(10, 40, 3, 6, 0.0, 0.5, seed=4)
        pred = synth.planted.feature_map @ synth.features.values.T
        npt.assert_allclose(pred, synth.planted.H, atol=1e-12)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DataError):
            generate_synthetic(0, 5, 2, 3, 0.1, 0.5, seed=0)
        with pytest.raises(DataError):
            generate_synthetic(5, 5, 2, 3, 0.1, 0.0, seed=0)


class TestFeatureFileIO:
    def test_roundtrip(self, tmp_path):
        from ncacf.data import write_features
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 1, (4, 3))
        write_features(tmp_path / "f.tsv", ["a", "b", "c", "d"], vals)
        labels, back = load_features(tmp_path / "f.tsv")
        assert labels == ["a", "b", "c", "d"]
        npt.assert_array_equal(back, vals)

    def test_ragged_rejected(self, tmp_path):
        (tmp_path / "f.tsv").write_text("a\t1.0\t2.0\nb\t1.0\n")
        with pytest.raises(ParseError):
            load_features(tmp_path / "f.tsv")
