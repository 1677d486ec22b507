import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import ncacf.data
from conftest import random_triplets
from oracles import (compressed_axis_lexsort, load_triplets_per_line,
                     read_split_plan, scan_warm_orphans_sets,
                     split_warm_per_item, two_pass_stats, write_features_per_line,
                     write_split_plan_per_unit, write_triplets_per_line)
from ncacf.data import (CompressedAxis, ConfidenceScheme, InteractionTriplets, SplitPlan,
                        SparsePlaycounts, _partition_units, binarize, confidence,
                        filter_activity, generate_synthetic, load_features,
                        load_triplets, materialize_fold,
                        reindex_first_seen, scan_warm_orphans, split_cold, split_warm,
                        standardize_features, write_features, write_split_plan,
                        write_triplets)
from ncacf.errors import DataError, ParseError
from ncacf.rng import rng_for


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

    def test_create_rejects_duplicate_pairs(self):
        with pytest.raises(DataError, match="duplicate"):
            InteractionTriplets.create([0, 1, 0], [2, 0, 2], np.ones(3), 2, 3)
        t = InteractionTriplets.create([0, 1, 0], [2, 0, 1], np.ones(3), 2, 3)
        assert t.num_entries == 3

    def test_roundtrip(self, tmp_path):
        # Full density so every id appears in the file and re-indexing is stable.
        t = random_triplets(6, 5, 1.0, seed=0)
        write_triplets(tmp_path / "t.tsv", t)
        back = load_triplets(tmp_path / "t.tsv")
        assert back.num_users == t.num_users and back.num_items == t.num_items
        npt.assert_array_equal(back.counts, t.counts)


# Chunk sizes for the loader: one line per chunk, chunk edges mid-file, and
# one chunk for the whole file.
CHUNK_SIZES = [1, 23, 97, 1 << 16]

LABELS = ["a", "b c", "ü", "日本", "x y z", "#not-comment", "u1", "i1", "  pad", "7"]


def _outcome(parse, path):
    try:
        return parse(path)
    except Exception as exc:  # the class and message are compared
        return exc


def assert_same_outcome(path, monkeypatch, chunk):
    monkeypatch.setattr(ncacf.data, "_CHUNK_BYTES", chunk)
    want = _outcome(load_triplets_per_line, path)
    got = _outcome(load_triplets, path)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, InteractionTriplets), got
    for name in ("users", "items", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.flags.c_contiguous
        npt.assert_array_equal(a, b)
    assert (got.num_users, got.num_items) == (want.num_users, want.num_items)
    assert got.user_labels == want.user_labels
    assert got.item_labels == want.item_labels


def random_triplet_text(rng, rows):
    """A valid triplet file: comments, blank lines, padded counts, labels with
    spaces and non-ASCII characters, CRLF or LF line ends, and maybe no
    final newline."""
    labels = [f"{rng.choice(LABELS)}{k}" for k in range(12)]
    pairs = rng.permutation(len(labels) ** 2)[:rows]
    lines = []
    for key in pairs.tolist():
        roll = rng.random()
        if roll < 0.1:
            lines.append("# comment\twith\ttabs")
        elif roll < 0.2:
            lines.append("")
        count = int(rng.integers(1, 40))
        text = rng.choice([str(count), f" {count}", f"{count} ", f"+{count}", f"0{count}"])
        lines.append(f"{labels[key // len(labels)]}\t{labels[key % len(labels)]}\t{text}")
    end = "\r\n" if rng.random() < 0.3 else "\n"
    text = end.join(lines)
    return text + end if rng.random() < 0.7 else text


class TestLoaderMatchesPerLineOracle:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_random_valid_files(self, tmp_path, monkeypatch, chunk):
        rng = np.random.default_rng(chunk)
        for trial in range(12):
            path = tmp_path / f"t{trial}.tsv"
            path.write_bytes(random_triplet_text(rng, int(rng.integers(0, 80))).encode())
            assert_same_outcome(path, monkeypatch, chunk)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_edge_files(self, tmp_path, monkeypatch, chunk):
        texts = ["", "\n", "# only a comment", "#\n\n#\n", "a\tb\t3",
                 "\n\na\tb\t3\n\n", "a\tb\t3\r\nc\td\t4\r\n", "a\tb\t3\rc\td\t4\r"]
        for k, text in enumerate(texts):
            path = tmp_path / f"e{k}.tsv"
            path.write_bytes(text.encode())
            assert_same_outcome(path, monkeypatch, chunk)

    MALFORMED = {
        "two fields": "a\tb\t1\nc\td\n",
        "four fields": "a\tb\t1\nc\td\t2\t3\n",
        "four fields then two": "a\tb\t1\nc\td\t2\t3\ne\t4\n",
        "only spaces": "a\tb\t1\n   \nc\td\t2\n",
        "indented comment": "a\tb\t1\n # note\n",
        "non-integer": "a\tb\t1\nc\td\tx\n",
        "float count": "a\tb\t1\nc\td\t1.5\n",
        "empty count": "a\tb\t1\nc\td\t\n",
        "zero count": "a\tb\t1\nc\td\t0\n",
        "negative count": "a\tb\t1\nc\td\t-4\n",
        "duplicate": "a\tb\t1\nc\td\t2\na\tb\t5\n",
        "duplicate far apart": "a\tb\t1\n" + "".join(f"u{k}\ti{k}\t2\n" for k in range(60))
                               + "a\tb\t5\n",
        "bad last line without newline": "a\tb\t1\nc\td\t0",
        "duplicate then bad fields": "a\tb\t1\nc\td\t2\na\tb\t3\nbroken\n",
        "bad fields then duplicate": "a\tb\t1\nbroken\na\tb\t3\n",
        "zero then non-integer": "a\tb\t1\nc\td\t0\ne\tf\tx\n",
        "non-integer then zero": "a\tb\t1\ne\tf\tx\nc\td\t0\n",
        "duplicate then zero": "a\tb\t1\na\tb\t2\nc\td\t0\n",
        "zero duplicate": "a\tb\t1\na\tb\t0\n",
        "duplicate of a malformed line": "a\tb\tx\na\tb\t1\n",
        "two duplicates": "a\tb\t1\nc\td\t1\nc\td\t2\na\tb\t2\n",
    }

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_files(self, tmp_path, monkeypatch, chunk, case):
        path = tmp_path / "bad.tsv"
        path.write_text("# header\n" + self.MALFORMED[case])
        assert_same_outcome(path, monkeypatch, chunk)
        assert isinstance(_outcome(load_triplets, path), ParseError)

    @pytest.mark.parametrize("chunk", [1, 97])
    def test_random_defects(self, tmp_path, monkeypatch, chunk):
        """Valid files with one or two defective lines spliced in anywhere."""
        rng = np.random.default_rng(100 + chunk)
        defects = ["x\n", "a\tb\n", "a\tb\tc\td\n", "a\tb\tq\n", "a\tb\t0\n",
                   "a\tb\t-1\n", "   \n", None]  # None: repeat an earlier line
        for trial in range(30):
            lines = random_triplet_text(rng, 40).replace("\r\n", "\n").splitlines(True)
            for _ in range(int(rng.integers(1, 3))):
                at = int(rng.integers(0, len(lines) + 1))
                bad = defects[int(rng.integers(len(defects)))]
                if bad is None:
                    data = [l for l in lines[:at] if l.strip() and not l.startswith("#")]
                    if not data:
                        continue
                    bad = data[int(rng.integers(len(data)))]
                lines.insert(at, bad if bad.endswith("\n") else bad + "\n")
            path = tmp_path / f"d{trial}.tsv"
            path.write_bytes("".join(lines).encode())
            assert_same_outcome(path, monkeypatch, chunk)


class TestBulkWritersMatchPerLine:
    def test_write_triplets(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(5):
            t = random_triplets(9, 7, 0.5, seed=trial)
            counts = t.counts.copy()
            counts[::5] = 1e15 + 3
            users = [f"{rng.choice(LABELS)}{k}" for k in range(t.num_users)]
            items = [f"{rng.choice(LABELS)}{k}" for k in range(t.num_items)]
            t = InteractionTriplets.create(t.users, t.items, counts, t.num_users,
                                           t.num_items, users, items)
            write_triplets(tmp_path / "a.tsv", t)
            write_triplets_per_line(tmp_path / "b.tsv", t)
            assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_non_integer_count_is_data_error(self, tmp_path):
        """A count the file cannot hold stops the write, naming the first
        such count in entry order, instead of being truncated."""
        t = InteractionTriplets.create([0, 0, 1, 1], [0, 1, 0, 1], [3.0, 9.5, 2.0, 1.25],
                                       2, 2, ("a", "b"), ("x", "y"))
        with pytest.raises(DataError, match="count 9.5 of user 'a' and item 'y' is not"):
            write_triplets(tmp_path / "t.tsv", t)
        assert not list(tmp_path.iterdir())

    def test_write_empty_triplets(self, tmp_path):
        t = InteractionTriplets.create([], [], [], 0, 0)
        write_triplets(tmp_path / "a.tsv", t)
        write_triplets_per_line(tmp_path / "b.tsv", t)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_write_features(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, (6, 5)) * 10.0 ** rng.integers(-300, 300, (6, 5))
        values[0] = [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308]
        values[1] = [np.inf, -np.inf, np.nan, 1e308, 1 / 3]
        labels = [f"{rng.choice(LABELS)}{k}" for k in range(6)]
        write_features(tmp_path / "a.tsv", labels, values)
        write_features_per_line(tmp_path / "b.tsv", labels, values)
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_write_split_plan(self, tmp_path):
        t = random_triplets(25, 20, 0.2, seed=2)
        plans = [split_cold(41, 4, 0.2, seed=1), split_warm(t, 3, 0.3, seed=5),
                 SplitPlan("warm", 0, 2, 0.5, np.array([3, 1]),
                           (np.empty(0, dtype=np.int64), np.array([2])),
                           np.empty(0, dtype=np.int64))]
        for plan in plans:
            write_split_plan(tmp_path / "a.txt", plan)
            write_split_plan_per_unit(tmp_path / "b.txt", plan)
            assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


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


class TestCompressedAxisBuild:
    """build sorts once by key * m + value; the two-key lexsort it replaced
    is the reference, array for array."""

    @staticmethod
    def _assert_same(keys, values, n):
        counts = np.arange(1.0, keys.size + 1)
        got = CompressedAxis.build(keys, values, counts, n)
        want = compressed_axis_lexsort(keys, values, counts, n)
        for name in ("indptr", "indices", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unsorted_input(self, seed):
        t = random_triplets(30, 17, 0.3, seed=seed)
        order = np.random.default_rng(seed).permutation(t.num_entries)
        users, items = t.users[order], t.items[order]
        self._assert_same(users, items, 30)
        self._assert_same(items, users, 17)

    def test_from_triplets_matches_reference(self):
        t = random_triplets(25, 40, 0.2, seed=9)
        t = t.subset(np.random.default_rng(9).permutation(t.num_entries))
        sp = SparsePlaycounts.from_triplets(t)
        for got, want in ((sp.by_user, compressed_axis_lexsort(t.users, t.items, t.counts,
                                                               t.num_users)),
                          (sp.by_item, compressed_axis_lexsort(t.items, t.users, t.counts,
                                                               t.num_items))):
            for name in ("indptr", "indices", "counts"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        self._assert_same(empty, empty, 0)
        self._assert_same(empty, empty, 4)

    def test_empty_segments(self):
        # Segments 0, 2, 3 and 6 hold nothing; values reach far past n.
        keys = np.array([5, 1, 4, 1, 5, 4, 1])
        values = np.array([900, 3, 2, 0, 1, 7, 2])
        self._assert_same(keys, values, 7)

    def test_single_segment(self):
        values = np.array([4, 0, 9, 2, 7])
        self._assert_same(np.zeros(5, dtype=np.int64), values, 1)
        self._assert_same(np.full(5, 2), values, 3)


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

    def test_relabels_survivors_densely_in_first_seen_order(self):
        t = random_triplets(30, 25, 0.15, seed=4)
        got = filter_activity(t, 3, 3)
        assert 0 < got.num_users < t.num_users and 0 < got.num_items < t.num_items
        for ids, n in ((got.users, got.num_users), (got.items, got.num_items)):
            assert np.bincount(ids, minlength=n).min() > 0
            firsts = [ids.tolist().index(k) for k in range(n)]
            assert firsts == sorted(firsts)
        entries = list(zip((t.user_labels[u] for u in t.users),
                           (t.item_labels[i] for i in t.items), t.counts.tolist()))
        survivors = set(zip((got.user_labels[u] for u in got.users),
                            (got.item_labels[i] for i in got.items),
                            got.counts.tolist()))
        assert survivors <= set(entries)
        want = reindex_first_seen(
            t.subset([k for k, entry in enumerate(entries) if entry in survivors]))
        for name in ("users", "items", "counts"):
            npt.assert_array_equal(getattr(got, name), getattr(want, name))
        assert (got.user_labels, got.item_labels) == (want.user_labels, want.item_labels)


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


def test_filter_and_warm_split_leave_numpy_ma_unimported():
    """filter_activity and split_warm find distinct ids without the plain
    np.unique, which imports numpy.ma (about 12 ms of every prepare)."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from ncacf.data import InteractionTriplets, filter_activity, split_warm",
        "rng = np.random.default_rng(0)",
        "users, items = np.nonzero(rng.random((30, 20)) < 0.3)",
        "counts = rng.integers(1, 9, users.size).astype(float)",
        "t = InteractionTriplets.create(users, items, counts, 30, 20)",
        "split_warm(filter_activity(t, 2, 2), 3, 0.2, seed=1)",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'",
    ])
    src = os.path.dirname(os.path.dirname(ncacf.data.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_leaves_scipy_unimported():
    """The library needs no scipy (only the benchmark reads its version):
    importing the CLI imports none of it."""
    code = "\n".join([
        "import sys",
        "import ncacf.cli",
        "assert 'scipy' not in sys.modules, 'scipy was imported'",
    ])
    src = os.path.dirname(os.path.dirname(ncacf.data.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def assert_same_plan(got, want):
    assert (got.mode, got.seed, got.num_folds, got.val_fraction) == \
        (want.mode, want.seed, want.num_folds, want.val_fraction)
    assert len(got.folds) == len(want.folds)
    for a, b in zip((got.validation, got.train_always) + got.folds,
                    (want.validation, want.train_always) + want.folds):
        assert a.dtype == b.dtype
        npt.assert_array_equal(a, b)


def unrepaired_plan(t, num_folds, val_fraction, seed):
    """The warm partition before any orphan repair."""
    validation, folds = _partition_units(t.num_entries, num_folds, val_fraction,
                                         rng_for(seed, "split.warm"))
    return SplitPlan("warm", seed, num_folds, val_fraction, validation, folds,
                     np.empty(0, dtype=np.int64))


WARM_INSTANCES = [(users, items, density, folds, val, seed)
                  for seed, (users, items, density) in enumerate(
                      [(20, 15, 0.2), (30, 40, 0.06), (50, 60, 0.05), (12, 9, 0.5),
                       (40, 30, 0.1), (80, 100, 0.03)])
                  for folds, val in ((2, 0.25), (5, 0.2), (3, 0.4), (7, 0.1))]


class TestWarmSplitOracles:
    def test_split_matches_per_item_oracle(self):
        repaired = 0
        for users, items, density, folds, val, seed in WARM_INSTANCES:
            t = random_triplets(users, items, density, seed=seed)
            got = split_warm(t, folds, val, seed=seed + 17)
            assert_same_plan(got, split_warm_per_item(t, folds, val, seed=seed + 17))
            sizes = np.bincount(t.items, minlength=t.num_items)
            repaired += got.train_always.size - int((sizes == 1).sum())
        assert len(WARM_INSTANCES) >= 20 and repaired > 0

    def test_scan_matches_set_oracle(self):
        found = 0
        for users, items, density, folds, val, seed in WARM_INSTANCES:
            t = random_triplets(users, items, density, seed=seed)
            sound = split_warm(t, folds, val, seed=seed)
            broken = [unrepaired_plan(t, folds, val, seed),
                      replace(sound, train_always=np.empty(0, dtype=np.int64)),
                      replace(sound, folds=tuple(f[: f.size // 2] for f in sound.folds))]
            assert scan_warm_orphans(sound, t) == scan_warm_orphans_sets(sound, t) == []
            for plan in broken:
                got = scan_warm_orphans(plan, t)
                assert got == scan_warm_orphans_sets(plan, t)
                found += len(got)
        assert found > 0

    def test_scan_rejects_cold_plans(self):
        with pytest.raises(ValueError):
            scan_warm_orphans(split_cold(10, 2, 0.2, seed=0), random_triplets(4, 10, 0.5, 0))


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

    @pytest.mark.parametrize("edit, where", [
        (("num_units = 33\n", ""), "num_units"),
        (("seed = 6", "seed = x"), "header value"),
        (("val_fraction = 0.2", "val_fraction = ?"), "header value"),
        (("[validation]\n", "[validation]\n0 x "), ":8:"),
    ], ids=["no-num-units", "bad-seed", "bad-val-fraction", "bad-unit"])
    def test_malformed_plan_is_parse_error(self, tmp_path, edit, where):
        path = tmp_path / "plan.txt"
        write_split_plan(path, split_cold(33, 4, 0.2, seed=6))
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1], 1))
        with pytest.raises(ParseError, match=where) as info:
            read_split_plan(path)
        assert str(path) in str(info.value)

    def test_bytes_stable_across_rewrites(self, tmp_path):
        plan = split_cold(33, 4, 0.2, seed=6)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_split_plan(a, plan)
        write_split_plan(b, plan)
        assert a.read_bytes() == b.read_bytes()


class TestStandardize:
    def test_two_point_case(self):
        table = np.array([[1.0], [3.0], [10.0]])
        out = standardize_features(table, [0, 1])
        means, variances = two_pass_stats(table[:2])
        npt.assert_allclose(out, (table - means) / np.sqrt(variances),
                            atol=1e-10)
        npt.assert_allclose(out[:2, 0], [-1.0, 1.0])
        npt.assert_allclose(out[2, 0], 8.0)  # non-training item transformed too

    def test_idempotent_on_standardized_columns(self):
        rng = np.random.default_rng(0)
        v = rng.normal(0, 1, (40, 3))
        v = (v - v.mean(axis=0)) / v.std(axis=0)
        out = standardize_features(v, np.arange(40))
        npt.assert_allclose(out, v, atol=1e-9)

    def test_stats_match_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        v = rng.normal(3, 2, (5, 4))
        out = standardize_features(v, np.arange(5))
        means, variances = two_pass_stats(v)
        npt.assert_allclose(out, (v - means) / np.sqrt(variances), atol=1e-10)

    def test_training_columns_centered(self):
        rng = np.random.default_rng(2)
        v = rng.normal(5, 3, (60, 6))
        train = np.arange(0, 60, 2)
        out = standardize_features(v, train)
        sub = out[train]
        assert np.max(np.abs(sub.mean(axis=0))) < 1e-6
        assert np.max(np.abs(sub.var(axis=0) - 1)) < 1e-3

    def test_constant_dimension_names_index(self):
        v = np.ones((4, 2))
        v[:, 0] = [1, 2, 3, 4]
        with pytest.raises(DataError, match="dimension 1"):
            standardize_features(v, np.arange(4))


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
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.planted.W, b.planted.W)

    def test_density_close_to_request(self):
        synth = generate_synthetic(200, 150, 8, 20, 0.1, 0.05, seed=3)
        got = synth.triplets.num_entries / (200 * 150)
        assert abs(got - 0.05) <= 0.2 * 0.05

    def test_features_predict_embeddings_when_noiseless(self):
        synth = generate_synthetic(10, 40, 3, 6, 0.0, 0.5, seed=4)
        pred = synth.planted.feature_map @ synth.features.T
        npt.assert_allclose(pred, synth.planted.H, atol=1e-12)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DataError):
            generate_synthetic(0, 5, 2, 3, 0.1, 0.5, seed=0)
        with pytest.raises(DataError):
            generate_synthetic(5, 5, 2, 3, 0.1, 0.0, seed=0)

    @pytest.mark.parametrize("tau", [1.0, 0.5, float("nan")])
    def test_tau_at_most_one_rejected(self, tau):
        """No positive integer count lies below such a tau."""
        with pytest.raises(DataError, match="tau must be > 1"):
            generate_synthetic(5, 5, 2, 3, 0.1, 0.5, seed=0, tau=tau)

    @pytest.mark.parametrize("tau", [7.5, 1.5, 2.0])
    def test_counts_are_integers_either_side_of_tau(self, tau):
        synth = generate_synthetic(60, 40, 4, 8, 0.1, 0.3, seed=42, tau=tau)
        counts = synth.triplets.counts
        assert np.array_equal(counts, np.floor(counts))
        positive = counts >= tau
        assert counts[positive].min() == np.ceil(tau)
        assert counts.min() == 1.0 and positive.any() and not positive.all()


class TestFeatureFileIO:
    def test_roundtrip(self, tmp_path):
        from ncacf.data import write_features
        rng = np.random.default_rng(5)
        vals = rng.normal(0, 1, (4, 3))
        write_features(tmp_path / "f.tsv", ["a", "b", "c", "d"], vals)
        labels, back = load_features(tmp_path / "f.tsv")
        assert labels == ["a", "b", "c", "d"]
        npt.assert_array_equal(back, vals)

    def test_no_rows_rejected(self, tmp_path):
        (tmp_path / "f.tsv").write_text("# item\tfeatures...\n\n")
        with pytest.raises(ParseError, match="no feature rows"):
            load_features(tmp_path / "f.tsv")

    def test_ragged_rejected(self, tmp_path):
        (tmp_path / "f.tsv").write_text("a\t1.0\t2.0\nb\t1.0\n")
        with pytest.raises(ParseError):
            load_features(tmp_path / "f.tsv")

    def test_item_listed_twice_names_both_lines(self, tmp_path):
        """A second row for an item would silently replace the first in
        align_features; it is a ParseError naming the file and both lines."""
        (tmp_path / "f.tsv").write_text("# item\tfeatures...\na\t1.0\nb\t2.0\na\t3.0\n")
        with pytest.raises(ParseError, match="already listed on line 2") as info:
            load_features(tmp_path / "f.tsv")
        assert f"{tmp_path / 'f.tsv'}:4:" in str(info.value)
        assert "'a'" in str(info.value)
