"""Interaction and content-feature data: ingestion, filtering, binarization,
confidence weighting, train/validation/test splitting, and a planted-model
synthetic generator.

File formats (UTF-8 text, tab-separated, `#` lines are comments):
  triplets:  user<TAB>item<TAB>count       one interaction per line
  features:  item<TAB>v1<TAB>...<TAB>vL    fixed L per file
  split plan: key = value header plus explicit membership sections (see
  write_split_plan); written for people and other tools, never parsed here.
A prepared dataset also gets a binary snapshot of its parsed triplets,
aligned features and both split plans (see write_snapshot): the one copy of
the prepared data that the verbs read, checked against the four text files.
Aligned features are a plain float64 (items x L) array, row i for item i.
The snapshot and checkpoints share one checked binary container, the record
file (see write_records). Every file a verb writes goes through replacing().
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .rng import rng_for

# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionTriplets:
    """Densely indexed (user, item, playcount) records.

    user_labels / item_labels keep the original identifiers so reports can
    refer back to the source data.
    """

    users: np.ndarray  # int64 (n,)
    items: np.ndarray  # int64 (n,)
    counts: np.ndarray  # float64 (n,), all > 0
    num_users: int
    num_items: int
    user_labels: tuple[str, ...]
    item_labels: tuple[str, ...]

    @property
    def num_entries(self) -> int:
        return self.users.shape[0]

    @classmethod
    def create(cls, users, items, counts, num_users, num_items,
               user_labels=None, item_labels=None) -> "InteractionTriplets":
        users = np.ascontiguousarray(users, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.float64)
        if not (users.shape == items.shape == counts.shape):
            raise DataError("triplet arrays must have equal lengths")
        if users.size:
            if users.min() < 0 or users.max() >= num_users:
                raise DataError("user index out of range")
            if items.min() < 0 or items.max() >= num_items:
                raise DataError("item index out of range")
            if counts.min() <= 0:
                raise DataError("playcounts must be positive")
            if _has_duplicates(users * num_items + items):
                raise DataError("duplicate (user, item) pair")
        if user_labels is None:
            user_labels = tuple(f"u{k}" for k in range(num_users))
        if item_labels is None:
            item_labels = tuple(f"i{k}" for k in range(num_items))
        return cls(users, items, counts, int(num_users), int(num_items),
                   tuple(user_labels), tuple(item_labels))

    def subset(self, idx: np.ndarray) -> "InteractionTriplets":
        """Same universe, restricted to the given entry indices."""
        idx = np.asarray(idx, dtype=np.int64)
        return InteractionTriplets(
            self.users[idx], self.items[idx], self.counts[idx],
            self.num_users, self.num_items, self.user_labels, self.item_labels)


def _has_duplicates(keys: np.ndarray) -> bool:
    keys = np.sort(keys)
    return bool((keys[1:] == keys[:-1]).any())


@dataclass(frozen=True)
class CompressedAxis:
    """Entries grouped by one axis (CSR by user, CSC by item).

    Segment k holds indices[indptr[k]:indptr[k + 1]] with the matching
    counts; indices ascend strictly within every segment.
    """

    indptr: np.ndarray  # int64 (n + 1,)
    indices: np.ndarray  # int64 (nnz,)
    counts: np.ndarray  # float64 (nnz,)

    @classmethod
    def build(cls, keys, values, counts, n: int) -> "CompressedAxis":
        """Group (key, value, count) entries into the n segments of their keys.

        The (key, value) pairs must be unique, as InteractionTriplets keeps
        them: then one argsort of key * m + value (m above every value)
        orders the entries by key, then value, exactly as a two-key lexsort
        would.
        """
        m = int(values.max()) + 1 if values.size else 1
        order = np.argsort(keys * m + values)
        indptr = np.searchsorted(keys[order], np.arange(n + 1))
        return cls(indptr, values[order], counts[order])

    def take(self, keys: np.ndarray):
        """Entries of the segments `keys`, concatenated in that order.

        Returns (indices, position of the entry's segment in keys, counts).
        """
        starts = self.indptr[keys]
        lengths = self.indptr[keys + 1] - starts
        pos = np.repeat(np.arange(keys.size), lengths)
        # Offset inside the segment = output position - the segment's first one.
        entry = starts[pos] + np.arange(pos.size) - (np.cumsum(lengths) - lengths)[pos]
        return self.indices[entry], pos, self.counts[entry]


@dataclass(frozen=True)
class SparsePlaycounts:
    """Row and column access to one triplet multiset.

    by_user is the CSR layout (segments are users, indices are items),
    by_item the CSC layout (segments are items, indices are users).
    Binarized playcounts and confidences derive from the counts; zero-count
    pairs are never stored (their confidence is the constant 1).
    """

    num_users: int
    num_items: int
    by_user: CompressedAxis
    by_item: CompressedAxis

    @classmethod
    def from_triplets(cls, t: InteractionTriplets) -> "SparsePlaycounts":
        by_user = CompressedAxis.build(t.users, t.items, t.counts, t.num_users)
        by_item = CompressedAxis.build(t.items, t.users, t.counts, t.num_items)
        return cls(t.num_users, t.num_items, by_user, by_item)


# ---------------------------------------------------------------------------
# Binarization and confidence
# ---------------------------------------------------------------------------

def binarize(playcount, tau: float):
    """1 where playcount >= tau, else 0. Works on scalars and arrays."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return np.where(np.asarray(playcount, dtype=np.float64) >= tau, 1.0, 0.0)


def confidence(playcount, alpha: float, epsilon: float):
    """1 + alpha * log(1 + playcount / epsilon), natural logarithm."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    p = np.asarray(playcount, dtype=np.float64)
    return 1.0 + alpha * np.log1p(p / epsilon)


@dataclass(frozen=True)
class ConfidenceScheme:
    """Threshold and confidence constants applied to raw playcounts."""

    tau: float = 7.0
    alpha: float = 2.0
    epsilon: float = 1e-6

    def r(self, counts):
        return binarize(counts, self.tau)

    def c(self, counts):
        return confidence(counts, self.alpha, self.epsilon)

    def als_terms(self, counts):
        """(c - 1, c * r): what a stored entry adds to its ALS system."""
        c = self.c(counts)
        return c - 1.0, c * self.r(counts)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

# A chunk of the triplet file is the whole lines holding about this many
# characters (the readlines hint). At 64 KiB a chunk's strings take a few
# hundred kilobytes, so loading stays below what one Python object per
# interaction would take, and the per-chunk overhead stays negligible.
_CHUNK_BYTES = 1 << 16


def load_triplets(path) -> InteractionTriplets:
    """Parse a triplet file; ids are densely re-indexed in first-seen order.

    The file is parsed a chunk of lines at a time with bulk string and array
    operations. A defective file raises ParseError naming its first
    defective line in file order: a line without exactly three fields, a
    count that is not a positive integer, or a (user, item) pair already
    seen on an earlier line.
    """
    user_index, item_index = _first_seen_index(), _first_seen_index()
    empty = np.empty(0, dtype=np.int64)
    users, items, counts, linenos = [empty], [empty], [np.empty(0)], [empty]
    defect = None
    lines_read = 0
    with open(path, "r", encoding="utf-8") as fh:
        while defect is None:
            lines = fh.readlines(_CHUNK_BYTES)
            if not lines:
                break
            raw_u, raw_i, chunk_counts, chunk_linenos, defect = \
                _parse_chunk(path, lines, lines_read + 1)
            lines_read += len(lines)
            users.append(np.fromiter(map(user_index.__getitem__, raw_u), np.int64, len(raw_u)))
            items.append(np.fromiter(map(item_index.__getitem__, raw_i), np.int64, len(raw_i)))
            counts.append(chunk_counts)
            linenos.append(chunk_linenos)
    users, items, counts, linenos = map(np.concatenate, (users, items, counts, linenos))
    user_labels, item_labels = tuple(user_index), tuple(item_index)
    # Every entry precedes the malformed line, so a duplicate comes first.
    keys = users * len(item_labels) + items
    if _has_duplicates(keys):
        # The first duplicate in file order is the second entry of a run of
        # equal keys in a stable sort.
        order = np.argsort(keys, kind="stable")
        repeats = np.flatnonzero(np.diff(keys[order]) == 0)
        k = repeats[np.argmin(order[repeats + 1])]
        later, first = order[k + 1], order[k]
        raise ParseError(
            f"{path}:{linenos[later]}: duplicate pair ({user_labels[users[later]]!r}, "
            f"{item_labels[items[later]]!r}), first seen on line {linenos[first]}")
    if defect is not None:
        raise defect
    return InteractionTriplets(users, items, counts, len(user_labels),
                               len(item_labels), user_labels, item_labels)


def _first_seen_index() -> defaultdict:
    """Label -> dense index; looking up a new label stores the next index."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__
    return index


def _parse_chunk(path, lines, first_lineno):
    """Fields of a chunk's data lines before its first malformed line.

    Returns (user labels, item labels, counts, line numbers, defect), where
    defect is the ParseError of the first malformed line, or None.
    """
    text = "".join(lines)
    # Comment and blank lines are rare: look for them line by line only when
    # the chunk's text shows one.
    if text.startswith(("#", "\n")) or "\n#" in text or "\n\n" in text:
        keep = [k for k, line in enumerate(lines) if line != "\n" and line[0] != "#"]
        lines = [lines[k] for k in keep]
        linenos = np.array(keep, dtype=np.int64) + first_lineno
        text = "".join(lines)
    else:
        linenos = np.arange(first_lineno, first_lineno + len(lines))
    n = len(lines)
    defect = None
    fields = _split_fields(text)
    # A "\n" field closes every line, so the lines have three fields each
    # exactly when one sits at every fourth place.
    if len(fields) != 4 * n + 1 or fields[3::4].count("\n") != n:
        n = next(k for k, line in enumerate(lines) if line.count("\t") != 2)
        defect = ParseError(f"{path}:{linenos[n]}: expected user<TAB>item<TAB>count")
        fields = _split_fields("".join(lines[:n]))
    raw_counts = fields[2::4]
    parsed = {raw: _int_or_none(raw) for raw in dict.fromkeys(raw_counts)}
    values = list(map(parsed.__getitem__, raw_counts))
    if None in parsed.values():
        n = values.index(None)
        defect = ParseError(
            f"{path}:{linenos[n]}: count {raw_counts[n]!r} is not an integer")
    counts = np.array(values[:n], dtype=np.float64)
    bad = np.flatnonzero(counts <= 0)
    if bad.size:
        n = int(bad[0])
        defect = ParseError(f"{path}:{linenos[n]}: count must be positive")
    return fields[0:4 * n:4], fields[1:4 * n:4], counts[:n], linenos[:n], defect


def _split_fields(text: str) -> list[str]:
    """The tab-separated fields of whole lines, each line's followed by "\n"."""
    if text and text[-1] != "\n":
        text += "\n"
    return text.replace("\n", "\t\n\t").split("\t")


def _int_or_none(raw: str):
    try:
        return int(raw)
    except ValueError:
        return None


def write_triplets(path, triplets: InteractionTriplets) -> None:
    """DataError, before any write, naming the first count not an integer."""
    values, inverse = np.unique(triplets.counts, return_inverse=True)
    fractional = values != np.floor(values)
    if fractional.any():
        k = int(np.flatnonzero(fractional[inverse])[0])
        raise DataError(f"{path}: count {float(triplets.counts[k])!r} of user "
                        f"{triplets.user_labels[triplets.users[k]]!r} and item "
                        f"{triplets.item_labels[triplets.items[k]]!r} is not an integer")
    n = triplets.num_entries
    # Every row's pieces in one flat list, joined once.
    pieces = ["\t"] * (6 * n)
    pieces[0::6] = _gather(triplets.user_labels, triplets.users)
    pieces[2::6] = _gather(triplets.item_labels, triplets.items)
    pieces[4::6] = _gather([str(int(v)) for v in values.tolist()], inverse)
    pieces[5::6] = ["\n"] * n
    write_text(path, "# user\titem\tcount\n" + "".join(pieces))


def _gather(strings, idx: np.ndarray) -> list[str]:
    """[strings[k] for k in idx] through an object array."""
    return np.array(strings, dtype=object)[idx].tolist()


def load_features(path):
    """Parse a feature file into (labels, I x L matrix). An item listed on
    two lines raises ParseError naming both."""
    first_line: dict[str, int] = {}
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected item<TAB>v1<TAB>...")
            if width is None:
                width = len(parts) - 1
            elif len(parts) - 1 != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} values, got {len(parts) - 1}")
            try:
                vec = [float(v) for v in parts[1:]]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric feature value")
            if first_line.setdefault(parts[0], lineno) != lineno:
                raise ParseError(f"{path}:{lineno}: item {parts[0]!r} already listed "
                                 f"on line {first_line[parts[0]]}")
            rows.append(vec)
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    return list(first_line), np.array(rows, dtype=np.float64)


def write_features(path, labels, values: np.ndarray) -> None:
    write_text(path, "# item\tfeatures...\n" + "".join(
        label + "\t" + "\t".join(map(repr, row.tolist())) + "\n"
        for label, row in zip(labels, values)))


def align_features(labels, values: np.ndarray, item_labels) -> np.ndarray:
    """Reorder raw feature rows to match the dataset's item indexing: the
    float64 (items x L) feature array that the models read."""
    index = {label: k for k, label in enumerate(labels)}
    rows = np.empty((len(item_labels), values.shape[1]), dtype=np.float64)
    for i, label in enumerate(item_labels):
        if label not in index:
            raise DataError(f"no feature vector for item {label!r}")
        rows[i] = values[index[label]]
    return rows


def standardize_features(features: np.ndarray, training_items) -> np.ndarray:
    """Center/scale every column using statistics of the training items only.

    Population variance; the transform is applied to all items so cold items
    are expressed in the training items' units.
    """
    training_items = np.asarray(training_items, dtype=np.int64)
    if training_items.size == 0:
        raise DataError("training item set is empty")
    sub = features[training_items]
    means = sub.mean(axis=0)
    stds = sub.std(axis=0)  # population (ddof=0)
    bad = np.flatnonzero(stds <= 0)
    if bad.size:
        raise DataError(f"feature dimension {int(bad[0])} is constant over training items")
    return (features - means) / stds


# ---------------------------------------------------------------------------
# Record files
#
# The one binary container, shared by the prepared snapshot and checkpoints.
# Layout: the fixed head _RECORD_HEAD (magic, u32 format version, u32 record
# count, u64 header length, u64 payload length, u32 CRC32 of the header and
# payload together), a sorted-key UTF-8 JSON header, then the payload: one
# np.save record per array.
# ---------------------------------------------------------------------------

_RECORD_HEAD = struct.Struct("<4sIIQQI")


@contextlib.contextmanager
def replacing(path):
    """Write to `<path>.tmp` in the same directory, fsync it, rename it onto
    path and fsync the directory. If the write fails or the process dies
    midway, path keeps its previous contents; a raising write removes the tmp."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    parent = os.open(os.path.dirname(tmp) or ".", os.O_RDONLY)
    try:
        os.fsync(parent)
    finally:
        os.close(parent)


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 through replacing()."""
    with replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_records(path, magic: bytes, version: int, header: dict, records) -> None:
    """Write `header` and the arrays `records`, in order, to path through
    replacing()."""
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    for record in records:
        # C order, so that the bytes depend on the values alone.
        np.save(buf, np.ascontiguousarray(record), allow_pickle=False)
    payload = buf.getbuffer()
    with replacing(path) as fh:
        fh.write(_RECORD_HEAD.pack(magic, version, len(records), len(raw_header),
                                   len(payload), zlib.crc32(payload, zlib.crc32(raw_header))))
        fh.write(raw_header)
        fh.write(payload)


def read_records(path, magic: bytes, version: int, what: str,
                 rerun: str) -> tuple[dict, list[np.ndarray], list[int]]:
    """(header, arrays, digest) of a file write_records wrote; digest is the
    file's [byte length, CRC32 of the header and payload], as its head
    records and this read verified them. A file that cannot be opened,
    another magic or version, a cut, an extension or a changed byte raises
    DataError naming the path and `what` the file is, and saying to rerun
    `rerun`, the command that writes it."""
    def fail(problem: str) -> DataError:
        return DataError(f"{path}: {problem}; rerun {rerun}")

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise fail(f"cannot open {what} ({exc.strerror})") from exc
    if raw[:4] != magic:
        raise fail(f"not a {what} (magic {raw[:4]!r})")
    got = int.from_bytes(raw[4:8], "little")
    if len(raw) >= 8 and got != version:
        raise fail(f"{what} format version {got} is no longer read")
    if len(raw) < _RECORD_HEAD.size:
        raise fail(f"{what} truncated in its head")
    _, _, count, header_len, payload_len, crc = _RECORD_HEAD.unpack_from(raw)
    if len(raw) != _RECORD_HEAD.size + header_len + payload_len:
        raise fail(f"{what} is {len(raw)} bytes, its head records "
                   f"{_RECORD_HEAD.size + header_len + payload_len}")
    if zlib.crc32(memoryview(raw)[_RECORD_HEAD.size:]) != crc:
        raise fail(f"{what} fails its CRC32 check")
    # BytesIO shares the bytes it is given; a memoryview it would copy.
    buf = io.BytesIO(raw)
    buf.seek(_RECORD_HEAD.size)
    try:
        header = json.loads(buf.read(header_len).decode("utf-8"))
        records = [np.lib.format.read_array(buf, allow_pickle=False) for _ in range(count)]
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, a bad record
        raise fail(f"{what} does not parse ({exc})") from exc
    if buf.tell() != len(raw) or not isinstance(header, dict):
        raise fail(f"{what} does not hold {count} records under a header")
    return header, records, [len(raw), crc]


# ---------------------------------------------------------------------------
# Prepared-data snapshot
#
# A record file with a binary copy of what `prepare` wrote as text: the
# triplets, the aligned features and both split plans. Its header holds the
# byte length and CRC32 of each text file under the key the caller names it
# by (null for a feature file that was not prepared), and each plan's
# [mode, seed, num_folds, val_fraction]; its records are users, items and
# counts, the UTF-8 user and item labels (each followed by "\n"), the
# aligned feature matrix when there is one, then each plan's validation,
# train_always and fold 0 .. num_folds - 1 units.
# ---------------------------------------------------------------------------

_SNAP_MAGIC = b"NCPS"
_SNAP_VERSION = 3


def _file_digest(path) -> list[int] | None:
    """[byte length, CRC32] of a file; None when it does not exist."""
    if not os.path.exists(path):
        return None
    size, crc = 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
    return [size, crc]


def _label_bytes(labels) -> np.ndarray:
    return np.frombuffer("".join(label + "\n" for label in labels).encode("utf-8"),
                         dtype=np.uint8)


def _byte_labels(raw: np.ndarray) -> tuple[str, ...]:
    return tuple(raw.tobytes().decode("utf-8").split("\n")[:-1])


def write_snapshot(path, triplets: InteractionTriplets, features: np.ndarray | None,
                   plans: tuple[SplitPlan, ...], text_paths: dict[str, str]) -> None:
    """Snapshot the triplets, the features (aligned to their items) and the
    split plans just written to the text files text_paths, a mapping whose
    "features" key names the feature file; features None records that no
    feature file was prepared."""
    records = [triplets.users, triplets.items, triplets.counts,
               _label_bytes(triplets.user_labels), _label_bytes(triplets.item_labels)]
    if features is not None:
        records.append(features)
    for plan in plans:
        records += [plan.validation, plan.train_always, *plan.folds]
    header = {key: _file_digest(text_path) for key, text_path in text_paths.items()}
    if features is None:
        header["features"] = None
    header["plans"] = [[plan.mode, plan.seed, plan.num_folds, plan.val_fraction]
                       for plan in plans]
    write_records(path, _SNAP_MAGIC, _SNAP_VERSION, header, records)


def read_snapshot(path, text_paths: dict[str, str]):
    """(triplets, aligned features or None, split plans by mode, digest) from
    a snapshot; the digest (read_records) identifies this snapshot, and so
    this prepared data, in the checkpoints trained on it. A snapshot that
    read_records rejects, or text files that are not those it was written
    with (edited, removed or added since), raise DataError naming the path
    and saying to rerun `ncacf prepare`."""
    rerun = "`ncacf prepare`"
    header, records, digest = read_records(path, _SNAP_MAGIC, _SNAP_VERSION,
                                           "prepared snapshot", rerun)
    for key, text_path in text_paths.items():
        if header.get(key) != _file_digest(text_path):
            raise DataError(f"{path}: {text_path} is not the file `ncacf prepare` "
                            f"wrote with this snapshot; rerun {rerun}")
    has_features = header["features"] is not None
    want = 5 + has_features + sum(2 + num_folds for _, _, num_folds, _ in header["plans"])
    if len(records) != want:
        raise DataError(f"{path}: prepared snapshot holds {len(records)} records, "
                        f"not {want}; rerun {rerun}")
    users, items, counts, user_raw, item_raw = records[:5]
    user_labels, item_labels = _byte_labels(user_raw), _byte_labels(item_raw)
    features = records[5] if has_features else None
    plans, at = {}, 5 + has_features
    for mode, seed, num_folds, val_fraction in header["plans"]:
        validation, train_always, *folds = records[at:at + 2 + num_folds]
        plans[mode] = SplitPlan(mode, seed, num_folds, val_fraction, validation,
                                tuple(folds), train_always)
        at += 2 + num_folds
    return (InteractionTriplets(users, items, counts, len(user_labels), len(item_labels),
                                user_labels, item_labels), features, plans, digest)


# ---------------------------------------------------------------------------
# Activity filtering
# ---------------------------------------------------------------------------

def filter_activity(triplets: InteractionTriplets, min_user_songs: int,
                    min_item_users: int) -> InteractionTriplets:
    """Drop inactive users/items, iterating to a fixpoint, then renumber the
    survivors densely in the order of their first entries (reindex_first_seen).

    A user survives with >= min_user_songs surviving items; an item survives
    with >= min_item_users surviving users. Counted on raw playcounts.
    """
    if min_user_songs < 1 or min_item_users < 1:
        raise ValueError("activity thresholds must be >= 1")
    keep = np.ones(triplets.num_entries, dtype=bool)
    while True:
        u_deg = np.bincount(triplets.users[keep], minlength=triplets.num_users)
        i_deg = np.bincount(triplets.items[keep], minlength=triplets.num_items)
        drop = (u_deg[triplets.users] < min_user_songs) | \
               (i_deg[triplets.items] < min_item_users)
        drop &= keep
        if not drop.any():
            break
        keep &= ~drop
    if not keep.any():
        raise DataError("activity filtering removed every interaction")
    return reindex_first_seen(triplets.subset(np.flatnonzero(keep)))


def reindex_first_seen(triplets: InteractionTriplets) -> InteractionTriplets:
    """The same entries with users and items numbered in the order of their
    first entries: the indexing load_triplets gives the file that
    write_triplets makes of them. Ids without entries are dropped."""
    users, user_labels = _first_seen_ids(triplets.users, triplets.user_labels)
    items, item_labels = _first_seen_ids(triplets.items, triplets.item_labels)
    return InteractionTriplets(users, items, triplets.counts, len(user_labels),
                               len(item_labels), user_labels, item_labels)


def _first_seen_ids(ids: np.ndarray, labels):
    """(ids renumbered by first occurrence, the labels in the new order)."""
    first = np.full(len(labels), ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    present = np.flatnonzero(first < ids.size)
    old = present[np.argsort(first[present])]  # the old id of each new one
    new = np.empty(len(labels), dtype=np.int64)
    new[old] = np.arange(old.size)
    return new[ids], tuple(labels[k] for k in old.tolist())


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    """Partition of split units (items in cold mode, triplet indices in warm
    mode) into a validation set and num_folds cross-validation folds.

    Warm mode adds train_always: triplets pinned to the training side under
    every fold rotation (single-interaction items and orphan repairs).
    """

    mode: str  # "cold" | "warm"
    seed: int
    num_folds: int
    val_fraction: float
    validation: np.ndarray
    folds: tuple[np.ndarray, ...]
    train_always: np.ndarray

    @property
    def num_units(self) -> int:
        return int(self.validation.size + self.train_always.size
                   + sum(f.size for f in self.folds))


def _partition_units(num_units: int, num_folds: int, val_fraction: float,
                     rng: np.random.Generator):
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must lie in (0, 1)")
    if num_folds < 1:
        raise ValueError("num_folds must be >= 1")
    n_val = math.ceil(val_fraction * num_units)
    remaining = num_units - n_val
    if remaining < num_folds:
        raise DataError(
            f"cannot split {num_units} units into {n_val} validation units "
            f"plus {num_folds} non-empty folds")
    perm = rng.permutation(num_units)
    validation = np.sort(perm[:n_val])
    rest = perm[n_val:]
    base = remaining // num_folds
    extra = remaining % num_folds
    folds = []
    start = 0
    for k in range(num_folds):
        size = base + (1 if k < extra else 0)
        folds.append(np.sort(rest[start:start + size]))
        start += size
    return validation, tuple(folds)


def split_cold(num_items: int, num_folds: int, val_fraction: float, seed: int) -> SplitPlan:
    """Item-level split: ceil(val_fraction * I) validation items, the rest in
    near-equal folds (sizes differ by at most one)."""
    rng = rng_for(seed, "split.cold")
    validation, folds = _partition_units(num_items, num_folds, val_fraction, rng)
    return SplitPlan("cold", seed, num_folds, val_fraction, validation, folds,
                     np.empty(0, dtype=np.int64))


def split_warm(triplets: InteractionTriplets, num_folds: int, val_fraction: float,
               seed: int) -> SplitPlan:
    """Triplet-level split with orphan repair.

    After the random partition, a repair pass guarantees that under every
    fold rotation each item appearing in an evaluation bucket (validation or
    the held-out fold) keeps at least one training triplet. Items whose
    triplets would not cover two distinct folds get one triplet moved to the
    train_always pool; an item with a single triplet is dropped from
    evaluation entirely (its triplet is pinned to training).
    """
    rng = rng_for(seed, "split.warm")
    validation, folds = _partition_units(triplets.num_entries, num_folds,
                                         val_fraction, rng)
    fold_of = np.full(triplets.num_entries, -2, dtype=np.int64)
    in_val = np.zeros(triplets.num_entries, dtype=bool)
    in_val[validation] = True
    for k, fold in enumerate(folds):
        fold_of[fold] = k

    items = triplets.items
    sizes = np.bincount(items, minlength=triplets.num_items)
    # Distinct folds covering each item, from its non-validation triplets.
    keys = items[~in_val] * num_folds + fold_of[~in_val]
    per_fold = np.bincount(keys, minlength=triplets.num_items * num_folds)
    covered = np.count_nonzero(per_fold.reshape(triplets.num_items, num_folds), axis=1)
    always = (sizes == 1)[items]
    in_val &= ~always
    repair = np.flatnonzero((sizes >= 2) & (covered < 2))
    if repair.size:
        # The draws run in ascending item order, one per repaired item.
        order = np.argsort(items, kind="stable")
        starts = np.cumsum(sizes) - sizes
        for i in repair.tolist():
            idx = order[starts[i]:starts[i] + sizes[i]]
            # Prefer pulling a validation triplet so fold sizes stay balanced.
            val_members = idx[in_val[idx]]
            pool = val_members if val_members.size else idx
            pick = int(pool[rng.integers(pool.size)])
            always[pick] = True
            in_val[pick] = False

    always_idx = np.flatnonzero(always)
    validation = np.flatnonzero(in_val)
    new_folds = tuple(fold[~always[fold]] for fold in folds)
    return SplitPlan("warm", seed, num_folds, val_fraction, validation,
                     new_folds, always_idx)


def scan_warm_orphans(plan: SplitPlan, triplets: InteractionTriplets) -> list[tuple[int, int]]:
    """Check of the warm orphan invariant from per-item triplet counts.

    Returns (fold, item) pairs where an item appears in an evaluation bucket
    of that fold rotation without any training triplet. Empty means the plan
    is sound.
    """
    if plan.mode != "warm":
        raise ValueError("orphan scan applies to warm plans")

    def per_item(units):
        return np.bincount(triplets.items[units], minlength=triplets.num_items)

    in_folds = [per_item(fold) for fold in plan.folds]
    in_train = per_item(plan.train_always) + sum(in_folds)
    in_val = per_item(plan.validation)
    violations = []
    # Rotation k trains on all but fold k: an evaluated item is an orphan
    # there when fold k holds all of its non-validation triplets.
    for k, in_fold in enumerate(in_folds):
        orphans = np.flatnonzero((in_val + in_fold > 0) & (in_train == in_fold))
        violations.extend((k, item) for item in orphans.tolist())
    return violations


@dataclass(frozen=True)
class FoldMembership:
    """One materialized rotation of a SplitPlan.

    fold may be None (no held-out test bucket: all folds train). Cold mode
    carries item sets; warm mode carries triplet-index sets.
    """

    mode: str
    fold: int | None
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def train_entry_idx(self, triplets: InteractionTriplets) -> np.ndarray:
        """Indices of training triplets in the base triplet array."""
        if self.mode == "warm":
            return self.train
        mask = np.zeros(triplets.num_items, dtype=bool)
        mask[self.train] = True
        return np.flatnonzero(mask[triplets.items])

    def bucket_units(self, bucket: str) -> np.ndarray:
        if bucket == "validation":
            return self.validation
        if bucket == "test":
            return self.test
        raise ValueError(f"unknown bucket {bucket!r}")


def materialize_fold(plan: SplitPlan, fold: int | None) -> FoldMembership:
    """Instantiate a rotation: test = the given fold, train = the others."""
    if fold is not None and not (0 <= fold < plan.num_folds):
        raise ValueError(f"fold {fold} out of range")
    parts = [plan.train_always]
    parts.extend(f for k, f in enumerate(plan.folds) if k != fold)
    train = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    test = plan.folds[fold] if fold is not None else np.empty(0, dtype=np.int64)
    return FoldMembership(plan.mode, fold, train, plan.validation.copy(), test.copy())


def write_split_plan(path, plan: SplitPlan) -> None:
    """Text manifest; warm-mode units are row indices into the triplet file
    this plan was built from."""
    lines = ["# split plan; units are item ids (cold) or triplet row indices (warm)\n",
             f"mode = {plan.mode}\n",
             f"seed = {plan.seed}\n",
             f"num_folds = {plan.num_folds}\n",
             f"val_fraction = {plan.val_fraction!r}\n",
             f"num_units = {plan.num_units}\n",
             "[validation]\n", _units_line(plan.validation)]
    for k, fold in enumerate(plan.folds):
        lines += [f"[fold {k}]\n", _units_line(fold)]
    lines += ["[train_always]\n", _units_line(plan.train_always)]
    write_text(path, "".join(lines))


def _units_line(units: np.ndarray) -> str:
    return " ".join(map(str, units.tolist())) + "\n"


# ---------------------------------------------------------------------------
# Synthetic planted-model generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantedModel:
    """Ground-truth parameters behind a synthetic dataset."""

    W: np.ndarray  # (K, U)
    H: np.ndarray  # (K, I)
    feature_map: np.ndarray  # (K, L); H ~= feature_map @ features.T
    affinity_median: float


@dataclass(frozen=True)
class SyntheticData:
    triplets: InteractionTriplets
    features: np.ndarray  # (I, L)
    planted: PlantedModel


def generate_synthetic(num_users: int, num_items: int, k_true: int, num_features: int,
                       noise: float, density: float, seed: int,
                       tau: float = 7.0) -> SyntheticData:
    """Draw a dataset from a planted low-rank model with feature-predictable
    item embeddings.

    A pair's observation probability grows exponentially with its planted
    affinity (normalized so the expected density matches `density`), the way
    listening data concentrates on liked items. An observed pair whose
    (noisy) affinity exceeds the median affinity gets an integer playcount
    at or above `tau` (> 1); other observed pairs get one below it. The
    binarized matrix is therefore a noisy indicator of above-median affinity
    among observed pairs, exact when noise=0.
    """
    if min(num_users, num_items, k_true, num_features) < 1:
        raise DataError("synthetic dimensions must be positive")
    if not (0.0 < density <= 1.0):
        raise DataError("density must lie in (0, 1]")
    if noise < 0:
        raise DataError("noise must be >= 0")
    if not tau > 1.0:
        raise DataError(f"tau must be > 1, got {tau!r}: no positive count lies below it")
    rng = rng_for(seed, "synthetic")
    W = rng.normal(0.0, 1.0, size=(k_true, num_users)) / math.sqrt(k_true)
    X = rng.normal(0.0, 1.0, size=(num_items, num_features))
    M = rng.normal(0.0, 1.0, size=(k_true, num_features)) / math.sqrt(num_features)
    H = M @ X.T + noise * rng.normal(0.0, 1.0, size=(k_true, num_items))
    affinity = W.T @ H  # (U, I)
    med = float(np.median(affinity))

    z = (affinity - affinity.mean()) / max(affinity.std(), 1e-12)
    weight = np.exp(z)
    p_obs = np.minimum(1.0, density * weight / weight.mean())
    observed = rng.random(size=(num_users, num_items)) < p_obs
    decision = affinity + noise * rng.normal(0.0, 1.0, size=affinity.shape)
    positive = decision >= med

    upos, ipos = np.nonzero(observed & positive)
    uneg, ineg = np.nonzero(observed & ~positive)
    # Integer counts: positives from ceil(tau) up, negatives from 1 below it.
    lowest = math.ceil(tau)
    cpos = lowest + rng.geometric(0.5, size=upos.size) - 1.0
    cneg = rng.integers(1, lowest, size=uneg.size).astype(np.float64)
    users = np.concatenate([upos, uneg])
    items = np.concatenate([ipos, ineg])
    counts = np.concatenate([cpos, cneg])
    order = np.lexsort((items, users))
    triplets = InteractionTriplets.create(
        users[order], items[order], counts[order], num_users, num_items)
    return SyntheticData(
        triplets=triplets,
        features=X,
        planted=PlantedModel(W=W, H=H, feature_map=M, affinity_median=med),
    )
