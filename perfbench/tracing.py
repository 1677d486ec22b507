"""Span tracing of the library's layers, installed from outside the library.

`install` replaces selected public functions of `ncacf.data`, `training`,
`numerics`, `models` and `evaluation` with wrappers that record a span per
call (name, start, end, parent span) and a few work counters computed from
the call's arguments and result. The wrapper is bound in every loaded
`ncacf` module that holds the original function object, so a name imported
with `from .numerics import solve_spd` is traced as well as `T.full_loss`.

Nothing here may crash a run: a traced name the library no longer defines
is listed as absent, and a counter that cannot be computed from a changed
signature is listed in `counter_errors`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._ids = itertools.count()  # next() is atomic, unlike len + append
        self._local = threading.local()
        self._root = None

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1][0] if stack else self._root
        span = [next(self._ids), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        stack.append(span)
        if self._root is None:
            self._root = span[0]
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._local.stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [[s[0], -1 if s[1] is None else s[1],
                 names.setdefault(s[2], len(names)), s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows, "counts": self.counts,
                       "absent": self.absent,
                       "counter_errors": self.counter_errors}, fh)


# ---------------------------------------------------------------------------
# Counters computed from a call's arguments and result
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_nnz(rec, args, kwargs, result):
    rec.counts["data.nnz"] = max(rec.counts.get("data.nnz", 0.0),
                                 float(len(result.users)))


def _count_sparse(rec, args, kwargs, result):
    # args[0] is the class: the classmethod's function is wrapped.
    rec.add("data.train_nnz", len(_arg(args, kwargs, 1, "t").users))


def _pool_size(args, kwargs, model_index: int, pool_index: int):
    pool = _arg(args, kwargs, pool_index, "item_pool")
    if pool is None:
        return _arg(args, kwargs, model_index, "model").num_items
    return len(pool)


def _count_full_loss(rec, args, kwargs, result):
    users = _arg(args, kwargs, 1, "data").num_users
    rec.add("training.dense_pairs", users * _pool_size(args, kwargs, 0, 6))
    rec.add("training.passes", 1)


def _count_gd_wpe(rec, args, kwargs, result):
    users = _arg(args, kwargs, 1, "data").num_users
    schedule = _arg(args, kwargs, 8, "schedule")
    rec.add("training.dense_pairs", users * sum(len(b) for b in schedule.batches))
    rec.add("training.passes", 1)


def _mlp_kind(args, kwargs) -> str:
    """The tower ends in one output neuron; the extractor in K."""
    return "tower" if _arg(args, kwargs, 0, "params").out_dim == 1 else "extractor"


def _count_mlp_forward(rec, args, kwargs, result):
    if _mlp_kind(args, kwargs) == "tower":
        x = _arg(args, kwargs, 1, "x")
        rec.add("numerics.mlp_rows.tower", x.shape[0] if x.ndim == 2 else 1)


def _count_checkpoint(rec, args, kwargs, result):
    rec.add("models.checkpoint_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_rank(rec, args, kwargs, result):
    # The CLI masks only a user's training items, which are all candidates.
    candidates = _arg(args, kwargs, 3, "candidates")
    mask = _arg(args, kwargs, 2, "mask")
    n = len(candidates if candidates is not None else _arg(args, kwargs, 0, "scores"))
    n -= 0 if mask is None else len(mask)
    rec.add("evaluation.candidates_ranked", n)
    rec.add("evaluation.topk_total", min(n, _arg(args, kwargs, 1, "top_k")))


# (module, attribute, counter, label by kind): the functions the per-layer
# metrics read. A dotted attribute names a classmethod. Everything else runs
# untraced, so its time counts as the self time of the traced caller.
TARGETS = (
    ("data", "load_triplets", _count_nnz, False),
    ("data", "split_warm", None, False),
    ("data", "scan_warm_orphans", None, False),
    ("data", "SparsePlaycounts.from_triplets", _count_sparse, False),
    ("training", "als_sweep_users", None, False),
    ("training", "als_sweep_items", None, False),
    ("training", "full_loss", _count_full_loss, False),
    ("training", "gd_wpe", _count_gd_wpe, False),
    ("training", "gd_content_mse", None, False),
    ("numerics", "solve_spd", None, False),
    ("numerics", "mlp_forward", _count_mlp_forward, True),
    ("numerics", "mlp_backward", None, True),
    ("numerics", "adam_step", None, False),
    ("models", "combine_grid", None, False),
    ("models", "score_matrix", None, False),
    ("models", "save_model", _count_checkpoint, False),
    ("models", "load_model", None, False),
    ("evaluation", "evaluate", None, False),
    ("evaluation", "rank_items", _count_rank, False),
    ("evaluation", "ndcg_user", None, False),
)


def _wrap(rec: Recorder, name: str, fn, counter, by_kind: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name
        if by_kind:
            try:
                span_name = f"{name}.{_mlp_kind(args, kwargs)}"
            except Exception as exc:  # a changed signature must not stop the run
                rec.counter_errors.setdefault(name, repr(exc))
        span = rec.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if counter is not None:
            try:
                counter(rec, args, kwargs, result)
            except Exception as exc:  # a changed signature must not stop the run
                rec.counter_errors.setdefault(name, repr(exc))
        return result

    return traced


def install(rec: Recorder) -> None:
    """Wrap every target in every loaded `ncacf` module that binds it."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ncacf" or n.startswith("ncacf."))]
    for mod_name, attr, counter, by_kind in TARGETS:
        name = f"{mod_name}.{attr.split('.')[-1]}"
        holder = sys.modules.get(f"ncacf.{mod_name}")
        owner, _, member = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
        raw = vars(holder).get(member) if holder is not None else None
        if raw is None:
            rec.absent.append(name)
        elif isinstance(raw, classmethod):
            setattr(holder, member,
                    classmethod(_wrap(rec, name, raw.__func__, counter, by_kind)))
        else:
            traced = _wrap(rec, name, raw, counter, by_kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, traced)
