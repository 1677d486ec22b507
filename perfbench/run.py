"""End-to-end benchmark of `ncacf prepare -> train -> evaluate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark generates the workload's input
files from the seed (gen.py), then repeats the pipeline `prepare`, `train`,
`evaluate` while the next repetition fits in `--seconds`, counted from the
start of the run; the time left after the last repetition goes to further
`evaluate` calls. Each verb runs in its own child process (verb.py), one at
a time: a closed loop with one client. The clock of each verb starts after
its imports.

`--trace 0` reports the end-to-end metrics, medians over all verb calls.
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (tracing.py) plus the tracing overhead.
Every verb call and every output check is one operation; the last line of
standard output is the JSON summary. README.md in this directory lists the
workloads, the metrics and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170.0  # a run must end within 180 s
TOP_K = 10
FOLD = 0


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    users: int
    items: int
    per_user: int
    config: dict  # INI section -> {key: value}
    # Untraced repetitions run evaluate this many times, so that a short
    # evaluate gets samples enough for a steady median.
    eval_runs: int
    # test_ndcg must exceed (1 + ndcg_margin) times the expected NDCG of a
    # random ranking; set to about a third of the relative gap of clean runs.
    ndcg_margin: float

    @property
    def mode(self) -> str:
        return self.config["split"]["mode"]

    def budget_rows(self) -> int:
        hyper = self.config["hyperparams"]
        if "n_iters" in hyper:
            return hyper["n_iters"]
        return hyper["pretrain_epochs"] + hyper["finetune_epochs"]


def _config(variant: dict, hyper: dict, mode: str) -> dict:
    return {
        "data": {"triplets": "raw/triplets.tsv", "features": "raw/features.tsv",
                 "prepared": "prepared"},
        "variant": variant,
        "hyperparams": {"tau": 7.0, **hyper},
        "split": {"mode": mode, "fold": FOLD},
        "eval": {"setting": mode, "top_k": TOP_K},
        "run": {"seed": 42, "output": "run"},
    }


WORKLOADS = {
    "hybrid_cold": Workload(
        users=5000, items=2000, per_user=40,
        config=_config({"family": "mf_hybrid", "coupling": "relaxed"},
                       {"n_iters": 3, "eval_every": 3}, "cold"),
        eval_runs=2,
        ndcg_margin=0.6),
    "ncacf_cold": Workload(
        users=2000, items=800, per_user=40,
        config=_config({"family": "ncacf", "coupling": "relaxed",
                        "combination": "concatenation", "q_hidden": 2},
                       {"pretrain_epochs": 8, "finetune_epochs": 1,
                        "eval_every": 8}, "cold"),
        eval_runs=3,
        ndcg_margin=0.35),
    # Runnable by name, but not in BENCHMARK.json: on a shared 2-core host its
    # per-user ranking loop gave the widest run-to-run spread, and a third
    # workload would cut every run to 42 s. The self-test still runs it.
    "wmf_warm": Workload(
        users=3000, items=1200, per_user=40,
        config=_config({"family": "wmf", "coupling": "content_free"},
                       {"n_iters": 3, "eval_every": 1}, "warm"),
        eval_runs=1,
        ndcg_margin=2.0),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MiB",
    "test_ndcg": "ndcg",
}

# Self time (seconds) of each traced span, summed over the three verbs.
_SELF_TIME = (
    "data.load_triplets", "data.split_warm", "data.scan_warm_orphans",
    "training.als_sweep_users", "training.als_sweep_items", "training.full_loss",
    "training.gd_wpe", "training.gd_content_mse", "numerics.solve_spd",
    "numerics.mlp_forward.tower", "numerics.mlp_backward.tower",
    "numerics.mlp_forward.extractor", "numerics.mlp_backward.extractor",
    "numerics.adam_step", "models.combine_grid", "models.score_matrix",
    "models.save_model", "models.load_model", "evaluation.evaluate",
    "evaluation.rank_items", "evaluation.ndcg_user",
)
_CALLS = (
    "training.als_sweep_users", "training.full_loss", "numerics.solve_spd",
    "models.save_model", "evaluation.evaluate", "evaluation.rank_items",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in _SELF_TIME},
    "data.sparse_build_s": "s",
    **{f"{name}_calls": "count" for name in _CALLS},
    "data.nnz": "count",
    "training.dense_pairs": "count",
    "training.observed_share": "ratio",
    "numerics.mlp_rows.tower": "count",
    "models.checkpoint_bytes": "bytes",
    "evaluation.candidates_ranked": "count",
    "evaluation.topk_share": "ratio",
    "trace.overhead_train_s": "s",
}


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def write_ini(path: str, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, values in config.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def read_prepared(prepared: str):
    """Rows (user, item, count) of the prepared triplets, with users and
    items indexed in first-seen order as the library does; plus U and I."""
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    rows = []
    with open(os.path.join(prepared, "triplets.tsv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            u, i, c = line.rstrip("\n").split("\t")
            rows.append((users.setdefault(u, len(users)),
                         items.setdefault(i, len(items)), int(c)))
    return rows, len(users), len(items)


def read_plan(path: str) -> dict[str, list[int]]:
    sections: dict[str, list[int]] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], [])
            elif current is not None and line and not line.startswith("#"):
                current.extend(int(x) for x in line.split())
    return sections


def read_tsv_fields(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and "\t" in line:
                key, value = line.rstrip("\n").split("\t", 1)
                out.setdefault(key, value)
    return out


def read_manifest(path: str) -> dict[str, str]:
    """`key = value` lines of the prepared manifest; empty when missing."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)


def report_objectives(path: str) -> list[float]:
    with open(path, encoding="utf-8") as fh:
        return [float(line.split("\t")[2]) for line in fh
                if line.strip() and not line.startswith(("#", "epoch\t"))]


def test_truth(prepared: str, mode: str, tau: float):
    """Per test user: (relevant test items, candidate count), computed from
    the prepared files without the library."""
    rows, _, num_items = read_prepared(prepared)
    plan = read_plan(os.path.join(prepared, f"split_{mode}.txt"))
    test = set(plan[f"fold {FOLD}"])
    relevant: dict[int, set[int]] = {}
    if mode == "cold":
        for u, i, c in rows:
            if i in test and c >= tau:
                relevant.setdefault(u, set()).add(i)
        return {u: (rel, len(test)) for u, rel in relevant.items()}
    held_out = test | set(plan["validation"])
    trained: dict[int, int] = {}
    for e, (u, i, c) in enumerate(rows):
        if e in test and c >= tau:
            relevant.setdefault(u, set()).add(i)
        elif e not in held_out:
            trained[u] = trained.get(u, 0) + 1
    return {u: (rel, num_items - trained.get(u, 0)) for u, rel in relevant.items()}


def random_ndcg(truth: dict) -> float:
    """Expected NDCG@k of a uniformly random ranking, averaged over users:
    each of the first min(k, n) positions holds a relevant item with
    probability m / n."""
    disc = [1.0 / math.log2(j + 2) for j in range(TOP_K)]
    vals = [(len(rel) / n) * sum(disc[:min(TOP_K, n)]) / sum(disc[:min(len(rel), TOP_K)])
            for rel, n in truth.values()]
    return sum(vals) / len(vals)


# ---------------------------------------------------------------------------
# One pipeline repetition
# ---------------------------------------------------------------------------

@dataclass
class Context:
    workload: Workload
    work: str
    ini: str
    env: dict
    deadline: float
    ops: list = field(default_factory=list)  # (rep, name, ok, detail)
    truth: tuple = (None, None)  # (digest of the prepared files, test_truth)
    call_walls: dict = field(default_factory=dict)  # verb -> child wall times

    def op(self, rep: str, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((rep, name, bool(ok), detail))
        return bool(ok)


def run_verb(ctx: Context, tag: str, verb: str, extra: list[str],
             traced: bool) -> dict:
    logs = os.path.join(ctx.work, "logs")
    os.makedirs(logs, exist_ok=True)
    result_path = os.path.join(logs, f"{tag}-{verb}.json")
    spans_path = os.path.join(logs, f"{tag}-{verb}.spans.json") if traced else "-"
    cmd = [sys.executable, os.path.join(HERE, "verb.py"), result_path, spans_path,
           "--", verb, "--config", ctx.ini, *extra]
    timeout = max(1.0, ctx.deadline - time.monotonic())
    t_call = time.monotonic()
    with open(os.path.join(logs, f"{tag}-{verb}.log"), "w+", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, cwd=ctx.work, env=ctx.env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = None
        log.seek(0)
        tail = log.read()[-2000:]
    ctx.call_walls.setdefault(verb, []).append(time.monotonic() - t_call)
    out = {"rc": rc, "seconds": None, "peak_rss_kib": None, "spans": None}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            out.update(json.load(fh))
        expected = os.path.join(SRC, "ncacf")
        if os.path.dirname(os.path.abspath(out["module"])) != expected:
            raise SystemExit(f"verb imported {out['module']}, not the code under {SRC}")
    if traced and os.path.exists(spans_path):
        out["spans"] = spans_path
    ok = ctx.op(tag, f"{verb}_exit_0", rc == 0, f"rc={rc}")
    if not ok:
        print(f"[{tag}] {verb} failed (rc={rc}):\n{tail}", file=sys.stderr)
    return out


def cached_truth(ctx: Context) -> dict:
    """test_truth of the prepared files, parsed again only when they differ
    from the last repetition's (prepare is deterministic)."""
    prepared = os.path.join(ctx.work, "prepared")
    digest = hashlib.sha256()
    for name in ("triplets.tsv", f"split_{ctx.workload.mode}.txt"):
        with open(os.path.join(prepared, name), "rb") as fh:
            digest.update(fh.read())
    if ctx.truth[0] != digest.digest():
        ctx.truth = (digest.digest(), test_truth(prepared, ctx.workload.mode,
                                                 ctx.workload.config["hyperparams"]["tau"]))
    return ctx.truth[1]


def evaluate_checked(ctx: Context, result: dict, tag: str, traced: bool) -> None:
    """One `evaluate` of run/best.ckpt and the checks of its outputs; adds
    its time, peak RSS and test NDCG to `result`."""
    wl = ctx.workload
    run_dir = os.path.join(ctx.work, "run")
    call = run_verb(ctx, tag, "evaluate",
                    ["--checkpoint", os.path.join(run_dir, "best.ckpt")], traced)
    add_call(result, "evaluate", call)
    try:
        fields = read_tsv_fields(os.path.join(run_dir, f"eval_{wl.mode}_test.tsv"))
        ndcg = float(fields["mean_ndcg"])
        truth = cached_truth(ctx)
        ctx.op(tag, "eval_user_count", int(fields["num_users"]) == len(truth),
               f"evaluate {fields['num_users']}, expected {len(truth)}")
        ctx.op(tag, "ndcg_in_unit_range", 0.0 <= ndcg <= 1.0, f"{ndcg!r}")
        baseline = random_ndcg(truth)
        ctx.op(tag, "ndcg_above_random", ndcg >= baseline * (1.0 + wl.ndcg_margin),
               f"{ndcg:.4f} vs random {baseline:.4f} x (1 + {wl.ndcg_margin})")
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        ctx.op(tag, "eval_outputs", False, repr(exc))
        return
    result["test_ndcg"].append(ndcg)
    result["random_ndcg"] = baseline


def add_call(result: dict, verb: str, call: dict) -> None:
    result["seconds"].setdefault(verb, []).append(call["seconds"])
    if call["peak_rss_kib"] is not None:
        result["peak_rss_mb"] = max(result["peak_rss_mb"] or 0.0,
                                    call["peak_rss_kib"] / 1024.0)
    result["spans"].setdefault(verb, call["spans"])


def pipeline(ctx: Context, tag: str, traced: bool) -> dict:
    """prepare -> train -> evaluate from fresh output directories, with the
    output checks. Untraced, evaluate runs `eval_runs` times (it is
    deterministic, so a rerun rewrites the same files). Returns verb
    timings, peak RSS, test NDCG and spans."""
    for sub in ("prepared", "run"):
        shutil.rmtree(os.path.join(ctx.work, sub), ignore_errors=True)
    wl = ctx.workload
    result = {"seconds": {}, "peak_rss_mb": None, "test_ndcg": [], "random_ndcg": None,
              "spans": {}}
    for verb in ("prepare", "train"):
        add_call(result, verb, run_verb(ctx, f"{tag}.{verb}", verb, [], traced))

    report = os.path.join(ctx.work, "run", "report.tsv")
    try:
        objectives = report_objectives(report)
        ctx.op(tag, "report_rows",
               len(objectives) == wl.budget_rows()
               and all(math.isfinite(v) for v in objectives),
               f"{len(objectives)} rows, budget {wl.budget_rows()}")
    except (OSError, ValueError, IndexError) as exc:
        ctx.op(tag, "report_rows", False, repr(exc))

    for n in range(1 if traced else wl.eval_runs):
        evaluate_checked(ctx, result, f"{tag}.evaluate{n}", traced)
    return result


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

def self_times(path: str):
    """Per span name: (self seconds, calls); plus the root duration and the
    sum of all self times (equal when the span tree is well nested)."""
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
    names = dump["names"]
    spans = dump["spans"]
    children: dict[int, list] = {}
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    per_name: dict[str, list] = {}
    total_self = 0.0
    for sid, parent, name_idx, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = (end - start) - covered
        total_self += own
        acc = per_name.setdefault(names[name_idx], [0.0, 0])
        acc[0] += own
        acc[1] += 1
    root = next(s for s in spans if s[1] < 0)
    return per_name, root[4] - root[3], total_self, dump


def layer_metrics(spans: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pipeline, plus tree diagnostics."""
    per_name: dict[str, list] = {}
    counts: dict[str, dict] = {}
    diag = {"absent": set(), "counter_errors": {}, "roots": {}}
    for verb, path in spans.items():
        if path is None:
            continue
        names, root_s, self_sum, dump = self_times(path)
        for name, (secs, calls) in names.items():
            acc = per_name.setdefault(name, [0.0, 0])
            acc[0] += secs
            acc[1] += calls
        counts[verb] = dump["counts"]
        diag["absent"].update(dump["absent"])
        diag["counter_errors"].update(dump["counter_errors"])
        diag["roots"][verb] = {"root_s": root_s, "self_sum_s": self_sum}

    def total(key):
        return sum(c.get(key, 0.0) for c in counts.values())

    out = {}
    for metric in PER_LAYER:
        if metric.endswith("_calls"):
            out[metric] = per_name.get(metric[:-len("_calls")], [0.0, 0])[1]
        elif metric.endswith("_s") and metric[:-2] in _SELF_TIME:
            out[metric] = per_name.get(metric[:-2], [0.0, 0])[0]
    out["data.sparse_build_s"] = per_name.get("data.from_triplets", [0.0, 0])[0]
    out["data.nnz"] = max((c.get("data.nnz", 0.0) for c in counts.values()), default=0.0)
    out["training.dense_pairs"] = total("training.dense_pairs")
    train = counts.get("train", {})
    pairs = train.get("training.dense_pairs", 0.0)
    out["training.observed_share"] = (train.get("data.train_nnz", 0.0)
                                      * train.get("training.passes", 0.0) / pairs
                                      if pairs else 0.0)
    out["numerics.mlp_rows.tower"] = total("numerics.mlp_rows.tower")
    out["models.checkpoint_bytes"] = total("models.checkpoint_bytes")
    ranked = total("evaluation.candidates_ranked")
    out["evaluation.candidates_ranked"] = ranked
    out["evaluation.topk_share"] = total("evaluation.topk_total") / ranked if ranked else 0.0
    return out, diag


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def child_env() -> dict:
    """Environment of the verb processes. BLAS runs one thread, within the
    cap of nproc: with two threads on a shared 2-vCPU host, each small BLAS
    call hands work to a thread on the other vCPU, and how long that takes
    follows the host's load. Interleaved on one such host, ncacf_cold
    `evaluate` spread 0.47 (quartile distance over median, 20 calls) with
    two threads and 0.08 with one. `--threads` is left unset, so the
    library runs its own default of one thread too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = "1"
    env.pop("NCACF_OUTPUT_ROOT", None)
    return env


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        work: str) -> dict:
    """Generate the inputs, repeat the pipeline for `seconds`, and return the
    summary plus a details record."""
    import gen

    started = time.monotonic()
    env_info = environment()
    config = workload.config
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ini = os.path.join(work, "exp.ini")
    write_ini(ini, config)
    t0 = time.perf_counter()
    inputs = gen.generate(os.path.join(work, "raw"), workload.users, workload.items,
                          workload.per_user, num_features=20, k_true=8, seed=seed)
    gen_s = time.perf_counter() - t0

    ctx = Context(workload, work, ini, child_env(),
                  started + DEADLINE_S)
    plain, traced, rep_walls = [], [], []
    end = started + seconds

    def fits(wall: float) -> bool:
        now = time.monotonic()
        return now + wall <= end and now + 1.5 * wall < ctx.deadline

    rep = 0
    while rep == 0 or fits(median(rep_walls)):
        t_rep = time.monotonic()
        if trace:
            order = (False, True) if rep % 2 == 0 else (True, False)
            for with_spans in order:
                tag = f"rep{rep}-{'traced' if with_spans else 'plain'}"
                result = pipeline(ctx, tag, with_spans)
                if with_spans:
                    result["layers"], result["trace_tree"] = layer_metrics(result.pop("spans"))
                (traced if with_spans else plain).append(result)
        else:
            plain.append(pipeline(ctx, f"rep{rep}", False))
        rep_walls.append(time.monotonic() - t_rep)
        rep += 1
    extra = 0
    while not trace and fits(median(ctx.call_walls["evaluate"])):
        evaluate_checked(ctx, plain[-1], f"extra{extra}", False)
        extra += 1

    def verb_median(results, verb):
        return median(s for r in results for s in r["seconds"].get(verb, ()))

    if trace:
        metrics = {}
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_train_s":
                value = verb_median(traced, "train") - verb_median(plain, "train")
            else:
                value = median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
    else:
        values = {"setup_s": verb_median(plain, "prepare"),
                  "train_s": verb_median(plain, "train"),
                  "eval_s": verb_median(plain, "evaluate"),
                  "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
                  "test_ndcg": median(v for r in plain for v in r["test_ndcg"])}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        ctx.op("summary", "finite_metrics", False, "a metric has no value")
    failed = sum(1 for op in ctx.ops if not op[2])
    summary = {"correct": failed == 0, "attempted": len(ctx.ops), "failed": failed,
               "metrics": metrics}
    manifest = read_manifest(os.path.join(work, "prepared", "manifest.txt"))
    details = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": env_info,
        "inputs": {"users": inputs.num_users, "items": inputs.num_items,
                   "nnz": inputs.nnz, "positives": inputs.positives,
                   "generate_s": gen_s},
        "prepared": {k: manifest.get(k) for k in ("users", "songs", "interactions")},
        "repetitions": rep, "extra_evaluations": extra, "rep_wall_s": rep_walls,
        "plain": [{k: r[k] for k in ("seconds", "peak_rss_mb", "test_ndcg", "random_ndcg")}
                  for r in plain],
        "traced": [{"seconds": r["seconds"], "layers": r["layers"],
                    "trace_tree": {**r["trace_tree"],
                                   "absent": sorted(r["trace_tree"]["absent"])}}
                   for r in traced],
        "ops_total": len(ctx.ops), "ops_failed": failed,
        "failed_ops": [op for op in ctx.ops if not op[2]],
    }
    return {"summary": summary, "details": details}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running verb, and
    # lets main remove the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "ncacf", "cli.py")):
        print(f"no ncacf sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        out = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, default=str)
    details = out["details"]
    for key in ("workload", "seed", "inputs", "prepared", "environment",
                "repetitions", "extra_evaluations", "plain", "failed_ops"):
        print(f"{key}: {json.dumps(details[key], default=str)}")
    summary = out["summary"]
    print(f"ops_total={details['ops_total']} ops_failed={details['ops_failed']}")
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
