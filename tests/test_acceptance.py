"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Criterion 7 is a soft gate: trend misses emit a diagnostic report instead of
failing the suite.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from conftest import gradcheck_full_loss, record_solves
from oracles import (RankedList, als_update_h, als_update_w, ndcg_by_permutations,
                     ndcg_user, predict, random_ndcg_baseline, read_split_plan,
                     weighted_ridge_solve)
from ncacf import models, training
from ncacf.cli import main
from ncacf.data import (ConfidenceScheme, FoldMembership,
                        InteractionTriplets, SparsePlaycounts, generate_synthetic,
                        materialize_fold, scan_warm_orphans,
                        split_cold, standardize_features)
from ncacf.evaluation import evaluate
from ncacf.models import (Hyperparams, ModelVariant, init_model,
                          score_matrix)
from ncacf.numerics import Layer, MLPParams
from ncacf.training import owned_groups, read_report, train

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


def test_criterion_1_als_oracle_equivalence():
    """als_update_w/h vs brute-force normal equations, 200 random instances."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        k = int(rng.integers(1, 5))
        n_users = int(rng.integers(2, 9))
        n_items = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.05, 3.0))
        H = rng.normal(0, 1, (k, n_items))
        r_u = rng.integers(0, 2, n_items).astype(float)
        c_u = np.where(rng.random(n_items) < 0.5, 1.0, rng.uniform(1, 35, n_items))
        got = als_update_w(H, r_u, c_u, lam)
        want = weighted_ridge_solve(H, r_u, c_u, lam)
        worst = max(worst, np.linalg.norm(got - want) / (1 + np.linalg.norm(want)))

        W = rng.normal(0, 1, (k, n_users))
        r_i = rng.integers(0, 2, n_users).astype(float)
        c_i = np.where(rng.random(n_users) < 0.5, 1.0, rng.uniform(1, 35, n_users))
        prior = rng.normal(0, 1, k)
        got = als_update_h(W, r_i, c_i, lam, prior)
        want = weighted_ridge_solve(W, r_i, c_i, lam, prior=prior)
        worst = max(worst, np.linalg.norm(got - want) / (1 + np.linalg.norm(want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report_line(1, ok, f"worst relative error {worst:.2e} over 400 "
                              f"updates in {elapsed:.2f}s (limits 1e-9, 5s)")


def test_criterion_2_gradient_correctness():
    """Analytic gradients vs central differences for every loss variant."""
    from conftest import random_triplets
    t0 = time.perf_counter()
    t = random_triplets(3, 4, 0.6, seed=202)
    data = SparsePlaycounts.from_triplets(t)
    scheme = ConfidenceScheme()
    rng = np.random.default_rng(203)
    feats = rng.normal(0, 1, (4, 5))

    configs = [ModelVariant("mf_uni", "relaxed"),
               ModelVariant("mf_uni", "strict")]
    for coupling in ("relaxed", "strict"):
        for combination in ("multiplication", "concatenation"):
            for q in (0, 1, 2):
                configs.append(ModelVariant("ncacf", coupling, combination, q))
    checked_params = 0
    for idx, variant in enumerate(configs):
        model = init_model(variant, 3, 4, 3, 5, seed=300 + idx,
                           hidden_width=4, extractor_layers=2)
        owned = owned_groups(variant, with_interaction=True)
        checked_params += gradcheck_full_loss(
            model, data, scheme, feats, 0.3, 0.7, owned, h=1e-5,
            rtol=1e-4, atol=1e-7)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    assert report_line(2, ok, f"{checked_params} partial derivatives across "
                              f"{len(configs)} loss variants in {elapsed:.1f}s "
                              f"(tolerance 1e-4 relative, limit 60s)")


def test_criterion_3_reduction_identity():
    """GMF configuration (mult, Q=0, identity output, unit weights) == dot."""
    rng = np.random.default_rng(301)
    variant = ModelVariant("ncacf", "relaxed", "multiplication", 0)
    model = init_model(variant, 40, 25, 6, 3, seed=7, hidden_width=4,
                       extractor_layers=2)
    model.interaction.layers[-1].activation = "identity"
    W = rng.normal(0, 1, (6, 40))
    H = rng.normal(0, 1, (6, 25))
    model.W, model.H = W, H
    deep_scores = score_matrix(model, H)  # all 1000 (u, i) pairs
    dot_scores = W.T @ H
    worst = float(np.max(np.abs(deep_scores - dot_scores)))
    spot = abs(predict(model, 3, H[:, 4]) - float(W[:, 3] @ H[:, 4]))
    ok = worst <= 1e-12 and spot <= 1e-12
    assert report_line(3, ok, f"max |deep - dot| = {worst:.2e} over 1000 pairs "
                              f"(limit 1e-12)")


def test_criterion_4_block_coordinate_monotonicity():
    """Full-batch MF-Hybrid-Relaxed objective non-increasing over 20 outer
    iterations on a 50 x 40 synthetic instance."""
    t0 = time.perf_counter()
    synth = generate_synthetic(50, 40, 4, 8, noise=0.1, density=0.3, seed=11)
    data = SparsePlaycounts.from_triplets(synth.triplets)
    feats = standardize_features(synth.features, np.arange(40))
    hyper = Hyperparams(embed_dim=4, lambda_w=0.5, lambda_h=2.0, eta=1e-4,
                        n_iters=20, n_gd=1, hidden_width=16, extractor_layers=3,
                        batch_items=40)  # one batch: all 40 items
    report = train(ModelVariant("mf_hybrid", "relaxed"), data, feats, hyper, seed=1)
    obj = [row[2] for row in report.rows]
    worst = max((cur - prev) / abs(prev) for prev, cur in zip(obj, obj[1:]))
    elapsed = time.perf_counter() - t0
    ok = len(obj) == 20 and worst <= 1e-8 and elapsed < 30.0
    assert report_line(4, ok, f"worst relative uphill step {worst:.2e} across "
                              f"20 iterations in {elapsed:.1f}s "
                              f"(limits 1e-8, 30s)")


def _ranked_patterns_ndcg(patterns):
    """evaluate's NDCG@n for one user per relevance pattern of length n: every
    user ranks the n cold items in index order (score n - i for item i), and
    the pattern's 1s are the user's relevant items."""
    num_users, n = patterns.shape
    users, items = np.nonzero(patterns)
    t = InteractionTriplets.create(users, items, np.full(users.size, 9.0),
                                   num_users, n)
    model = init_model(ModelVariant("mf_uni", "relaxed"), num_users, n, 1, 1,
                       seed=0, hidden_width=1, extractor_layers=1)
    model.W = np.ones((1, num_users))
    model.extractor = MLPParams([Layer(np.eye(1), np.zeros(1), "identity")])
    feats = n - np.arange(n, dtype=np.float64)[:, None]
    membership = FoldMembership("cold", 0, np.empty(0, dtype=np.int64),
                                np.empty(0, dtype=np.int64), np.arange(n))
    result = evaluate(model, membership, "test", t, ConfidenceScheme(), feats, n)
    return [result.ndcg[u] for u in range(num_users)]


def test_criterion_5_ndcg_permutation_oracle():
    """ndcg_user and evaluate vs exhaustive permutation normalization, all
    lists <= 6."""
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for n in range(1, 7):
        patterns = [bits for bits in itertools.product([0, 1], repeat=n) if any(bits)]
        ranked_ndcg = _ranked_patterns_ndcg(np.array(patterns))
        for bits, blocked in zip(patterns, ranked_ndcg):
            items = np.arange(n)
            truth = {i for i in items if bits[i]}
            ranked = RankedList(0, items, np.zeros(n))
            got = ndcg_user(ranked, truth, top_k=n)
            want = ndcg_by_permutations(list(bits))
            worst = max(worst, abs(got - want), abs(blocked - want))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report_line(5, ok, f"{checked} relevance patterns (ndcg_user and "
                              f"evaluate), max deviation "
                              f"{worst:.2e} in {elapsed:.1f}s (limit 10s)")


# ---------------------------------------------------------------------------
# Shared synthetic cold-start benchmark for criteria 6 and 7.
# ---------------------------------------------------------------------------

BENCH_SEEDS = (1, 2, 3)

HYBRID_HYPER = Hyperparams(embed_dim=8, lambda_w=1.0, lambda_h=10.0, eta=1e-2,
                           batch_items=32, hidden_width=64, extractor_layers=3,
                           n_iters=20, n_gd=5, eval_every=1000)
NCACF_HYPER = Hyperparams(embed_dim=8, lambda_w=1.0, lambda_h=10.0, eta=2e-2,
                          batch_items=64, hidden_width=64, extractor_layers=3,
                          pretrain_epochs=100, finetune_epochs=80,
                          eval_every=1000)


@pytest.fixture(scope="module")
def cold_start_benchmark():
    """Train the four content-aware estimators on three planted datasets with
    20% of items held out cold; collect cold NDCG@10 and the random-ranking
    baseline."""
    t0 = time.perf_counter()
    scheme = ConfidenceScheme()
    rows = {}
    for seed in BENCH_SEEDS:
        synth = generate_synthetic(500, 400, 8, 20, noise=0.1, density=0.08,
                                   seed=seed)
        t = synth.triplets
        plan = split_cold(400, 10, 0.2, seed=seed)
        membership = materialize_fold(plan, None)  # every fold trains
        pool = membership.train
        data = SparsePlaycounts.from_triplets(t.subset(membership.train_entry_idx(t)))
        feats = standardize_features(synth.features, pool)

        cold_items = membership.validation
        keep = np.isin(t.items, cold_items)
        truth_sizes = {}
        for u, c in zip(t.users[keep], t.counts[keep]):
            if c >= scheme.tau:
                truth_sizes[u] = truth_sizes.get(u, 0) + 1
        base = random_ndcg_baseline(
            [cold_items.size] * len(truth_sizes),
            [truth_sizes[u] for u in sorted(truth_sizes)], 10)

        def cold_ndcg(model):
            return evaluate(model, membership, "validation", t, scheme,
                            feats, 10).mean

        def final_model(variant, hyper):
            return train(variant, data, feats, hyper, seed, item_pool=pool).model

        pretrained = {}

        def after_pretraining(state):
            # The last pretrain epoch's model, the dot product the tower
            # is then attached to.
            if (state.phase_idx, state.epoch_in_phase) == (0, NCACF_HYPER.pretrain_epochs):
                pretrained["ndcg"] = cold_ndcg(state.model)

        hyb = final_model(ModelVariant("mf_hybrid", "relaxed"), HYBRID_HYPER)
        hyb_s = final_model(ModelVariant("mf_hybrid", "strict"), HYBRID_HYPER)
        dcb = final_model(ModelVariant("dcb", "relaxed"), HYBRID_HYPER)
        nca = train(ModelVariant("ncacf", "relaxed", q_hidden=1), data, feats,
                    NCACF_HYPER, seed, item_pool=pool, on_epoch=after_pretraining)
        finetune = [objective for _, phase, objective, _, _ in nca.rows
                    if phase == "finetune"]
        rows[seed] = {
            "random": base,
            "mf_hybrid_relaxed": cold_ndcg(hyb),
            "mf_hybrid_strict": cold_ndcg(hyb_s),
            "dcb_relaxed": cold_ndcg(dcb),
            "ncacf_relaxed": cold_ndcg(nca.model),
            "ncacf_pretrained": pretrained["ndcg"],
            "finetune_objective": (finetune[0], finetune[-1]),
        }
    rows["elapsed"] = time.perf_counter() - t0
    return rows


def test_criterion_6_planted_cold_start_recovery(cold_start_benchmark):
    """NCACF-Relaxed and MF-Hybrid-Relaxed >= 3x the random baseline,
    averaged over three seeds."""
    rows = cold_start_benchmark
    base = np.mean([rows[s]["random"] for s in BENCH_SEEDS])
    hybrid = np.mean([rows[s]["mf_hybrid_relaxed"] for s in BENCH_SEEDS])
    ncacf = np.mean([rows[s]["ncacf_relaxed"] for s in BENCH_SEEDS])
    elapsed = rows["elapsed"]
    ok = hybrid >= 3.0 * base and ncacf >= 3.0 * base and elapsed < 300.0
    assert report_line(
        6, ok,
        f"cold NDCG@10 over 3 seeds: MF-Hybrid-Relaxed {hybrid:.4f} "
        f"({hybrid / base:.2f}x), NCACF-Relaxed {ncacf:.4f} "
        f"({ncacf / base:.2f}x) vs random {base:.4f}; "
        f"benchmark took {elapsed:.0f}s (limits 3x, 300s)")


def test_criterion_7_trend_reproduction_soft_gate(cold_start_benchmark):
    """Soft gate: joint >= two-stage and relaxed >= strict orderings in at
    least 2 of 3 seeds; misses produce a diagnostic, never a failure. Also
    reports, never enforces, whether fine-tuning ncacf's tower kept what
    pretraining learned: the pretrained dot product's cold NDCG beside the
    fine-tuned model's, and the fine-tune phase's first and last objective."""
    rows = cold_start_benchmark
    print("[criterion 7] ncacf fine-tuning (informational):")
    print("  seed  pretrained  fine-tuned  finetune objective first -> last")
    for s in BENCH_SEEDS:
        r = rows[s]
        first, last = r["finetune_objective"]
        print(f"  {s:4d}  {r['ncacf_pretrained']:10.4f}  {r['ncacf_relaxed']:10.4f}"
              f"  {first:.6g} -> {last:.6g}")
    joint_hits = sum(rows[s]["mf_hybrid_relaxed"] >= rows[s]["dcb_relaxed"]
                     for s in BENCH_SEEDS)
    relax_hits = sum(rows[s]["mf_hybrid_relaxed"] >= rows[s]["mf_hybrid_strict"]
                     for s in BENCH_SEEDS)
    ok = joint_hits >= 2 and relax_hits >= 2
    report_line(7, ok, f"joint>=two-stage in {joint_hits}/3 seeds, "
                       f"relaxed>=strict in {relax_hits}/3 seeds (soft gate)")
    if not ok:
        print("[criterion 7] diagnostic report (informational):")
        print("  seed  random  hybrid-rel  hybrid-str  dcb-rel  ncacf-rel")
        for s in BENCH_SEEDS:
            r = rows[s]
            print(f"  {s:4d}  {r['random']:.4f}  {r['mf_hybrid_relaxed']:10.4f}"
                  f"  {r['mf_hybrid_strict']:10.4f}  {r['dcb_relaxed']:7.4f}"
                  f"  {r['ncacf_relaxed']:9.4f}")
        print("  note: the planted features predict the item embeddings almost"
              " perfectly, so the strictly-coupled and two-stage estimators"
              " are not handicapped here the way weakly informative audio"
              " features handicap them; the orderings above are reported, not"
              " enforced.")


def _write_bench_config(tmp_path, mode, family, coupling, output, extra_hyper=""):
    text = f"""
[data]
triplets = {FIXTURES}/triplets_2k.tsv
features = {FIXTURES}/features_2k.tsv
prepared = {tmp_path}/prepared
min_user_songs = 2
min_item_users = 2

[variant]
family = {family}
coupling = {coupling}

[hyperparams]
embed_dim = 4
lambda_w = 0.5
lambda_h = 2.0
eta = 0.01
batch_items = 32
n_iters = 6
n_gd = 1
max_epochs = 6
pretrain_epochs = 2
finetune_epochs = 3
eval_every = 3
hidden_width = 8
extractor_layers = 2
{extra_hyper}

[split]
mode = {mode}
num_folds = 10
val_fraction = 0.2
fold = 0

[eval]
top_k = 10

[run]
seed = 11
output = {output}
"""
    path = tmp_path / f"{os.path.basename(output)}.ini"
    path.write_text(text)
    return str(path)


def test_criterion_8_threaded_determinism(tmp_path, monkeypatch):
    """Two training runs of one config give byte-identical checkpoints and
    report rows, for mf_hybrid and for a tower family. The ALS sweeps' row
    blocks and the tower's user sub-blocks run on two worker threads when the
    process may use two cores; their results are reduced in block order."""
    t0 = time.perf_counter()
    # 16 users to a sub-block of the 32-item, width-8 tower grid, so that
    # each batch of the ~120 users runs several.
    monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", 16 * 32 * 8)
    # A dozen or so rows (K = 4) to an ALS block, so that each sweep runs
    # several; at the default budget every sweep of the fixture is one block.
    monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", 12 * 4 * 16)
    stacks = record_solves(monkeypatch)
    identical = {}
    for family, extra in (("mf_hybrid", ""),
                          ("ncacf", "[variant]\ncombination = concatenation\n")):
        run = tmp_path / family
        cfg = _write_bench_config(tmp_path, "cold", family, "relaxed", str(run))
        with open(cfg, "a", encoding="utf-8") as fh:
            fh.write(extra)
        assert main(["prepare", "--config", cfg]) == 0
        runs = []
        for _ in range(2):
            assert main(["train", "--config", cfg]) == 0
            rows = [row[:4] for row in read_report(run / "report.tsv")]
            runs.append(((run / "last.ckpt").read_bytes(),
                         (run / "best.ckpt").read_bytes(), rows))
        identical[family] = runs[0] == runs[1]
    elapsed = time.perf_counter() - t0
    # mf_hybrid ran 2 x 6 x 2 sweeps (runs x n_iters x sides); ncacf runs none.
    ok = all(identical.values()) and len(stacks) >= 3 * 24 and elapsed < 120.0
    assert report_line(8, ok, f"rerun bit-identical (last.ckpt, best.ckpt, "
                              f"report rows): {identical}, {len(stacks)} ALS blocks "
                              f"in {elapsed:.0f}s (limit 120s)")


def test_criterion_9_protocol_fidelity(tmp_path):
    """cmd_prepare on the bundled ~2k-interaction fixture reproduces the
    bucket-count arithmetic and the warm orphan-repair property."""
    t0 = time.perf_counter()
    cfg = _write_bench_config(tmp_path, "cold", "wmf", "content_free",
                              str(tmp_path / "run_prep"))
    assert main(["prepare", "--config", cfg]) == 0
    prepared = tmp_path / "prepared"
    manifest = {}
    for line in (prepared / "manifest.txt").read_text().splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            manifest[key] = value
    songs = int(manifest["songs"])
    n_val = int(manifest["cold_validation_songs"])
    fold_sizes = [int(x) for x in manifest["cold_fold_sizes"].split()]
    arithmetic_ok = (
        n_val == math.ceil(0.2 * songs)
        and len(fold_sizes) == 10
        and sum(fold_sizes) == songs - n_val
        and max(fold_sizes) - min(fold_sizes) <= 1
    )

    from ncacf.data import load_triplets
    triplets = load_triplets(prepared / "triplets.tsv")
    warm_plan = read_split_plan(prepared / "split_warm.txt")
    orphans = scan_warm_orphans(warm_plan, triplets)
    elapsed = time.perf_counter() - t0
    ok = arithmetic_ok and orphans == [] and elapsed < 5.0
    assert report_line(
        9, ok,
        f"{songs} songs -> {n_val} validation (ceil(0.2*I)={math.ceil(0.2 * songs)}), "
        f"10 folds sizes {min(fold_sizes)}..{max(fold_sizes)}, "
        f"{len(orphans)} warm orphans, {elapsed:.1f}s (limit 5s)")
