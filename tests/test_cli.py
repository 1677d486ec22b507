import os
import pathlib
import re
import zlib

import numpy as np
import pytest

from conftest import edited_checkpoint, half_writing, pinned_cores, record_solves
from oracles import read_split_plan
from ncacf.cli import PreparedData, main
from ncacf import config, data, models, numerics, training
from ncacf.config import ExperimentConfig, load_config, write_config
from ncacf.data import align_features, load_features, load_triplets, read_snapshot
from ncacf.errors import DataError, TrainingDivergedError
from ncacf.models import Hyperparams, load_model

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


BASE_CFG = """
[data]
triplets = raw/triplets.tsv
features = raw/features.tsv
prepared = prepared
min_user_songs = 1
min_item_users = 1

[variant]
family = {family}
coupling = {coupling}

[hyperparams]
embed_dim = 4
lambda_w = 0.1
lambda_h = 1.0
eta = 0.001
batch_items = 16
n_iters = 3
n_gd = 1
max_epochs = 4
pretrain_epochs = 2
finetune_epochs = 3
eval_every = 2
hidden_width = 8
extractor_layers = 2

[split]
mode = {mode}
num_folds = 4
val_fraction = 0.2
fold = 0

[eval]
top_k = 5

[synth]
num_users = 30
num_items = 24
k_true = 3
num_features = 6
noise = 0.1
density = 0.35

[run]
seed = 7
output = {output}
"""


UNKNOWN_INTERACTION = "unknown key 'interaction' in section [variant]"


def write_cfg(tmp_path, name="cfg.ini", family="wmf", coupling="content_free",
              mode="warm", output="run", extra=None):
    text = BASE_CFG.format(family=family, coupling=coupling, mode=mode,
                           output=output)
    if extra:
        text += extra
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_fixture_cfg(tmp_path, triplets=os.path.join(FIXTURES, "triplets_2k.tsv")):
    """A cold mf_uni config over the bundled ~2k-interaction fixture (or
    other triplets with its items), dropping users and items seen once."""
    text = BASE_CFG.format(family="mf_uni", coupling="relaxed", mode="cold",
                           output="run")
    for old, new in (("raw/triplets.tsv", str(triplets)),
                     ("raw/features.tsv", os.path.join(FIXTURES, "features_2k.tsv")),
                     ("min_user_songs = 1", "min_user_songs = 2"),
                     ("min_item_users = 1", "min_item_users = 2")):
        text = text.replace(old, new)
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["prepare", "--config", cfg]) == 0
    return tmp_path


def record_ranked_buckets(monkeypatch):
    """A list that receives the bucket of every evaluation.evaluate call the
    CLI makes from now on."""
    import ncacf.cli as cli
    evaluate, buckets = cli.E.evaluate, []

    def recording(model, membership, bucket, *args):
        buckets.append(bucket)
        return evaluate(model, membership, bucket, *args)

    monkeypatch.setattr(cli.E, "evaluate", recording)
    return buckets


def cut_last_report_row(path) -> int:
    """Cut the last row of the report at path in its last field, as a crash
    mid-write would; returns that row's line number."""
    lines = pathlib.Path(path).read_text().splitlines(keepends=True)
    last = lines[-1]
    pathlib.Path(path).write_text("".join(lines[:-1]) + last[:last.rindex("\t")])
    return len(lines)


def drop_checkpoint_line(text: bytes) -> bytes:
    """An eval file's bytes without its checkpoint line, which names the
    checkpoint scored."""
    return re.sub(rb"\ncheckpoint\t.*\n", b"\n", text)


def tree_bytes(root) -> dict:
    """Every file under root, by relative path, with its bytes."""
    root = pathlib.Path(root)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynth:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        t = load_triplets(tmp_path / "raw" / "triplets.tsv")
        assert t.num_users <= 30 and t.num_items <= 24
        assert os.path.exists(tmp_path / "raw" / "triplets.tsv.planted.npz")
        planted = np.load(tmp_path / "raw" / "triplets.tsv.planted.npz")
        assert planted["W"].shape == (3, 30)

    def test_writes_the_counts_it_drew(self, tmp_path):
        """With a tau between integers, the written file holds the
        generator's counts, every positive at or above tau."""
        cfg = write_cfg(tmp_path, extra="\n[hyperparams]\ntau = 7.5\n")
        assert main(["synth", "--config", cfg]) == 0
        written = load_triplets(tmp_path / "raw" / "triplets.tsv").counts
        drawn = data.generate_synthetic(30, 24, 3, 6, 0.1, 0.35, 7, tau=7.5).triplets
        assert np.array_equal(written, drawn.counts)
        assert (written >= 7.5).sum() == (written >= 8).sum() > 0

    def test_seed_changes_data(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", cfg])
        a = (tmp_path / "raw" / "triplets.tsv").read_bytes()
        main(["synth", "--config", cfg, "--seed", "8"])
        b = (tmp_path / "raw" / "triplets.tsv").read_bytes()
        assert a != b


class TestPrepare:
    def test_rerun_bit_identical(self, workspace):
        cfg = str(workspace / "cfg.ini")
        files = ["manifest.txt", "triplets.tsv", "features.tsv",
                 "split_cold.txt", "split_warm.txt", "snapshot.bin"]
        first = {f: (workspace / "prepared" / f).read_bytes() for f in files}
        assert main(["prepare", "--config", cfg]) == 0
        for f in files:
            assert (workspace / "prepared" / f).read_bytes() == first[f], f

    def test_manifest_bucket_table(self, workspace):
        text = (workspace / "prepared" / "manifest.txt").read_text()
        assert "warm_orphan_violations = 0" in text
        rows = [l.split("\t") for l in text.splitlines()
                if l.startswith(("warm\t", "cold\t", "total\t"))]
        total = next(r for r in rows if r[0] == "total")
        warm_train = next(r for r in rows if r[:2] == ["warm", "train"])
        warm_val = next(r for r in rows if r[:2] == ["warm", "validation"])
        warm_test = next(r for r in rows if r[:2] == ["warm", "test"])
        assert (int(warm_train[4]) + int(warm_val[4]) + int(warm_test[4])
                == int(total[4]))
        cold_rows = [r for r in rows if r[0] == "cold"]
        assert sum(int(r[3]) for r in cold_rows) == int(total[3])

    def test_manifest_and_features_match_what_verbs_read(self, tmp_path):
        # Thirty users with one interaction each, on items in reverse order,
        # come first: filtering drops them, and with them the lines on which
        # those items were first seen.
        fixture = (pathlib.Path(FIXTURES) / "triplets_2k.tsv").read_text()
        solo = "".join(f"solo{k}\ti{29 - k}\t3\n" for k in range(30))
        (tmp_path / "triplets.tsv").write_text(solo + fixture)
        cfg = write_fixture_cfg(tmp_path, tmp_path / "triplets.tsv")
        assert main(["prepare", "--config", cfg]) == 0
        prep = PreparedData(load_config(cfg))
        text = (tmp_path / "prepared" / "manifest.txt").read_text()
        for bucket in ("train", "validation", "test"):
            row = next(l.split("\t") for l in text.splitlines()
                       if l.startswith(f"cold\t{bucket}\t"))
            items = prep.membership.bucket_units(bucket) if bucket != "train" \
                else prep.membership.train
            assert int(row[4]) == np.isin(prep.triplets.items, items).sum(), bucket
        labels, values = load_features(tmp_path / "prepared" / "features.tsv")
        assert tuple(labels) == prep.triplets.item_labels
        assert np.array_equal(values, prep.features)

    def test_prepare_without_features_removes_stale_feature_files(self, workspace,
                                                                   monkeypatch):
        cfg = workspace / "cfg.ini"
        cfg.write_text(cfg.read_text().replace("features = raw/features.tsv",
                                               "features = none"))
        assert main(["prepare", "--config", str(cfg)]) == 0
        for name in ("features.tsv", "features_std.tsv"):
            assert not (workspace / "prepared" / name).exists(), name
        import ncacf.data

        def refuse(*args, **kwargs):
            raise AssertionError("the prepared text files were parsed")

        monkeypatch.setattr(ncacf.data, "load_triplets", refuse)
        assert PreparedData(load_config(str(cfg))).features is None

    def test_missing_feature_names_item(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", cfg])
        feat_path = tmp_path / "raw" / "features.tsv"
        lines = feat_path.read_text().splitlines()
        # Drop one item's feature row; prepare must name it.
        feat_path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        assert main(["prepare", "--config", cfg]) == 3


class TestStoredValidation:
    """best.ckpt holds the validation result of the epoch that made its model
    the best; evaluate reads it back in place of ranking that bucket."""

    def test_evaluate_ranks_only_the_test_bucket(self, workspace, monkeypatch):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        buckets = record_ranked_buckets(monkeypatch)
        assert main(["evaluate", "--config", cfg,
                     "--checkpoint", str(workspace / "run" / "best.ckpt")]) == 0
        assert buckets == ["test"]

    @pytest.mark.parametrize("train_extra, eval_extra, name", [
        (None, "\n[eval]\ntop_k = 3\n", "best.ckpt"),
        (None, "\n[hyperparams]\ntau = 9.0\n", "best.ckpt"),
        (None, None, "last.ckpt"),
        ("\n[hyperparams]\nn_iters = 0\n", None, "best.ckpt")])
    def test_other_inputs_rank_the_validation_bucket(self, workspace, monkeypatch,
                                                     train_extra, eval_extra, name):
        """Another top_k or tau, last.ckpt, and the best.ckpt of a run that
        validated nothing."""
        train = write_cfg(workspace, name="train.ini", extra=train_extra)
        assert main(["train", "--config", train]) == 0
        buckets = record_ranked_buckets(monkeypatch)
        assert main(["evaluate", "--config", write_cfg(workspace, extra=eval_extra),
                     "--checkpoint", str(workspace / "run" / name)]) == 0
        assert buckets == ["validation", "test"]

    def test_resume_without_a_new_best_keeps_the_stored_result(self, workspace,
                                                                monkeypatch):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        best, last = workspace / "run" / "best.ckpt", workspace / "run" / "last.ckpt"
        before = best.read_bytes()
        with edited_checkpoint(last) as (_, header):
            header["best"]["best_val"] = 2.0  # above any NDCG
        more = write_cfg(workspace, name="more.ini",
                         extra="\n[hyperparams]\nn_iters = 5\n")
        assert main(["train", "--config", more, "--resume", str(last)]) == 0
        assert best.read_bytes() == before
        buckets = record_ranked_buckets(monkeypatch)
        assert main(["evaluate", "--config", more, "--checkpoint", str(best)]) == 0
        assert buckets == ["test"]


class TestTrainEvaluate:
    def test_wmf_warm_end_to_end(self, workspace):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        assert (run / "last.ckpt").exists()
        assert (run / "best.ckpt").exists()
        assert (run / "report.tsv").exists()
        assert main(["evaluate", "--config", cfg,
                     "--checkpoint", str(run / "best.ckpt")]) == 0
        assert (run / "eval_warm_test.tsv").exists()
        assert (run / "eval_warm_validation.tsv").exists()

    def test_evaluate_idempotent(self, workspace):
        cfg = str(workspace / "cfg.ini")
        main(["train", "--config", cfg])
        ckpt = str(workspace / "run" / "best.ckpt")
        main(["evaluate", "--config", cfg, "--checkpoint", ckpt])
        first = (workspace / "run" / "eval_warm_test.tsv").read_bytes()
        main(["evaluate", "--config", cfg, "--checkpoint", ckpt])
        assert (workspace / "run" / "eval_warm_test.tsv").read_bytes() == first

    def test_evaluate_builds_no_training_matrix(self, workspace, monkeypatch):
        import ncacf.cli as cli
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate built the training matrix")

        monkeypatch.setattr(cli.D.SparsePlaycounts, "from_triplets", refuse)
        assert main(["evaluate", "--config", cfg,
                     "--checkpoint", str(workspace / "run" / "best.ckpt")]) == 0

    def test_wmf_needs_no_features(self, tmp_path):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", cfg])
        cfg = write_cfg(tmp_path, extra="\n[data]\nfeatures = none\n")
        main(["prepare", "--config", cfg])
        assert not (tmp_path / "prepared" / "features.tsv").exists()
        assert main(["train", "--config", cfg]) == 0

    @pytest.mark.parametrize("family", ["wmf", "ncf"])
    def test_content_free_variant_ignores_a_constant_feature(self, workspace, family):
        """A feature column constant over the items stops the variants that
        read features, and only those."""
        feats = workspace / "raw" / "features.tsv"
        lines = feats.read_text().splitlines(keepends=True)
        feats.write_text(lines[0] + "".join(line.rsplit("\t", 1)[0] + "\t1.0\n"
                                            for line in lines[1:]))
        cfg = write_cfg(workspace, name="cf.ini", family=family)
        assert main(["prepare", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        assert main(["evaluate", "--config", cfg,
                     "--checkpoint", str(workspace / "run" / "best.ckpt")]) == 0
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed")
        assert main(["train", "--config", uni]) == 3

    def test_wmf_zero_iterations(self, workspace, capsys):
        cfg = workspace / "cfg.ini"
        cfg.write_text(cfg.read_text().replace("n_iters = 3", "n_iters = 0"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert "no training epochs run" in capsys.readouterr().out
        assert (workspace / "run" / "last.ckpt").exists()
        assert (workspace / "run" / "best.ckpt").exists()

    def test_ncacf_cold_end_to_end(self, tmp_path):
        cfg = write_cfg(tmp_path, family="ncacf", coupling="relaxed", mode="cold",
                        extra="\ncombination = multiplication\nq_hidden = 1\n"
                              .replace("\ncombination",
                                       "\n[variant]\ncombination"))
        main(["synth", "--config", cfg])
        main(["prepare", "--config", cfg])
        assert main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "run" / "best.ckpt")
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
        assert (tmp_path / "run" / "eval_cold_test.tsv").exists()

    @pytest.mark.parametrize("family, coupling, mode",
                             [("wmf", "content_free", "warm"),
                              ("mf_uni", "relaxed", "cold"),
                              ("ncacf", "relaxed", "cold")])
    def test_eval_files_match_per_user_oracle(self, tmp_path, monkeypatch, family,
                                              coupling, mode):
        """evaluate's files, num_excluded and pool_size_total included, are
        the bytes that the per-user ranking oracle gives the same command,
        but for the checkpoint line, which names the checkpoint scored."""
        import ncacf.cli as cli
        from oracles import evaluate_per_user
        cfg = write_cfg(tmp_path, family=family, coupling=coupling, mode=mode,
                        extra="\n[variant]\ncombination = concatenation\nq_hidden = 2\n"
                              if family == "ncacf" else None)
        assert main(["synth", "--config", cfg]) == 0
        assert main(["prepare", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        ckpt = str(tmp_path / "run" / "best.ckpt")
        names = [f"eval_{mode}_validation.tsv", f"eval_{mode}_test.tsv"]
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
        got = {name: (tmp_path / "run" / name).read_bytes() for name in names}
        # A copy without the validation result that train stored, so that the
        # oracle ranks the validation bucket too.
        copy = str(tmp_path / "copy.ckpt")
        with edited_checkpoint(ckpt, copy):
            pass
        monkeypatch.setattr(cli.E, "evaluate", evaluate_per_user)
        assert main(["evaluate", "--config", cfg, "--checkpoint", copy,
                     "--output", str(tmp_path / "oracle")]) == 0
        for name in names:
            oracle = (tmp_path / "oracle" / name).read_bytes()
            for text, path in ((got[name], ckpt), (oracle, copy)):
                assert f"\ncheckpoint\t{load_model(path)[4]}\n".encode() in text
            assert drop_checkpoint_line(got[name]) == drop_checkpoint_line(oracle), name
        assert b"pool_size_total" in got[names[1]]

    def test_summary_counts_users_ranked_by_item_index(self, tmp_path, monkeypatch,
                                                       capsys):
        """Users whose W column is zero score every cold candidate the same;
        evaluate's summary line counts them as the per-user oracle does."""
        import ncacf.cli as cli
        from oracles import evaluate_per_user
        cfg = write_cfg(tmp_path, family="mf_uni", coupling="relaxed", mode="cold")
        for verb in ("synth", "prepare", "train"):
            assert main([verb, "--config", cfg]) == 0
        ckpt = str(tmp_path / "tied.ckpt")
        with edited_checkpoint(tmp_path / "run" / "best.ckpt", ckpt) as (model, _):
            model.W[:, :4] = 0.0
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 0
        got = capsys.readouterr().out
        monkeypatch.setattr(cli.E, "evaluate", evaluate_per_user)
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt,
                     "--output", str(tmp_path / "oracle")]) == 0
        assert got == capsys.readouterr().out
        counts = [int(n) for n in re.findall(r"(\d+) ranked by item index alone", got)]
        assert len(counts) == 2 and max(counts) > 0

    def test_non_finite_checkpoint_scores_exit_4(self, workspace, capsys):
        """One NaN in W, in the column of a user whom only the test bucket
        ranks: exit 4, and not even the validation file is written."""
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        ckpt = workspace / "run" / "best.ckpt"
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 0

        def ranked_users(bucket):
            text = (workspace / "run" / f"eval_warm_{bucket}.tsv").read_text()
            return {int(line.split("\t")[0])
                    for line in text.split("# user\tndcg\n")[1].splitlines()}

        user = min(ranked_users("test") - ranked_users("validation"))
        path = workspace / "nan.ckpt"
        with edited_checkpoint(ckpt, path) as (model, _):
            model.W[0, user] = np.nan
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path),
                     "--output", str(workspace / "nan_eval")]) == 4
        assert "not finite" in capsys.readouterr().err
        assert not list((workspace / "nan_eval").glob("eval_*"))

    def test_trained_rerun_bit_identical(self, workspace):
        cfg = str(workspace / "cfg.ini")
        main(["train", "--config", cfg])
        first = {name: (workspace / "run" / name).read_bytes()
                 for name in ("last.ckpt", "best.ckpt")}
        main(["train", "--config", cfg])
        for name, raw in first.items():
            assert (workspace / "run" / name).read_bytes() == raw, name

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_full = write_cfg(tmp_path, name="full.ini", family="mf_uni",
                             coupling="relaxed", output="run_full")
        main(["synth", "--config", cfg_full])
        main(["prepare", "--config", cfg_full])
        assert main(["train", "--config", cfg_full]) == 0

        # Same run, but stopped after 2 epochs and resumed to the full budget.
        short = write_cfg(tmp_path, name="short.ini", family="mf_uni",
                          coupling="relaxed", output="run_resumed")
        short_text = (tmp_path / "short.ini").read_text()
        (tmp_path / "short.ini").write_text(
            short_text.replace("max_epochs = 4", "max_epochs = 2"))
        assert main(["train", "--config", str(tmp_path / "short.ini")]) == 0
        resumed = write_cfg(tmp_path, name="resume.ini", family="mf_uni",
                            coupling="relaxed", output="run_resumed")
        assert main(["train", "--config", resumed,
                     "--resume", str(tmp_path / "run_resumed" / "last.ckpt")]) == 0
        a = (tmp_path / "run_full" / "last.ckpt").read_bytes()
        b = (tmp_path / "run_resumed" / "last.ckpt").read_bytes()
        assert a == b

    def test_ncacf_resumes_from_pretrained(self, tmp_path):
        uni = write_cfg(tmp_path, name="uni.ini", family="mf_uni",
                        coupling="relaxed", output="run_uni")
        main(["synth", "--config", uni])
        main(["prepare", "--config", uni])
        assert main(["train", "--config", uni]) == 0
        deep = write_cfg(tmp_path, name="deep.ini", family="ncacf",
                         coupling="relaxed", output="run_deep")
        assert main(["train", "--config", deep, "--pretrained",
                     str(tmp_path / "run_uni" / "best.ckpt")]) == 0
        model, header, _, _, _ = load_model(tmp_path / "run_deep" / "last.ckpt")
        assert model.interaction is not None
        from ncacf.training import read_report
        phases = {row[1] for row in
                  read_report(tmp_path / "run_deep" / "report.tsv")}
        assert phases == {"finetune"}


    def test_dcb_rerun_replaces_checkpoints(self, workspace):
        cfg = write_cfg(workspace, name="dcb.ini", family="dcb", coupling="relaxed",
                        mode="cold", extra="\n[hyperparams]\nn_gd = 3\neval_every = 1\n")
        run = workspace / "run"
        assert main(["train", "--config", cfg]) == 0
        first = {f: (run / f).read_bytes() for f in ("last.ckpt", "best.ckpt")}
        assert main(["train", "--config", cfg, "--seed", "99"]) == 0
        for f, old in first.items():
            assert (run / f).read_bytes() != old, f
        # best.ckpt is the best-validation model the report names.
        best_val = next(float(line.split(" = ")[1]) for line in
                        (run / "report.tsv").read_text().splitlines()
                        if line.startswith("# best_val = "))
        assert main(["evaluate", "--config", cfg, "--seed", "99",
                     "--checkpoint", str(run / "best.ckpt")]) == 0
        mean = next(float(line.split("\t")[1]) for line in
                    (run / "eval_cold_validation.tsv").read_text().splitlines()
                    if line.startswith("mean_ndcg\t"))
        assert mean == pytest.approx(best_val, rel=1e-12)

    def test_ncacf_resume_across_phase_boundary(self, workspace):
        full = write_cfg(workspace, name="full.ini", family="ncacf",
                         coupling="relaxed", output="run_full")
        assert main(["train", "--config", full]) == 0
        short = write_cfg(workspace, name="short.ini", family="ncacf",
                          coupling="relaxed", output="run_resumed",
                          extra="\n[hyperparams]\nfinetune_epochs = 0\n")
        assert main(["train", "--config", short]) == 0
        resumed = write_cfg(workspace, name="resume.ini", family="ncacf",
                            coupling="relaxed", output="run_resumed")
        assert main(["train", "--config", resumed, "--resume",
                     str(workspace / "run_resumed" / "last.ckpt")]) == 0
        a, b = workspace / "run_full", workspace / "run_resumed"
        assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
        from ncacf.training import read_report
        rows_a = [r[:4] for r in read_report(a / "report.tsv")]
        rows_b = [r[:4] for r in read_report(b / "report.tsv")]
        assert rows_a == rows_b
        assert [r[1] for r in rows_a] == ["pretrain"] * 2 + ["finetune"] * 3

    def test_eval_every_zero_validates_last_epoch_only(self, workspace):
        cfg = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed",
                        extra="\n[hyperparams]\neval_every = 0\n")
        assert main(["train", "--config", cfg]) == 0
        from ncacf.training import read_report
        rows = read_report(workspace / "run" / "report.tsv")
        assert len(rows) == 4
        assert [r[0] for r in rows if r[3] is not None] == [3]

    def test_als_resume_matches_uninterrupted(self, workspace):
        full = write_cfg(workspace, name="full.ini", family="mf_hybrid",
                         coupling="relaxed", output="run_full")
        assert main(["train", "--config", full]) == 0
        short = write_cfg(workspace, name="short.ini", family="mf_hybrid",
                          coupling="relaxed", output="run_resumed",
                          extra="\n[hyperparams]\nn_iters = 2\n")
        assert main(["train", "--config", short]) == 0
        resumed = write_cfg(workspace, name="resume.ini", family="mf_hybrid",
                            coupling="relaxed", output="run_resumed")
        assert main(["train", "--config", resumed, "--resume",
                     str(workspace / "run_resumed" / "last.ckpt")]) == 0
        a, b = workspace / "run_full", workspace / "run_resumed"
        assert (a / "last.ckpt").read_bytes() == (b / "last.ckpt").read_bytes()
        from ncacf.training import read_report
        rows_a = [r[:4] for r in read_report(a / "report.tsv")]
        rows_b = [r[:4] for r in read_report(b / "report.tsv")]
        assert rows_a == rows_b and len(rows_a) == 3

    @pytest.mark.parametrize("family, coupling, mode", [
        ("wmf", "content_free", "warm"), ("mf_hybrid", "relaxed", "warm"),
        ("mf_uni", "relaxed", "warm"), ("dcb", "relaxed", "cold"),
        ("ncacf", "relaxed", "warm")])
    def test_every_family_checkpoints_one_position(self, workspace, family, coupling,
                                                   mode):
        cfg = write_cfg(workspace, name="pos.ini", family=family, coupling=coupling,
                        mode=mode)
        assert main(["train", "--config", cfg]) == 0
        progress = load_model(workspace / "run" / "last.ckpt")[1]["progress"]
        assert set(progress) == {"phase_idx", "epoch_in_phase", "global_epoch"}
        from ncacf.training import read_report
        assert progress["global_epoch"] == len(
            read_report(workspace / "run" / "report.tsv"))

    @pytest.mark.parametrize("family, coupling, mode, stop_after", [
        ("dcb", "relaxed", "cold", 5), ("dcb", "strict", "cold", 7),
        ("mf_hybrid", "relaxed", "warm", 2), ("mf_uni", "relaxed", "warm", 2),
        ("ncacf", "relaxed", "warm", 3)])
    def test_interrupted_run_resumes_to_uninterrupted_checkpoints(
            self, workspace, monkeypatch, family, coupling, mode, stop_after):
        """A run stopped by an exception after `stop_after` epochs holds the
        report rows of those epochs; resumed from its last.ckpt, it ends with
        the checkpoints and report rows of a run that was never stopped."""
        import ncacf.cli as cli
        from ncacf.training import read_report

        extra = "\n[hyperparams]\nn_gd = 2\neval_every = 1\n"
        full = write_cfg(workspace, name="full.ini", family=family, coupling=coupling,
                         mode=mode, output="run_full", extra=extra)
        assert main(["train", "--config", full]) == 0
        cut = write_cfg(workspace, name="cut.ini", family=family, coupling=coupling,
                        mode=mode, output="run_cut", extra=extra)

        class Stop(Exception):
            pass

        real_train = cli.T.train

        def stopping_train(*args):
            on_epoch = args[-1]

            def stop(state):
                on_epoch(state)
                if state.global_epoch == stop_after:
                    raise Stop

            return real_train(*args[:-1], stop)

        monkeypatch.setattr(cli.T, "train", stopping_train)
        with pytest.raises(Stop):
            main(["train", "--config", cut])
        monkeypatch.undo()
        a, b = workspace / "run_full", workspace / "run_cut"
        uninterrupted = [r[:4] for r in read_report(a / "report.tsv")]
        assert [r[:4] for r in read_report(b / "report.tsv")] == uninterrupted[:stop_after]
        progress = load_model(b / "last.ckpt")[1]["progress"]
        assert progress["global_epoch"] == stop_after
        assert progress["phase_idx"] == (1 if family in ("dcb", "ncacf") else 0)
        assert 0 < progress["epoch_in_phase"]
        assert (b / "last.ckpt").read_bytes() != (a / "last.ckpt").read_bytes()
        assert main(["train", "--config", cut, "--resume", str(b / "last.ckpt")]) == 0
        for name in ("last.ckpt", "best.ckpt"):
            assert (b / name).read_bytes() == (a / name).read_bytes(), name
        assert [r[:4] for r in read_report(b / "report.tsv")] == uninterrupted

    @pytest.mark.parametrize("write", ["best.ckpt", "report.tsv", "last.ckpt"])
    def test_death_before_a_best_epoch_write_resumes_to_uninterrupted_run(
            self, workspace, monkeypatch, write):
        """wmf sets a new best at its last epoch, 5; a run that dies just
        before one of that epoch's writes, resumed from its last.ckpt, ends
        with the checkpoints and report rows of a run that never died."""
        import ncacf.cli as cli
        from ncacf.training import read_report

        extra = "\n[hyperparams]\nn_iters = 6\neval_every = 1\n"
        full = write_cfg(workspace, name="full.ini", output="run_full", extra=extra)
        cut = write_cfg(workspace, name="cut.ini", output="run_cut", extra=extra)
        assert main(["train", "--config", full]) == 0
        a, b = workspace / "run_full", workspace / "run_cut"
        assert "# best_epoch = 5\n" in (a / "report.tsv").read_text()

        class Stop(Exception):
            pass

        real_train, epoch = cli.T.train, [None]

        def epoch_train(*args):
            on_epoch = args[-1]

            def hook(state):
                epoch[0] = state.global_epoch - 1
                on_epoch(state)

            return real_train(*args[:-1], hook)

        def dying(real):
            def write_file(path, *args, **kwargs):
                if epoch[0] == 5 and os.path.basename(path) == write:
                    raise Stop
                return real(path, *args, **kwargs)
            return write_file

        monkeypatch.setattr(cli.T, "train", epoch_train)
        monkeypatch.setattr(cli.T, "write_report", dying(cli.T.write_report))
        monkeypatch.setattr(cli.M, "save_model", dying(cli.M.save_model))
        with pytest.raises(Stop):
            main(["train", "--config", cut])
        monkeypatch.undo()
        assert main(["train", "--config", cut, "--resume", str(b / "last.ckpt")]) == 0
        for name in ("last.ckpt", "best.ckpt"):
            assert (b / name).read_bytes() == (a / name).read_bytes(), name
        assert ([r[:4] for r in read_report(b / "report.tsv")]
                == [r[:4] for r in read_report(a / "report.tsv")])

    @pytest.mark.parametrize("mode", ["warm", "cold"])
    def test_resuming_a_finished_run_changes_nothing(self, workspace, mode):
        """A warm run is validated, a cold wmf run is not (its best.ckpt is
        the final model); resuming either once it is finished leaves its
        checkpoints and report as they were."""
        cfg = write_cfg(workspace, name="done.ini", mode=mode)
        if mode == "cold":
            assert main(["prepare", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        names = ("last.ckpt", "best.ckpt", "report.tsv")
        before = {name: (run / name).read_bytes() for name in names}
        assert (b"# best_epoch = " in before["report.tsv"]) == (mode == "warm")
        assert main(["train", "--config", cfg, "--resume", str(run / "last.ckpt")]) == 0
        assert {name: (run / name).read_bytes() for name in names} == before

    def test_resumed_report_holds_only_its_own_run(self, workspace, monkeypatch):
        """A finished seed-7 run, then a seed-9 run into the same directory
        stopped after epoch 1, then its --resume: the stopped run's report
        holds its epochs 0 and 1 (it is rewritten at every checkpointed
        epoch), and the resumed report holds the seed-9 run's epochs 0 to 3,
        once each, and no row of the seed-7 run."""
        import ncacf.cli as cli
        from ncacf.training import read_report

        extra = "\n[hyperparams]\nn_iters = 4\neval_every = 1\n"
        cfg = write_cfg(workspace, name="wmf.ini", extra=extra)
        full = write_cfg(workspace, name="full.ini", output="run_full", extra=extra)
        run = workspace / "run"
        assert main(["train", "--config", cfg]) == 0
        assert main(["train", "--config", full, "--seed", "9"]) == 0
        seed7 = [r[:4] for r in read_report(run / "report.tsv")]
        seed9 = [r[:4] for r in read_report(workspace / "run_full" / "report.tsv")]
        assert len(seed7) == len(seed9) == 4

        class Stop(Exception):
            pass

        real_train = cli.T.train

        def stopping_train(*args):
            on_epoch = args[-1]

            def stop(state):
                on_epoch(state)
                if state.global_epoch == 2:
                    raise Stop

            return real_train(*args[:-1], stop)

        monkeypatch.setattr(cli.T, "train", stopping_train)
        with pytest.raises(Stop):
            main(["train", "--config", cfg, "--seed", "9"])
        monkeypatch.undo()
        assert [r[:4] for r in read_report(run / "report.tsv")] == seed9[:2]
        assert main(["train", "--config", cfg, "--seed", "9",
                     "--resume", str(run / "last.ckpt")]) == 0
        rows = [r[:4] for r in read_report(run / "report.tsv")]
        assert rows == seed9
        assert not set(seed7) & set(rows)

    def test_resume_keeps_report_rows_before_its_checkpoint(self, workspace):
        """Rows at or past the checkpoint's epoch are the ones the resumed
        run writes again; earlier rows are kept once."""
        from ncacf.training import read_report

        extra = "\n[hyperparams]\nn_iters = 4\neval_every = 1\n"
        short = write_cfg(workspace, name="short.ini",
                          extra="\n[hyperparams]\nn_iters = 2\neval_every = 1\n")
        cfg = write_cfg(workspace, name="wmf.ini", extra=extra)
        full = write_cfg(workspace, name="full.ini", output="run_full", extra=extra)
        assert main(["train", "--config", full]) == 0
        assert main(["train", "--config", short]) == 0
        # A report that ran ahead of the checkpoint, as a crash between the
        # two writes would leave it.
        path = workspace / "run" / "report.tsv"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("2\tals\t123.0\t-\t0.000\n")
        assert main(["train", "--config", cfg, "--resume",
                     str(workspace / "run" / "last.ckpt")]) == 0
        uninterrupted = read_report(workspace / "run_full" / "report.tsv")
        assert ([r[:4] for r in read_report(path)]
                == [r[:4] for r in uninterrupted])

    def test_damaged_report_fails_resume_before_any_write(self, workspace, capsys):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        report = workspace / "run" / "report.tsv"
        line = cut_last_report_row(report)
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume",
                     str(workspace / "run" / "last.ckpt")]) == 3
        err = capsys.readouterr().err
        assert f"{report}:{line}" in err and "Traceback" not in err
        assert tree_bytes(workspace) == before

    def test_strict_from_relaxed_pretrained_has_no_item_matrix(self, workspace):
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni",
                        coupling="relaxed", output="run_uni")
        assert main(["train", "--config", uni]) == 0
        deep = write_cfg(workspace, name="deep.ini", family="ncacf", coupling="strict")
        assert main(["train", "--config", deep, "--pretrained",
                     str(workspace / "run_uni" / "best.ckpt")]) == 0
        for name in ("last.ckpt", "best.ckpt"):
            assert load_model(workspace / "run" / name)[0].H is None

    def test_ncf_from_content_pretrained_has_no_extractor(self, workspace):
        """ncf keeps a content checkpoint's embeddings and drops its
        extractor, and the header's feature_dim says so."""
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni",
                        coupling="relaxed", output="run_uni")
        assert main(["train", "--config", uni]) == 0
        cfg = write_cfg(workspace, name="ncf.ini", family="ncf")
        assert main(["train", "--config", cfg, "--pretrained",
                     str(workspace / "run_uni" / "last.ckpt")]) == 0
        for name in ("last.ckpt", "best.ckpt"):
            model, header, _, _, _ = load_model(workspace / "run" / name)
            assert model.extractor is None and model.interaction is not None
            assert header["dims"]["feature_dim"] == 0
        assert main(["evaluate", "--config", cfg, "--checkpoint",
                     str(workspace / "run" / "best.ckpt")]) == 0


def worker_runs(workspace, monkeypatch, family, coupling, extra=""):
    """`train` then `evaluate` of one config with one worker and with two;
    per run, its files by name with `report.tsv` rows cut before seconds."""
    runs = []
    for cores in (1, 2):
        output = f"run{cores}"
        cfg = write_cfg(workspace, f"{output}.ini", family, coupling, output=output,
                        extra=extra)
        with pinned_cores(monkeypatch, cores):
            assert main(["train", "--config", cfg]) == 0
            assert main(["evaluate", "--config", cfg, "--checkpoint",
                         str(workspace / output / "best.ckpt")]) == 0
            assert (numerics._POOL is not None) == (cores == 2)
        files = tree_bytes(workspace / output)
        files.pop("config.ini")  # names the run directory
        files["report.tsv"] = [row.split(b"\t")[:4]
                               for row in files["report.tsv"].splitlines()]
        runs.append(files)
    assert {"last.ckpt", "best.ckpt", "eval_warm_test.tsv",
            "eval_warm_validation.tsv"} <= set(runs[0])
    return runs


class TestTowerWorkers:
    """The tower's user sub-blocks run on two workers when the process may
    use two cores (numerics.map_blocks). Results are reduced in block order,
    so one worker and two give the same bytes."""

    # A few users to a sub-block, so that every batch, validation and
    # evaluation has several of them.
    TOWER_FLOATS = 4 * 16 * 8 + 1

    @pytest.mark.parametrize("family, coupling, combination", [
        ("ncacf", "relaxed", "concatenation"), ("ncacf", "relaxed", "multiplication"),
        ("ncf", "content_free", "concatenation")])
    def test_one_and_two_workers_byte_identical(self, workspace, monkeypatch, family,
                                                coupling, combination):
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", self.TOWER_FLOATS)
        runs = worker_runs(workspace, monkeypatch, family, coupling,
                           f"\n[variant]\ncombination = {combination}\nq_hidden = 1\n")
        assert runs[0] == runs[1]

    def test_error_in_a_worker_reaches_train(self, workspace, monkeypatch, capsys):
        """A sub-block's exception leaves `ncacf train` as itself (exit 4 with
        its message), and no queued sub-block runs after it."""
        monkeypatch.setattr(models, "TOWER_BLOCK_FLOATS", 1)  # one user each
        backward = training.tower_grid_backward
        calls = []

        def failing_backward(*args):
            calls.append(None)
            if len(calls) == 3:
                raise TrainingDivergedError("sub-block three diverged")
            return backward(*args)

        monkeypatch.setattr(training, "tower_grid_backward", failing_backward)
        cfg = write_cfg(workspace, "ncacf.ini", "ncacf", "relaxed")
        with pinned_cores(monkeypatch, 2):
            assert main(["train", "--config", cfg]) == 4
            after_error = len(calls)
        assert "training diverged: sub-block three diverged" in capsys.readouterr().err
        users = load_triplets(workspace / "prepared" / "triplets.tsv").num_users
        assert 3 <= after_error < users  # the first tower batch had one sub-block per user
        assert len(calls) == after_error


class TestAlsWorkers:
    """The ALS sweeps' row blocks run on two workers when the process may use
    two cores (numerics.map_blocks). Each row's system is solved alone, so one
    worker and two give the same bytes."""

    # A few rows to a block (K = 4, rows of up to about ten entries), so that
    # every sweep runs several blocks.
    ALS_FLOATS = 4 * 4 * 10

    @pytest.mark.parametrize("family, coupling", [
        ("wmf", "content_free"), ("mf_hybrid", "relaxed"), ("mf_hybrid", "strict")])
    def test_one_and_two_workers_byte_identical(self, workspace, monkeypatch, family,
                                                coupling):
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", self.ALS_FLOATS)
        stacks = record_solves(monkeypatch)
        runs = worker_runs(workspace, monkeypatch, family, coupling)
        sweeps = 2 * 3 * (1 if coupling == "strict" else 2)  # runs x n_iters x sides
        assert len(stacks) >= 3 * sweeps and max(stacks) > 1
        assert runs[0] == runs[1]


class TestExitCodes:
    def test_unknown_family_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, family="bogus")
        assert main(["prepare", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value", [
        ("[data]\nmin_user_songs", "0"), ("[data]\nmin_item_users", "0"),
        ("[split]\nval_fraction", "0.0"), ("[split]\nval_fraction", "1.0"),
    ], ids=["min_user_songs", "min_item_users", "val_fraction_0", "val_fraction_1"])
    def test_out_of_range_data_setting_is_config_error(self, tmp_path, capsys, key,
                                                       value):
        assert main(["synth", "--config", write_cfg(tmp_path)]) == 0
        cfg = write_cfg(tmp_path, name="bad.ini", extra=f"\n{key} = {value}\n")
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 2
        assert key.split("\n")[1] in capsys.readouterr().err
        assert not (tmp_path / "prepared").exists()

    def test_missing_prepared_data_is_data_error(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["train", "--config", cfg]) == 3

    def test_content_free_ncacf_is_config_error(self, workspace, capsys):
        """ncacf without content is ncf: such a config stops before any write
        and names family = ncf, and so does a checkpoint saved with that
        variant."""
        cfg = write_cfg(workspace, "ncacf.ini", "ncacf", "content_free")
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        assert "family = ncf" in capsys.readouterr().err
        assert tree_bytes(workspace) == before
        ncf = write_cfg(workspace, "ncf.ini", "ncf", "content_free")
        assert main(["train", "--config", ncf]) == 0
        old = workspace / "old.ckpt"
        with edited_checkpoint(workspace / "run" / "best.ckpt", old) as (model, _):
            object.__setattr__(model.variant, "family", "ncacf")  # as an older version saved it
        assert main(["evaluate", "--config", ncf, "--checkpoint", str(old)]) == 2
        err = capsys.readouterr().err
        assert str(old) in err and "family = ncf" in err

    def test_cold_eval_of_content_free_model(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, mode="cold")
        main(["synth", "--config", cfg])
        main(["prepare", "--config", cfg])
        assert main(["train", "--config", cfg]) == 0
        code = main(["evaluate", "--config", cfg,
                     "--checkpoint", str(tmp_path / "run" / "best.ckpt")])
        assert code == 2
        assert "cold-start evaluation unsupported" in capsys.readouterr().err

    def test_divergence_exit_code(self, workspace, monkeypatch):
        from ncacf.errors import TrainingDivergedError
        import ncacf.cli as cli

        def boom(*args, **kwargs):
            raise TrainingDivergedError("objective is not finite (inf)")

        monkeypatch.setattr(cli.T, "train", boom)
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 4

    @pytest.mark.parametrize("cut", ["10", "200", "half", "size-3"])
    def test_truncated_checkpoint_is_data_error(self, workspace, capsys, cut):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        raw = (workspace / "run" / "best.ckpt").read_bytes()
        size = {"10": 10, "200": 200, "half": len(raw) // 2, "size-3": len(raw) - 3}[cut]
        path = workspace / "cut.ckpt"
        path.write_bytes(raw[:size])
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path)]) == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value", [(0, b"X"), (4, b"\x09"), ("section", b"\x07")],
                             ids=["magic", "version", "section-kind"])
    def test_garbled_checkpoint_is_data_error(self, workspace, capsys, offset, value):
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        raw = bytearray((workspace / "run" / "best.ckpt").read_bytes())
        if offset == "section":  # the first byte of the first record
            offset = 32 + int.from_bytes(raw[12:20], "little")
        raw[offset:offset + 1] = value
        path = workspace / "garbled.ckpt"
        path.write_bytes(bytes(raw))
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path)]) == 3
        assert str(path) in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, workspace, capsys):
        cfg = str(workspace / "cfg.ini")
        missing = str(workspace / "nope.ckpt")
        assert main(["evaluate", "--config", cfg, "--checkpoint", missing]) == 3
        assert missing in capsys.readouterr().err
        assert main(["train", "--config", cfg, "--resume", missing]) == 3
        assert missing in capsys.readouterr().err

    def test_missing_pretrained_checkpoint_is_data_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, family="ncacf", coupling="relaxed")
        main(["synth", "--config", cfg])
        main(["prepare", "--config", cfg])
        missing = str(tmp_path / "nope.ckpt")
        assert main(["train", "--config", cfg, "--pretrained", missing]) == 3
        assert missing in capsys.readouterr().err

    def test_version_1_checkpoint_asks_for_a_rerun(self, workspace, capsys):
        cfg = str(workspace / "cfg.ini")
        path = workspace / "v1.ckpt"
        path.write_bytes(b"NCKP" + (1).to_bytes(4, "little"))
        message = "checkpoint format version 1 is no longer read; rerun `ncacf train`"
        for argv in (["evaluate", "--checkpoint", str(path)], ["train", "--resume", str(path)]):
            assert main(argv + ["--config", cfg]) == 3
            err = capsys.readouterr().err
            assert str(path) in err and message in err
        ncacf_cfg = write_cfg(workspace, name="ncacf.ini", family="ncacf", coupling="relaxed")
        assert main(["train", "--config", ncacf_cfg, "--pretrained", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_version_2_checkpoint_asks_for_a_rerun(self, workspace, capsys):
        """A checkpoint whose head says version 2, the format whose variant
        still held interaction_kind and output_activation, is not read."""
        self._assert_version_not_read(workspace, capsys, 2)

    def test_version_3_checkpoint_asks_for_a_rerun(self, workspace, capsys):
        """A checkpoint whose head says version 3, the format that held the
        feature statistics and no digest of the prepared data, is not read."""
        self._assert_version_not_read(workspace, capsys, 3)

    @staticmethod
    def _assert_version_not_read(workspace, capsys, version):
        """evaluate, --resume and --pretrained of a checkpoint whose head says
        `version` exit 3 with the rerun message and write nothing."""
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed")
        assert main(["train", "--config", uni]) == 0
        raw = bytearray((workspace / "run" / "last.ckpt").read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path = workspace / "run" / f"v{version}.ckpt"
        path.write_bytes(bytes(raw))
        ncacf = write_cfg(workspace, name="ncacf.ini", family="ncacf", coupling="relaxed",
                          output="run_deep")
        message = f"checkpoint format version {version} is no longer read; rerun `ncacf train`"
        for argv in (["evaluate", "--config", uni, "--checkpoint", str(path)],
                     ["train", "--config", uni, "--resume", str(path)],
                     ["train", "--config", ncacf, "--pretrained", str(path)]):
            before = tree_bytes(workspace)
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert str(path) in err and message in err
            assert tree_bytes(workspace) == before

    def test_malformed_split_plan_is_data_error(self, workspace, capsys):
        plan = workspace / "prepared" / "split_warm.txt"
        plan.write_text(plan.read_text().replace("[validation]\n", "[validation]\n0 x "))
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 3
        assert str(plan) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["training_fold_out_of_range",
                                      "test_fold_out_of_range", "duplicate"])
    @pytest.mark.parametrize("mode", ["cold", "warm"])
    def test_split_plan_units_outside_the_data_are_data_error(self, tmp_path, capsys,
                                                              mode, edit):
        """A plan unit past the prepared items (cold) or triplet rows (warm),
        or one listed in two sections, stops train before it writes. Each
        edit keeps the plan's unit count, so the plan still parses."""
        cfg = write_cfg(tmp_path, family="mf_uni", coupling="relaxed", mode=mode)
        assert main(["synth", "--config", cfg]) == 0
        assert main(["prepare", "--config", cfg]) == 0
        plan = tmp_path / "prepared" / f"split_{mode}.txt"
        lines = plan.read_text().splitlines(keepends=True)

        def units_line(section):
            return lines.index(f"[{section}]\n") + 1

        # fold = 0 in the config: fold 0 is the test fold, fold 1 trains.
        target = units_line("fold 0" if edit == "test_fold_out_of_range" else "fold 1")
        units = lines[target].split()
        units[0] = "99999" if edit != "duplicate" else lines[units_line("validation")].split()[0]
        lines[target] = " ".join(units) + "\n"
        plan.write_text("".join(lines))
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 3
        assert str(plan) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_edited_warm_triplets_are_data_error(self, workspace, capsys):
        """Warm split units are row numbers of prepared/triplets.tsv as
        prepare wrote it: with one data line deleted, train exits 3 and
        writes nothing."""
        tri = workspace / "prepared" / "triplets.tsv"
        lines = tri.read_text().splitlines(keepends=True)
        tri.write_text("".join(lines[:1] + lines[2:]))
        capsys.readouterr()
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 3
        err = capsys.readouterr().err
        assert str(tri) in err and "ncacf prepare" in err
        assert not (workspace / "run").exists()

    def test_feature_file_without_rows_is_data_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", cfg])
        (tmp_path / "raw" / "features.tsv").write_text("# item\tfeatures...\n")
        assert main(["prepare", "--config", cfg]) == 3
        assert "no feature rows" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, problem", [
        ("one_field", "expected item<TAB>v1<TAB>..."),
        ("non_numeric", "non-numeric feature value"),
    ])
    def test_malformed_feature_line_is_data_error(self, tmp_path, capsys, edit, problem):
        cfg = write_cfg(tmp_path)
        assert main(["synth", "--config", cfg]) == 0
        feat = tmp_path / "raw" / "features.tsv"
        lines = feat.read_text().splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split("\t")
        lines[2] = (fields[0] if edit == "one_field"
                    else "\t".join([fields[0], "loud", *fields[2:]])) + "\n"
        feat.write_text("".join(lines))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"{feat}:3: {problem}" in err
        assert not (tmp_path / "prepared").exists()

    def test_content_variant_on_data_without_features_is_data_error(self, workspace,
                                                                     capsys):
        cfg = write_cfg(workspace, name="nofeat.ini", family="mf_uni", coupling="relaxed",
                        extra="\n[data]\nfeatures = none\n")
        assert main(["prepare", "--config", cfg]) == 0
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 3
        assert "needs item features; none were prepared" in capsys.readouterr().err
        assert tree_bytes(workspace) == before

    def test_sweep_without_validation_signal_is_config_error(self, workspace, capsys):
        cfg = write_cfg(workspace, name="cold.ini", mode="cold")
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep needs a validation signal" in capsys.readouterr().err
        assert tree_bytes(workspace) == before

    def test_checkpoint_without_user_matrix_is_data_error(self, workspace, capsys):
        """A checkpoint whose records pass their CRC but hold no W."""
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        path = workspace / "run" / "best.ckpt"
        magic, version = models._CKPT_MAGIC, models._CKPT_VERSION
        header, records, _ = data.read_records(path, magic, version, "checkpoint", "train")
        at = header["records"].index("W")
        del header["records"][at], records[at]
        data.write_records(path, magic, version, header, records)
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"{path}: checkpoint does not hold a valid model" in err
        assert tree_bytes(workspace) == before

    @pytest.mark.parametrize("key", ["n_iters", "n_gd"])
    def test_mf_hybrid_without_budget_writes_nothing(self, workspace, capsys, key):
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 0
        before = (workspace / "run" / "config.ini").read_bytes()
        for output in ("run", "fresh"):
            cfg = write_cfg(workspace, name="hybrid.ini", family="mf_hybrid",
                            coupling="relaxed", output=output,
                            extra=f"\n[hyperparams]\n{key} = 0\n")
            capsys.readouterr()
            assert main(["train", "--config", cfg]) == 2
            assert "mf_hybrid needs n_iters >= 1 and n_gd >= 1" in capsys.readouterr().err
        assert (workspace / "run" / "config.ini").read_bytes() == before
        assert not (workspace / "fresh").exists()

    def test_checkpoint_variant_mismatch(self, workspace):
        cfg = str(workspace / "cfg.ini")
        main(["train", "--config", cfg])
        other = write_cfg(workspace, name="other.ini", family="mf_uni",
                          coupling="relaxed")
        assert main(["evaluate", "--config", other,
                     "--checkpoint", str(workspace / "run" / "best.ckpt")]) == 2


    @pytest.mark.parametrize("family, coupling, flag", [
        ("wmf", "content_free", "--pretrained"),
        ("mf_hybrid", "relaxed", "--pretrained"),
        ("dcb", "relaxed", "--pretrained"),
        ("mf_uni", "relaxed", "--pretrained"),
    ])
    def test_unhonoured_start_is_config_error(self, workspace, capsys, family,
                                              coupling, flag):
        cfg = write_cfg(workspace, name="start.ini", family=family, coupling=coupling)
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        before = {f: (run / f).read_bytes() for f in sorted(os.listdir(run))}
        capsys.readouterr()
        assert main(["train", "--config", cfg, flag, str(run / "last.ckpt")]) == 2
        assert family in capsys.readouterr().err
        assert {f: (run / f).read_bytes() for f in sorted(os.listdir(run))} == before

    def test_resume_with_pretrained_is_config_error(self, workspace, capsys):
        cfg = write_cfg(workspace, name="both.ini", family="ncacf", coupling="relaxed")
        assert main(["train", "--config", cfg]) == 0
        last = str(workspace / "run" / "last.ckpt")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", last,
                     "--pretrained", last]) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--pretrained" in err

    @pytest.mark.parametrize("section, key, old, new", [
        ("hyperparams", "lambda_w", "0.1", "7.5"), ("hyperparams", "eta", "0.001", "0.5"),
        ("hyperparams", "batch_items", "16", "3"), ("eval", "top_k", "5", "3"),
    ], ids=["lambda_w", "eta", "batch_items", "top_k"])
    def test_resume_with_other_settings_is_config_error(self, workspace, capsys,
                                                        section, key, old, new):
        """A run stopped after 2 of its 4 epochs cannot resume under another
        setting, which would train the later epochs, and record the whole
        run, with it: train exits 2, names the key, both values and the
        checkpoint, and writes nothing. The larger budget alone is allowed."""
        short = write_cfg(workspace, name="short.ini", family="mf_uni", coupling="relaxed",
                          extra="\n[hyperparams]\nmax_epochs = 2\n")
        assert main(["train", "--config", short]) == 0
        cfg = write_cfg(workspace, name="other.ini", family="mf_uni", coupling="relaxed",
                        extra=f"\n[{section}]\n{key} = {new}\n")
        last = str(workspace / "run" / "last.ckpt")
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", last]) == 2
        err = capsys.readouterr().err
        assert last in err and f"{key} = {old}" in err and f"asks for {new}" in err
        assert tree_bytes(workspace) == before

    def test_resume_from_another_run_directory_is_config_error(self, workspace,
                                                               capsys):
        cfg = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed",
                        extra="\n[hyperparams]\neval_every = 1\n")
        run_a, run_b = workspace / "run_a", workspace / "run_b"
        assert main(["train", "--config", cfg, "--output", str(run_a)]) == 0
        assert main(["train", "--config", cfg, "--output", str(run_b),
                     "--seed", "9"]) == 0
        before = {f: (run_b / f).read_bytes() for f in sorted(os.listdir(run_b))}
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--output", str(run_b),
                     "--resume", str(run_a / "last.ckpt")]) == 2
        err = capsys.readouterr().err
        assert str(run_a / "last.ckpt") in err and str(run_b) in err
        assert {f: (run_b / f).read_bytes() for f in sorted(os.listdir(run_b))} == before

    def test_singular_als_system_at_zero_ridge_is_config_error(self, tmp_path, capsys,
                                                                monkeypatch):
        """wmf at embed_dim 32 over 25 items leaves every user's Gramian
        rank-deficient; with lambda_w = lambda_h = 0 the first user sweep
        cannot factor it, which is a configuration error, not a crash. The
        sweep runs a few users to a block on two workers, and still names
        the first user."""
        monkeypatch.setattr(training, "_ALS_BLOCK_FLOATS", 4 * 32 * 32)
        raw = tmp_path / "raw"
        raw.mkdir()
        rng = np.random.default_rng(5)
        with open(raw / "triplets.tsv", "w") as fh:
            for u in range(40):
                for i in np.sort(rng.choice(25, 12, replace=False)):
                    fh.write(f"u{u}\ti{i}\t{rng.integers(1, 20)}\n")
        cfg = write_cfg(tmp_path, extra="\n[data]\nfeatures = none\n"
                        "\n[hyperparams]\nembed_dim = 32\nlambda_w = 0\nlambda_h = 0\n")
        assert main(["prepare", "--config", cfg]) == 0
        capsys.readouterr()
        with pinned_cores(monkeypatch, 2):
            assert main(["train", "--config", cfg]) == 2
            assert numerics._POOL is not None
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "ALS user sweep" in err and "user 0 " in err and "lambda_w = 0" in err

    def test_checkpoint_without_run_position_asks_for_a_rerun(self, workspace,
                                                               capsys):
        """A last.ckpt that records only {"iteration": n}, the position wmf and
        mf_hybrid once recorded, cannot be resumed; evaluate still reads it."""
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        with edited_checkpoint(run / "last.ckpt") as (_, header):
            header["progress"] = {"iteration": 3}
        before = {f: (run / f).read_bytes() for f in sorted(os.listdir(run))}
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(run / "last.ckpt")]) == 3
        err = capsys.readouterr().err
        assert str(run / "last.ckpt") in err and "rerun `ncacf train`" in err
        assert {f: (run / f).read_bytes() for f in sorted(os.listdir(run))} == before
        assert main(["evaluate", "--config", cfg, "--checkpoint",
                     str(run / "last.ckpt")]) == 0


    @pytest.mark.parametrize("flag, source, target", [
        ("--resume", "mf_uni", "ncacf"),
        ("--pretrained", "ncf", "ncacf"),
    ])
    def test_incompatible_start_checkpoint_is_config_error(self, workspace, capsys,
                                                           flag, source, target):
        couplings = {"mf_uni": "relaxed", "ncf": "content_free", "ncacf": "relaxed"}
        src = write_cfg(workspace, name="src.ini", family=source,
                        coupling=couplings[source], output="run_src")
        assert main(["train", "--config", src]) == 0
        cfg = write_cfg(workspace, name="dst.ini", family=target,
                        coupling=couplings[target])
        ckpt = str(workspace / "run_src" / "last.ckpt")
        capsys.readouterr()
        assert main(["train", "--config", cfg, flag, ckpt]) == 2
        assert ckpt in capsys.readouterr().err
        assert not (workspace / "run").exists()


    @pytest.mark.parametrize("flag, target", [("--resume", "mf_uni"),
                                              ("--pretrained", "ncacf")])
    def test_start_checkpoint_of_other_data_is_config_error(self, workspace, capsys,
                                                            flag, target):
        src = write_cfg(workspace, name="src.ini", family="mf_uni", coupling="relaxed",
                        output="run_src",
                        extra="\n[data]\nprepared = prepared_src\nmin_user_songs = 8\n")
        assert main(["prepare", "--config", src]) == 0
        assert main(["train", "--config", src]) == 0
        cfg = write_cfg(workspace, name="dst.ini", family=target, coupling="relaxed")
        capsys.readouterr()
        assert main(["train", "--config", cfg, flag,
                     str(workspace / "run_src" / "last.ckpt")]) == 2
        assert "training data" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize("verb, target", [("--resume", "mf_uni"),
                                              ("--pretrained", "ncacf"),
                                              ("evaluate", "mf_uni")])
    def test_checkpoint_of_another_fold_is_config_error(self, workspace, capsys,
                                                        verb, target):
        """A fold-0 checkpoint cannot continue, start or be evaluated under
        fold 1, whose test items were its training items."""
        src = write_cfg(workspace, name="src.ini", family="mf_uni", coupling="relaxed")
        assert main(["train", "--config", src]) == 0
        ckpt = str(workspace / "run" / "last.ckpt")
        output = "run" if verb == "--resume" else "run_fold1"
        cfg = write_cfg(workspace, name="fold1.ini", family=target, coupling="relaxed",
                        output=output, extra="\n[split]\nfold = 1\n")
        before = tree_bytes(workspace)
        capsys.readouterr()
        argv = (["evaluate", "--checkpoint", ckpt] if verb == "evaluate"
                else ["train", verb, ckpt])
        assert main(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert ckpt in err and "('warm', 0)" in err and "('warm', 1)" in err
        assert tree_bytes(workspace) == before

    def test_feature_file_listing_an_item_twice_is_data_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        main(["synth", "--config", cfg])
        feat = tmp_path / "raw" / "features.tsv"
        lines = feat.read_text().splitlines(keepends=True)
        feat.write_text("".join(lines + lines[1:2]))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert f"features.tsv:{len(lines) + 1}:" in err
        assert "already listed on line 2" in err

    @pytest.mark.parametrize("split, have, want", [
        ("num_folds = 5", "num_folds = 4", "5"),
        ("num_folds = 20\nfold = 15", "num_folds = 4", "20"),
        ("val_fraction = 0.25", "val_fraction = 0.2", "0.25"),
    ], ids=["fewer_folds", "fold_past_the_plan", "val_fraction"])
    def test_split_settings_other_than_prepared_are_config_error(self, workspace, capsys,
                                                                 split, have, want):
        """A config whose num_folds or val_fraction is not the prepared
        plan's would train on another protocol than it records (or crash on
        a fold the plan lacks): train, evaluate and sweep exit 2, name both
        values and `ncacf prepare`, and write nothing."""
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 0
        cfg = write_cfg(workspace, name="other.ini", extra=f"\n[split]\n{split}\n")
        verbs = [["train"], ["sweep"]]
        if "fold = " not in split:  # a checkpoint of fold 0 is evaluated on fold 0
            verbs.append(["evaluate", "--checkpoint", str(workspace / "run" / "best.ckpt")])
        before = tree_bytes(workspace)
        for argv in verbs:
            capsys.readouterr()
            assert main(argv + ["--config", cfg]) == 2, argv
            err = capsys.readouterr().err
            assert have in err and f"asks for {want}" in err and "ncacf prepare" in err
            assert tree_bytes(workspace) == before, argv

    @pytest.mark.parametrize("family, differs", [("wmf", "users"), ("mf_uni", "users"),
                                                 ("mf_uni", "features")])
    def test_evaluated_checkpoint_of_other_data_is_config_error(self, workspace,
                                                                capsys, family,
                                                                differs):
        coupling = "content_free" if family == "wmf" else "relaxed"
        if differs == "users":
            data = "min_user_songs = 8\n"
        else:  # the first two of the six feature columns
            rows = (workspace / "raw" / "features.tsv").read_text().splitlines()
            (workspace / "raw" / "features_2.tsv").write_text(
                "".join("\t".join(row.split("\t")[:3]) + "\n" for row in rows))
            data = "features = raw/features_2.tsv\n"
        src = write_cfg(workspace, name="src.ini", family=family, coupling=coupling,
                        output="run_src",
                        extra="\n[data]\nprepared = prepared_src\n" + data)
        assert main(["prepare", "--config", src]) == 0
        assert main(["train", "--config", src]) == 0
        cfg = write_cfg(workspace, name="dst.ini", family=family, coupling=coupling)
        ckpt = str(workspace / "run_src" / "best.ckpt")
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--checkpoint", ckpt]) == 2
        err = capsys.readouterr().err
        assert ckpt in err and "prepared data" in err
        assert not (workspace / "run").exists()

    def test_checkpoint_of_data_prepared_again_is_config_error(self, workspace, capsys):
        """`prepare --seed 2` splits the same raw data anew, so some seed-7
        training items are now test items: evaluate, --resume and
        --pretrained of a seed-7 checkpoint exit 2, name the checkpoint and
        the prepared data, and write nothing."""
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed",
                        mode="cold")
        assert main(["train", "--config", uni]) == 0
        assert main(["prepare", "--config", uni, "--seed", "2"]) == 0
        ncacf = write_cfg(workspace, name="ncacf.ini", family="ncacf", coupling="relaxed",
                          mode="cold", output="run_deep")
        last, best = str(workspace / "run" / "last.ckpt"), str(workspace / "run" / "best.ckpt")
        for argv, ckpt in ((["evaluate", "--config", uni, "--checkpoint", best], best),
                           (["train", "--config", uni, "--resume", last], last),
                           (["train", "--config", ncacf, "--pretrained", best], best)):
            before = tree_bytes(workspace)
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert ckpt in err and "prepared data" in err and "training data" in err
            assert tree_bytes(workspace) == before, argv

    def test_checkpoint_survives_a_same_seed_prepare(self, workspace):
        """A prepare that repeats the last one writes the same snapshot: the
        checkpoint still evaluates to the same eval files and resumes."""
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni", coupling="relaxed",
                        mode="cold")
        assert main(["train", "--config", uni]) == 0
        run = workspace / "run"
        assert main(["evaluate", "--config", uni, "--checkpoint", str(run / "best.ckpt")]) == 0
        names = ["eval_cold_validation.tsv", "eval_cold_test.tsv"]
        first = {name: (run / name).read_bytes() for name in names}
        snapshot = (workspace / "prepared" / "snapshot.bin").read_bytes()
        assert main(["prepare", "--config", uni]) == 0
        assert (workspace / "prepared" / "snapshot.bin").read_bytes() == snapshot
        assert main(["evaluate", "--config", uni, "--checkpoint", str(run / "best.ckpt"),
                     "--output", str(workspace / "again")]) == 0
        assert {name: (workspace / "again" / name).read_bytes() for name in names} == first
        assert main(["train", "--config", uni, "--resume", str(run / "last.ckpt")]) == 0

    def test_pretrained_checkpoint_of_another_embed_dim_is_config_error(
            self, workspace, capsys):
        uni = write_cfg(workspace, name="uni.ini", family="mf_uni",
                        coupling="relaxed", output="run_uni")
        assert main(["train", "--config", uni]) == 0
        cfg = workspace / "ncf.ini"
        cfg.write_text(pathlib.Path(write_cfg(workspace, name="ncf.ini", family="ncf"))
                       .read_text().replace("embed_dim = 4", "embed_dim = 3"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--pretrained",
                     str(workspace / "run_uni" / "last.ckpt")]) == 2
        assert "embed_dim" in capsys.readouterr().err
        assert not (workspace / "run").exists()

    def test_missing_feature_file_is_data_error(self, workspace, capsys):
        """A mistyped feature path stops prepare before it writes, rather than
        preparing the data without features."""
        prepared = tree_bytes(workspace / "prepared")
        cfg = workspace / "cfg.ini"
        cfg.write_text(cfg.read_text().replace("features = raw/features.tsv",
                                               "features = raw/featurs.tsv"))
        capsys.readouterr()
        assert main(["prepare", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert str(workspace / "raw" / "featurs.tsv") in err and "features = none" in err
        assert tree_bytes(workspace / "prepared") == prepared

    def test_failed_prepare_keeps_the_prepared_data(self, workspace, capsys):
        """New raw triplets with a feature file that lists an item twice: the
        prepare fails before it writes, so every prepared file is as it was
        and the earlier checkpoint still evaluates."""
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        prepared = tree_bytes(workspace / "prepared")
        triplets = workspace / "raw" / "triplets.tsv"
        lines = triplets.read_text().splitlines(keepends=True)
        triplets.write_text("".join(lines[:-1]))
        feat = workspace / "raw" / "features.tsv"
        rows = feat.read_text().splitlines(keepends=True)
        feat.write_text("".join(rows + rows[1:2]))
        capsys.readouterr()
        assert main(["prepare", "--config", cfg]) == 3
        assert "already listed on line 2" in capsys.readouterr().err
        assert tree_bytes(workspace / "prepared") == prepared
        assert main(["evaluate", "--config", cfg, "--checkpoint",
                     str(workspace / "run" / "best.ckpt")]) == 0


def text_load(prepared):
    triplets = load_triplets(prepared / "triplets.tsv")
    features = None
    if (prepared / "features.tsv").exists():
        labels, values = load_features(prepared / "features.tsv")
        features = align_features(labels, values, triplets.item_labels)
    return triplets, features


def assert_same_load(got, want):
    (triplets, features), (want_triplets, want_features) = got, want
    for name in ("users", "items", "counts"):
        a, b = getattr(triplets, name), getattr(want_triplets, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in ("num_users", "num_items", "user_labels", "item_labels"):
        assert getattr(triplets, name) == getattr(want_triplets, name), name
    assert (features is None) == (want_features is None)
    if features is not None:
        assert features.dtype == want_features.dtype
        assert np.array_equal(features, want_features)


class TestSnapshot:
    @pytest.fixture
    def prepared(self, tmp_path):
        assert main(["prepare", "--config", write_fixture_cfg(tmp_path)]) == 0
        return tmp_path / "prepared"

    @staticmethod
    def paths(prepared):
        """The snapshot of a prepared dir and its text files, keyed as the
        snapshot records their digests."""
        return prepared / "snapshot.bin", {
            "triplets": prepared / "triplets.tsv", "features": prepared / "features.tsv",
            "split_cold": prepared / "split_cold.txt",
            "split_warm": prepared / "split_warm.txt"}

    def test_equals_text_load(self, prepared):
        snap, files = self.paths(prepared)
        triplets, features, _, digest = read_snapshot(snap, files)
        assert_same_load((triplets, features), text_load(prepared))
        raw = snap.read_bytes()  # the digest is the file's length and its head's CRC32
        assert digest == [len(raw), zlib.crc32(raw[data._RECORD_HEAD.size:])]

    def test_plans_equal_text_plans(self, prepared):
        """Both modes' plans in the snapshot are the plans in the text files,
        section by section, with the same dtype."""
        snap, files = self.paths(prepared)
        _, _, plans, _ = read_snapshot(snap, files)
        assert sorted(plans) == ["cold", "warm"]
        for mode, plan in plans.items():
            text = read_split_plan(files[f"split_{mode}"])
            assert (plan.mode, plan.seed, plan.num_folds, plan.val_fraction) == \
                (text.mode, text.seed, text.num_folds, text.val_fraction) == \
                (mode, 7, 4, 0.2)
            for got, want in [(plan.validation, text.validation),
                              (plan.train_always, text.train_always),
                              *zip(plan.folds, text.folds, strict=True)]:
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("damage", [
        "missing", "triplets_edited", "features_edited", "features_removed",
        "plan_edited", "plan_removed",
        "truncated", "flipped_payload_byte", "unknown_version", "version_2",
        "record_dropped"])
    def test_falls_back_to_text(self, prepared, capsys, damage):
        """No kind of damage lets a verb fall back to the text files:
        read_snapshot raises a DataError naming the snapshot, and train
        exits 3 with the rerun message before it writes anything."""
        snap, files = self.paths(prepared)
        tri, feat = files["triplets"], files["features"]
        raw = bytearray(snap.read_bytes())
        if damage == "missing":
            snap.unlink()
        elif damage == "triplets_edited":
            tri.write_text(tri.read_text() + "newcomer\ti3\t9\n")
        elif damage == "features_edited":
            lines = feat.read_text().splitlines(keepends=True)
            fields = lines[1].split("\t")
            fields[1] = "0.5"
            lines[1] = "\t".join(fields)
            feat.write_text("".join(lines))
        elif damage == "features_removed":
            feat.unlink()
        elif damage == "plan_edited":  # still a valid partition of the items
            plan = files["split_cold"]
            plan.write_text(plan.read_text().replace("seed = 7", "seed = 8"))
        elif damage == "plan_removed":
            files["split_warm"].unlink()
        elif damage == "record_dropped":  # a valid record file, one array short
            header, records, _ = data.read_records(snap, data._SNAP_MAGIC,
                                                   data._SNAP_VERSION, "snapshot", "prepare")
            data.write_records(snap, data._SNAP_MAGIC, data._SNAP_VERSION, header,
                               records[:-1])
        else:
            if damage == "truncated":
                del raw[-10:]
            elif damage == "flipped_payload_byte":
                raw[len(raw) // 2] ^= 0x01
            else:  # version 2 held no split plans
                raw[4:8] = (2 if damage == "version_2" else 4).to_bytes(4, "little")
            snap.write_bytes(raw)
        if damage == "features_edited":
            assert text_load(prepared)[1][0, 0] == 0.5
        with pytest.raises(DataError, match="snapshot.bin"):
            read_snapshot(snap, files)
        capsys.readouterr()
        assert main(["train", "--config", str(prepared.parent / "cfg.ini")]) == 3
        err = capsys.readouterr().err
        assert "ncacf prepare" in err
        if damage == "version_2":
            assert f"{snap}: prepared snapshot format version 2 is no longer read; " \
                "rerun `ncacf prepare`" in err
        assert not (prepared.parent / "run").exists()

    def test_verbs_read_the_snapshot(self, prepared, monkeypatch):
        import ncacf.data

        def refuse(*args, **kwargs):
            raise AssertionError("a verb parsed the prepared text files")

        monkeypatch.setattr(ncacf.data, "load_triplets", refuse)
        monkeypatch.setattr(ncacf.data, "load_features", refuse)
        cfg = str(prepared.parent / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        assert main(["evaluate", "--config", cfg, "--checkpoint",
                     str(prepared.parent / "run" / "best.ckpt")]) == 0

    def test_plan_of_another_prepare_stops_every_verb(self, tmp_path, capsys):
        """split_cold.txt from a `prepare --seed 2`, copied into a directory
        prepared with seed 1, is a valid partition of the same items, but not
        the plan the snapshot holds: train, evaluate and sweep each exit 3,
        name the plan and write nothing."""
        cfg = write_cfg(tmp_path, family="mf_uni", coupling="relaxed", mode="cold")
        other = write_cfg(tmp_path, name="other.ini", family="mf_uni", coupling="relaxed",
                          mode="cold", extra="\n[data]\nprepared = prepared_2\n")
        assert main(["synth", "--config", cfg]) == 0
        assert main(["prepare", "--config", cfg, "--seed", "1"]) == 0
        assert main(["train", "--config", cfg, "--seed", "1"]) == 0
        assert main(["prepare", "--config", other, "--seed", "2"]) == 0
        plan = tmp_path / "prepared" / "split_cold.txt"
        swapped = (tmp_path / "prepared_2" / "split_cold.txt").read_bytes()
        assert swapped != plan.read_bytes()
        plan.write_bytes(swapped)
        before = tree_bytes(tmp_path)
        for argv in (["train"], ["evaluate", "--checkpoint",
                                 str(tmp_path / "run" / "best.ckpt")], ["sweep"]):
            capsys.readouterr()
            assert main(argv + ["--config", cfg, "--seed", "1"]) == 3, argv
            err = capsys.readouterr().err
            assert str(plan) in err and "ncacf prepare" in err
            assert tree_bytes(tmp_path) == before, argv


class TestSweep:
    def test_single_cell_grid(self, workspace):
        cfg = write_cfg(workspace, name="sweep.ini", family="wmf",
                        coupling="content_free", output="run_sweep",
                        extra="\n[sweep]\ngrid_lambda_w = 0.1\ngrid_lambda_h = 1.0\n")
        assert main(["sweep", "--config", cfg]) == 0
        rows = (workspace / "run_sweep" / "sweep.tsv").read_text().splitlines()
        assert len(rows) == 2  # header + one cell
        best = load_config(str(workspace / "run_sweep" / "best_config.ini"))
        assert best.hyper.lambda_w == 0.1 and best.hyper.lambda_h == 1.0

    def test_grid_table_size_and_best_row(self, workspace):
        cfg = write_cfg(workspace, name="sweep2.ini", family="wmf",
                        coupling="content_free", output="run_sweep2",
                        extra="\n[sweep]\ngrid_lambda_w = 0.05,0.5\n"
                              "grid_lambda_h = 0.5,5.0\n")
        assert main(["sweep", "--config", cfg]) == 0
        lines = (workspace / "run_sweep2" / "sweep.tsv").read_text().splitlines()[1:]
        assert len(lines) == 4
        table = [tuple(map(float, l.split("\t"))) for l in lines]
        best = load_config(str(workspace / "run_sweep2" / "best_config.ini"))
        top = max(table, key=lambda r: (r[2], r[0], r[1]))
        assert (best.hyper.lambda_w, best.hyper.lambda_h) == (top[0], top[1])



ALL_VARIANTS = [
    ("wmf", "content_free"), ("dcb", "relaxed"), ("dcb", "strict"),
    ("mf_hybrid", "relaxed"), ("mf_hybrid", "strict"), ("mf_uni", "relaxed"),
    ("mf_uni", "strict"), ("ncacf", "relaxed"), ("ncacf", "strict"),
    ("ncf", "content_free"),
]


class TestAllFamilies:
    @pytest.mark.parametrize("family, coupling", ALL_VARIANTS)
    def test_train_evaluate_sweep(self, workspace, family, coupling):
        cfg = write_cfg(workspace, name="smoke.ini", family=family, coupling=coupling)
        assert main(["train", "--config", cfg]) == 0
        best = workspace / "run" / "best.ckpt"
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(best)]) == 0
        assert main(["sweep", "--config", cfg]) == 0
        rows = (workspace / "run" / "sweep.tsv").read_text().splitlines()
        assert len(rows) == 2
        # The one grid point is the config's (lambda_w, lambda_h): the sweep
        # scores the same best-validation model that train kept.
        best_val = next(float(line.split(" = ")[1]) for line in
                        (workspace / "run" / "report.tsv").read_text().splitlines()
                        if line.startswith("# best_val = "))
        assert float(rows[1].split("\t")[2]) == best_val
        assert load_model(best)[0].variant == load_config(cfg).variant()

    @pytest.mark.parametrize("family, coupling, mode", [
        (family, coupling, mode) for family, coupling in ALL_VARIANTS
        for mode in ("warm", "cold") if mode == "warm" or coupling != "content_free"])
    def test_stored_validation_equals_ranking(self, workspace, capsys, family, coupling,
                                              mode):
        """evaluate writes and prints, from the validation result train
        stored, what ranking the bucket again (a copy without it) gives; only
        the eval files' checkpoint lines tell the two checkpoints apart."""
        cfg = write_cfg(workspace, name="stored.ini", family=family, coupling=coupling,
                        mode=mode)
        assert main(["train", "--config", cfg]) == 0
        best, copy = workspace / "run" / "best.ckpt", workspace / "copy.ckpt"
        assert load_model(best)[3] is not None
        with edited_checkpoint(best, copy):
            pass
        outputs = []
        for ckpt, out in ((best, "stored"), (copy, "ranked")):
            capsys.readouterr()
            assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt),
                         "--output", str(workspace / out)]) == 0
            outputs.append((capsys.readouterr().out,
                            {name: drop_checkpoint_line(text)
                             for name, text in tree_bytes(workspace / out).items()}))
        assert outputs[0] == outputs[1]

class TestReport:
    @pytest.mark.parametrize("scored", ["last.ckpt", None], ids=["last", "unnamed"])
    def test_eval_file_of_another_checkpoint_is_data_error(self, workspace, capsys,
                                                           scored):
        """Eval files of last.ckpt, or ones that name no checkpoint, do not
        hold best.ckpt's result: report names the file and both digests and
        writes nothing."""
        cfg = str(workspace / "cfg.ini")
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        assert main(["evaluate", "--config", cfg,
                     "--checkpoint", str(run / (scored or "best.ckpt"))]) == 0
        path = run / "eval_warm_test.tsv"
        if scored is None:
            path.write_bytes(drop_checkpoint_line(path.read_bytes()))
        have = load_model(run / scored)[4] if scored else "none"
        capsys.readouterr()
        out = workspace / "summary"
        assert main(["report", str(run), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert (f"{path}: the eval file scored checkpoint {have}, not its run's "
                f"best.ckpt {load_model(run / 'best.ckpt')[4]}") in err
        assert not out.exists()

    def test_single_run_table(self, workspace):
        cfg = str(workspace / "cfg.ini")
        main(["train", "--config", cfg])
        main(["evaluate", "--config", cfg,
              "--checkpoint", str(workspace / "run" / "best.ckpt")])
        out = str(workspace / "summary")
        assert main(["report", str(workspace / "run"), "--output", out]) == 0
        table = (workspace / "summary" / "report_table.tsv").read_text().splitlines()
        assert len(table) == 2
        assert table[1].startswith("wmf\t")
        first = (workspace / "summary" / "report_table.tsv").read_bytes()
        assert main(["report", str(workspace / "run"), "--output", out]) == 0
        assert (workspace / "summary" / "report_table.tsv").read_bytes() == first

    def test_damaged_report_is_data_error(self, workspace, capsys):
        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 0
        report = workspace / "run" / "report.tsv"
        line = cut_last_report_row(report)
        capsys.readouterr()
        out = workspace / "summary"
        assert main(["report", str(workspace / "run"), "--output", str(out)]) == 3
        assert f"{report}:{line}" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_without_config_is_data_error(self, tmp_path, capsys):
        (tmp_path / "notes").mkdir()
        out = tmp_path / "summary"
        capsys.readouterr()
        assert main(["report", str(tmp_path / "notes"), "--output", str(out)]) == 3
        assert "has no config.ini; not a run directory" in capsys.readouterr().err
        assert not out.exists()

    def test_runs_sharing_a_name_are_config_error(self, workspace, capsys):
        """Both runs would write convergence_run.tsv, the second over the first."""
        import shutil

        assert main(["train", "--config", str(workspace / "cfg.ini")]) == 0
        a, b = workspace / "a" / "run", workspace / "b" / "run"
        shutil.copytree(workspace / "run", a)
        shutil.copytree(workspace / "run", b)
        capsys.readouterr()
        out = workspace / "summary"
        assert main(["report", str(a), str(b), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(a) in err and str(b) in err
        assert not out.exists()


def fake_run(tmp_path, name, family, coupling, cold=None, warm=None, fold=0,
             eval_fold=None, prepared=(1, 2), **settings):
    """A run directory holding a config of `fold` (and the other config
    `settings`, such as combination, q_hidden or hyper), the test eval
    files of the given mean NDCGs, whose fold line names eval_fold (default:
    fold) and whose checkpoint line names best.ckpt, and a small best.ckpt
    whose header names the `prepared` digest."""
    run = tmp_path / name
    run.mkdir()
    cfg = ExperimentConfig(family=family, coupling=coupling, fold=fold, **settings)
    write_config(run / "config.ini", cfg)
    models.save_model(run / "best.ckpt",
                      models.init_model(models.ModelVariant("wmf", "content_free"),
                                        1, 1, 1, 0, seed=0),
                      {"prepared": list(prepared)})
    checkpoint = load_model(run / "best.ckpt")[4]
    for setting, mean in (("cold", cold), ("warm", warm)):
        if mean is None:
            continue
        (run / f"eval_{setting}_test.tsv").write_text(
            f"setting\t{setting}\nbucket\ttest\n"
            f"fold\t{fold if eval_fold is None else eval_fold}\ncheckpoint\t{checkpoint}\n"
            f"num_users\t5\nnum_excluded\t0\npool_size_total\t50\nmean_ndcg\t{mean!r}\n")
    return str(run)


class TestReportSorting:
    def test_sorted_by_cold_ndcg_descending(self, tmp_path):
        runs = [
            fake_run(tmp_path, "a", "wmf", "content_free", warm=0.5),
            fake_run(tmp_path, "b", "mf_hybrid", "relaxed", cold=0.3),
            fake_run(tmp_path, "c", "ncacf", "relaxed", cold=0.4),
        ]
        out = str(tmp_path / "summary")
        assert main(["report", *runs, "--output", out]) == 0
        lines = (tmp_path / "summary" / "report_table.tsv").read_text().splitlines()
        variants = [l.split("\t")[0] for l in lines[1:]]
        assert variants == ["ncacf-relaxed-multiplication-q2", "mf_hybrid-relaxed", "wmf"]

    def test_nan_mean_sorts_as_missing_whatever_the_order(self, tmp_path):
        """A cold mean of NaN (no fold with a relevant test user) sorts
        last with the missing ones, by label, in either argument order."""
        runs = [
            fake_run(tmp_path, "a", "wmf", "content_free", warm=0.5),
            fake_run(tmp_path, "b", "mf_hybrid", "relaxed", cold=float("nan")),
            fake_run(tmp_path, "c", "ncacf", "relaxed", cold=0.4),
            fake_run(tmp_path, "d", "dcb", "relaxed", cold=0.3),
        ]
        for n, order in enumerate((runs, runs[::-1])):
            out = tmp_path / f"summary{n}"
            assert main(["report", *order, "--output", str(out)]) == 0
            lines = (out / "report_table.tsv").read_text().splitlines()
            assert [l.split("\t")[0] for l in lines[1:]] == [
                "ncacf-relaxed-multiplication-q2", "dcb-relaxed", "mf_hybrid-relaxed", "wmf"]

    def test_tower_combinations_are_rows_of_their_own(self, tmp_path):
        """Two ncacf-relaxed runs of fold 0 that differ in their combination
        are two variants of one fold each, not one variant of two folds."""
        runs = [fake_run(tmp_path, "mul", "ncacf", "relaxed", cold=0.3,
                         combination="multiplication", q_hidden=1),
                fake_run(tmp_path, "cat", "ncacf", "relaxed", cold=0.1,
                         combination="concatenation", q_hidden=1),
                fake_run(tmp_path, "cat2", "ncacf", "relaxed", cold=0.2,
                         combination="concatenation", q_hidden=2)]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 0
        rows = [line.split("\t") for line in
                (out / "report_table.tsv").read_text().splitlines()[1:]]
        assert [(r[0], r[3], r[6]) for r in rows] == [
            ("ncacf-relaxed-multiplication-q1", "0.3", "1"),
            ("ncacf-relaxed-concatenation-q2", "0.2", "1"),
            ("ncacf-relaxed-concatenation-q1", "0.1", "1")]

    def test_folds_of_one_variant_are_counted_once_each(self, tmp_path):
        runs = [fake_run(tmp_path, f"f{fold}", "mf_hybrid", "relaxed", cold=cold,
                         fold=fold) for fold, cold in ((0, 0.25), (1, 0.75))]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 0
        row = (out / "report_table.tsv").read_text().splitlines()[1].split("\t")
        assert row[0] == "mf_hybrid-relaxed" and row[3] == "0.5" and row[6] == "2"

    def test_repeated_fold_is_config_error(self, tmp_path, capsys):
        """A second run of one variant's fold would count as another fold."""
        runs = [fake_run(tmp_path, "a", "mf_hybrid", "relaxed", cold=0.3),
                fake_run(tmp_path, "b", "mf_hybrid", "relaxed", cold=0.4),
                fake_run(tmp_path, "c", "mf_hybrid", "strict", cold=0.4)]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert runs[0] in err and runs[1] in err and "fold 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("settings, key", [
        ({"hyper": Hyperparams(lambda_w=2.0)}, "lambda_w = 1.0 and 2.0"),
        ({"top_k": 20}, "top_k = 10 and 20"),
        ({"seed": 43}, "seed = 42 and 43")])
    def test_folds_with_other_settings_are_config_error(self, tmp_path, capsys,
                                                        settings, key):
        """Folds trained with other settings do not make one mean."""
        runs = [fake_run(tmp_path, "f0", "mf_hybrid", "relaxed", cold=0.3),
                fake_run(tmp_path, "f1", "mf_hybrid", "relaxed", cold=0.4, fold=1,
                         **settings)]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert runs[0] in err and runs[1] in err and key in err
        assert not out.exists()

    def test_warm_and_cold_runs_may_differ_in_settings(self, tmp_path):
        """A sweep tunes each setting on its own."""
        runs = [fake_run(tmp_path, "warm", "mf_hybrid", "relaxed", warm=0.5),
                fake_run(tmp_path, "cold", "mf_hybrid", "relaxed", cold=0.3,
                         hyper=Hyperparams(lambda_w=2.0))]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 0
        row = (out / "report_table.tsv").read_text().splitlines()[1].split("\t")
        assert row == ["mf_hybrid-relaxed", "0.5", "0.0", "0.3", "0.0", "1", "1"]

    @pytest.mark.parametrize("first", [{"cold": 0.3, "fold": 1}, {"warm": 0.5}],
                             ids=["cold-folds", "warm-and-cold"])
    def test_runs_on_other_prepared_data_are_config_error(self, tmp_path, capsys,
                                                          first):
        """The runs of one row, of either setting, were trained on one
        prepared dataset, as best.ckpt's `prepared` digest records."""
        runs = [fake_run(tmp_path, "a", "mf_hybrid", "relaxed", **first),
                fake_run(tmp_path, "b", "mf_hybrid", "relaxed", cold=0.4,
                         prepared=(1, 3))]
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert runs[0] in err and runs[1] in err and "prepared data" in err
        assert not out.exists()

    def test_run_without_best_checkpoint_is_data_error(self, tmp_path, capsys):
        run = fake_run(tmp_path, "a", "mf_hybrid", "relaxed", cold=0.3)
        os.remove(os.path.join(run, "best.ckpt"))
        out = tmp_path / "summary"
        assert main(["report", run, "--output", str(out)]) == 3
        assert os.path.join(run, "best.ckpt") in capsys.readouterr().err
        assert not out.exists()

    def test_eval_file_of_another_fold_is_data_error(self, tmp_path, capsys):
        """Eval files copied in from another fold's run."""
        run = fake_run(tmp_path, "a", "mf_hybrid", "relaxed", cold=0.3, fold=1,
                       eval_fold=0)
        out = tmp_path / "summary"
        assert main(["report", run, "--output", str(out)]) == 3
        assert f"{tmp_path / 'a' / 'eval_cold_test.tsv'}:3: " in capsys.readouterr().err
        assert not out.exists()


class TestReportFiles:
    @pytest.mark.parametrize("damage, line, reason", [
        (lambda text: text[:-1], 8, "no line end"),
        (lambda text: text.replace("0.5\n", "0.5x\n"), 8, "could not convert"),
        (lambda text: "".join(text.splitlines(keepends=True)[:3]), 4, "ends before")])
    def test_damaged_eval_file_is_data_error(self, tmp_path, capsys, damage, line,
                                             reason):
        """A run killed while writing its eval file leaves it cut; report
        names the line instead of dropping the run or failing on a parse."""
        run = fake_run(tmp_path, "a", "mf_hybrid", "relaxed", cold=0.5)
        path = tmp_path / "a" / "eval_cold_test.tsv"
        path.write_text(damage(path.read_text()))
        out = tmp_path / "summary"
        assert main(["report", run, "--output", str(out)]) == 3
        assert re.search(re.escape(f"{path}:{line}: ") + f".*{reason}",
                         capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["convergence_a.tsv", "report_table.tsv"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        from ncacf import data
        from ncacf.training import TrainState, write_report

        runs = [fake_run(tmp_path, "a", "wmf", "content_free", warm=0.5),
                fake_run(tmp_path, "b", "mf_hybrid", "relaxed", cold=0.3)]
        write_report(tmp_path / "a" / "report.tsv",
                     TrainState(rows=[(0, "als", 2.0, 0.5, 0.1)]), {})
        out = tmp_path / "summary"
        assert main(["report", *runs, "--output", str(out)]) == 0
        before = tree_bytes(out)
        monkeypatch.setattr(data, "replacing", half_writing(data.replacing, name))
        fake_run(tmp_path, "c", "ncacf", "relaxed", cold=0.4)
        with pytest.raises(OSError):
            main(["report", *runs, str(tmp_path / "c"), "--output", str(out)])
        assert tree_bytes(out) == before


class TestAtomicWrites:
    """Every file a verb writes goes through data.replacing."""

    @pytest.mark.parametrize("verb, directory, name", [
        ("synth", "raw", "triplets.tsv"), ("synth", "raw", "features.tsv"),
        ("synth", "raw", "triplets.tsv.planted.npz"),
        ("prepare", "prepared", "triplets.tsv"), ("prepare", "prepared", "features.tsv"),
        ("prepare", "prepared", "split_cold.txt"), ("prepare", "prepared", "split_warm.txt"),
        ("prepare", "prepared", "manifest.txt"),
        ("train", "run", "config.ini"),
        ("sweep", "run", "sweep.tsv"), ("sweep", "run", "best_config.ini")])
    def test_failed_write_keeps_previous_file(self, workspace, monkeypatch, verb,
                                              directory, name):
        """A rerun whose write of one file fails halfway, as on a full disk,
        keeps that file's previous bytes and leaves no temporary."""
        from ncacf import data

        cfg = str(workspace / "cfg.ini")
        assert main([verb, "--config", cfg]) == 0
        path = workspace / directory / name
        before = path.read_bytes()
        monkeypatch.setattr(data, "replacing", half_writing(data.replacing, name))
        with pytest.raises(OSError):
            main([verb, "--config", cfg])
        assert path.read_bytes() == before
        assert not list(workspace.rglob("*.tmp"))

    def test_no_temporary_left_after_any_verb(self, tmp_path):
        cfg = write_cfg(tmp_path)
        run = tmp_path / "run"
        for argv in (["synth", "--config", cfg], ["prepare", "--config", cfg],
                     ["train", "--config", cfg], ["sweep", "--config", cfg],
                     ["evaluate", "--config", cfg, "--checkpoint", str(run / "best.ckpt")],
                     ["report", str(run)]):
            assert main(argv) == 0
            assert not list(tmp_path.rglob("*.tmp")), argv[0]


class TestConfigRoundtrip:
    def test_emitted_config_reparses_equal(self, tmp_path):
        cfg_path = write_cfg(tmp_path, family="ncacf", coupling="strict")
        cfg = load_config(cfg_path)
        out = tmp_path / "emitted.ini"
        write_config(out, cfg)
        again = load_config(str(out))
        assert again == cfg

    def test_profile_defaults_applied(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        desk = load_config(cfg_path)
        assert desk.top_k == 5  # file value beats profile default
        text = (tmp_path / "cfg.ini").read_text()
        (tmp_path / "pf.ini").write_text(
            text.replace("embed_dim = 4\n", "").replace("top_k = 5\n", ""))
        paper = load_config(str(tmp_path / "pf.ini"), profile="paper-faithful")
        assert paper.hyper.embed_dim == 128
        assert paper.top_k == 50

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_cfg(tmp_path, extra="\n[run]\nbogus_key = 1\n")
        from ncacf.errors import ConfigError
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_desk_synth_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.synth_users, cfg.synth_items, cfg.synth_k_true) == (500, 400, 8)

    def test_output_root_env(self, tmp_path, monkeypatch):
        root = tmp_path / "outroot"
        monkeypatch.setenv("NCACF_OUTPUT_ROOT", str(root))
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.output == str(root / "run")

    # The workspace trains wmf on a warm split.
    @pytest.mark.parametrize("section, key, value", [
        ("run", "threads", "4"), ("variant", "interaction", "dot_product"),
        ("variant", "output_activation", "sigmoid"), ("eval", "setting", "warm"),
    ], ids=["threads", "interaction", "output_activation", "setting"])
    def test_retired_key_ignored(self, workspace, capsys, section, key, value):
        """[eval] setting, which perfbench's configs still write, loads and
        is ignored; the other retired keys are unknown keys, which stop
        train before any write."""
        line = f"\n[{section}]\n{key} = {value}\n"
        cfg = write_cfg(workspace, name="retired.ini", extra=line)
        if key != "setting":
            before = tree_bytes(workspace)
            capsys.readouterr()
            assert main(["train", "--config", cfg]) == 2
            assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err
            assert tree_bytes(workspace) == before
            return
        loaded = load_config(cfg)
        assert not hasattr(loaded, key)
        assert loaded == load_config(write_cfg(workspace))
        assert main(["train", "--config", cfg]) == 0
        run = workspace / "run"
        keys = [line.split(" = ")[0] for line in (run / "config.ini").read_text().splitlines()]
        assert key not in keys
        # Run directories written before the key was retired still report.
        with open(run / "config.ini", "a", encoding="utf-8") as fh:
            fh.write(line)
        assert main(["report", str(run), "--output", str(workspace / "summary")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg, f"--{key}", value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("family, coupling, key, value, names", [
        ("ncacf", "relaxed", "[variant]\ninteraction", "dot_product", UNKNOWN_INTERACTION),
        ("ncf", "content_free", "[variant]\ninteraction", "dot_product", UNKNOWN_INTERACTION),
        ("mf_uni", "strict", "[variant]\ninteraction", "deep", UNKNOWN_INTERACTION),
        ("wmf", "content_free", "[variant]\ninteraction", "deep", UNKNOWN_INTERACTION),
        ("ncacf", "relaxed", "[variant]\ninteraction", "tower", UNKNOWN_INTERACTION),
        ("ncacf", "strict", "[variant]\noutput_activation", "identity",
         "unknown key 'output_activation' in section [variant]"),
        ("wmf", "content_free", "[eval]\nsetting", "cold", "[split] mode"),
    ], ids=["ncacf-dot_product", "ncf-dot_product", "mf_uni-deep", "wmf-deep",
            "unknown-interaction", "identity-output", "other-setting"])
    def test_retired_key_with_another_value_is_config_error(
            self, workspace, capsys, family, coupling, key, value, names):
        """An old config whose retired key asks for what the code no longer
        does stops before any write, naming the key: [eval] setting names
        what replaces it, and the other retired keys are unknown keys."""
        cfg = write_cfg(workspace, name="old.ini", family=family, coupling=coupling,
                        extra=f"\n{key} = {value}\n")
        before = tree_bytes(workspace)
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        assert names in capsys.readouterr().err
        assert tree_bytes(workspace) == before

    def test_readme_lists_every_config_key(self):
        """The README's Configuration block names each section's INI keys,
        and no others."""
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        block = text.split("```")[1]
        listed, section = {}, None
        for line in block.strip().splitlines():
            match = re.match(r"\[(\w+)\]", line)
            if match:
                section = match.group(1)
                line = line[match.end():]
            keys = re.sub(r"\([^)]*\)", "", line).split(",")
            listed.setdefault(section, []).extend(k.strip() for k in keys if k.strip())
        want = {section: [config._INI_NAME.get(name, name) for name in names]
                for section, names in config._SECTIONS.items()}
        assert listed == want

    @pytest.mark.parametrize("extra, message", [
        ("[variant]\ncombination = sum", "unknown combination 'sum'"),
        ("[split]\nmode = hot", "split mode must be cold or warm, got 'hot'"),
        ("[split]\nfold = 4", "fold 4 out of range for 4 folds"),
        ("[eval]\ntop_k = 0", "top_k must be >= 1"),
        ("[sweep]\ngrid_lambda_w = 0.1,high", "grid_lambda_w: expected comma-separated"),
        ("[hyperparams]\nembed_dim = 4.5", "embed_dim: cannot parse '4.5' as int"),
        (None, "absent.ini' not found"),
        ("[weights]\nlambda_w = 1.0", "unknown config section [weights]"),
        ("[run]\nprofile = huge", "unknown profile 'huge'"),
    ], ids=["combination", "split_mode", "fold", "top_k", "grid", "int", "missing_file",
            "section", "profile"])
    def test_invalid_config_is_config_error(self, tmp_path, capsys, extra, message):
        """The config is a wmf one, whose variant never checks its combination;
        each error stops synth before it writes."""
        cfg = (str(tmp_path / "absent.ini") if extra is None
               else write_cfg(tmp_path, extra=f"\n{extra}\n"))
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert main(["synth", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("flags, want", [
        ({}, {"profile": "paper-faithful", "embed_dim": 128, "top_k": 50,
              "min_item_users": 50, "hidden_width": 8, "seed": 7}),
        ({"profile": "desk"}, {"profile": "desk", "embed_dim": 16, "top_k": 10,
                               "min_item_users": 5, "hidden_width": 8, "seed": 7}),
        ({"seed": 3, "output": "elsewhere"}, {"profile": "paper-faithful", "seed": 3,
                                              "output": "elsewhere", "embed_dim": 128}),
    ], ids=["file_profile", "desk_flag", "seed_and_output_flags"])
    def test_layer_precedence(self, tmp_path, monkeypatch, flags, want):
        """defaults < profile (the flag, else [run] profile) < file < flags:
        the file names paper-faithful and sets hidden_width and seed, but
        not embed_dim, top_k or min_item_users."""
        monkeypatch.delenv("NCACF_OUTPUT_ROOT", raising=False)
        text = pathlib.Path(write_cfg(tmp_path)).read_text()
        for line in ("embed_dim = 4\n", "top_k = 5\n", "min_item_users = 1\n"):
            text = text.replace(line, "")
        path = tmp_path / "pf.ini"
        path.write_text(text + "\n[run]\nprofile = paper-faithful\n")
        cfg = load_config(str(path), **flags)
        got = {key: getattr(cfg.hyper if hasattr(cfg.hyper, key) else cfg, key)
               for key in want}
        if "output" in want:
            want = {**want, "output": str(tmp_path / want["output"])}
        assert got == want
