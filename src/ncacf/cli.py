"""Command-line entry point orchestrating the full experimental protocol.

Verbs: prepare, synth, train, evaluate, sweep, report. Every command is
driven by an INI config (see config.py) plus a few overrides. Exit codes:
0 success, 2 config error, 3 data error, 4 training divergence.
`prepare` writes the prepared text files and snapshot.bin, their checked
binary mirror; train, evaluate and sweep read only the snapshot. `train`
records the snapshot's digest in its checkpoints, and evaluate, --resume
and --pretrained take a checkpoint only with the snapshot it was trained on.
`train` stores in best.ckpt the validation result of the epoch that made its
model the best; `evaluate` then ranks only the test bucket, unless the
config's tau or top_k differs from the stored ones.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import asdict, replace
from functools import cached_property

import numpy as np

from . import data as D
from . import evaluation as E
from . import models as M
from . import training as T
from .config import ExperimentConfig, load_config, write_config
from .errors import (ColdStartUnsupportedError, ConfigError, DataError,
                     TrainingDivergedError)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # includes ColdStartUnsupportedError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncacf",
        description="Content-aware collaborative filtering experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--profile", choices=("desk", "paper-faithful"), default=None)
        p.add_argument("--output", default=None, help="run output directory")

    p = sub.add_parser("prepare", help="filter, split and snapshot a dataset")
    common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", help="generate a planted-model synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model variant")
    common(p)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--pretrained", default=None,
                   help="dot-product pretraining checkpoint (deep variants)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-search the regularization weights")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate runs into a comparison table")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--output", default=None, help="directory for report files")
    p.set_defaults(func=cmd_report)

    return parser


def _config(args) -> ExperimentConfig:
    return load_config(args.config, profile=args.profile, seed=args.seed,
                       output=args.output)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def cmd_prepare(args) -> int:
    cfg = _config(args)
    # Everything is parsed, split and checked before the first write, so that
    # a failing prepare leaves the earlier prepared data as it was.
    raw = D.load_triplets(cfg.triplets)
    # Numbered as load_triplets numbers the file written below, so that the
    # manifest and the snapshot match that file.
    filtered = D.filter_activity(raw, cfg.min_user_songs, cfg.min_item_users)
    table = None
    if cfg.features is not None and os.path.exists(cfg.features):
        labels, values = D.load_features(cfg.features)
        table = D.align_features(labels, values, filtered.item_labels)
    cold = D.split_cold(filtered.num_items, cfg.num_folds, cfg.val_fraction, cfg.seed)
    warm = D.split_warm(filtered, cfg.num_folds, cfg.val_fraction, cfg.seed)
    orphans = D.scan_warm_orphans(warm, filtered)
    if orphans:
        raise DataError(f"warm split repair failed for {len(orphans)} fold/item pairs")

    os.makedirs(cfg.prepared, exist_ok=True)
    paths = _prepared_paths(cfg)
    D.write_triplets(paths["triplets"], filtered)
    if table is not None:
        D.write_features(paths["features"], filtered.item_labels, table.values)
    else:  # an earlier prepare's feature file would describe other data
        with contextlib.suppress(FileNotFoundError):
            os.remove(paths["features"])
    for plan in (cold, warm):
        D.write_split_plan(paths[f"split_{plan.mode}"], plan)
    manifest = os.path.join(cfg.prepared, "manifest.txt")
    _write_manifest(manifest, cfg, filtered, cold, warm, len(orphans))
    D.write_snapshot(os.path.join(cfg.prepared, "snapshot.bin"), filtered, table,
                     (cold, warm), paths)
    print(f"prepared dataset in {cfg.prepared}")
    return 0


def _prepared_paths(cfg: ExperimentConfig) -> dict[str, str]:
    """The prepared text files, keyed as the snapshot records their digests."""
    return {key: os.path.join(cfg.prepared, name)
            for key, name in (("triplets", "triplets.tsv"), ("features", "features.tsv"),
                              ("split_cold", "split_cold.txt"),
                              ("split_warm", "split_warm.txt"))}

def _bucket_interactions(triplets: D.InteractionTriplets, plan: D.SplitPlan,
                         fold: int) -> dict[str, tuple[int, int]]:
    """(songs, interactions) per bucket for one rotation of the plan."""
    membership = D.materialize_fold(plan, fold)
    out = {}
    if plan.mode == "cold":
        for bucket, items in (("train", membership.train),
                              ("validation", membership.validation),
                              ("test", membership.test)):
            keep = np.isin(triplets.items, items)
            out[bucket] = (int(items.size), int(keep.sum()))
    else:
        for bucket, idx in (("train", membership.train),
                            ("validation", membership.validation),
                            ("test", membership.test)):
            out[bucket] = (triplets.num_items, int(idx.size))
    return out


def _write_manifest(path, cfg: ExperimentConfig, triplets: D.InteractionTriplets,
                    cold: D.SplitPlan, warm: D.SplitPlan, orphans: int) -> None:
    lines = ["# dataset manifest\n",
             f"users = {triplets.num_users}\n",
             f"songs = {triplets.num_items}\n",
             f"interactions = {triplets.num_entries}\n",
             f"min_user_songs = {cfg.min_user_songs}\n",
             f"min_item_users = {cfg.min_item_users}\n",
             "filter_order = activity_filter_on_raw_playcounts_then_binarize\n",
             f"binarize_tau = {cfg.hyper.tau!r}\n",
             f"seed = {cfg.seed}\n",
             f"num_folds = {cfg.num_folds}\n",
             f"val_fraction = {cfg.val_fraction!r}\n",
             f"manifest_fold = {cfg.fold}\n",
             f"warm_orphan_violations = {orphans}\n",
             f"cold_validation_songs = {cold.validation.size}\n",
             "cold_fold_sizes = " + " ".join(str(f.size) for f in cold.folds) + "\n",
             f"warm_validation_interactions = {warm.validation.size}\n",
             "warm_fold_sizes = " + " ".join(str(f.size) for f in warm.folds) + "\n",
             f"warm_train_always = {warm.train_always.size}\n",
             "# setting\tbucket\tusers\tsongs\tinteractions\n",
             f"total\t-\t{triplets.num_users}\t{triplets.num_items}\t{triplets.num_entries}\n"]
    for setting, plan in (("warm", warm), ("cold", cold)):
        rows = _bucket_interactions(triplets, plan, cfg.fold)
        for bucket in ("train", "validation", "test"):
            songs, inter = rows[bucket]
            lines.append(f"{setting}\t{bucket}\t{triplets.num_users}\t{songs}\t{inter}\n")
    D.write_text(path, "".join(lines))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = _config(args)
    synth = D.generate_synthetic(cfg.synth_users, cfg.synth_items, cfg.synth_k_true,
                                 cfg.synth_features, cfg.synth_noise,
                                 cfg.synth_density, cfg.seed, tau=cfg.hyper.tau)
    for path in (cfg.triplets, cfg.features):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    D.write_triplets(cfg.triplets, synth.triplets)
    D.write_features(cfg.features, synth.triplets.item_labels, synth.features.values)
    sidecar = cfg.triplets + ".planted.npz"
    with D.replacing(sidecar) as fh:
        np.savez(fh, W=synth.planted.W, H=synth.planted.H,
                 feature_map=synth.planted.feature_map,
                 affinity_median=synth.planted.affinity_median)
    print(f"wrote {synth.triplets.num_entries} interactions "
          f"({cfg.synth_users} users x {cfg.synth_items} items) and planted sidecar")
    return 0


# ---------------------------------------------------------------------------
# shared run loading
# ---------------------------------------------------------------------------

class PreparedData:
    """The prepared data a verb runs on, read from the snapshot alone, and
    the snapshot's digest, which names this data in a checkpoint."""

    def __init__(self, cfg: ExperimentConfig):
        self.triplets, self.features, plans, self.digest = D.read_snapshot(
            os.path.join(cfg.prepared, "snapshot.bin"), _prepared_paths(cfg))
        plan = plans[cfg.split_mode]
        for key in ("num_folds", "val_fraction"):
            have, want = getattr(plan, key), getattr(cfg, key)
            if have != want:
                raise ConfigError(f"the data in {cfg.prepared} was prepared with {key} = "
                                  f"{have!r}, the config asks for {want!r}; rerun "
                                  f"`ncacf prepare` with this config")
        self.membership = D.materialize_fold(plan, cfg.fold)
        if cfg.split_mode == "cold":
            self.item_pool = self.membership.train
        else:
            self.item_pool = np.arange(self.triplets.num_items)

    @cached_property
    def train_data(self) -> D.SparsePlaycounts:
        train_idx = self.membership.train_entry_idx(self.triplets)
        return D.SparsePlaycounts.from_triplets(self.triplets.subset(train_idx))

    def standardized_features(self, variant):
        """The features standardized over the item pool; None for a variant
        without content, which never reads them."""
        if not variant.has_content:
            return None
        if self.features is None:
            raise DataError("this variant needs item features; none were prepared")
        return D.standardize_features(self.features, self.item_pool)


def _make_validator(cfg: ExperimentConfig, prep: PreparedData, variant,
                    features_std):
    """validator(model) -> the model's mean validation NDCG; validator.last
    is the EvalResult of its last call. None when the split gives the
    variant no validation signal."""
    if cfg.split_mode == "cold" and not variant.has_content:
        return None
    scheme = cfg.hyper.scheme()

    def validator(model):
        validator.last = E.evaluate(model, prep.membership, "validation", prep.triplets,
                                    scheme, features_std, cfg.top_k)
        return validator.last.mean

    return validator


def _check_trained_on(header: dict, cfg: ExperimentConfig, prep: PreparedData,
                      path) -> None:
    """ConfigError unless the checkpoint at path was trained on the config's
    split mode and fold of the prepared data prep holds: the test items of
    another fold, or of data prepared again with another seed, were some of
    its training items. The same snapshot also fixes the users, the items
    and the features, so the checkpoint's model fits them."""
    hyper = header.get("hyper") or {}
    have, want = (hyper.get("split_mode"), hyper.get("fold")), (cfg.split_mode, cfg.fold)
    if have != want:
        raise ConfigError(f"checkpoint {path} was trained on (split mode, fold) = "
                          f"{have}, the config asks for {want}")
    if header.get("prepared") != prep.digest:
        raise ConfigError(f"checkpoint {path} was not trained on the prepared data in "
                          f"{cfg.prepared}: its training data may hold that data's "
                          f"test items; train on this data with `ncacf train`")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _config(args)
    variant = cfg.variant()
    last_path = os.path.join(cfg.output, "last.ckpt")
    best_path = os.path.join(cfg.output, "best.ckpt")
    state = None
    if args.resume and args.pretrained:
        raise ConfigError("--resume and --pretrained cannot be combined")
    if args.resume:
        state, header = T.resume_state(variant, args.resume)
    elif args.pretrained:
        state, header = T.pretrained_state(variant, cfg.hyper, args.pretrained)
    prep = PreparedData(cfg)
    if state is not None:
        _check_trained_on(header, cfg, prep, args.resume or args.pretrained)
    features_std = prep.standardized_features(variant)
    validator = _make_validator(cfg, prep, variant, features_std)
    # A resumed run continues the best.ckpt and report.tsv of its own directory.
    if args.resume and (os.path.dirname(os.path.realpath(args.resume))
                        != os.path.realpath(cfg.output)):
        raise ConfigError(f"--resume {args.resume} is not in the run's output "
                          f"directory {cfg.output}; resume a run in its own directory")
    # A resumed run keeps the rows of the epochs before its checkpoint; a
    # fresh run drops the report of whatever run used the directory before.
    report_path = os.path.join(cfg.output, "report.tsv")
    if os.path.exists(report_path):
        if args.resume:
            state.rows = [row for row in T.read_report(report_path)
                          if row[0] < state.global_epoch]
        else:
            os.remove(report_path)

    os.makedirs(cfg.output, exist_ok=True)
    write_config(os.path.join(cfg.output, "config.ini"), cfg)

    run_header = {"prepared": prep.digest, "hyper": _hyper_dict(cfg)}

    # Whether last.ckpt holds this run's position; a resumed run's does.
    saved = {"last": bool(args.resume)}

    def save_last(snapshot):
        # The report first: a crash between the two writes leaves a row past
        # last.ckpt's epoch, which --resume drops.
        T.write_report(report_path, snapshot, run_header["hyper"])
        M.save_model(last_path, snapshot.model,
                     extra_header={**run_header, **T.checkpoint_header(snapshot)},
                     adams=snapshot.adams)
        saved["last"] = True

    def save_best(model, result=None):
        # The validation result of the epoch that set this best, which
        # evaluate reads back in place of ranking that bucket again.
        stored = None
        if result is not None and np.isfinite(result.mean):
            stored = E.stored_result(result, cfg.hyper.tau, cfg.top_k)
        M.save_model(best_path, model, extra_header=dict(run_header), validation=stored)

    def on_epoch(snapshot):
        # best.ckpt first: a crash before last.ckpt is written resumes from
        # the epoch before, which sets the same best again and rewrites it.
        if snapshot.best_epoch == snapshot.global_epoch - 1:
            save_best(snapshot.model, validator.last)
        save_last(snapshot)

    final = T.train(variant, prep.train_data, features_std, cfg.hyper, cfg.seed,
                    prep.item_pool, validator, state, on_epoch)
    if not saved["last"]:  # a fresh run in which no observed epoch ran
        save_last(final)
    if final.best_val is None:  # nothing validated: the final model is the best
        save_best(final.model)
    outcome = (f"final objective {final.rows[-1][2]:.6g}" if final.rows
               else "no training epochs run")
    print(f"trained {variant.family}/{variant.coupling}; {outcome}; run dir {cfg.output}")
    return 0


def _hyper_dict(cfg: ExperimentConfig) -> dict:
    return {"family": cfg.family, "coupling": cfg.coupling,
            "combination": cfg.combination, "q_hidden": cfg.q_hidden,
            "split_mode": cfg.split_mode, "fold": cfg.fold, "seed": cfg.seed,
            "top_k": cfg.top_k, **asdict(cfg.hyper)}


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    cfg = _config(args)
    model, header, _, stored = M.load_model(args.checkpoint)
    want = cfg.variant()
    if model.variant != want:
        raise ConfigError(
            f"checkpoint variant {model.variant} does not match config {want}")
    prep = PreparedData(cfg)
    _check_trained_on(header, cfg, prep, args.checkpoint)
    if cfg.split_mode == "cold" and not model.variant.has_content:
        raise ColdStartUnsupportedError(
            f"{model.variant.family} cannot score unseen items: it has no "
            f"content branch (cold-start evaluation unsupported)")
    # train's own call on the same snapshot: bit-identical features.
    features_std = prep.standardized_features(model.variant)

    os.makedirs(cfg.output, exist_ok=True)
    scheme = cfg.hyper.scheme()

    def rank(bucket):
        return E.evaluate(model, prep.membership, bucket, prep.triplets,
                          scheme, features_std, cfg.top_k)

    # The checks above bind the checkpoint to this split and prepared data,
    # so a validation result stored with this tau and top_k is the ranking's
    # bits. Both buckets are scored before either file is written, so that a
    # failing evaluation leaves no eval file.
    validation = E.stored_validation(stored, cfg.hyper.tau, cfg.top_k)
    results = [validation if validation is not None else rank("validation"),
               rank("test")]
    for result in results:
        out = os.path.join(cfg.output, f"eval_{cfg.split_mode}_{result.bucket}.tsv")
        E.write_eval_result(out, result)
        print(f"{cfg.split_mode}/{result.bucket}: mean NDCG@{cfg.top_k} = {result.mean:.4f} "
              f"over {result.num_users} users ({result.num_excluded} excluded, "
              f"{result.num_all_tied} ranked by item index alone)")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg = _config(args)
    variant = cfg.variant()
    prep = PreparedData(cfg)
    features_std = prep.standardized_features(variant)
    validator = _make_validator(cfg, prep, variant, features_std)
    if validator is None:
        raise ConfigError("sweep needs a validation signal; cold split with a "
                          "content-free family has none")
    os.makedirs(cfg.output, exist_ok=True)

    def evaluate_pair(lw, lh):
        hyper = replace(cfg.hyper, lambda_w=lw, lambda_h=lh)
        final = T.train(variant, prep.train_data, features_std, hyper, cfg.seed,
                        prep.item_pool, validator)
        # best_val is the best model's validation score, taken during training.
        return final.best_val if final.best_val is not None else validator(final.model)

    (best_lw, best_lh), table = E.grid_search(cfg.grid_lambda_w, cfg.grid_lambda_h,
                                              evaluate_pair)
    sweep_path = os.path.join(cfg.output, "sweep.tsv")
    D.write_text(sweep_path, "lambda_w\tlambda_h\tval_ndcg\n"
                 + "".join(f"{lw!r}\t{lh!r}\t{score!r}\n" for lw, lh, score in table))
    best_cfg = ExperimentConfig(**{**cfg.__dict__})
    best_cfg.hyper = replace(cfg.hyper, lambda_w=best_lw, lambda_h=best_lh)
    write_config(os.path.join(cfg.output, "best_config.ini"), best_cfg)
    print(f"best (lambda_w, lambda_h) = ({best_lw!r}, {best_lh!r}); "
          f"table in {sweep_path}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    # Every file is written after all runs are read. A run's convergence file
    # is named after its directory, so two runs may not share that name. A
    # row is one variant, a tower's combination and q_hidden included, and
    # holds each (setting, fold) of it once.
    names: dict[str, str] = {}
    groups: dict[str, dict] = {}
    folds: dict[tuple, str] = {}
    series: dict[str, list] = {}
    for run_dir in args.run_dirs:
        name = os.path.basename(os.path.normpath(run_dir))
        if name in names:
            raise ConfigError(f"run directories {names[name]} and {run_dir} share "
                              f"the name {name!r}, so both would write "
                              f"convergence_{name}.tsv; give the runs distinct names")
        names[name] = run_dir
        cfg_path = os.path.join(run_dir, "config.ini")
        if not os.path.exists(cfg_path):
            raise DataError(f"{run_dir} has no config.ini; not a run directory")
        cfg = load_config(cfg_path)
        variant = cfg.variant()
        label = variant.family if variant.coupling == "content_free" \
            else f"{variant.family}-{variant.coupling}"
        if variant.deep:
            label += f"-{variant.combination}-q{variant.q_hidden}"
        entry = groups.setdefault(label, {"warm": [], "cold": []})
        for setting in ("warm", "cold"):
            mean = E.read_eval_mean(os.path.join(run_dir, f"eval_{setting}_test.tsv"),
                                    cfg.fold)
            if mean is None:
                continue
            key = (label, setting, cfg.fold)
            if key in folds:
                raise ConfigError(f"run directories {folds[key]} and {run_dir} both hold "
                                  f"{label}'s {setting} fold {cfg.fold}; give the "
                                  f"report each fold of a variant once")
            folds[key] = run_dir
            entry[setting].append(mean)
        report_path = os.path.join(run_dir, "report.tsv")
        if os.path.exists(report_path):
            series[name] = T.read_report(report_path)

    out_dir = args.output or args.run_dirs[0]
    os.makedirs(out_dir, exist_ok=True)
    for name, report_rows in series.items():
        D.write_text(os.path.join(out_dir, f"convergence_{name}.tsv"),
                     T.format_report_rows(report_rows, seconds=False))

    rows = []
    for label, entry in groups.items():
        warm_mean, warm_std = E.fold_mean_std(entry["warm"]) if entry["warm"] else (None, None)
        cold_mean, cold_std = E.fold_mean_std(entry["cold"]) if entry["cold"] else (None, None)
        rows.append((label, warm_mean, warm_std, cold_mean, cold_std,
                     len(entry["warm"]), len(entry["cold"])))
    rows.sort(key=lambda r: (-(r[3] if r[3] is not None else float("-inf")), r[0]))

    table_path = os.path.join(out_dir, "report_table.tsv")
    D.write_text(table_path,
                 "variant\twarm_mean\twarm_std\tcold_mean\tcold_std\twarm_folds\tcold_folds\n"
                 + "".join(f"{label}\t{_fmt(wm)}\t{_fmt(ws)}\t{_fmt(cm)}\t{_fmt(cs)}\t{nw}\t{nc}\n"
                           for label, wm, ws, cm, cs, nw, nc in rows))
    print(f"wrote {table_path} ({len(rows)} variants)")
    return 0


def _fmt(x) -> str:
    return "-" if x is None else repr(float(x))


if __name__ == "__main__":
    sys.exit(main())
