"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. Every workload run.py defines (those in BENCHMARK.json and wmf_warm),
   shrunk to a tiny scale, runs once untraced and once traced. Every metric
   BENCHMARK.json names must be emitted with its unit and a finite value,
   every operation must pass except the NDCG margin (a tiny model is not
   expected to beat random by the full-scale margin), and in each traced
   verb the span self times must sum to the root span's duration.
2. An untrained model (wmf_warm at full scale with n_iters = 0) must fail
   the check that test NDCG beats a random ranking.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY = {"users": 400, "items": 200, "per_user": 20}


def check_metrics(out: dict, expected: dict, label: str) -> None:
    metrics = out["summary"]["metrics"]
    assert set(metrics) == set(expected), \
        f"{label}: emitted {sorted(metrics)}, BENCHMARK.json names {sorted(expected)}"
    for name, metric in metrics.items():
        assert metric["unit"] == expected[name], f"{label}: unit of {name}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), \
            f"{label}: {name} = {metric['value']!r}"


def check_spans(out: dict, label: str) -> None:
    traced = out["details"]["traced"]
    assert traced, f"{label}: no traced repetition"
    for rep in traced:
        for verb, tree in rep["trace_tree"]["roots"].items():
            root, total = tree["root_s"], tree["self_sum_s"]
            assert abs(total - root) <= 1e-9 + 1e-6 * root, \
                f"{label}/{verb}: self times sum to {total!r}, root span lasts {root!r}"
        assert not rep["trace_tree"]["counter_errors"], \
            f"{label}: {rep['trace_tree']['counter_errors']}"


def smoke(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    missing = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    assert not missing, f"BENCHMARK.json names undefined workloads {sorted(missing)}"
    for name, workload in run.WORKLOADS.items():
        tiny = replace(workload, **TINY)
        for trace in (False, True):
            label = f"{name}/trace={int(trace)}"
            work = os.path.join(run.WORK_ROOT, f"selftest-{name}-{int(trace)}")
            try:
                out = run.run(name, tiny, seed=1, seconds=0, trace=trace, work=work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            failed = [op for op in out["details"]["failed_ops"]
                      if op[1] != "ndcg_above_random"]
            assert not failed, f"{label}: {failed}"
            check_metrics(out, per_layer if trace else end_to_end, label)
            if trace:
                check_spans(out, label)
            print(f"ok  {label}: {out['summary']['attempted']} operations")


def untrained() -> None:
    workload = run.WORKLOADS["wmf_warm"]
    config = {**workload.config,
              "hyperparams": {**workload.config["hyperparams"], "n_iters": 0}}
    work = os.path.join(run.WORK_ROOT, "selftest-untrained")
    try:
        out = run.run("wmf_warm", replace(workload, config=config), seed=1,
                      seconds=0, trace=False, work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = {op[1]: op[3] for op in out["details"]["failed_ops"]}
    assert "ndcg_above_random" in failed, f"untrained model passed: {out['details']}"
    print(f"ok  untrained wmf_warm fails ndcg_above_random: {failed['ndcg_above_random']}")


def bare_directory() -> None:
    bare = os.path.join(run.WORK_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "hybrid_cold", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the program's sources"
    assert '"correct"' not in proc.stdout, f"printed a result: {proc.stdout!r}"
    print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    smoke(spec)
    untrained()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
