"""Output-identity check: run the same verbs over two source trees and
compare everything they write.

    python3 tools/identity.py [--base REV|DIR] [--work DIR]
    python3 tools/identity.py --self-test [--work DIR]

For each workload BENCHMARK.json gates, the inputs are generated once from
seed 7 with perfbench/gen.py and the workload's config from perfbench/run.py. Each tree
then runs, in a fresh directory and one child process per verb, with
`PYTHONPATH` set to the tree's `src/` and BLAS on one thread:

    ncacf prepare   --config exp.ini
    ncacf train     --config exp.ini
    ncacf evaluate  --config exp.ini --checkpoint run/best.ckpt
    ncacf evaluate  --config exp.ini --checkpoint run/last.ckpt --output eval_last
    ncacf report    run --output report

Every file the verbs write, and each verb's standard output, is compared
with the other tree's. Absolute paths of a tree's work directory are masked,
and so is the seconds column of `report.tsv`. Record files (checkpoints,
`snapshot.bin`) are compared header key by header key and array by array; a
differing array prints its max absolute and max relative difference.
Differing numbers in a text file print the same per column; a text file
that gains or loses lines prints the first line that differs, on both sides.
The exit code is 0 when every file is identical, 2 when `--base` is neither
a source tree nor a git revision, and 1 otherwise.

`--base` takes a source tree or a git revision (default HEAD), which is
exported with `git archive`; it is compared with the tree this script is in.
`--self-test` runs this tree twice on ncacf_cold, expects identical outputs,
then expects a one-ulp change to one checkpoint array and to one report
objective, and a line inserted into one eval file, each to be flagged, and
nothing else.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import gen  # noqa: E402  (perfbench/gen.py)
import run as bench  # noqa: E402  (perfbench/run.py)
from ncacf import data  # noqa: E402  (this tree's, for the self-test's writes)

SEED = 7

# The record file layout of ncacf.data.write_records, read here on its own so
# that two trees of different format versions can still be compared.
_RECORD_HEAD = struct.Struct("<4sIIQQI")
_RECORD_SUFFIXES = (".ckpt", ".bin")
_STEPS = (("prepare", []), ("train", []),
          ("evaluate", ["--checkpoint", "run/best.ckpt"]),
          ("evaluate", ["--checkpoint", "run/last.ckpt", "--output", "eval_last"]),
          ("report", ["run", "--output", "report"]))


# ---------------------------------------------------------------------------
# Running the verbs
# ---------------------------------------------------------------------------

def export_tree(base: str, dest: str) -> str:
    """A source tree directory as is, or a git revision exported to dest."""
    if os.path.isdir(os.path.join(base, "src", "ncacf")):
        return os.path.abspath(base)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    try:
        archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                                 capture_output=True).stdout
    except subprocess.CalledProcessError:
        print(f"--base {base!r} is neither a source tree nor a git revision",
              file=sys.stderr)
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def tree_env(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = "1"
    env.pop("NCACF_OUTPUT_ROOT", None)
    return env


def run_tree(tree: str, raw: str, config: dict, work: str) -> None:
    """Run the verbs of _STEPS from tree's src/ in a fresh work directory,
    each with the config but `report`, which takes run directories; each
    verb's standard output goes to stdout_<n>_<verb>.txt there."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(raw, os.path.join(work, "raw"))
    bench.write_ini(os.path.join(work, "exp.ini"), config)
    env = tree_env(tree)
    where = subprocess.run([sys.executable, "-c", "import ncacf; print(ncacf.__file__)"],
                           env=env, cwd=work, check=True, capture_output=True,
                           text=True).stdout.strip()
    if not os.path.realpath(where).startswith(os.path.realpath(tree) + os.sep):
        raise SystemExit(f"{tree}: ncacf imports from {where}, not from this tree")
    for n, (verb, extra) in enumerate(_STEPS):
        config = [] if verb == "report" else ["--config", "exp.ini"]
        proc = subprocess.run([sys.executable, "-m", "ncacf.cli", verb, *config, *extra],
                              env=env, cwd=work, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: `ncacf {verb}` exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        with open(os.path.join(work, f"stdout_{n}_{verb}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(proc.stdout)


# ---------------------------------------------------------------------------
# Comparing
# ---------------------------------------------------------------------------

def read_record_file(path: str):
    """(magic, format version, header, {name: array}) of a record file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, count, header_len, _, _ = _RECORD_HEAD.unpack_from(raw)
    header = json.loads(raw[_RECORD_HEAD.size:_RECORD_HEAD.size + header_len])
    buf = io.BytesIO(raw)
    buf.seek(_RECORD_HEAD.size + header_len)
    arrays = [np.lib.format.read_array(buf, allow_pickle=False) for _ in range(count)]
    names = header.get("records") or [f"record{i}" for i in range(count)]
    return magic, version, header, dict(zip(names, arrays))


def drift(a: np.ndarray, b: np.ndarray, counted: bool = True) -> str:
    """Max absolute and max relative difference of two float arrays, and
    how many entries differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)
    return (f"max abs {np.nanmax(gap):.3g}, max rel {np.nanmax(rel):.3g}"
            + (f" ({int(np.count_nonzero(gap))} of {gap.size} differ)" if counted else ""))


def compare_records(path_a: str, path_b: str) -> list[str]:
    """One line per differing header key and array; [] when identical."""
    _, _, header_a, arrays_a = read_record_file(path_a)
    _, _, header_b, arrays_b = read_record_file(path_b)
    out = [f"header {key}: {header_a.get(key)!r} vs {header_b.get(key)!r}"
           for key in sorted(set(header_a) | set(header_b))
           if key != "records" and header_a.get(key) != header_b.get(key)]
    for name in list(arrays_a) + [n for n in arrays_b if n not in arrays_a]:
        a, b = arrays_a.get(name), arrays_b.get(name)
        if a is None or b is None:
            out.append(f"array {name}: only in {'the base' if b is None else 'the change'}")
        elif a.dtype != b.dtype or a.shape != b.shape:
            out.append(f"array {name}: {a.dtype}{a.shape} vs {b.dtype}{b.shape}")
        elif not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
            out.append(f"array {name}: {drift(a, b)}")
    return out


def masked_lines(path: str, root: str) -> list[str]:
    """The file's lines with every run directory under `root` masked;
    report.tsv without its seconds."""
    with open(path, encoding="utf-8") as fh:
        lines = re.sub(re.escape(root + os.sep) + r"[^/\s]+", "<work>",
                       fh.read()).splitlines()
    if os.path.basename(path) == "report.tsv":
        lines = [line if line.startswith("#") else line.rsplit("\t", 1)[0]
                 for line in lines]
    return lines


def compare_text(lines_a: list[str], lines_b: list[str]) -> list[str]:
    """Per column, the drift of differing numbers; [] when identical. Files
    of different lengths give the first line that differs instead."""
    if len(lines_a) != len(lines_b):
        n = next((i for i, (a, b) in enumerate(zip(lines_a, lines_b)) if a != b),
                 min(len(lines_a), len(lines_b)))
        a, b = (repr(lines[n]) if n < len(lines) else "end of file"
                for lines in (lines_a, lines_b))
        return [f"{len(lines_a)} vs {len(lines_b)} lines; first difference "
                f"on line {n + 1}: {a} vs {b}"]
    names, columns = None, {}
    for a, b in zip(lines_a, lines_b):
        if a.startswith("epoch\t"):
            names = a.split("\t")
        if a == b:
            continue
        fields_a, fields_b = a.split("\t"), b.split("\t")
        if len(fields_a) != len(fields_b):
            return [f"line {a!r} vs {b!r}"]
        for i, (x, y) in enumerate(zip(fields_a, fields_b)):
            if x == y:
                continue
            try:
                pair = float(x), float(y)
            except ValueError:
                return [f"line {a!r} vs {b!r}"]
            name = names[i] if names and i < len(names) else f"column {i}"
            rows, values = columns.setdefault(name, ([], []))
            rows.append(" ".join(fields_a[:2]))
            values.append(pair)
    return [f"{name}: {drift(*np.array(values).T, counted=False)}; rows: {', '.join(rows)}"
            for name, (rows, values) in columns.items()]


def compare_dirs(work_a: str, work_b: str) -> list[tuple[str, list[str]]]:
    """(relative path, differences) of every file under either directory,
    two run directories under one work root."""
    root = os.path.dirname(work_a)
    def files(work):
        return {os.path.relpath(os.path.join(d, f), work)
                for d, _, names in os.walk(work) for f in names}

    out = []
    have_a, have_b = files(work_a), files(work_b)
    for rel in sorted(have_a | have_b):
        a, b = os.path.join(work_a, rel), os.path.join(work_b, rel)
        if rel not in have_a or rel not in have_b:
            out.append((rel, [f"only in {'the base' if rel in have_a else 'the change'}"]))
        elif rel.endswith(_RECORD_SUFFIXES):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                same = fa.read() == fb.read()
            out.append((rel, [] if same else compare_records(a, b) or ["head bytes differ"]))
        else:
            out.append((rel, compare_text(masked_lines(a, root), masked_lines(b, root))))
    return out


def print_comparison(title: str, results) -> bool:
    """Print each file as identical or with its differences; True when all
    are identical."""
    print(f"== {title}")
    for rel, diffs in results:
        if not diffs:
            print(f"  {rel}: identical")
        for line in diffs:
            print(f"  {rel}: {line}")
    return not any(diffs for _, diffs in results)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def gated_workloads() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def generate(name: str, work: str) -> str:
    workload = bench.WORKLOADS[name]
    raw = os.path.join(work, f"raw-{name}-s{SEED}")
    shutil.rmtree(raw, ignore_errors=True)
    gen.generate(raw, workload.users, workload.items, workload.per_user,
                 num_features=20, k_true=8, seed=SEED)
    return raw


def compare_trees(args) -> int:
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    base = export_tree(args.base, os.path.join(work, "base-tree"))
    same = True
    for name in gated_workloads():
        raw = generate(name, work)
        dirs = [os.path.join(work, f"{side}-{name}") for side in ("base", "change")]
        for tree, out in zip((base, ROOT), dirs):
            run_tree(tree, raw, bench.WORKLOADS[name].config, out)
        same &= print_comparison(f"{name}, seed {SEED}: {base} vs {ROOT}",
                                 compare_dirs(*dirs))
    print("identical" if same else "outputs differ")
    return 0 if same else 1


def _nudge_report_objective(path: str) -> None:
    """Move the first report row's objective up by one ulp."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    fields = lines[i].split("\t")
    fields[2] = repr(float(np.nextafter(float(fields[2]), np.inf)))
    lines[i] = "\t".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _insert_line(path: str, n: int, line: str) -> None:
    """Insert line so that it becomes line n (from 1) of the file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines.insert(n - 1, line + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def self_test(args) -> int:
    """This tree against itself is identical; a one-ulp change to one
    checkpoint array and to one report objective, and a line inserted into
    one eval file, are flagged, and nothing else."""
    work = os.path.abspath(args.work)
    raw = generate("ncacf_cold", work)
    dirs = [os.path.join(work, f"self-{side}") for side in ("a", "b")]
    for out in dirs:
        run_tree(ROOT, raw, bench.WORKLOADS["ncacf_cold"].config, out)
    ok = print_comparison("self-test: this tree against itself", compare_dirs(*dirs))

    nudged = os.path.join(work, "self-nudged")
    shutil.rmtree(nudged, ignore_errors=True)
    shutil.copytree(dirs[0], nudged)
    ckpt = os.path.join(nudged, "run", "best.ckpt")
    magic, version, header, arrays = read_record_file(ckpt)
    arrays["W"].flat[0] = np.nextafter(arrays["W"].flat[0], np.inf)
    data.write_records(ckpt, magic, version, header, list(arrays.values()))
    _nudge_report_objective(os.path.join(nudged, "run", "report.tsv"))
    inserted = "inserted\tline"
    _insert_line(os.path.join(nudged, "run", "eval_cold_test.tsv"), 3, inserted)
    results = compare_dirs(dirs[0], nudged)
    print_comparison("self-test: one ulp in best.ckpt's W and a report objective, "
                     "a line inserted into an eval file", results)
    flagged = {rel: diffs for rel, diffs in results if diffs}
    best, report, evals = (os.path.join("run", name) for name in
                           ("best.ckpt", "report.tsv", "eval_cold_test.tsv"))
    ok &= (set(flagged) == {best, report, evals}
           and len(flagged[best]) == 1 and flagged[best][0].startswith("array W: ")
           and flagged[report][0].startswith("objective: ")
           and len(flagged[evals]) == 1 and "on line 3: " in flagged[evals][0]
           and flagged[evals][0].endswith(f" vs {inserted!r}"))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="source tree or git revision (default HEAD)")
    parser.add_argument("--work", default=os.path.join(ROOT, ".identity_work"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    return self_test(args) if args.self_test else compare_trees(args)


if __name__ == "__main__":
    sys.exit(main())
