"""Run the `twotower` command matrix into a directory, or compare two such runs.

A refactor that promises unchanged behaviour shows it by running the matrix
on the parent commit and on the change, then comparing the two directories:

    PYTHONPATH=<parent>/src python3 tools/outputs.py run /tmp/outputs-parent
    PYTHONPATH=src python3 tools/outputs.py run /tmp/outputs-change
    python3 tools/outputs.py compare /tmp/outputs-parent /tmp/outputs-change

`run` imports `twotower` from the import path, so `PYTHONPATH` picks the
source tree under test, and `loggen` from this checkout's `bench/`.  It
writes seeded `bench/loggen.py` logs shaped like the benchmark's three data
workloads, plus a copy of the `incremental` log with ISO dates (calendar
months from a first day that is not the first of a month; its seventh,
partial month is left out) and a messy copy of the `targeting` log (CRLF
line ends, a byte-order mark, `#` comment and blank lines, and whitespace
around every field, which ingest must read as the plain log), then runs
`prepare`, `train --export-embeddings`, a resume from the first checkpoint
into a second directory (whose `trace.tsv` is whole: the rows of the months
that checkpoint finished come from it, so the file equals the first run's),
`eval` for both tasks (plain and `--verbose`), `trace` for both tasks (runs
with month checkpoints) and
four `retrieve` runs per task (two queries at `--top-n 10`, then the first
again at `--top-n 1` and at a `--top-n` above the candidate count), under
each loss configuration of `CASES` (among them `bbcnce` at temperature 0.003,
just above the temperature floor of 1/350);
and the `verify` runs of `VERIFY_CASES`: sweep seeds 1, 2 and 3 (the seeds
the benchmark's `verify_sweep` runs) plus 4 at the default settings, one
run of seeds 1, 2 and 3 together (the default `verify`), a 20-event sample
that leaves users and items of the table unseen, a 4x5 table, seed 1 at
temperature 0.002 for 300 epochs, and seeds 1 and 2 over samples of three
draw chunks exactly and of one event more.  Every command runs
in-process with the run directory as working directory and relative paths,
so two runs write the same bytes wherever they live.  Each report is kept
under its own name and the stdout of every command goes to `stdout/`.

In each case's output directory the first command writes `prepared.bin`,
the data built from the log under the `data.*` settings (see the README),
and every later command loads it instead of building again; the resumed
run writes its own in its own directory.  Likewise the first `eval` of each
task writes its test cases to `eval_cases_<task>.bin`, which the later
`eval`, `trace` and `eval_top` runs of that task load.  `compare` compares
these cache files as any other file, but lists those found in only one
tree under their own heading, since a tree of a commit from before a cache
file existed holds none.

`compare` lists the files that are byte-identical, and for each differing
TSV or JSON file the largest absolute difference of every numeric column
(TSV columns are split on tabs; JSON: every numeric field).  A TSV column of
space-separated token lists (item sequences, embedding vectors) also reports
how many rows differ.  A differing `retrieve` stdout, and each differing
`top` list of a verbose eval report, is also called out as either only
swaps among entries of equal printed score, or more.  The report prints no
scores, so `run` writes each verbose eval's top N with its scores (6
decimals, as `retrieve` prints them) to `eval_top_<task>.tsv` beside it,
ranked by the library's `RankingIndex.scores` and `top_n` in the blocks
`evaluate` uses.  It exits 0 only when the two trees hold the same files
with the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import datetime
import fnmatch
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The log shapes of the benchmark's incremental, targeting and long_history_bce workloads.
SHAPES = {
    "incremental": dict(users=500, items=400, events=4000, months=6),
    "targeting": dict(users=300, items=1200, events=2700, months=3),
    "long_history": dict(users=120, items=200, events=1800, months=4, activity_sigma=0.5),
}
BASE = {
    "seed": 5,
    "data.max_seq_len": 20,
    "data.min_degree": 3,
    "model.dim": 32,
    "train.epochs_per_month": 1,
    "train.batch_size": 256,
    "eval.num_negatives": 29,
}
# The ISO-dated copy of a log: integer day 0 becomes this date.
ISO_EPOCH = datetime.date(2023, 1, 17)
ISO_LOGS = {"incremental_iso": "incremental"}
MESSY_LOGS = {"targeting_messy": "targeting"}
# name -> (log, settings over BASE)
CASES = {
    "bbcnce": ("incremental", {}),
    "bbcnce_iso": ("incremental_iso", {"data.months_total": 6}),
    "bbcnce_months_total": ("incremental", {"data.months_total": 4}),
    "bbcnce_messy": ("targeting_messy", {}),
    # A cutoff wider than the 30-candidate row: every candidate is in the top N.
    "bbcnce_top_n_40": ("incremental", {"eval.top_n": 40}),
    # One-item pseudo-users are shared by many users, so the user a key
    # stands for depends on which examples are searched first.
    "bbcnce_one_item": ("targeting", {"data.max_seq_len": 1, "eval.num_negatives": 29}),
    "infonce": ("targeting", {"loss.preset": "infonce", "eval.num_negatives": 99}),
    "ssm_last": (
        "targeting",
        {"loss.family": "ssm", "loss.preset": "", "loss.num_sampled": 20, "model.aggregator": "last"},
    ),
    "full_softmax_row": ("incremental", {"loss.family": "full_softmax_row", "loss.preset": ""}),
    "full_softmax_col": ("incremental", {"loss.family": "full_softmax_col", "loss.preset": ""}),
    # Attention through the shared-column kernel, trace and a UT retrieve
    # over more pseudo-user keys than one ENCODE_CHUNK.
    "bbcnce_attention": ("incremental", {"model.aggregator": "attention"}),
    # Scores up to 1/0.003 = 333 in magnitude: the large-logit side of the in-batch loss's shared exponential.
    "bbcnce_tau_0.003": ("incremental", {"model.temperature": 0.003}),
    "bce_attention_shuffled": (
        "long_history",
        {
            "data.max_seq_len": 50,
            "model.aggregator": "attention",
            "loss.family": "bce",
            "loss.negative_strategy": "uniform",
            "train.mode": "shuffled",
            "train.epochs_per_month": 2,
            "train.batch_size": 64,
        },
    ),
    "bce_item_marginal": ("incremental", {"loss.family": "bce", "loss.negative_strategy": "item-marginal"}),
    "bce_product": (
        "targeting",
        {"loss.family": "bce", "loss.negative_strategy": "product-of-marginals", "loss.negative_ratio": 2},
    ),
}
# name -> verify settings.  A failed optimum gate exits 1 after writing its
# report, as the 20-event sample's gates do.
VERIFY_CASES = {f"verify{seed}": {"verify.seeds": seed} for seed in (1, 2, 3, 4)} | {
    # The default run: three seeds' blocks in one stack.
    "verify_seeds_1_2_3": {"verify.seeds": "1,2,3"},
    "verify_sparse": {"verify.seeds": 1, "verify.num_samples": 20},
    "verify_4x5": {
        "verify.seeds": "1,2",
        "verify.num_users": 4,
        "verify.num_items": 5,
        "verify.dim": 6,
        "verify.epochs": 300,
    },
    # Scores up to 1/0.002 = 500 in magnitude: the large-logit side of the population loss.
    "verify_tau_0.002": {"verify.seeds": 1, "verify.temperature": 0.002, "verify.epochs": 300},
    # verify.sample_counts draws 2**15 events at a time: samples that end
    # exactly at a chunk boundary and one event past it.
    "verify_chunks_3": {"verify.seeds": "1,2", "verify.num_samples": 3 * 2**15, "verify.epochs": 300},
    "verify_chunks_3_plus_1": {"verify.seeds": "1,2", "verify.num_samples": 3 * 2**15 + 1, "verify.epochs": 300},
}
RETRIEVE_ALL = 100_000  # a --top-n above every log's item and pseudo-user count


def _write_config(path: Path, settings: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()), encoding="utf-8")
    return path.name


def _cli(cli, name: str, argv: list[str], codes: tuple[int, ...] = (0,)) -> None:
    """Run one command, which must exit with one of ``codes``; its stdout
    goes to ``stdout/<name>.txt``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    Path("stdout", f"{name}.txt").write_text(out.getvalue(), encoding="utf-8")
    if code not in codes:
        raise SystemExit(f"{name}: {' '.join(argv)} exited {code}")


def _write_top_scores(cli, config: str, checkpoint: str, task: str, path: str) -> None:
    """One ``case rank object score`` line per entry of each test case's top
    N, the objects as ``eval --verbose`` lists them."""
    from twotower import evaluation

    args = cli.build_parser().parse_args(["eval", "--config", config, "--checkpoint", checkpoint, "--task", task])
    cfg = cli._load_config(args)
    prepared = cli._run_pipeline(cfg)
    params = cli._load_checked(checkpoint, cfg, prepared.log.num_items).params
    cases, pool = cli._test_cases(cfg, prepared, task)
    index, queries = evaluation.RankingIndex.for_cases(cases, pool, params)
    order = np.argsort(queries, kind="stable")
    lines = [None] * len(cases)
    for start in range(0, len(cases), evaluation.RANK_CHUNK):
        rows = order[start : start + evaluation.RANK_CHUNK]
        candidates = cases.candidates[rows]
        ids, scores = evaluation.top_n(index.scores(task, queries[rows], candidates), candidates, cases.cutoff)
        if task == "ut":
            ids = pool.key_owner[ids]
        for case, row, values in zip(rows.tolist(), ids.tolist(), scores.tolist()):
            lines[case] = "".join(f"{case}\t{k}\t{obj}\t{v:.6f}\n" for k, (obj, v) in enumerate(zip(row, values), 1))
    Path(path).write_text("".join(lines), encoding="utf-8")


def run_matrix(directory: Path) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import loggen
    from twotower import cli

    directory.mkdir(parents=True, exist_ok=False)
    os.chdir(directory)
    os.makedirs("stdout")
    os.makedirs("logs")
    for shape, dims in SHAPES.items():
        loggen.write_csv(loggen.LogShape(**dims), BASE["seed"], f"logs/{shape}.csv")
    for name, source in ISO_LOGS.items():
        with open(f"logs/{source}.csv", encoding="utf-8") as src, open(f"logs/{name}.csv", "w", encoding="utf-8") as out:
            for line in src:
                user, item, day = line.rstrip("\n").split(",")
                out.write(f"{user},{item},{ISO_EPOCH + datetime.timedelta(days=int(day))}\n")
    for name, source in MESSY_LOGS.items():
        lines = [f"# a messy copy of {source}.csv", ""]
        for k, line in enumerate(Path(f"logs/{source}.csv").read_text(encoding="utf-8").splitlines()):
            lines.append(" " + line.replace(",", " ,\t") + " ")
            if k % 500 == 250:
                lines += ["", "  # a comment", "\t"]
        Path(f"logs/{name}.csv").write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))

    for name, (shape, extra) in CASES.items():
        settings = {**BASE, "data.input": f"logs/{shape}.csv"} | extra
        cfg = _write_config(Path(f"{name}.cfg"), settings | {"paths.output_dir": name})
        ckpt = f"{name}/checkpoints/final.ckpt"
        _cli(cli, f"{name}.prepare", ["prepare", "--config", cfg])
        _cli(cli, f"{name}.train", ["train", "--config", cfg, "--export-embeddings", f"{name}/embeddings.tsv"])
        first = sorted(p for p in os.listdir(f"{name}/checkpoints") if p != "final.ckpt")[0]
        resumed = _write_config(Path(f"{name}.resume.cfg"), settings | {"paths.output_dir": f"{name}.resume"})
        _cli(cli, f"{name}.resume", ["train", "--config", resumed, "--checkpoint", f"{name}/checkpoints/{first}"])
        # Each eval and trace rewrites the same report file, so a copy keeps each one.
        for task in ("ir", "ut"):
            for verbose in ("", "_verbose"):
                flags = ["--task", task] + (["--verbose"] if verbose else [])
                _cli(cli, f"{name}.eval_{task}{verbose}", ["eval", "--config", cfg, "--checkpoint", ckpt, *flags])
                shutil.copyfile(f"{name}/eval_report.json", f"{name}/eval_report_{task}{verbose}.json")
            _write_top_scores(cli, cfg, ckpt, task, f"{name}/eval_top_{task}.tsv")
            if extra.get("train.mode") != "shuffled":  # trace reads month checkpoints
                _cli(cli, f"{name}.trace_{task}", ["trace", "--config", cfg, "--task", task])
                shutil.copyfile(f"{name}/month_trace.tsv", f"{name}/month_trace_{task}.tsv")
        plain = (ISO_LOGS | MESSY_LOGS).get(shape, shape)  # the log a copy was made from holds the same items
        items = sorted({line.split(",")[1] for line in Path(f"logs/{plain}.csv").read_text().splitlines()})
        queries = {"ir": [" ".join(items[:3]), " ".join(items[-5:])], "ut": [items[0], items[len(items) // 2]]}
        for task, texts in queries.items():
            # (query, --top-n): 10, then 1 and one above every candidate count for the first query.
            runs = [(text, 10) for text in texts] + [(texts[0], 1), (texts[0], RETRIEVE_ALL)]
            for k, (query, top_n) in enumerate(runs):
                flags = ["--task", task, "--query", query, "--top-n", str(top_n)]
                _cli(cli, f"{name}.retrieve_{task}{k}", ["retrieve", "--config", cfg, "--checkpoint", ckpt, *flags])

    for name, settings in VERIFY_CASES.items():
        cfg = _write_config(Path(f"{name}.cfg"), settings | {"paths.output_dir": name})
        _cli(cli, name, ["verify", "--config", cfg], codes=(0, 1))
    files = sum(len(names) for _, _, names in os.walk("."))
    print(f"{files} files under {directory} (twotower from {Path(cli.__file__).parent})")
    return 0


def _files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def _number(value) -> float | None:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _gap(x, y) -> float:
    """0 for equal values, ``|x - y|`` for two finite numbers, inf otherwise."""
    nx, ny = _number(x), _number(y)
    if x == y or nx is not None and ny is not None and math.isnan(nx) and math.isnan(ny):
        return 0.0
    if nx is None or ny is None or not (math.isfinite(nx) and math.isfinite(ny)):
        return math.inf
    return abs(nx - ny)


def _tsv_cells(text: str) -> list[tuple[str, str]]:
    """(column, value) of every cell split on tabs; a first row with no
    number names the columns."""
    rows = [line.split("\t") for line in text.splitlines()]
    header = rows[0] if rows and all(_number(tok) is None for cell in rows[0] for tok in cell.split()) else []
    return [(header[k] if k < len(header) else f"col{k}", cell) for row in rows for k, cell in enumerate(row)]


def _json_cells(value, path: str = "") -> list[tuple[str, object]]:
    """(field path, value) of every leaf; list items share their path."""
    if isinstance(value, dict):
        return [cell for key in sorted(value) for cell in _json_cells(value[key], f"{path}.{key}")]
    if isinstance(value, list):
        return [cell for item in value for cell in _json_cells(item, f"{path}[]")]
    return [(path, value)]


def _gaps(cells_a: list, cells_b: list) -> dict[str, str]:
    """What differs in each column that differs: the largest |diff| of its
    values, and for a column of space-separated token lists (item sequences,
    vectors) also the number of rows that differ.  Two token lists of one
    length gap by their largest token |diff|, two of other lengths by inf.
    Files of another shape differ at ``layout``."""
    if [name for name, _ in cells_a] != [name for name, _ in cells_b]:
        return {"layout": "differs"}
    gaps: dict[str, float] = {}
    rows: dict[str, int] = {}  # rows that differ
    lists: set[str] = set()  # columns holding a list of several tokens
    for (name, x), (_, y) in zip(cells_a, cells_b):
        tokens_x, tokens_y = (v.split(" ") if isinstance(v, str) else [v] for v in (x, y))
        if len(tokens_x) > 1 or len(tokens_y) > 1:
            lists.add(name)
        rows[name] = rows.get(name, 0) + (tokens_x != tokens_y)
        gap = max(map(_gap, tokens_x, tokens_y)) if len(tokens_x) == len(tokens_y) else math.inf
        gaps[name] = max(gaps.get(name, 0.0), gap)
    return {
        name: (f"{rows[name]} rows differ, " if name in lists else "") + f"max |diff| {gap:.3g}"
        for name, gap in gaps.items()
        if rows[name]
    }


def equal_score_swaps(rows_a: list[tuple[str, str]], rows_b: list[tuple[str, str]]) -> bool:
    """Whether two ranked lists of ``(object, printed score)`` differ only by
    swaps among entries of equal printed score: the scores read the same at
    every rank and each run of equal score holds the same objects.  The run
    that ends the list may also hold other objects, traded across the
    cutoff with unlisted entries of that same score."""
    if [score for _, score in rows_a] != [score for _, score in rows_b]:
        return False
    start = 0
    while start < len(rows_a):
        end = start
        while end < len(rows_a) and rows_a[end][1] == rows_a[start][1]:
            end += 1
        if end < len(rows_a) and sorted(o for o, _ in rows_a[start:end]) != sorted(o for o, _ in rows_b[start:end]):
            return False
        start = end
    return True


def _swap_verdict(ok: bool) -> str:
    return "only swaps among entries of equal printed score" if ok else "differs beyond swaps of equal printed score"


def _retrieve_rows(path: Path) -> list[tuple[str, str]]:
    """``(name, score)`` of each ``rank name score`` line of a retrieve stdout."""
    return [tuple(line.split("\t")[1:3]) for line in path.read_text(encoding="utf-8").splitlines()]


def _top_swaps(a: Path, b: Path, name: str) -> str | None:
    """The verdict on the differing ``top`` lists of a verbose eval report,
    with the scores of its ``eval_top_<task>.tsv``."""
    cases = [json.loads((root / name).read_text(encoding="utf-8"))["per_case"] for root in (a, b)]
    differ = [c for c, (x, y) in enumerate(zip(*cases)) if x["top"] != y["top"]]
    if not differ:
        return None
    task = json.loads((a / name).read_text(encoding="utf-8"))["task"]
    scored = []
    for root, per_case in zip((a, b), cases):
        path = root / Path(name).parent / f"eval_top_{task}.tsv"
        if not path.is_file():
            return f"top: {len(differ)} cases differ; no {path.name} with their scores"
        rows: dict[int, list[tuple[str, str]]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            case, _, obj, score = line.split("\t")
            rows.setdefault(int(case), []).append((obj, score))
        if any([o for o, _ in rows.get(c, [])] != [str(x) for x in per_case[c]["top"]] for c in differ):
            return f"top: {len(differ)} cases differ; {path.name} does not list the report's top"
        scored.append(rows)
    beyond = [c for c in differ if not equal_score_swaps(scored[0][c], scored[1][c])]
    where = f" in {len(beyond)} (cases {beyond[:5]})" if beyond else ""
    return f"top: {len(differ)} cases differ, {_swap_verdict(not beyond)}{where}"


def _is_cache(name: str) -> bool:
    """Whether ``name`` is a file a command writes to spare a later one a build."""
    base = Path(name).name
    return base == "prepared.bin" or fnmatch.fnmatch(base, "eval_cases_*.bin")


def compare(a: Path, b: Path) -> int:
    files_a, files_b = _files(a), _files(b)
    differ = [name for name in sorted(files_a & files_b) if (a / name).read_bytes() != (b / name).read_bytes()]
    print(
        f"{len(files_a & files_b) - len(differ)} files byte-identical, {len(differ)} differ, "
        f"{len(files_a - files_b)} only in {a}, {len(files_b - files_a)} only in {b}"
    )
    only = sorted(files_a ^ files_b)
    caches = [name for name in only if _is_cache(name)]
    for name in only:
        if name not in caches:
            print(f"  only in {a if name in files_a else b}: {name}")
    if caches:
        print("cache files only in one tree:")
        for name in caches:
            print(f"  only in {a if name in files_a else b}: {name}")
    cells = {".tsv": _tsv_cells, ".json": lambda text: _json_cells(json.loads(text))}
    for name in differ:
        print(f"  differs: {name}")
        parse = cells.get(Path(name).suffix)
        if parse is not None:
            gaps = _gaps(parse((a / name).read_text(encoding="utf-8")), parse((b / name).read_text(encoding="utf-8")))
            for column, what in sorted(gaps.items()):
                print(f"    {column}: {what}")
        if ".retrieve_" in name:
            print("    " + _swap_verdict(equal_score_swaps(_retrieve_rows(a / name), _retrieve_rows(b / name))))
        verdict = _top_swaps(a, b, name) if name.endswith("_verbose.json") else None
        if verdict:
            print(f"    {verdict}")
    return 0 if not differ and files_a == files_b else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="run the command matrix into a new directory").add_argument("dir", type=Path)
    p_compare = sub.add_parser("compare", help="compare two run directories")
    p_compare.add_argument("a", type=Path)
    p_compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_matrix(args.dir.resolve())
    return compare(args.a, args.b)


if __name__ == "__main__":
    raise SystemExit(main())
