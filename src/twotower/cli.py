"""One command-line entry point for the whole pipeline.

Subcommands: ``prepare`` (logs to example files), ``train`` (incremental or
shuffled), ``eval`` (ranking metrics on the test month), ``verify`` (the
synthetic optimum sweep), ``retrieve`` (ad-hoc top-N for a query) and
``trace`` (per-month test metrics over saved checkpoints).  Every command
reads one config document, honors ``--seed`` and is deterministic for a
fixed seed; all but ``retrieve`` write the resolved config next to their
outputs.  Every output is written whole or not at all.  The commands
that read the log build its examples once per output directory: the
prepared file written beside the outputs stands in for the build while the
log's bytes and the ``data.*`` settings match its key.  ``eval`` and
``trace`` likewise draw each task's test cases once per output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import io
import json
import logging
import os
import re
import sys
from collections.abc import Callable
from typing import TextIO

import numpy as np

from . import config as config_mod
from . import container
from . import data as data_mod
from . import prepared as prepared_mod
from .config import ConfigError, RunConfig, fingerprint, loss_config_from, render_config, verify_seeds
from .evaluation import TASKS, EvalCases, EvalPool, PoolTooSmallError, RankingIndex, build_eval_cases, evaluate, top_n
from .losses import IN_BATCH_PEAK_ARRAYS, check_temperature, proposal_distribution
from .model import ModelParams, encode_user_batch
from .prepared import Prepared
from .trainer import (
    Checkpoint,
    CheckpointError,
    NonFiniteGradientError,
    NonFiniteLossError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_incremental,
)

logger = logging.getLogger(__name__)


class CliError(Exception):
    """User-facing command failure; message printed, exit code 1."""


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, dtype=np.uint64)[0])


_TAG_NEGATIVES = 11
_TAG_VALIDATION_CASES = 13
_TAG_TEST_CASES = 17


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = config_mod.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if cfg.seed < 0:
        raise ConfigError(f"key 'seed': must be >= 0, got {cfg.seed}")
    return cfg


def _write_resolved(cfg: RunConfig, prepared: Prepared | None = None) -> None:
    """Write the resolved config into the output directory, and the prepared
    file when ``prepared`` was built rather than loaded."""
    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    with container.writing(os.path.join(cfg.paths.output_dir, "resolved.cfg")) as out:
        out.write(render_config(cfg))
    if prepared is not None and not prepared.loaded:
        prepared_mod.save(os.path.join(cfg.paths.output_dir, prepared_mod.FILE_NAME), prepared)


def _configured(section: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)`` from config values; a ``ValueError`` becomes
    a ``CliError`` that names the config section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CliError(f"{section}: {exc}") from exc


def _run_pipeline(cfg: RunConfig) -> Prepared:
    """The log of ``cfg`` ingested, cut into examples, split by month and
    degree-filtered, with the training marginals: loaded from the output
    directory's prepared file when its key matches, else built (and written
    by ``_write_resolved``)."""
    path = cfg.data.input
    if not path:
        raise CliError("data.input is not set in the config")
    with open(path, "rb") as src:
        log_bytes = src.read()
    key = prepared_mod.key_of(log_bytes, cfg)
    prepared = prepared_mod.load(os.path.join(cfg.paths.output_dir, prepared_mod.FILE_NAME), key)
    if prepared is not None:
        return prepared
    try:
        log = data_mod.ingest_logs(io.BytesIO(log_bytes), delimiter=cfg.data.delimiter)
    except data_mod.IngestError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"data: {exc}") from exc
    examples = _configured("data", data_mod.build_examples, log.records, cfg.data.horizon_days, cfg.data.max_seq_len)
    months_total = cfg.data.months_total or log.num_months
    if months_total < 3:
        raise CliError(f"need at least 3 months of data, found {months_total}")
    split = data_mod.split_by_time(examples, months_total)
    split = _configured("data", data_mod.filter_sparse, split, cfg.data.min_degree)
    if not len(split.train):
        raise CliError("no training examples survive the split and degree filter")
    marginals = data_mod.compute_marginals(split.train, log.num_items)
    return Prepared(log, split, marginals, months_total, key)


def _labeled_train(cfg: RunConfig, prepared: Prepared) -> data_mod.Examples:
    return _configured(
        "loss",
        data_mod.sample_negatives_bce,
        prepared.split.train,
        cfg.loss.negative_strategy,
        num_items=prepared.log.num_items,
        ratio=cfg.loss.negative_ratio,
        rng_seed=_derive_seed(cfg.seed, _TAG_NEGATIVES),
    )


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    prepared = _run_pipeline(cfg)
    _write_resolved(cfg, prepared)
    out_dir = cfg.paths.output_dir
    for name in ("train", "validation", "test"):
        part = getattr(prepared.split, name)
        data_mod.write_examples_tsv(part, prepared.marginals, os.path.join(out_dir, f"{name}_examples.tsv"))
    data_mod.write_marginals_tsv(prepared.marginals, prepared.split.train.table, os.path.join(out_dir, "marginals.tsv"))
    loss_config = _configured("loss", loss_config_from, cfg)
    if loss_config.family == "bce":
        labeled = _labeled_train(cfg, prepared)
        data_mod.write_labeled_tsv(labeled, os.path.join(out_dir, "train_labeled.tsv"))
    print(
        f"prepared {len(prepared.split.train)} train / {len(prepared.split.validation)} validation / "
        f"{len(prepared.split.test)} test examples over {prepared.months_total} months -> {out_dir}"
    )
    return 0


def _validation_eval_fn(cfg: RunConfig, prepared: Prepared):
    if not len(prepared.split.validation):
        logger.warning("validation split empty; no per-month metrics recorded")
        return None
    try:
        cases, pool = build_eval_cases(
            prepared.split.validation,
            cfg.eval.task,
            cfg.eval.num_negatives,
            seed=_derive_seed(cfg.seed, _TAG_VALIDATION_CASES),
            cutoff=cfg.eval.top_n,
        )
    except PoolTooSmallError as exc:
        logger.warning("cannot build validation cases (%s); no per-month metrics recorded", exc)
        return None
    except ValueError as exc:
        raise CliError(f"eval: {exc}") from exc

    def eval_fn(params: ModelParams, month: int) -> dict:
        report = evaluate(cases, pool, params)
        return {"recall": report.recall_at_n, "ndcg": report.ndcg_at_n}

    return eval_fn


def _write_trace(path: str, rows: list[dict]) -> str:
    """Write ``rows`` to the trace file at ``path``; return its text."""
    text = "month\trecall\tndcg\n" + "".join(f"{row['month']}\t{row['recall']:.6f}\t{row['ndcg']:.6f}\n" for row in rows)
    with container.writing(path) as out:
        out.write(text)
    return text


def _export_embeddings(out: TextIO, params: ModelParams, prepared: Prepared) -> None:
    item_token = {idx: tok for tok, idx in prepared.log.item_vocab.items()}
    train = prepared.split.train
    for idx in range(params.num_items):
        vec = " ".join(f"{v:.6f}" for v in params.item_embeddings[idx])
        out.write(f"item\t{item_token[idx]}\t{vec}\n")
    keys = train.table.take(np.unique(train.key))
    for key, user in zip(keys, encode_user_batch(keys, params).vectors):
        vec = " ".join(f"{v:.6f}" for v in user)
        seq = " ".join(item_token[i] for i in key)
        out.write(f"user\t{seq}\t{vec}\n")


def physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where ``os.sysconf`` cannot tell."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


def _check_in_batch_memory(examples: data_mod.Examples, train: TrainConfig) -> None:
    """Fail before the first step when the largest in-batch batch a phase
    can make (``batch_size``, capped at the phase's example count) needs
    more than physical memory at the step's peak."""
    phase_sizes = [len(examples)] if train.mode == "shuffled" else np.unique(examples.month, return_counts=True)[1]
    size = min(train.batch_size, int(max(phase_sizes)))
    peak = IN_BATCH_PEAK_ARRAYS * 8 * size**2
    memory = physical_memory()
    if memory is not None and peak > memory:
        raise CliError(
            f"train: an in-batch batch of {size} examples needs {peak / 2**30:.1f} GiB at the step's peak "
            f"({IN_BATCH_PEAK_ARRAYS} float64 arrays of {size} x {size}), more than the {memory / 2**30:.1f} GiB "
            "of physical memory; lower train.batch_size"
        )


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    prepared = _run_pipeline(cfg)
    _write_resolved(cfg, prepared)
    loss_config = _configured("loss", loss_config_from, cfg)
    if loss_config.family == "bidirectional" and cfg.train.batch_size < 2:
        raise CliError("in-batch losses need train.batch_size >= 2 (a batch must contain a negative)")
    _configured("model", check_temperature, cfg.model.temperature)
    proposal = None
    if loss_config.family == "ssm":  # built once; a num_sampled it cannot supply fails before the first step
        settings = (prepared.marginals, prepared.log.num_items, loss_config.ssm_proposal, loss_config.num_sampled)
        proposal = _configured("loss", proposal_distribution, *settings)
    fp = fingerprint(cfg)
    train_config = _configured("train", TrainConfig, seed=cfg.seed, **dataclasses.asdict(cfg.train))
    if loss_config.family == "bidirectional":
        _check_in_batch_memory(prepared.split.train, train_config)
    model = cfg.model
    params = _configured(
        "model", ModelParams.initialize, prepared.log.num_items, model.dim, model.temperature, cfg.seed, model.aggregator
    )
    examples = _labeled_train(cfg, prepared) if loss_config.family == "bce" else prepared.split.train
    eval_fn = _validation_eval_fn(cfg, prepared)
    checkpoint_dir = os.path.join(cfg.paths.output_dir, "checkpoints")

    resume = _load_checked(args.checkpoint, cfg, prepared.log.num_items) if args.checkpoint else None
    if resume is not None and any(row.keys() != {"month", "recall", "ndcg"} for row in resume.trace):
        raise CheckpointError(f"{args.checkpoint}: corrupt checkpoint (trace rows are not validation rows)")
    # Opened before the first step, so a path that cannot be written costs no training.
    with container.writing(args.export_embeddings) if args.export_embeddings else contextlib.nullcontext() as export:
        try:
            result = train_incremental(
                examples, params, loss_config, train_config,
                marginals=prepared.marginals, proposal=proposal, eval_fn=eval_fn,
                checkpoint_dir=checkpoint_dir, fingerprint=fp, resume=resume,
            )
        except (NonFiniteLossError, NonFiniteGradientError) as exc:
            raise CliError(f"train: {exc}") from exc
        if export:
            _export_embeddings(export, params, prepared)

    _write_trace(os.path.join(cfg.paths.output_dir, "trace.tsv"), result.trace)
    final_path = os.path.join(checkpoint_dir, "final.ckpt")
    if result.checkpoints:
        with open(result.checkpoints[-1], "rb") as src, container.writing(final_path, "wb") as out:
            out.write(src.read())
    for notice in result.notices:
        logger.info("%s", notice)
    print(f"trained {result.steps} steps over months {list(result.months)}; final checkpoint {final_path}")
    for row in result.trace:
        print(f"  month {row['month']}: recall={row['recall']:.4f} ndcg={row['ndcg']:.4f}")
    return 0


def _load_checked(path: str | None, cfg: RunConfig, num_items: int) -> Checkpoint:
    """The checkpoint at ``path``, refused unless it was trained under this
    config's fingerprint on a vocabulary of ``num_items`` items."""
    if not path:
        raise CliError("--checkpoint is required")
    checkpoint = load_checkpoint(path, expected_fingerprint=fingerprint(cfg))
    if checkpoint.params.num_items != num_items:
        raise CliError(
            f"checkpoint vocabulary ({checkpoint.params.num_items} items) does not match data ({num_items})"
        )
    return checkpoint


def _test_cases(cfg: RunConfig, prepared: Prepared, task: str) -> tuple[EvalCases, EvalPool]:
    """The test cases of ``task``, cut off at ``eval.top_n``: loaded from the
    output directory's case file of the task when its key matches and its
    cases fit the test split, else drawn and written there.  Nothing is
    written unless the draw succeeds, and every error is the draw's."""
    if not len(prepared.split.test):
        raise CliError("test split is empty; nothing to evaluate")
    seed = _derive_seed(cfg.seed, _TAG_TEST_CASES)
    path = os.path.join(cfg.paths.output_dir, prepared_mod.cases_file(task))
    key = prepared_mod.cases_key(prepared.key, task, cfg.eval.num_negatives, seed)
    args = (prepared.split.test, task, cfg.eval.num_negatives)
    loaded = prepared_mod.load_cases(path, key, *args, cfg.eval.top_n)
    if loaded is not None:
        return loaded
    try:
        cases, pool = build_eval_cases(*args, seed=seed, cutoff=cfg.eval.top_n)
    except ValueError as exc:
        raise CliError(f"cannot build test cases: {exc}") from exc
    prepared_mod.save_cases(path, key, cases, pool)
    return cases, pool


# The indents of a per-case record's fields and of its list elements in the eval report.
_FIELD, _ELEMENT = " " * 6, " " * 8


def _json_ints(values: list[int] | int) -> str:
    """An int, or a list of ints as ``json.dumps(..., indent=2)`` writes it
    inside a per-case record."""
    if not isinstance(values, list):
        return str(values)
    if not values:
        return "[]"
    return "[\n" + _ELEMENT + (",\n" + _ELEMENT).join(map(str, values)) + "\n" + _FIELD + "]"


def report_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, for an
    eval report's fields: scalars and, if kept, ``per_case``, a list of
    ``{"ndcg", "query", "recall", "top"}`` records whose query is an item
    list (IR) or an item id (UT).  The records are written by their fixed
    layout: the pure-Python encoder that ``indent`` forces took about half
    of a verbose eval."""
    fields = []
    for key in sorted(payload):
        value = payload[key]
        if key == "per_case" and value:
            # Recall and NDCG take a few distinct values: each is encoded once.
            number = {x: json.dumps(x) for x in {row[name] for row in value for name in ("ndcg", "recall")}}
            records = [
                f'{{\n{_FIELD}"ndcg": {number[row["ndcg"]]},\n{_FIELD}"query": {_json_ints(row["query"])},\n'
                f'{_FIELD}"recall": {number[row["recall"]]},\n{_FIELD}"top": {_json_ints(row["top"])}\n    }}'
                for row in value
            ]
            text = "[\n    " + ",\n    ".join(records) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    prepared = _run_pipeline(cfg)
    _write_resolved(cfg, prepared)
    checkpoint = _load_checked(args.checkpoint, cfg, prepared.log.num_items)
    task = args.task or cfg.eval.task
    cases, pool = _test_cases(cfg, prepared, task)
    report = _configured(
        "eval",
        evaluate,
        cases,
        pool,
        checkpoint.params,
        records=prepared.log.records,
        anchor_day=prepared.log.first_day(prepared.months_total),
        window_days=cfg.eval.popularity_window_days,
        keep_per_case=args.verbose,
    )
    # The report's own fields, not a deep copy of its per-case records.
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    if not args.verbose:
        payload.pop("per_case")
    out_path = os.path.join(cfg.paths.output_dir, "eval_report.json")
    with container.writing(out_path) as out:
        out.write(report_json(payload) + "\n")
    print(
        f"{task} over {report.num_cases} cases: recall@{report.cutoff}={report.recall_at_n:.4f} "
        f"ndcg@{report.cutoff}={report.ndcg_at_n:.4f} (report: {out_path})"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SyntheticSpec, random_joint, run_table_sweep, sweep_report_text  # only this command needs it

    cfg = _load_config(args)
    _write_resolved(cfg)
    v = cfg.verify
    seeds = verify_seeds(cfg)
    if not seeds:
        raise CliError("verify: seeds must list at least one seed")
    for name, least in (("num_samples", 1), ("dim", 1), ("epochs", 1), ("table_seed", 0)):
        if getattr(v, name) < least:
            raise CliError(f"verify: {name} must be >= {least}")
    for name in ("temperature", "learning_rate"):
        if getattr(v, name) <= 0:
            raise CliError(f"verify: {name} must be positive")
    joint = _configured(
        "verify", random_joint, v.num_users, v.num_items, seed=v.table_seed, table_rank=v.table_rank, sparsity=v.sparsity
    )
    spec = _configured("verify", SyntheticSpec, v.num_users, v.num_items, joint=joint, num_samples=v.num_samples)
    try:
        result = run_table_sweep(
            spec, seeds, dim=v.dim, temperature=v.temperature, epochs=v.epochs, learning_rate=v.learning_rate
        )
    except NonFiniteGradientError as exc:
        raise CliError(f"verify: {exc}") from exc
    text = sweep_report_text(result)
    out_path = os.path.join(cfg.paths.output_dir, "sweep_report.tsv")
    with container.writing(out_path) as out:
        out.write(text)
    print(text, end="")
    failed = [r for r in result.reports if not r.passed]
    print(f"{len(result.reports) - len(failed)}/{len(result.reports)} optimum checks passed -> {out_path}")
    return 1 if failed else 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    count = cfg.eval.top_n if args.top_n is None else args.top_n
    if count < 1:
        raise CliError(f"top-n must be >= 1, got {count}")
    task = args.task or cfg.eval.task
    if task not in TASKS:
        raise CliError(f"eval.task must be one of {TASKS}, got {task!r}")
    prepared = _run_pipeline(cfg)
    checkpoint = _load_checked(args.checkpoint, cfg, prepared.log.num_items)
    params = checkpoint.params
    tokens = [t for t in re.split(r"[ ,]+", args.query.strip()) if t]
    if not tokens:
        raise CliError("--query is empty")

    if task == "ir":
        ids = []
        for tok in tokens:
            if tok in prepared.log.item_vocab:
                ids.append(prepared.log.item_vocab[tok])
            else:
                logger.warning("unknown item token %r skipped", tok)
        if not ids:
            raise CliError("no known items in the query sequence")
        index = RankingIndex.build(params, data_mod.Sequences.of([ids]))
        query, candidates = 0, np.arange(params.num_items)[None]
        label = {idx: tok for tok, idx in prepared.log.item_vocab.items()}
    else:
        if len(tokens) != 1:
            raise CliError("user targeting takes exactly one item token as the query")
        tok = tokens[0]
        if tok not in prepared.log.item_vocab:
            raise CliError(f"unknown item token {tok!r}")
        # A key stands for the user of its first example in train, validation, test order.
        parts = (prepared.split.train, prepared.split.validation, prepared.split.test)
        keys, owners = data_mod.first_owners(np.concatenate([p.key for p in parts]), np.concatenate([p.user for p in parts]))
        index = RankingIndex.build(params, prepared.split.train.table.take(keys))
        query, candidates = prepared.log.item_vocab[tok], np.arange(len(keys))[None]
        user_token = {idx: t for t, idx in prepared.log.user_vocab.items()}
        label = [user_token[owner] for owner in owners.tolist()]
    ranked, scores = top_n(index.scores(task, np.array([query]), candidates), candidates, count)
    names = [label[candidate] for candidate in ranked[0].tolist()]
    for rank, (name, score_value) in enumerate(zip(names, scores[0]), start=1):
        print(f"{rank}\t{name}\t{score_value:.6f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    prepared = _run_pipeline(cfg)
    _write_resolved(cfg, prepared)
    directory = args.checkpoint_dir or os.path.join(cfg.paths.output_dir, "checkpoints")
    paths = sorted(p for p in glob.glob(os.path.join(directory, "month_*.ckpt")) if "_epoch_" not in os.path.basename(p))
    if not paths:
        raise CliError(f"no month checkpoints found in {directory}")
    task = args.task or cfg.eval.task
    cases, pool = _test_cases(cfg, prepared, task)  # the same cases for every checkpoint
    rows = []
    for path in paths:
        checkpoint = _load_checked(path, cfg, prepared.log.num_items)
        if checkpoint.epoch_cursor or not 0 < checkpoint.month_cursor <= len(checkpoint.months):
            raise CliError(f"{path}: not the checkpoint of a finished month")
        report = evaluate(cases, pool, checkpoint.params)
        month = checkpoint.months[checkpoint.month_cursor - 1]
        rows.append({"month": month, "recall": report.recall_at_n, "ndcg": report.ndcg_at_n})
    rows.sort(key=lambda row: row["month"])
    out_path = os.path.join(cfg.paths.output_dir, "month_trace.tsv")
    print(_write_trace(out_path, rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twotower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, checkpoint: bool = False) -> None:
        p.add_argument("--config", required=True, help="run configuration file (key = value lines)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if checkpoint:
            p.add_argument("--checkpoint", default=None, help="checkpoint file path")

    common(sub.add_parser("prepare", help="build example files from the raw event log"))
    p_train = sub.add_parser("train", help="train (incremental by month, or shuffled)")
    common(p_train, checkpoint=True)
    p_train.add_argument("--export-embeddings", default=None, help="write user/item vectors to this TSV")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test month")
    common(p_eval, checkpoint=True)
    p_eval.add_argument("--task", choices=("ir", "ut"), default=None)
    p_eval.add_argument("--verbose", action="store_true", help="include the per-case breakdown")
    common(sub.add_parser("verify", help="run the synthetic optimum sweep"))
    p_ret = sub.add_parser("retrieve", help="rank items for a user sequence, or users for an item")
    common(p_ret, checkpoint=True)
    p_ret.add_argument("--task", choices=("ir", "ut"), default=None)
    p_ret.add_argument("--query", required=True, help="item tokens (ir) or one item token (ut)")
    p_ret.add_argument("--top-n", type=int, default=None)
    p_trace = sub.add_parser("trace", help="per-month test metrics over saved month checkpoints")
    common(p_trace, checkpoint=False)
    p_trace.add_argument("--checkpoint-dir", default=None)
    p_trace.add_argument("--task", choices=("ir", "ut"), default=None)
    return parser


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "retrieve": cmd_retrieve,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CliError, ConfigError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
