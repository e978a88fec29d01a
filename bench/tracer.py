"""Span tracing at the twotower module boundaries, from outside the program.

Each boundary names a module and an attribute in it.  Installing the tracer
replaces that attribute with a wrapper that records a span (name, start,
end, parent, run id) around every call, so the patch sits in the namespace
of the module that makes the call: ``twotower.trainer.loss_with_gradients``
times the trainer's calls into the losses layer, and
``twotower.model.encode_user_batch`` also catches calls made inside the
model module.  A boundary whose module or attribute no longer exists is
reported as missing, never raised, so refactors that delete or rename a
function need no edit here.

Spans stay in memory in flat arrays and are written out once, at the end.
``per_layer`` turns them into the self times and counts the benchmark
reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time
from array import array
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass

NO_PARENT = -1
BOOKKEEPING = "trace.bookkeeping"  # span of the tracer's own counting work


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str
    span: str
    count: Callable | None = None  # (tracer, args, kwargs, result) -> None


# ---- counters run after a wrapped call returns -------------------------------
# They run inside a ``trace.bookkeeping`` span of their own, so their cost is
# not counted as self time of the program layer that made the call.


def _count_events(t: "Tracer", args, kwargs, log) -> None:
    t.add("data.events", len(log.records))


def _count_examples(t: "Tracer", args, kwargs, examples) -> None:
    t.add("data.examples", len(examples))


def _split_size(split) -> int:
    return len(split.train) + len(split.validation) + len(split.test)


def _count_filter(t: "Tracer", args, kwargs, split) -> None:
    t.add("data.filter_in", _split_size(args[0]))
    t.add("data.filter_out", _split_size(split))


def _count_encoded(t: "Tracer", args, kwargs, result) -> None:
    sequences = args[0]
    t.add("model.encoded_sequences", len(sequences))
    seen = t.open_evaluate_keys()
    if seen is not None:
        t.add("evaluation.encoded", len(sequences))
        seen.update(tuple(s) for s in sequences)


def _count_encoded_one(t: "Tracer", args, kwargs, result) -> None:
    t.add("model.encoded_sequences", 1)


def _count_loss(t: "Tracer", args, kwargs, result) -> None:
    t.add("trainer.examples", len(args[0]))


def _count_step(t: "Tracer", args, kwargs, result) -> None:
    t.add("model.touched_rows", len(args[1].rows))


def _count_verify_step(t: "Tracer", args, kwargs, result) -> None:
    _count_step(t, args, kwargs, result)
    t.add("verify.steps", 1)


def _count_save(t: "Tracer", args, kwargs, result) -> None:
    t.add("trainer.ckpt_bytes", os.path.getsize(args[0]))


def _count_cases(t: "Tracer", args, kwargs, result) -> None:
    t.add("evaluation.cases", len(result[0]))


BOUNDARIES: tuple[Boundary, ...] = (
    # cli -> data pipeline (cli calls the data layer as ``data_mod.<name>``)
    Boundary("twotower.cli", "_run_pipeline", "cli.pipeline"),
    Boundary("twotower.data", "ingest_logs", "data.ingest", _count_events),
    Boundary("twotower.data", "build_examples", "data.build_examples", _count_examples),
    Boundary("twotower.data", "split_by_time", "data.split"),
    Boundary("twotower.data", "filter_sparse", "data.filter_sparse", _count_filter),
    Boundary("twotower.data", "compute_marginals", "data.compute_marginals"),
    Boundary("twotower.data", "annotate_bias", "data.annotate_bias"),
    Boundary("twotower.data", "sample_negatives_bce", "data.sample_negatives"),
    Boundary("twotower.data", "write_examples_tsv", "data.write"),
    Boundary("twotower.data", "write_labeled_tsv", "data.write"),
    Boundary("twotower.data", "write_marginals_tsv", "data.write"),
    # cli -> trainer
    Boundary("twotower.cli", "train_incremental", "trainer.train"),
    Boundary("twotower.cli", "train_shuffled", "trainer.train"),
    Boundary("twotower.cli", "load_checkpoint", "trainer.ckpt_load"),
    # trainer internals and trainer -> data / losses
    Boundary("twotower.trainer", "make_batches", "data.make_batches"),
    Boundary("twotower.trainer", "loss_with_gradients", "losses.loss", _count_loss),
    Boundary("twotower.trainer", "apply_optimizer_step", "trainer.optimizer", _count_step),
    Boundary("twotower.trainer", "save_checkpoint", "trainer.ckpt_save", _count_save),
    # losses -> model scoring
    Boundary("twotower.losses", "score_matrix_forward", "model.forward"),
    Boundary("twotower.losses", "score_matrix_backward", "model.backward"),
    Boundary("twotower.losses", "score_pairs_forward", "model.forward"),
    Boundary("twotower.losses", "score_pairs_backward", "model.backward"),
    Boundary("twotower.losses", "score_rowsets_forward", "model.forward"),
    Boundary("twotower.losses", "score_rowsets_backward", "model.backward"),
    # user tower, wherever it is called from
    Boundary("twotower.model", "encode_user_batch", "model.encode", _count_encoded),
    Boundary("twotower.model", "encode_user", "model.encode", _count_encoded_one),
    Boundary("twotower.evaluation", "encode_user_batch", "model.encode", _count_encoded),
    # cli -> evaluation
    Boundary("twotower.cli", "build_eval_cases", "evaluation.build_cases", _count_cases),
    Boundary("twotower.cli", "evaluate", "evaluation.evaluate"),
    Boundary("twotower.evaluation", "popularity_counts", "evaluation.popularity"),
    # cli -> verify, and verify internals
    Boundary("twotower.cli", "run_table_sweep", "verify.sweep"),
    Boundary("twotower.verify", "generate_synthetic", "verify.generate"),
    Boundary("twotower.verify", "train_to_optimum", "verify.train"),
    Boundary("twotower.verify", "population_loss", "verify.population_loss"),
    Boundary("twotower.verify", "check_optimum", "verify.check"),
    Boundary("twotower.verify", "score_matrix_forward", "model.forward"),
    Boundary("twotower.verify", "score_matrix_backward", "model.backward"),
    Boundary("twotower.verify", "apply_optimizer_step", "trainer.optimizer", _count_verify_step),
)

# Spans that make up one optimizer step besides the update itself.
STEP_PARTS = ("data.make_batches", "losses.loss", "model.forward", "verify.population_loss", "model.backward")


class Tracer:
    """In-memory span recorder with install/uninstall of boundary wrappers."""

    def __init__(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._eval_keys: dict[int, set] = {}
        self._evaluate_id = self._intern("evaluation.evaluate")
        self._bookkeeping_id = self._intern(BOOKKEEPING)

    # ---- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def open_evaluate_keys(self) -> set | None:
        """The distinct-sequence set of the innermost open ``evaluate`` span."""
        for idx in reversed(self._stack):
            if self.name[idx] == self._evaluate_id:
                return self._eval_keys.setdefault(idx, set())
        return None

    def _finish_evaluate(self, idx: int) -> None:
        self.add("evaluation.distinct", len(self._eval_keys.pop(idx, ())))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(idx)

    # ---- patching ----------------------------------------------------------

    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        name_id = self._intern(boundary.span)
        tracer = self

        def count(idx: int, args, kwargs, result) -> None:
            is_evaluate = name_id == tracer._evaluate_id
            if boundary.count is None and not is_evaluate:
                return
            own = tracer.open(tracer._bookkeeping_id)
            try:
                if is_evaluate:
                    tracer._finish_evaluate(idx)
                if boundary.count is not None:
                    boundary.count(tracer, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                tracer.counter_errors.setdefault(f"{boundary.module}.{boundary.attr}", repr(exc))
            finally:
                tracer.close(own)

        if inspect.isgeneratorfunction(fn):

            def timed(it: Iterator) -> Iterator:
                while True:
                    idx = tracer.open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return timed(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            count(idx, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for boundary in self.boundaries:
            try:
                module = importlib.import_module(boundary.module)
            except ImportError:
                module = None
            original = getattr(module, boundary.attr, None)
            if not callable(original):
                label = f"{boundary.module}.{boundary.attr}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            self._patches.append((module, boundary.attr, original))
            setattr(module, boundary.attr, self._wrap(original, boundary))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ---- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def nesting_errors(self, tolerance: float = 1e-9) -> int:
        """Spans that are unclosed or stick out of their parent's interval."""
        bad = 0
        for idx, parent in enumerate(self.parent):
            if self.end[idx] < self.start[idx]:
                bad += 1
            elif parent != NO_PARENT and (
                self.start[idx] < self.start[parent] - tolerance or self.end[idx] > self.end[parent] + tolerance
            ):
                bad += 1
        return bad

    def has_ancestor(self, idx: int, name_id: int) -> bool:
        parent = self.parent[idx]
        while parent != NO_PARENT:
            if self.name[parent] == name_id:
                return True
            parent = self.parent[parent]
        return False

    def step_times(self) -> list[float]:
        """Seconds per optimizer step: the update plus the batch, loss and
        scoring spans that ran under the same parent since the previous one."""
        opt_id = self._name_ids.get("trainer.optimizer")
        part_ids = {self._name_ids[n] for n in STEP_PARTS if n in self._name_ids}
        pending: dict[int, float] = defaultdict(float)
        steps = []
        for idx in range(len(self)):
            name, parent = self.name[idx], self.parent[idx]
            duration = self.end[idx] - self.start[idx]
            if name in part_ids and (parent == NO_PARENT or self.name[parent] not in part_ids):
                pending[parent] += duration
            elif name == opt_id:
                steps.append(pending.pop(parent, 0.0) + duration)
        return steps

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trun\tname\tstart_s\tend_s\n")
            for idx in range(len(self)):
                out.write(
                    f"{idx}\t{self.parent[idx]}\t{self.run[idx]}\t{self.names[self.name[idx]]}"
                    f"\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n"
                )


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]


def per_layer(tracer: Tracer, cycles: int) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-cycle self times (s) and counts from the recorded spans, as
    name -> (value, unit), plus which step percentile the tail metric is."""
    own = tracer.self_times()
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for idx, t in enumerate(own):
        name = tracer.names[tracer.name[idx]]
        totals[name] += t
        calls[name] += 1

    train_id = tracer._name_ids.get("trainer.train")
    month_eval = 0.0
    if train_id is not None:
        for idx in range(len(tracer)):
            if tracer.name[idx] == tracer._evaluate_id and tracer.has_ancestor(idx, train_id):
                month_eval += tracer.end[idx] - tracer.start[idx]

    steps = tracer.step_times()
    steps_ms = sorted(s * 1000.0 for s in steps)
    tail_q = tail_percentile(len(steps_ms))
    c = tracer.counts

    def per(value: float) -> float:
        return value / cycles

    metrics = {
        "cli.pipeline_runs": (per(calls["cli.pipeline"]), "count"),
        "data.ingest_s": (per(totals["data.ingest"]), "s"),
        "data.build_examples_s": (per(totals["data.build_examples"]), "s"),
        "data.filter_sparse_s": (per(totals["data.filter_sparse"]), "s"),
        "data.annotate_bias_s": (per(totals["data.annotate_bias"]), "s"),
        "data.sample_negatives_s": (per(totals["data.sample_negatives"]), "s"),
        "data.write_s": (per(totals["data.write"]), "s"),
        "data.make_batches_s": (per(totals["data.make_batches"]), "s"),
        "data.events": (per(c["data.events"]), "count"),
        "data.examples": (per(c["data.examples"]), "count"),
        "data.filter_keep_ratio": (c["data.filter_out"] / c["data.filter_in"] if c["data.filter_in"] else 0.0, "ratio"),
        "model.encode_s": (per(totals["model.encode"]), "s"),
        "model.encoded_sequences": (per(c["model.encoded_sequences"]), "count"),
        "model.forward_s": (per(totals["model.forward"]), "s"),
        "model.backward_s": (per(totals["model.backward"]), "s"),
        "model.touched_rows": (per(c["model.touched_rows"]), "count"),
        "losses.loss_s": (per(totals["losses.loss"]), "s"),
        "losses.calls": (per(calls["losses.loss"]), "count"),
        "trainer.steps": (per(calls["trainer.optimizer"]), "count"),
        "trainer.examples": (per(c["trainer.examples"]), "count"),
        "trainer.step_ms_p50": (percentile(steps_ms, 50.0) if steps_ms else 0.0, "ms"),
        "trainer.step_ms_tail": (percentile(steps_ms, tail_q) if tail_q else 0.0, "ms"),
        "trainer.optimizer_s": (per(totals["trainer.optimizer"]), "s"),
        "trainer.month_eval_s": (per(month_eval), "s"),
        "trainer.ckpt_save_s": (per(totals["trainer.ckpt_save"]), "s"),
        "trainer.ckpt_saves": (per(calls["trainer.ckpt_save"]), "count"),
        "trainer.ckpt_bytes": (per(c["trainer.ckpt_bytes"]), "bytes"),
        "trainer.ckpt_load_s": (per(totals["trainer.ckpt_load"]), "s"),
        "trainer.ckpt_loads": (per(calls["trainer.ckpt_load"]), "count"),
        "evaluation.build_cases_s": (per(totals["evaluation.build_cases"]), "s"),
        "evaluation.rank_s": (per(totals["evaluation.evaluate"]), "s"),
        "evaluation.cases": (per(c["evaluation.cases"]), "count"),
        "evaluation.popularity_s": (per(totals["evaluation.popularity"]), "s"),
        "evaluation.encode_reuse": (
            c["evaluation.distinct"] / c["evaluation.encoded"] if c["evaluation.encoded"] else 0.0,
            "ratio",
        ),
        "verify.generate_s": (per(totals["verify.generate"]), "s"),
        "verify.train_s": (per(totals["verify.train"]), "s"),
        "verify.population_loss_s": (per(totals["verify.population_loss"]), "s"),
        "verify.check_s": (per(totals["verify.check"]), "s"),
        "verify.steps": (per(c["verify.steps"]), "count"),
    }
    info = {"step_tail_q": tail_q, "step_samples": len(steps_ms), "bookkeeping_s": per(totals[BOOKKEEPING])}
    return metrics, info
