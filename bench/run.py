"""Seeded, offline benchmark of the twotower command line.

One client runs ``twotower`` commands in-process through
``twotower.cli.main`` in a closed loop, one command after another, and
checks every command's outputs.  A workload is a log shape, a run
configuration and the list of commands that make up one cycle; the run
repeats cycles until ``--seconds`` have passed and reports medians.  Times
are scaled to a reference host speed (see ``HostSpeed``).

    python3 bench/run.py --workload incremental --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics from spans
recorded at the module boundaries (see ``tracer.py``).  The last line of
standard output is one JSON object; a fuller result with the environment
block is written under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: two processes oversubscribing a
# 2-core machine turn a 0.3 ms 256x32x256 matmul into 8.6 ms.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TOP_N = 10
SETUP_REPS = 3  # set-ups per run at least ...
SETUP_MIN_S = 1.0  # ... and until they have taken this long ...
SETUP_MAX_REPS = 10_000  # ... but no more than this many
SETUP_WINDOW_S = 0.1  # set-up time per host-speed window
CAL_INTERVAL_S = 0.25  # host-speed calibrations inside a timed step, one per interval
CAL_END_SAMPLES = 3  # host-speed calibrations at each end of a timed step
CAL_REF_S = 0.0105  # the reference job's time on the machine the benchmark was tuned on, when it ran fast
QUALITY_FLOOR = 1.5  # an eval's NDCG must beat random ranking by this factor
RETRIEVE_QUERIES = 4  # half ir, half ut
# The sweep seeds of the program's own optimum acceptance test
# (tests/test_acceptance.py, criteria 3-4), which asserts that every gate
# passes for each of them at the default verify settings.  Other seeds fail
# a gate now and then (see bench/README.md), so --seed picks one of these.
VERIFY_SEEDS = (1, 2, 3)


class BenchError(Exception):
    """The benchmark cannot run here (e.g. the program's sources are missing)."""


# ---- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: dict | None  # loggen.LogShape fields; None when no log is needed
    config: dict
    setup: tuple[str, ...]  # commands run once per set-up, before any cycle
    cycle: tuple[str, ...]  # commands of one timed cycle


BASE_CONFIG = {
    "data.horizon_days": 30,
    "data.max_seq_len": 20,
    "data.min_degree": 3,
    "model.dim": 32,
    "model.aggregator": "mean",
    "loss.family": "bidirectional",
    "loss.preset": "bbcnce",
    "train.mode": "incremental",
    "train.epochs_per_month": 1,
    "train.batch_size": 256,
    "eval.top_n": TOP_N,
    # Below the default 99: the test month of the small IR-only logs holds fewer
    # than 100 distinct items.  targeting, whose cost is ranking, keeps 99.
    "eval.num_negatives": 29,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="incremental",
            why="paper headline: bbcnce, mean pooling, d=32, month-by-month training; "
            "500 users, 400 items, 4000 events, 6 months; prepare, train, eval ir",
            shape={"users": 500, "items": 400, "events": 4000, "months": 6},
            config=dict(BASE_CONFIG),
            setup=(),
            cycle=("prepare", "train", "eval_ir"),
        ),
        Workload(
            name="targeting",
            why="ranking dominates, no training timed: eval ut and ir (1 positive, 99 negatives), trace, 4 "
            "retrieves on a checkpoint trained in set-up; 300 users, 1200 items, 2700 events, 3 months",
            shape={"users": 300, "items": 1200, "events": 2700, "months": 3},
            config={**BASE_CONFIG, "eval.num_negatives": 99},
            setup=("train",),
            cycle=("eval_ut", "eval_ir", "trace", "retrieve"),
        ),
        Workload(
            name="long_history_bce",
            why="same layers used differently: 50-item attention-pooled histories, bce with uniform negatives, "
            "shuffled, 2 epochs; 120 heavy users, 200 items, 1800 events, 4 months",
            shape={"users": 120, "items": 200, "events": 1800, "months": 4, "activity_sigma": 0.5},
            config={
                **BASE_CONFIG,
                "data.max_seq_len": 50,
                "model.aggregator": "attention",
                "loss.family": "bce",
                "loss.negative_strategy": "uniform",
                "train.mode": "shuffled",
                "train.epochs_per_month": 2,
                "train.batch_size": 64,
            },
            setup=(),
            cycle=("prepare", "train", "eval_ir"),
        ),
        Workload(
            name="verify_sweep",
            why="the only run of verify.py: 10 loss configurations trained full-batch at the default settings "
            "(8x12 table, 200k samples, 2000 epochs), 1 seed of 1-3; tiny steps bound by per-call overhead",
            shape=None,
            config={},
            setup=(),
            cycle=("verify",),
        ),
    )
}

# Command key -> (cli argv after the config/seed options, printed metric name).
COMMANDS = {
    "prepare": (["prepare"], "prepare_s"),
    "train": (["train"], "train_s"),
    "eval_ir": (["eval", "--checkpoint", "{ckpt}", "--task", "ir"], "eval_ir_s"),
    "eval_ut": (["eval", "--checkpoint", "{ckpt}", "--task", "ut"], "eval_ut_s"),
    "trace": (["trace", "--task", "ir"], "trace_s"),
    "verify": (["verify"], "verify_s"),
}
COMMAND_METRICS = ("prepare_s", "train_s", "eval_ir_s", "eval_ut_s", "trace_s", "retrieve_s", "verify_s")


# ---- running commands ----------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    seed: int
    work: Path
    cli: object
    tracer: object = None
    clock: Callable[[], float] = time.perf_counter  # times each command
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    reports: dict = field(default_factory=dict)  # first output bytes per check key
    ndcg: dict = field(default_factory=dict)  # "<task>_ndcg_at_10" -> last value read
    queries: list = field(default_factory=list)  # (task, query) retrieve set

    @property
    def cfg(self) -> Path:
        return self.work / "run.cfg"

    @property
    def out(self) -> Path:
        return self.work / "out"

    @property
    def ckpt(self) -> Path:
        return self.out / "checkpoints" / "final.ckpt"

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def call(self, argv: list[str]) -> tuple[bool, float, str]:
        """One operation: run ``twotower <argv>`` in-process; (ok, seconds, stdout)."""
        self.attempted += 1
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        start = self.clock()
        try:
            with contextlib.redirect_stdout(buf), span:
                code = self.cli.main(argv + ["--config", str(self.cfg), "--seed", str(self.seed)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            code = -1
        seconds = self.clock() - start
        if self.tracer:
            self.tracer.run_id += 1
        if code != 0:
            self.fail(f"twotower {' '.join(argv)} exited with {code}")
            return False, seconds, buf.getvalue()
        return True, seconds, buf.getvalue()

    def same_as_first(self, key: str, blob: bytes) -> bool:
        first = self.reports.setdefault(key, blob)
        return first == blob


def _unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def random_ndcg(cutoff: int, candidates: int) -> float:
    """Expected NDCG@cutoff of one positive placed at a uniformly random rank."""
    return sum(1.0 / math.log2(k + 1) for k in range(1, min(cutoff, candidates) + 1)) / candidates


def check_eval(run: Run, task: str) -> str | None:
    blob = (run.out / "eval_report.json").read_bytes()
    report = json.loads(blob)
    for key in ("recall_at_n", "ndcg_at_n"):
        if not _unit_interval(report.get(key)):
            return f"eval {task}: {key}={report.get(key)!r} is not a finite value in [0, 1]"
    if not run.same_as_first(f"eval_{task}", blob):
        return f"eval {task}: eval_report.json differs from the first run with the same seed"
    floor = QUALITY_FLOOR * random_ndcg(report["cutoff"], 1 + run.workload.config["eval.num_negatives"])
    if report["ndcg_at_n"] < floor:
        return f"eval {task}: ndcg@{report['cutoff']}={report['ndcg_at_n']:.4f} is below {floor:.4f}; the model did not learn"
    run.ndcg[f"{task}_ndcg_at_10"] = report["ndcg_at_n"]
    return None


def check_trace(run: Run) -> str | None:
    blob = (run.out / "month_trace.tsv").read_bytes()
    rows = [line.split("\t") for line in blob.decode().splitlines()[1:]]
    if not rows:
        return "trace: month_trace.tsv has no rows"
    for row in rows:
        if len(row) != 3 or not all(_unit_interval(float(v)) for v in row[1:]):
            return f"trace: bad row {row!r}"
    if not run.same_as_first("trace", blob):
        return "trace: month_trace.tsv differs from the first run with the same seed"
    return None


def check_verify(run: Run) -> str | None:
    lines = (run.out / "sweep_report.tsv").read_text().split("\n\n")[0].splitlines()
    header, rows = lines[0].split("\t"), [dict(zip(lines[0].split("\t"), r.split("\t"))) for r in lines[1:]]
    if "pass" not in header or len(rows) != 10:
        return f"verify: expected 10 gate rows, found {len(rows)}"
    failed = [r["label"] for r in rows if r["pass"] != "pass"]
    if failed:
        return f"verify: optimum gates failed for {failed}"
    return None


def check_retrieve(run: Run, task: str, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != TOP_N:
        return f"retrieve {task}: {len(lines)} rows, expected {TOP_N}"
    scores = []
    for pos, line in enumerate(lines, start=1):
        fields = line.split("\t")
        try:
            scores.append(float(fields[2]))
        except (IndexError, ValueError):
            return f"retrieve {task}: malformed row {line!r}"
        if len(fields) != 3 or fields[0] != str(pos) or not fields[1]:
            return f"retrieve {task}: malformed row {line!r}"
    if not all(math.isfinite(s) for s in scores) or scores != sorted(scores, reverse=True):
        return f"retrieve {task}: scores not finite and descending: {scores}"
    return None


def run_command(run: Run, key: str) -> float:
    """Run one cycle step (a command or the retrieve set) and check its outputs."""
    if key == "retrieve":
        total = 0.0
        for task, query in run.queries:
            ok, seconds, stdout = run.call(
                ["retrieve", "--checkpoint", str(run.ckpt), "--task", task, "--query", query, "--top-n", str(TOP_N)]
            )
            total += seconds
            problem = check_retrieve(run, task, stdout) if ok else None
            if problem:
                run.fail(problem)
        return total
    template, _ = COMMANDS[key]
    argv = [a.format(ckpt=run.ckpt) for a in template]
    ok, seconds, _ = run.call(argv)
    if not ok:
        return seconds
    try:
        if key.startswith("eval_"):
            problem = check_eval(run, key[len("eval_"):])
        elif key == "trace":
            problem = check_trace(run)
        elif key == "verify":
            problem = check_verify(run)
        elif key == "train":
            problem = None if run.ckpt.exists() and run.ckpt.stat().st_size else "train: no final checkpoint"
        else:
            problem = None if (run.out / "train_examples.tsv").stat().st_size else "prepare: empty train file"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"{key}: unreadable output ({exc!r})"
    if problem:
        run.fail(problem)
    return seconds


# ---- set-up --------------------------------------------------------------------


def write_inputs(run: Run, loggen) -> None:
    """Generate the seeded log and write the run configuration."""
    w = run.workload
    run.work.mkdir(parents=True, exist_ok=True)
    lines = [f"seed = {run.seed}", f"paths.output_dir = {run.out}"]
    if w.shape is not None:
        log_path = run.work / "events.csv"
        loggen.write_csv(loggen.LogShape(**w.shape), run.seed, str(log_path))
        lines.append(f"data.input = {log_path}")
    else:
        lines.append(f"verify.seeds = {VERIFY_SEEDS[run.seed % len(VERIFY_SEEDS)]}")
    lines += [f"{k} = {v}" for k, v in w.config.items()]
    run.cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if "retrieve" in w.cycle:
        run.queries = retrieve_queries(log_path, run.seed)


def retrieve_queries(log_path: Path, seed: int) -> list[tuple[str, str]]:
    """A fixed, seeded query set: item sequences (ir) and single items (ut)."""
    import numpy as np

    items = sorted({line.split(",")[1] for line in log_path.read_text().splitlines()})
    rng = np.random.default_rng([seed, 101])
    queries = []
    for k in range(RETRIEVE_QUERIES):
        if k % 2 == 0:
            queries.append(("ir", " ".join(items[i] for i in rng.choice(len(items), size=3, replace=False))))
        else:
            queries.append(("ut", items[int(rng.integers(len(items)))]))
    return queries


def set_up(run: Run, loggen, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Repeat the whole set-up from scratch, at least ``SETUP_REPS`` times and
    until ``SETUP_MIN_S`` have passed; the last one is kept for the cycles.
    Set-ups are scaled in windows of at least ``SETUP_WINDOW_S``: one set-up
    each when it is slow, many when it is quick, so that the calibrations at
    the ends of a window do not outweigh what it measures.
    Returns the wall times and the same times at reference speed."""
    walls: list[float] = []
    scaled: list[float] = []

    def more() -> bool:
        return len(walls) < SETUP_REPS or (sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX_REPS)

    while more():
        window: list[float] = []
        speed.begin()
        while more() and sum(window) < SETUP_WINDOW_S:
            shutil.rmtree(run.work, ignore_errors=True)
            start = speed.clock()
            write_inputs(run, loggen)
            for key in run.workload.setup:
                run_command(run, key)
            window.append(speed.clock() - start)
            walls.append(window[-1])
        factor = speed.end()
        scaled += [wall * factor for wall in window]
    return walls, scaled


# ---- host speed ----------------------------------------------------------------


def calibrate() -> float:
    """Seconds a fixed reference job takes right now.

    The job does what twotower spends its time on: it sorts and groups small
    Python records, then gathers, pools and scores embedding rows and
    scatters a gradient with numpy.  A pure-Python loop or a large-array job
    tracked the program's slowdowns less closely.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    records = [(int(u), int(i), k) for k, (u, i) in enumerate(rng.integers(0, 300, size=(3000, 2)))]
    records.sort(key=lambda r: (r[1], r[0]))
    groups: dict[int, list[int]] = {}
    for user, item, _ in records:
        groups.setdefault(user, []).append(item)
    table = rng.random((400, 32))
    for _ in range(6):
        rows = rng.integers(0, 400, size=(256, 10))
        scores = table[rows].mean(axis=1) @ table.T
        grad = np.zeros_like(table)
        np.add.at(grad, rows[:, 0], scores[:, :32])
    return time.perf_counter() - start


class HostSpeed:
    """Scales step times to the speed of the machine the benchmark was tuned on.

    The machines this runs on share their cores with other tenants.  Their
    speed drifts by up to 2x over seconds to minutes, so raw wall times of
    the same program spread by 20-25% between runs.  The reference job
    (``calibrate``) runs a few times before and after every timed step (a
    cycle or a set-up) and, from a SIGALRM handler, every ``CAL_INTERVAL_S``
    during it.  One run of the job varies by +-30% and the host flips
    between a fast and a slow state, so a step's time is scaled by
    ``CAL_REF_S`` over the 10%-trimmed mean of all its calibrations: the
    host's average slowness over the step, without the odd preempted run.
    A host that is slow for a while then does not read as a slow program.

    ``clock`` stands still while a calibration runs, so time measured with it
    excludes the calibrations.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # every calibration, for the result file
        self._window: list[float] = []  # calibrations of the current step
        self._paused = 0.0
        self._busy = False
        calibrate()  # the first run in a process pays one-off costs
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _calibrate(self) -> None:
        # With the collector off, a collection over the program's heap cannot
        # land in a calibration (and so out of the program's time); the job's
        # objects are freed by reference counting anyway.
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            seconds = calibrate()
        finally:
            if collecting:
                gc.enable()
        self._window.append(seconds)
        self.samples.append(seconds)
        self._paused += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._calibrate()

    def begin(self) -> None:
        """Start a step."""
        self._window = []
        for _ in range(CAL_END_SAMPLES):
            self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def end(self) -> float:
        """End the step; returns the factor that scales its time to reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(CAL_END_SAMPLES):
            self._calibrate()
        window = sorted(self._window)
        trim = len(window) // 10
        return CAL_REF_S / statistics.fmean(window[trim : len(window) - trim])


# ---- environment and result ------------------------------------------------------


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def load_program():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    if not (SRC / "twotower" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import twotower.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"imported twotower from {cli.__file__}, not from {SRC}")
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="twotower benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_program()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import loggen
    import tracer as tracer_mod

    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    speed = HostSpeed()
    run = Run(workload, args.seed, work, cli, clock=speed.clock)
    try:
        setup = set_up(run, loggen, speed)
        result, details = measure(run, args, tracer_mod, setup, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["environment"] = {
        **environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps({**details, "result": result}, indent=2) + "\n")
    print_table(details)
    print("env " + json.dumps(details["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(run: Run, args, tracer_mod, setup: tuple[list[float], list[float]], speed: HostSpeed) -> tuple[dict, dict]:
    workload = run.workload
    traced = bool(args.trace)
    tracer = tracer_mod.Tracer() if traced else None
    cycles: dict[bool, list[float]] = {False: [], True: []}  # wall seconds, by traced
    scaled_cycles: list[float] = []  # untraced cycles at reference speed
    per_command: dict[str, list[tuple[float, float]]] = {}  # (wall, reference-speed) seconds
    deadline = time.perf_counter() + args.seconds
    while True:
        with_trace = traced and len(cycles[False]) > len(cycles[True])
        if with_trace:
            tracer.install()
            run.tracer = tracer
        if not traced:  # in a traced run, calibrations would land inside the open spans
            speed.begin()
        times = [(key, run_command(run, key)) for key in workload.cycle]
        total = sum(seconds for _, seconds in times)
        if with_trace:
            run.tracer = None
            tracer.uninstall()
        elif not traced:
            factor = speed.end()
            scaled_cycles.append(total * factor)
            for key, seconds in times:
                name = COMMANDS[key][1] if key in COMMANDS else "retrieve_s"
                per_command.setdefault(name, []).append((seconds, seconds * factor))
        cycles[with_trace].append(total)
        done = time.perf_counter() >= deadline
        if done and (not traced or cycles[True]):
            break

    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": run.seed,
        "trace": int(traced),
        "setup_wall_s": setup[0],
        "setup_s": setup[1],
        "cycles_wall_s": cycles[False],
        "cycles_s": scaled_cycles,
        "calibration_s": speed.samples,
        "commands": {
            name: {
                "median_s": median([s for _, s in v]),
                "median_wall_s": median([w for w, _ in v]),
                "n": len(v),
                "samples_s": [s for _, s in v],
                "samples_wall_s": [w for w, _ in v],
            }
            for name, v in per_command.items()
        },
        "ndcg": dict(run.ndcg),
        "failures": run.failures,
    }
    correct = run.failed == 0
    if traced:
        metrics, info = traced_metrics(tracer, tracer_mod, cycles)
        details["trace_info"] = info
        if info["problems"]:
            correct = False
            for problem in info["problems"]:
                print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
        spans_path = OUT_DIR / f"{workload.name}-seed{run.seed}-spans.tsv"
        tracer.write(str(spans_path))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "cycle_s": {"value": median(scaled_cycles), "unit": "s"},
            "setup_s": {"value": median(setup[1]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return result, details


def traced_metrics(tracer, tracer_mod, cycles: dict[bool, list[float]]) -> tuple[dict, dict]:
    traced_wall = sum(cycles[True])
    self_total = sum(tracer.self_times())
    problems = []
    nesting = tracer.nesting_errors()
    if nesting:
        problems.append(f"{nesting} spans do not nest inside their parents")
    if self_total > traced_wall * (1 + 1e-9):
        problems.append(f"self times sum to {self_total:.6f}s, more than the traced wall time {traced_wall:.6f}s")
    layer, info = tracer_mod.per_layer(tracer, len(cycles[True]))
    layer["trace.overhead_s"] = (median(cycles[True]) - median(cycles[False]), "s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    info.update(
        {
            "spans": len(tracer),
            "traced_cycles": len(cycles[True]),
            "untraced_cycles": len(cycles[False]),
            "traced_wall_s": traced_wall,
            "self_time_sum_s": self_total,
            "missing_boundaries": tracer.missing,
            "counter_errors": tracer.counter_errors,
            "problems": problems,
        }
    )
    return metrics, info


def print_table(details: dict) -> None:
    print(f"workload {details['workload']} seed {details['seed']} trace {details['trace']}")
    rows = [("setup_s", details["setup_s"], details["setup_wall_s"])]
    if details["cycles_s"]:
        rows.append(("cycle_s", details["cycles_s"], details["cycles_wall_s"]))
        for name in COMMAND_METRICS:
            stat = details["commands"].get(name)
            rows.append((name, stat["samples_s"], stat["samples_wall_s"]) if stat else (name, [], []))
    for name, scaled, wall in rows:
        if not scaled:
            print(f"  {name:14s} {'n/a':>10s}      (not in this workload)")
            continue
        print(
            f"  {name:14s} {median(scaled):10.4f} s    (median of {len(scaled)} at reference speed; "
            f"wall {median(wall):.4f} s)"
        )
    for name in ("ir_ndcg_at_10", "ut_ndcg_at_10"):
        value = details["ndcg"].get(name)
        print(f"  {name:14s} {value:10.4f} higher is better" if value is not None else f"  {name:14s} {'n/a':>10s}")
    info = details.get("trace_info")
    if info:
        print(f"  spans {info['spans']} traced cycles {info['traced_cycles']} untraced {info['untraced_cycles']}")
        print(f"  missing boundaries: {', '.join(info['missing_boundaries']) or 'none'}")
        print(f"  step tail percentile: p{info['step_tail_q']} over {info['step_samples']} steps")


if __name__ == "__main__":
    sys.exit(main())
