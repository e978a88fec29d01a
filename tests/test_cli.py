"""End-to-end command tests on a tiny fixture and a synthetic workspace."""

import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twotower
from reference import encode_user, sample_events, score
from test_outputs import outputs as outputs_tool
from test_trainer import resealed
from twotower import cli as cli_mod
from twotower import config as config_mod
from twotower import container
from twotower import losses as losses_mod
from twotower import prepared as prepared_mod
from twotower import trainer as trainer_mod
from twotower.cli import main
from twotower.data import ingest_logs
from twotower.evaluation import TASKS
from twotower.trainer import TrainConfig, load_checkpoint, save_checkpoint
from twotower.verify import SyntheticSpec, generate_synthetic, random_joint

TINY_EVENTS = (
    "u1,i1,2023-01-05\n"
    "u1,i2,2023-01-20\n"
    "u1,i3,2023-02-10\n"
    "u2,i1,2023-01-07\n"
    "u2,i3,2023-02-15\n"
    "u2,i2,2023-03-02\n"
)

# Hand-derived from the six events above (30-day horizon, degree filter off):
# vocab in first-appearance order, calendar months, train = months 1-2,
# validation = month 2, test = month 3; marginals over the 5 train rows.
GOLDEN_TRAIN = (
    "0\t0\t1\t-0.223144\t-0.916291\n"
    "0\t0\t2\t-0.223144\t-0.510826\n"
    "0\t0 1\t2\t-1.609438\t-0.510826\n"
    "1\t0\t2\t-0.223144\t-0.510826\n"
    "1\t0\t1\t-0.223144\t-0.916291\n"
)
GOLDEN_VALIDATION = (
    "0\t0 1\t2\t-1.609438\t-0.510826\n"
    "1\t0\t2\t-0.223144\t-0.510826\n"
    "1\t0\t1\t-0.223144\t-0.916291\n"
)
GOLDEN_TEST = "1\t0 2\t1\t-1.791759\t-0.916291\n"
GOLDEN_MARGINALS = (
    "total\t5\n"
    "user\t0\t4\t-0.223144\n"
    "user\t0 1\t1\t-1.609438\n"
    "item\t1\t2\t-0.916291\n"
    "item\t2\t3\t-0.510826\n"
)


def write_config(path, **overrides) -> str:
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    # surrogateescape: a value "\udcff" writes the byte 0xff, which is not UTF-8
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return str(path)


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """``python <args>`` in a fresh interpreter that imports this ``twotower``."""
    src = os.path.dirname(os.path.dirname(twotower.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def _run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m twotower.cli <argv>`` in a fresh interpreter."""
    return _run_python(["-m", "twotower.cli", *argv])


@pytest.fixture
def tiny_workspace(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text(TINY_EVENTS, encoding="utf-8")
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "run.cfg",
        **{
            "data.input": str(events),
            "data.horizon_days": 30,
            "data.min_degree": 1,
            "paths.output_dir": str(out),
        },
    )
    return config, out


class TestPrepare:
    def test_golden_files(self, tiny_workspace):
        config, out = tiny_workspace
        assert main(["prepare", "--config", config]) == 0
        assert (out / "train_examples.tsv").read_text() == GOLDEN_TRAIN
        assert (out / "validation_examples.tsv").read_text() == GOLDEN_VALIDATION
        assert (out / "test_examples.tsv").read_text() == GOLDEN_TEST
        assert (out / "marginals.tsv").read_text() == GOLDEN_MARGINALS
        assert (out / "resolved.cfg").exists()

    def test_byte_order_marks_change_nothing(self, tiny_workspace):
        """A log and a config that start with a UTF-8 byte-order mark give the golden files."""
        config, out = tiny_workspace
        for path in (out.parent / "events.csv", out.parent / "run.cfg"):
            path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["prepare", "--config", config]) == 0
        assert (out / "train_examples.tsv").read_text() == GOLDEN_TRAIN
        assert (out / "marginals.tsv").read_text() == GOLDEN_MARGINALS

    def test_lone_carriage_return_stays_in_its_field(self, tiny_workspace):
        """Only a line feed ends a line, through the command as in ``ingest_logs``:
        an item token holding a carriage return is one token of its line."""
        config, out = tiny_workspace
        events = out.parent / "events.csv"
        events.write_text(TINY_EVENTS.replace("i3", "i\r3"), encoding="utf-8", newline="")
        assert main(["prepare", "--config", config]) == 0
        assert (out / "train_examples.tsv").read_text() == GOLDEN_TRAIN
        assert (out / "marginals.tsv").read_text() == GOLDEN_MARGINALS
        assert "i\r3" in ingest_logs(io.BytesIO(events.read_bytes())).item_vocab

    def test_rerun_is_byte_identical(self, tiny_workspace):
        config, out = tiny_workspace
        main(["prepare", "--config", config])
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        main(["prepare", "--config", config])
        second = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert first == second

    def test_missing_input_names_path(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", **{"data.input": str(tmp_path / "absent.csv")})
        assert main(["prepare", "--config", config]) == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_missing_config_names_path(self, capsys):
        assert main(["prepare", "--config", "/nonexistent/run.cfg"]) == 1
        assert "/nonexistent/run.cfg" in capsys.readouterr().err

    def test_bce_family_writes_labeled_file(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(TINY_EVENTS, encoding="utf-8")
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "run.cfg",
            **{
                "data.input": str(events),
                "data.horizon_days": 30,
                "data.min_degree": 1,
                "loss.family": "bce",
                "loss.preset": "",
                "paths.output_dir": str(out),
            },
        )
        assert main(["prepare", "--config", config]) == 0
        lines = (out / "train_labeled.tsv").read_text().splitlines()
        assert len(lines) == 10  # 5 positives, ratio 1
        assert sum(1 for line in lines if line.endswith("\t0")) == 5


@pytest.mark.parametrize("popularity", [None, 2.5])
def test_report_json_matches_the_json_encoder(popularity):
    """Hand-built reports, with ``null`` popularity, empty lists and no records."""
    per_case = [
        {"ndcg": 1.0, "query": [3, 10, 2], "recall": 1.0, "top": [7, 1]},
        {"ndcg": 1 / math.log2(3), "query": [], "recall": 1.0, "top": [0]},
        {"ndcg": 0.0, "query": 12, "recall": 0.0, "top": [4, 5, 6]},
    ]
    report = {
        "cutoff": 2,
        "ndcg_at_n": 0.5436432511904858,
        "num_cases": 3,
        "popularity_mean": popularity,
        "popularity_median": popularity,
        "recall_at_n": 2 / 3,
        "task": "ir",
    }
    for payload in (report, report | {"per_case": per_case}, report | {"per_case": []}):
        assert cli_mod.report_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def synthetic_events_csv(path, seed=3):
    spec = SyntheticSpec(
        num_users=6,
        num_items=24,
        joint=random_joint(6, 24, seed=31, table_rank=1, sparsity=0.6),
        num_samples=3_500,
        num_months=3,
    )
    sample = generate_synthetic(spec, seed=seed)
    with open(path, "w", encoding="utf-8") as out:
        for user, item, day in sample_events(sample):
            out.write(f"u{user},i{item},{day}\n")
    return spec


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    events = tmp_path / "events.csv"
    synthetic_events_csv(events)
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "run.cfg",
        **{
            "seed": 5,
            "data.input": str(events),
            "data.horizon_days": 30,
            "data.max_seq_len": 6,
            "data.min_degree": 3,
            "model.dim": 8,
            "model.temperature": 0.1,
            "train.epochs_per_month": 2,
            "train.batch_size": 64,
            "train.learning_rate": 0.01,
            "eval.top_n": 5,
            "eval.num_negatives": 8,
            "paths.output_dir": str(out),
        },
    )
    assert main(["train", "--config", config]) == 0
    return config, out


class TestTrainEvalTrace:
    def test_train_writes_checkpoints_and_trace(self, trained_workspace):
        config, out = trained_workspace
        checkpoints = os.listdir(out / "checkpoints")
        assert "final.ckpt" in checkpoints
        months = [name for name in checkpoints if name.startswith("month_") and "_epoch_" not in name]
        assert len(months) == 2  # train months 1 and 2 of a 3-month span
        trace = (out / "trace.tsv").read_text().splitlines()
        assert trace[0] == "month\trecall\tndcg"
        assert len(trace) == 3

    def test_eval_report_written_and_deterministic(self, trained_workspace):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", config, "--checkpoint", ckpt]) == 0
        first = (out / "eval_report.json").read_bytes()
        assert main(["eval", "--config", config, "--checkpoint", ckpt]) == 0
        assert (out / "eval_report.json").read_bytes() == first
        report = json.loads(first)
        assert 0.0 <= report["recall_at_n"] <= 1.0
        assert 0.0 <= report["ndcg_at_n"] <= 1.0
        assert report["popularity_median"] is not None

    def test_eval_both_tasks(self, trained_workspace, capsys):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        for task in ("ir", "ut"):
            assert main(["eval", "--config", config, "--checkpoint", ckpt, "--task", task]) == 0
            assert task in capsys.readouterr().out

    def test_converged_model_beats_random_recall_band(self, trained_workspace):
        """1 positive among 9 candidates: random Recall@5 is 5/9.  The
        converged model must clear a far higher frozen band."""
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", config, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["recall_at_n"] >= 0.85
        assert report["ndcg_at_n"] >= 0.70

    def test_verbose_eval_includes_per_case(self, trained_workspace):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", config, "--checkpoint", ckpt, "--verbose"]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert len(report["per_case"]) == report["num_cases"]
        assert {"query", "recall", "ndcg", "top"} <= set(report["per_case"][0])

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_verbose_report_bytes_are_the_json_encoders(self, trained_workspace, task):
        """The per-case records' writer gives the bytes ``json.dump`` with
        ``sort_keys`` and ``indent=2`` gives: IR queries are lists, UT ints."""
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", config, "--checkpoint", ckpt, "--task", task, "--verbose"]) == 0
        text = (out / "eval_report.json").read_text(encoding="utf-8")
        report = json.loads(text)
        assert isinstance(report["per_case"][0]["query"], list if task == "ir" else int)
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_export_embeddings(self, trained_workspace, tmp_path):
        config, out = trained_workspace
        export = tmp_path / "vectors.tsv"
        ckpt = str(out / "checkpoints" / sorted(os.listdir(out / "checkpoints"))[0])
        assert main(["train", "--config", config, "--checkpoint", ckpt, "--export-embeddings", str(export)]) == 0
        lines = export.read_text().splitlines()
        kinds = {line.split("\t")[0] for line in lines}
        assert kinds == {"item", "user"}
        assert sum(1 for line in lines if line.startswith("item\t")) == 24
        # Every user vector is its key's vector encoded on its own.
        params = load_checkpoint(str(out / "checkpoints" / "final.ckpt")).params
        item_vocab = {line.split("\t")[1]: idx for idx, line in enumerate(lines[:24])}
        for line in lines[24:]:
            kind, seq, vec = line.split("\t")
            assert kind == "user"
            expected = encode_user([item_vocab[token] for token in seq.split()], params)
            np.testing.assert_allclose(np.array(vec.split(), dtype=float), expected, rtol=0, atol=5e-7)

    def test_fingerprint_mismatch_is_an_error(self, trained_workspace, tmp_path, capsys):
        config, out = trained_workspace
        altered = write_config(
            tmp_path / "altered.cfg",
            **{
                line.split(" = ")[0]: line.split(" = ", 1)[1]
                for line in open(config).read().splitlines()
            }
            | {"model.dim": 13},
        )
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", altered, "--checkpoint", ckpt]) == 1
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["eval"],
            ["retrieve", "--task", "ir", "--query", "i0 i1"],
            ["retrieve", "--task", "ut", "--query", "i0"],
            ["train"],
        ],
        ids=["eval", "retrieve-ir", "retrieve-ut", "train"],
    )
    def test_corrupt_checkpoint_fails_cleanly(self, trained_workspace, tmp_path, capsys, command):
        """Every command that loads a checkpoint refuses a cut, extended or
        bit-flipped one with one ``error:`` line and exit code 1."""
        config, out = trained_workspace
        blob = (out / "checkpoints" / "final.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        damaged = [blob[:cut] for cut in (0, 4, 11, 19, 20, 60, len(blob) // 2, len(blob) - 1)] + [blob + b"\x00"]
        for bit in [0, 8 * 5 + 3, 8 * 30, 8 * len(blob) - 1, *np.random.default_rng(19).integers(0, 8 * len(blob), 4)]:
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
        for data in damaged:
            bad.write_bytes(data)
            assert main([command[0], "--config", config, "--checkpoint", str(bad), *command[1:]]) == 1
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and err.splitlines()[-1].startswith("error:") and "Traceback" not in err

    def test_too_few_eval_negatives_fails_cleanly(self, trained_workspace, tmp_path, capsys):
        config, out = trained_workspace
        settings = dict(line.split(" = ", 1) for line in open(config).read().splitlines())
        greedy = write_config(tmp_path / "greedy.cfg", **(settings | {"eval.num_negatives": 1000}))
        ckpt = str(out / "checkpoints" / "final.ckpt")
        for command in (["eval", "--checkpoint", ckpt], ["trace"]):
            assert main([*command, "--config", greedy]) == 1
            assert "pool too small" in capsys.readouterr().err

    def test_trace_matches_final_eval(self, trained_workspace, capsys):
        config, out = trained_workspace
        assert main(["trace", "--config", config]) == 0
        capsys.readouterr()
        rows = [line.split("\t") for line in (out / "month_trace.tsv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["eval", "--config", config, "--checkpoint", ckpt]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert float(rows[-1][1]) == pytest.approx(report["recall_at_n"], abs=1e-6)
        assert float(rows[-1][2]) == pytest.approx(report["ndcg_at_n"], abs=1e-6)

    def test_retrieve_returns_highest_scoring_item(self, trained_workspace, capsys):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["retrieve", "--config", config, "--checkpoint", ckpt, "--task", "ir", "--query", "i0 i1", "--top-n", "1"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        rank, token, _ = line.split("\t")
        assert rank == "1"

        # rebuild the first-appearance vocabulary to translate tokens
        events_path = [l.split(" = ", 1)[1] for l in open(config).read().splitlines() if l.startswith("data.input")][0]
        import io

        from twotower.data import ingest_logs

        log = ingest_logs(io.StringIO(open(events_path).read()))
        checkpoint = load_checkpoint(ckpt)
        user = encode_user([log.item_vocab["i0"], log.item_vocab["i1"]], checkpoint.params)
        best = min(
            range(checkpoint.params.num_items),
            key=lambda item: (-score(user, checkpoint.params.item_embeddings[item], checkpoint.params.temperature), item),
        )
        reverse = {idx: tok for tok, idx in log.item_vocab.items()}
        assert token == reverse[best]

    def test_retrieve_user_targeting(self, trained_workspace, capsys):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["retrieve", "--config", config, "--checkpoint", ckpt, "--task", "ut", "--query", "i2", "--top-n", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l and l[0].isdigit()]
        assert len(lines) == 3
        assert all(line.split("\t")[1].startswith("u") for line in lines)

    def test_unknown_query_token_fails_cleanly(self, trained_workspace, capsys):
        config, out = trained_workspace
        ckpt = str(out / "checkpoints" / "final.ckpt")
        assert main(["retrieve", "--config", config, "--checkpoint", ckpt, "--task", "ut", "--query", "nope"]) == 1
        assert "unknown item token" in capsys.readouterr().err


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run(tmp_path: Path, settings: dict, *argv: str) -> tuple[int, str, str]:
    """``main([command, "--config", <settings>, *options])``: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    config = write_config(tmp_path / "run.cfg", **settings)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--config", config, *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def _flipped(at: int):
    return lambda blob: blob[: at % len(blob)] + bytes([blob[at % len(blob)] ^ 0x10]) + blob[at % len(blob) + 1 :]


# Damage done to the bytes of a container file, each of which must make it unreadable.
DAMAGES = [
    pytest.param(lambda blob: b"", id="empty"),
    pytest.param(lambda blob: blob[:4], id="magic-only"),
    pytest.param(lambda blob: blob[: len(blob) // 2], id="cut-in-half"),
    pytest.param(lambda blob: blob[:-1], id="last-byte-cut"),
    pytest.param(lambda blob: blob + b"\0", id="appended"),
    pytest.param(lambda blob: resealed(blob[:-4] + b"\0" + blob[-4:]), id="appended-resealed"),
    pytest.param(_flipped(1), id="flipped-magic"),
    pytest.param(_flipped(12), id="flipped-key"),
    pytest.param(_flipped(40), id="flipped-metadata"),
    pytest.param(_flipped(-100), id="flipped-payload"),
    pytest.param(_flipped(-1), id="flipped-checksum"),
    pytest.param(lambda blob: resealed(blob[:4] + struct.pack("<I", 2) + blob[8:]), id="version-2-resealed"),
]


@pytest.fixture
def prepared_workspace(tmp_path):
    """The settings of a run on ``synthetic_events_csv`` into ``tmp_path / "out"``."""
    events = tmp_path / "events.csv"
    synthetic_events_csv(events)
    settings = {
        "seed": 5,
        "data.input": str(events),
        "data.max_seq_len": 6,
        "model.dim": 8,
        "train.epochs_per_month": 1,
        "eval.top_n": 5,
        "eval.num_negatives": 8,
        "paths.output_dir": str(tmp_path / "out"),
    }
    return tmp_path, settings


@pytest.fixture
def builds(monkeypatch):
    """One entry per pipeline run that builds from the log (an ingest call)."""
    calls = []
    ingest = cli_mod.data_mod.ingest_logs
    monkeypatch.setattr(cli_mod.data_mod, "ingest_logs", lambda *args, **kwargs: calls.append(1) or ingest(*args, **kwargs))
    return calls


class TestPreparedFile:
    """The output directory's prepared file stands in for ingest, example
    building and the degree filter when its key (the log's bytes and the
    ``data.*`` settings) matches, and is rebuilt silently otherwise."""

    def test_key_covers_every_data_setting_but_the_input_path(self):
        base = config_mod.RunConfig()
        key = prepared_mod.key_of(b"u1,i1,0\n", base)
        assert prepared_mod.key_of(b"u1,i1,1\n", base) != key
        for name, (section, field, kind) in config_mod.FIELD_MAP.items():
            changed = config_mod.parse_config(config_mod.render_config(base))
            value = getattr(changed, field) if section is None else getattr(getattr(changed, section), field)
            value = value + "x" if kind is str else value * 2 + 1
            if section is None:
                changed.seed = value
            else:
                setattr(getattr(changed, section), field, value)
            stays = not name.startswith("data.") or name == "data.input"
            assert (prepared_mod.key_of(b"u1,i1,0\n", changed) == key) == stays, name

    @pytest.mark.parametrize(
        "change",
        [
            "log byte",
            {"data.horizon_days": 20},
            {"data.max_seq_len": 3},
            {"data.min_degree": 2},
            {"data.months_total": 3},  # the log's own span, named
        ],
        ids=str,
    )
    def test_changed_input_misses_and_rewrites(self, prepared_workspace, builds, change):
        """A one-byte log change at the same size and mtime, or another value
        of a ``data.*`` key, rebuilds and rewrites the file as a fresh
        directory's run writes it."""
        tmp_path, settings = prepared_workspace
        assert _run(tmp_path, settings, "prepare")[0] == 0
        out = tmp_path / "out"
        before = (out / prepared_mod.FILE_NAME).read_bytes()
        if change == "log byte":
            events = Path(settings["data.input"])
            stat = events.stat()
            events.write_bytes(events.read_bytes().replace(b"u1,", b"u2,", 1))
            os.utime(events, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert events.stat().st_size == stat.st_size
        else:
            settings |= change
        builds.clear()
        code, _, err = _run(tmp_path, settings, "prepare")
        assert (code, err, len(builds)) == (0, "", 1)
        assert (out / prepared_mod.FILE_NAME).read_bytes() != before
        assert _run(tmp_path, settings | {"paths.output_dir": str(tmp_path / "fresh")}, "prepare")[0] == 0
        fresh = _files(tmp_path / "fresh")
        assert {name: blob for name, blob in _files(out).items() if name != "resolved.cfg"} == {
            name: blob for name, blob in fresh.items() if name != "resolved.cfg"
        }

    @pytest.mark.parametrize(
        "change",
        [{"seed": 9}, {"train.batch_size": 16}, {"train.learning_rate": 0.5}, {"eval.top_n": 3}, {"eval.task": "ut"}],
        ids=str,
    )
    def test_other_settings_hit(self, prepared_workspace, builds, change):
        tmp_path, settings = prepared_workspace
        assert _run(tmp_path, settings, "prepare")[0] == 0
        prepared = tmp_path / "out" / prepared_mod.FILE_NAME
        before = prepared.stat()
        builds.clear()
        assert _run(tmp_path, settings | change, "prepare")[0] == 0
        assert builds == []
        assert (prepared.stat().st_ino, prepared.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_file_is_rebuilt_never_loaded(self, prepared_workspace, builds, damage):
        tmp_path, settings = prepared_workspace
        code, stdout, _ = _run(tmp_path, settings, "prepare")
        assert code == 0
        out = tmp_path / "out"
        good = _files(out)
        (out / prepared_mod.FILE_NAME).write_bytes(damage(good[prepared_mod.FILE_NAME]))
        builds.clear()
        assert _run(tmp_path, settings, "prepare") == (0, stdout, "")
        assert len(builds) == 1
        assert _files(out) == good

    @pytest.mark.parametrize("dates", ["integer", "iso"])
    def test_cold_and_warm_runs_write_the_same_bytes(self, prepared_workspace, builds, dates):
        """Every command's files and stdout are the same whether it builds the
        data (the prepared file deleted before each command) or loads it."""
        tmp_path, settings = prepared_workspace
        if dates == "iso":  # calendar months from a day that is not the first of a month
            events = Path(settings["data.input"])
            lines = [line.rsplit(",", 1) for line in events.read_text().splitlines()]
            epoch = np.datetime64("2023-01-17")
            events.write_text("".join(f"{head},{epoch + int(day)}\n" for head, day in lines))
        out = tmp_path / "out"
        ckpt = str(out / "checkpoints" / "final.ckpt")
        commands = [
            ["prepare"],
            ["train"],
            ["eval", "--checkpoint", ckpt, "--task", "ir"],
            ["eval", "--checkpoint", ckpt, "--task", "ut", "--verbose"],
            ["trace", "--task", "ir"],
            ["retrieve", "--checkpoint", ckpt, "--task", "ir", "--query", "i0 i3"],
            ["retrieve", "--checkpoint", ckpt, "--task", "ut", "--query", "i2"],
        ]
        runs = {}
        for cold in (True, False):
            shutil.rmtree(out, ignore_errors=True)
            builds.clear()
            outputs, prepared = [], set()  # a cold retrieve leaves no prepared file behind
            for argv in commands:
                if cold and (out / prepared_mod.FILE_NAME).exists():
                    (out / prepared_mod.FILE_NAME).unlink()
                code, stdout, err = _run(tmp_path, settings, *argv)
                assert (code, err) == (0, ""), argv
                files = _files(out)
                prepared.add(files.pop(prepared_mod.FILE_NAME, None))
                outputs.append((stdout, files))
            assert len(builds) == (len(commands) if cold else 1)
            runs[cold] = outputs, prepared - {None}
        assert runs[True] == runs[False]

    def test_retrieve_writes_no_file(self, prepared_workspace, builds):
        tmp_path, settings = prepared_workspace
        assert _run(tmp_path, settings, "train")[0] == 0
        out = tmp_path / "out"
        query = ["--checkpoint", str(out / "checkpoints" / "final.ckpt"), "--query", "i2"]
        code, warm, _ = _run(tmp_path, settings, "retrieve", *query)
        assert code == 0 and len(builds) == 1
        (out / prepared_mod.FILE_NAME).unlink()
        files = _files(out)
        assert _run(tmp_path, settings, "retrieve", *query) == (0, warm, "")
        assert _files(out) == files
        elsewhere = tmp_path / "elsewhere"
        assert _run(tmp_path, settings | {"paths.output_dir": str(elsewhere)}, "retrieve", *query) == (0, warm, "")
        assert not elsewhere.exists()

    @pytest.mark.parametrize(
        "change",
        [{"data.input": "{malformed}"}, {"data.delimiter": ";"}, {"data.horizon_days": 0}],
        ids=["malformed-log", "other-delimiter", "horizon-0"],
    )
    def test_rejected_input_beside_a_valid_file_fails_as_in_a_fresh_directory(self, prepared_workspace, change):
        tmp_path, settings = prepared_workspace
        assert _run(tmp_path, settings, "prepare")[0] == 0
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("u1,i1,0\nu2,i2\n", encoding="utf-8")
        changed = settings | {key: str(value).format(malformed=malformed) for key, value in change.items()}
        fresh = _run(tmp_path, changed | {"paths.output_dir": str(tmp_path / "fresh")}, "prepare")
        assert fresh[0] == 1 and fresh[2].startswith("error: ")
        before = _files(tmp_path / "out")
        assert _run(tmp_path, changed, "prepare") == fresh
        assert _files(tmp_path / "out") == before


# A run on ``synthetic_events_csv`` with relative paths, from inside its directory.
CASE_SETTINGS = {
    "seed": 5,
    "data.input": "events.csv",
    "data.max_seq_len": 6,
    "model.dim": 8,
    "train.epochs_per_month": 1,
    "eval.top_n": 5,
    "eval.num_negatives": 8,
    "paths.output_dir": "out",
}
CKPT = "out/checkpoints/final.ckpt"


@pytest.fixture(scope="module")
def case_template(tmp_path_factory):
    """A directory holding ``events.csv`` and the outputs of ``train`` on it
    under ``CASE_SETTINGS``."""
    root = tmp_path_factory.mktemp("cases")
    synthetic_events_csv(root / "events.csv")
    with contextlib.chdir(root):
        assert _run(Path("."), CASE_SETTINGS, "train")[0] == 0
    return root


@pytest.fixture
def case_workspace(case_template, tmp_path, monkeypatch):
    """A copy of ``case_template`` as the working directory, and its settings."""
    shutil.copytree(case_template, tmp_path / "w")
    monkeypatch.chdir(tmp_path / "w")
    return Path("."), dict(CASE_SETTINGS)


@pytest.fixture
def draws(monkeypatch):
    """The task of each case draw (a ``build_eval_cases`` call) the commands make."""
    calls = []
    build = cli_mod.build_eval_cases
    monkeypatch.setattr(cli_mod, "build_eval_cases", lambda *args, **kwargs: calls.append(args[1]) or build(*args, **kwargs))
    return calls


def _case_files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.glob("eval_cases_*.bin"))}


def _drawn(root: Path, settings: dict, task: str):
    """What ``eval`` does before it ranks: the test cases and pool of ``task``."""
    args = cli_mod.build_parser().parse_args(["eval", "--config", write_config(root / "run.cfg", **settings)])
    cfg = cli_mod._load_config(args)
    prepared = cli_mod._run_pipeline(cfg)
    cli_mod._write_resolved(cfg, prepared)
    return cli_mod._test_cases(cfg, prepared, task)


def _refit(change):
    """A case file rewritten under its own key, with a valid checksum, after ``change(arrays)``."""

    def damage(path: Path) -> None:
        _, meta, arrays = container.read(str(path), prepared_mod.CASES_MAGIC, prepared_mod.CASES_VERSION, "eval-cases")
        arrays = {name: array.copy() for name, array in arrays.items()}
        arrays = change(arrays) or arrays
        key = bytes.fromhex(meta["key"])
        prepared_mod._write_keyed(str(path), prepared_mod.CASES_MAGIC, prepared_mod.CASES_VERSION, key, {}, list(arrays.items()))

    return damage


def _set(name: str, index, value):
    """A change that sets ``arrays[name][index]`` to ``value(arrays[name])``."""

    def change(arrays):
        arrays[name][index] = value(arrays[name])

    return change


def _outside_the_pool(arrays):
    """An IR negative replaced by an item id that no test example targets."""
    candidates = arrays["candidates"]
    absent = np.setdiff1d(np.arange(candidates.max() + 1), candidates[:, 0])
    candidates[0, 1] = absent[0] if absent.size else candidates.max() + 1


class TestCaseFile:
    """The output directory's case file of a task stands in for the draw of
    its test cases when its key (the prepared data's key, the task,
    ``eval.num_negatives`` and the seed) matches and its cases fit the test
    split; it is drawn again and rewritten otherwise."""

    def test_key_covers_the_data_task_negatives_and_seed(self):
        base = (b"\1" * 32, "ir", 8, 7)
        key = prepared_mod.cases_key(*base)
        assert prepared_mod.cases_key(*base) == key
        for changed in [(b"\2" * 32, "ir", 8, 7), (b"\1" * 32, "ut", 8, 7), (b"\1" * 32, "ir", 9, 7), (b"\1" * 32, "ir", 8, 8)]:
            assert prepared_mod.cases_key(*changed) != key, changed

    def test_cold_and_warm_runs_give_the_same_output(self, case_workspace, draws):
        """Every eval, trace and ``eval_top`` file and stdout is the same
        whether the cases are drawn (every case file deleted first) or loaded,
        and so are the case files each run leaves."""
        root, settings = case_workspace
        config = write_config(root / "run.cfg", **settings)
        commands = [
            ["eval", "--checkpoint", CKPT, "--task", "ir"],
            ["eval", "--checkpoint", CKPT, "--task", "ir", "--verbose"],
            ["eval", "--checkpoint", CKPT, "--task", "ut"],
            ["eval", "--checkpoint", CKPT, "--task", "ut", "--verbose"],
            ["trace", "--task", "ir"],
            ["trace", "--task", "ut"],
            ["eval_top", "ir"],
            ["eval_top", "ut"],
        ]
        shutil.copytree("out", "trained")
        runs = {}
        for cold in (True, False):
            shutil.rmtree("out")
            shutil.copytree("trained", "out")
            outputs, cached = [], {}
            draws.clear()
            for argv in commands:
                if cold:
                    for path in Path("out").glob("eval_cases_*.bin"):
                        path.unlink()
                if argv[0] == "eval_top":
                    outputs_tool._write_top_scores(cli_mod, config, CKPT, argv[1], f"out/eval_top_{argv[1]}.tsv")
                    stdout = ""
                else:
                    code, stdout, err = _run(root, settings, *argv)
                    assert (code, err) == (0, ""), argv
                files = _files(Path("out"))
                cached |= {name: files.pop(name) for name in _case_files(Path("out"))}
                outputs.append((stdout, files))
            assert draws == ([next(a for a in argv if a in TASKS) for argv in commands] if cold else ["ir", "ut"])
            runs[cold] = outputs, cached
        assert sorted(runs[True][1]) == ["eval_cases_ir.bin", "eval_cases_ut.bin"]
        assert runs[True] == runs[False]

    def test_loaded_cases_are_read_only_views(self, case_workspace):
        root, settings = case_workspace
        drawn, _ = _drawn(root, settings, "ut")
        loaded, _ = _drawn(root, settings, "ut")
        assert drawn.candidates.flags.writeable and not loaded.candidates.flags.writeable
        assert loaded.candidates.tobytes() == drawn.candidates.tobytes()

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_file_is_rebuilt_never_loaded(self, case_workspace, draws, damage):
        root, settings = case_workspace
        argv = ["eval", "--checkpoint", CKPT, "--task", "ut", "--verbose"]
        good = _run(root, settings, *argv)
        files = _files(Path("out"))
        path = Path("out") / prepared_mod.cases_file("ut")
        path.write_bytes(damage(path.read_bytes()))
        draws.clear()
        assert _run(root, settings, *argv) == good
        assert draws == ["ut"]
        assert _files(Path("out")) == files

    @pytest.mark.parametrize(
        "task, change",
        [
            pytest.param("ir", _outside_the_pool, id="ir-negative-outside-the-pool"),
            pytest.param("ir", _set("candidates", (0, 1), lambda c: -1), id="ir-negative-id"),
            pytest.param("ut", _set("candidates", (0, 1), lambda c: c.max() + 1), id="ut-negative-outside-the-pool"),
            pytest.param("ir", _set("candidates", (0, slice(0, 2)), lambda c: c[0, 1::-1]), id="positive-not-first"),
            pytest.param("ir", _set("query", 0, lambda q: q[0] + 1), id="other-query"),
            pytest.param("ut", _set("positive", 0, lambda p: p[0] + 1), id="other-positive"),
            pytest.param("ut", _set("user_keys", -1, lambda k: k[-1] + 1), id="other-user-key"),
            pytest.param("ut", _set("key_owner", 0, lambda o: o[0] + 1), id="other-key-owner"),
            pytest.param("ut", lambda arrays: {n: a for n, a in arrays.items() if n != "key_owner"}, id="no-key-owner"),
            pytest.param("ir", lambda arrays: {n: a for n, a in arrays.items() if n != "candidates"}, id="no-candidates"),
            pytest.param("ir", lambda arrays: {**arrays, "candidates": arrays["candidates"][:, :-1]}, id="one-negative-less"),
            pytest.param("ut", lambda arrays: {name: a[:-1] for name, a in arrays.items()}, id="one-case-less"),
            pytest.param("ir", lambda arrays: {**arrays, "candidates": arrays["candidates"] + 0.0}, id="float-candidates"),
        ],
    )
    def test_cases_that_do_not_fit_the_split_are_rebuilt_never_loaded(self, case_workspace, draws, task, change):
        """A file of the right key whose arrays do not fit the test split
        (written with a valid checksum, as a tampered file could be)."""
        root, settings = case_workspace
        argv = ["eval", "--checkpoint", CKPT, "--task", task, "--verbose"]
        good = _run(root, settings, *argv)
        files = _files(Path("out"))
        path = Path("out") / prepared_mod.cases_file(task)
        _refit(change)(path)
        assert path.read_bytes() != files[path.name]
        draws.clear()
        assert _run(root, settings, *argv) == good
        assert draws == [task]
        assert _files(Path("out")) == files

    @pytest.mark.parametrize(
        "change",
        ["log byte", "task", {"seed": 9}, {"eval.num_negatives": 7}, {"data.max_seq_len": 3}, {"data.min_degree": 2}],
        ids=str,
    )
    def test_stale_file_is_rebuilt_and_rewritten(self, case_workspace, draws, change):
        """A changed log byte, seed, ``eval.num_negatives`` or ``data.*`` value,
        or another task's file under this task's name, draws again and
        rewrites the file as a fresh directory writes it."""
        root, settings = case_workspace
        _drawn(root, settings, "ir")
        if change == "log byte":
            events = Path(settings["data.input"])
            events.write_bytes(events.read_bytes().replace(b"u1,", b"u2,", 1))
        elif change == "task":
            _drawn(root, settings, "ut")
            shutil.copyfile("out/eval_cases_ut.bin", "out/eval_cases_ir.bin")
        else:
            settings |= change
        stale = _case_files(Path("out"))["eval_cases_ir.bin"]
        draws.clear()
        cases, _ = _drawn(root, settings, "ir")
        assert draws == ["ir"]
        assert _case_files(Path("out"))["eval_cases_ir.bin"] != stale
        fresh, _ = _drawn(root, settings | {"paths.output_dir": "fresh"}, "ir")
        assert _case_files(Path("out"))["eval_cases_ir.bin"] == _case_files(Path("fresh"))["eval_cases_ir.bin"]
        assert cases.candidates.tobytes() == fresh.candidates.tobytes()

    @pytest.mark.parametrize(
        "change",
        [{"eval.top_n": 3}, {"eval.popularity_window_days": 30}, {"eval.task": "ut"}, {"train.learning_rate": 0.5}, {"model.dim": 4}],
        ids=str,
    )
    def test_other_settings_hit(self, case_workspace, draws, change):
        root, settings = case_workspace
        _drawn(root, settings, "ir")
        path = Path("out") / prepared_mod.cases_file("ir")
        before = path.stat()
        draws.clear()
        _drawn(root, settings | change, "ir")
        assert draws == []
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_changed_cutoff_reuses_the_file_and_reports_the_new_cutoff(self, case_workspace, draws, task):
        root, settings = case_workspace
        argv = ["eval", "--checkpoint", CKPT, "--task", task, "--verbose"]
        assert _run(root, settings, *argv)[0] == 0
        files = _case_files(Path("out"))
        draws.clear()
        settings["eval.top_n"] = 3
        code, stdout, err = _run(root, settings, *argv)
        assert (code, err, draws) == (0, "", [])
        assert "recall@3=" in stdout and json.loads(Path("out/eval_report.json").read_text())["cutoff"] == 3
        assert _case_files(Path("out")) == files
        fresh = _run(root, settings | {"paths.output_dir": "fresh"}, *argv)
        assert (code, stdout.replace("out/", "fresh/"), err) == fresh
        assert Path("out/eval_report.json").read_bytes() == Path("fresh/eval_report.json").read_bytes()

    @pytest.mark.parametrize(
        "change",
        [
            {"eval.top_n": 0},
            {"eval.num_negatives": -1},
            {"eval.num_negatives": 10_000},  # more than the pool holds
            {"eval.task": "xx"},
            {"data.months_total": 5},  # months 4 and 5 hold no test example
        ],
        ids=str,
    )
    def test_rejected_arguments_beside_a_valid_file_fail_as_in_a_fresh_directory(self, case_workspace, change):
        """Each check of the draw on its arguments fails with the same
        ``error:`` line whatever case file lies beside it, and writes none."""
        root, settings = case_workspace
        for task in TASKS:
            assert _run(root, settings, "eval", "--checkpoint", CKPT, "--task", task)[0] == 0
        shutil.copyfile("out/eval_cases_ir.bin", "out/eval_cases_xx.bin")  # the file an unknown task would read
        files = _case_files(Path("out"))
        argv = ["trace", "--checkpoint-dir", "out/checkpoints"]  # trace draws before it reads a checkpoint
        fresh = _run(root, settings | change | {"paths.output_dir": "fresh"}, *argv)
        assert fresh[0] == 1 and fresh[2].startswith("error: ") and fresh[1] == ""
        assert _run(root, settings | change, *argv) == fresh
        assert _case_files(Path("out")) == files
        assert _case_files(Path("fresh")) == {}

    def test_prepare_train_and_retrieve_write_no_case_file(self, case_workspace):
        root, settings = case_workspace
        settings["paths.output_dir"] = "other"
        query = ["--checkpoint", "other/checkpoints/final.ckpt", "--query", "i2"]
        for argv in (["prepare"], ["train"], ["retrieve", *query, "--task", "ir"], ["retrieve", *query, "--task", "ut"]):
            assert _run(root, settings, *argv)[0] == 0, argv
        assert (Path("other") / prepared_mod.FILE_NAME).exists()
        assert _case_files(Path("other")) == {}


@pytest.fixture(scope="module")
def small_events(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("variants")
    events = tmp_path / "events.csv"
    spec = SyntheticSpec(
        num_users=5,
        num_items=12,
        joint=random_joint(5, 12, seed=41, table_rank=1, sparsity=0.5),
        num_samples=1_200,
        num_months=3,
    )
    sample = generate_synthetic(spec, seed=1)
    with open(events, "w", encoding="utf-8") as out:
        for user, item, day in sample_events(sample):
            out.write(f"u{user},i{item},{day}\n")
    return tmp_path, events


@pytest.fixture(scope="module")
def small_checkpoint(small_events):
    """``final.ckpt`` of a run at the default settings on ``small_events``."""
    tmp_path, events = small_events
    out = tmp_path / "valid"
    config = write_config(tmp_path / "valid.cfg", **{"data.input": str(events), "paths.output_dir": str(out)})
    assert main(["train", "--config", config]) == 0
    return str(out / "checkpoints" / "final.ckpt")


@pytest.fixture(scope="module")
def invalid_checkpoints(small_checkpoint):
    """Copies of ``small_checkpoint`` written with a NaN temperature, an
    infinite item table, one NaN entry in one item row, one item row whose
    norm overflows, an unknown pooling, a trace that is not a list of rows or
    trace rows that are not validation rows, copies whose header says format
    version 1 or 2, and directories whose one month checkpoint holds that NaN
    entry, that pooling or one item row more than the data's vocabulary."""
    directory = os.path.join(os.path.dirname(os.path.dirname(small_checkpoint)), "invalid")
    for months in ("months", "aggregator_months", "vocabulary_months"):
        os.makedirs(os.path.join(directory, months), exist_ok=True)

    def write(name, source, corrupt):
        checkpoint = load_checkpoint(source)
        corrupt(checkpoint.params)
        save_checkpoint(os.path.join(directory, name), checkpoint)
        return os.path.join(directory, name)

    def nan_temperature(params):
        params.temperature = float("nan")

    def inf_items(params):
        params.item_embeddings[:] = np.inf

    def nan_row(params):
        params.item_embeddings[3, 1] = np.nan

    def overflowing_row(params):
        params.item_embeddings[3] = 1e200

    def unknown_aggregator(params):
        params.aggregator = "max"

    def extra_item(params):
        params.table = np.vstack([params.table[:1], params.table])

    blob = Path(small_checkpoint).read_bytes()
    for version in (1, 2):
        Path(directory, f"version_{version}.ckpt").write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])

    def write_trace(name, trace):
        checkpoint = load_checkpoint(small_checkpoint)
        checkpoint.trace = trace
        save_checkpoint(os.path.join(directory, name), checkpoint)
        return os.path.join(directory, name)

    month = small_checkpoint.replace("final", "month_0001")
    return {
        "nan_temperature": write("nan_temperature.ckpt", small_checkpoint, nan_temperature),
        "inf_items": write("inf_items.ckpt", small_checkpoint, inf_items),
        "nan_row": write("nan_row.ckpt", small_checkpoint, nan_row),
        "overflowing_row": write("overflowing_row.ckpt", small_checkpoint, overflowing_row),
        "nan_months": os.path.dirname(write("months/month_0001.ckpt", month, nan_row)),
        "max_aggregator": write("max_aggregator.ckpt", small_checkpoint, unknown_aggregator),
        "max_aggregator_months": os.path.dirname(write("aggregator_months/month_0001.ckpt", month, unknown_aggregator)),
        "vocabulary_months": os.path.dirname(write("vocabulary_months/month_0001.ckpt", month, extra_item)),
        "version_1": os.path.join(directory, "version_1.ckpt"),
        "version_2": os.path.join(directory, "version_2.ckpt"),
        "string_trace": write_trace("string_trace.ckpt", "month 1"),
        "other_trace": write_trace("other_trace.ckpt", [{"month": 1, "auc": 0.5}]),
    }


def setting(command, settings, message, id, absent=None):
    """A row of ``test_invalid_train_setting_fails_cleanly``; ``absent`` names
    a path the failed command must not have written."""
    return pytest.param(command, settings, message, absent, id=id)


class TestTrainVariants:
    def _run(self, tmp_path, events, name, **extra):
        out = tmp_path / name
        config = write_config(
            tmp_path / f"{name}.cfg",
            **{
                "seed": 2,
                "data.input": str(events),
                "data.min_degree": 2,
                "data.max_seq_len": 5,
                "model.dim": 6,
                "train.epochs_per_month": 1,
                "train.batch_size": 32,
                "eval.num_negatives": 2,
                "eval.top_n": 3,
                "paths.output_dir": str(out),
            }
            | extra,
        )
        assert main(["train", "--config", config]) == 0
        assert (out / "checkpoints" / "final.ckpt").exists()
        return config, out

    def test_bce_family(self, small_events):
        tmp_path, events = small_events
        config, out = self._run(
            tmp_path, events, "bce", **{"loss.family": "bce", "loss.preset": "", "loss.negative_strategy": "user-marginal"}
        )
        assert main(["eval", "--config", config, "--checkpoint", str(out / "checkpoints" / "final.ckpt")]) == 0

    def test_ssm_family(self, small_events):
        tmp_path, events = small_events
        self._run(tmp_path, events, "ssm", **{"loss.family": "ssm", "loss.preset": "", "loss.num_sampled": 4})

    def test_shuffled_mode(self, small_events):
        tmp_path, events = small_events
        config, out = self._run(tmp_path, events, "shuffled", **{"train.mode": "shuffled"})
        names = os.listdir(out / "checkpoints")
        assert any(name.startswith("shuffled_epoch_") for name in names)

    def test_ssm_proposal_built_once_per_run(self, small_events, monkeypatch):
        tmp_path, events = small_events
        calls = []
        real = losses_mod.proposal_distribution

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(losses_mod, "proposal_distribution", counting)
        monkeypatch.setattr(cli_mod, "proposal_distribution", counting)
        self._run(tmp_path, events, "ssm_once", **{"loss.family": "ssm", "loss.preset": "", "loss.num_sampled": 4})
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["incremental", "shuffled"])
    def test_in_batch_size_beyond_physical_memory_rejected(self, small_events, monkeypatch, capsys, mode):
        """A batch size above a phase's example count is capped to it (the
        largest month, or the pooled data when shuffled), and a batch whose
        step needs more than physical memory fails before the first step.
        The memory figure is patched, so nothing large is allocated."""
        tmp_path, events = small_events
        out = tmp_path / f"huge_batch_{mode}"
        settings = {"data.input": str(events), "train.batch_size": 100_000, "train.mode": mode}
        config = write_config(tmp_path / f"huge_batch_{mode}.cfg", **settings, **{"paths.output_dir": str(out)})
        train = cli_mod._run_pipeline(config_mod.load_config(config)).split.train
        size = len(train) if mode == "shuffled" else int(np.bincount(train.month).max())
        assert size < 100_000
        peak = losses_mod.IN_BATCH_PEAK_ARRAYS * 8 * size**2
        monkeypatch.setattr(cli_mod, "physical_memory", lambda: int(peak) - 1)
        assert main(["train", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"error: train: an in-batch batch of {size} examples needs" in err
        assert "lower train.batch_size" in err
        assert not (out / "checkpoints").exists()
        monkeypatch.setattr(cli_mod, "physical_memory", lambda: math.ceil(peak))
        cli_mod._check_in_batch_memory(train, TrainConfig(batch_size=100_000, mode=mode))  # fits: no error

    def test_physical_memory_without_sysconf(self, monkeypatch):
        assert cli_mod.physical_memory() > 0
        monkeypatch.delattr(os, "sysconf")
        assert cli_mod.physical_memory() is None

    def test_batch_size_one_rejected_for_in_batch_loss(self, small_events, capsys):
        tmp_path, events = small_events
        config = write_config(
            tmp_path / "bad.cfg",
            **{
                "data.input": str(events),
                "train.batch_size": 1,
                "paths.output_dir": str(tmp_path / "bad"),
            },
        )
        assert main(["train", "--config", config]) == 1
        assert "batch_size" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, settings, message, absent",
        [
            setting(
                "train", {"train.mode": "sideways"}, "mode must be one of", "train.mode-sideways-mode must be one of"
            ),
            setting(
                "train", {"train.epochs_per_month": 0}, "epochs_per_month", "train.epochs_per_month-0-epochs_per_month"
            ),
            setting("prepare", {"data.horizon_days": 0}, "horizon_days", "prepare-data.horizon_days-0"),
            setting("prepare", {"data.max_seq_len": 0}, "max_seq_len", "prepare-data.max_seq_len-0"),
            setting("prepare", {"data.min_degree": 0}, "min_degree", "prepare-data.min_degree-0"),
            setting("prepare", {"data.delimiter": ""}, "delimiter", "prepare-data.delimiter-empty"),
            setting(
                "prepare",
                {"loss.family": "bce", "loss.preset": "", "loss.negative_strategy": "zz"},
                "negative-sampling strategy",
                "prepare-bce-loss.negative_strategy-zz",
            ),
            setting("train", {"model.aggregator": "foo"}, "aggregator", "train-model.aggregator-foo"),
            setting("train", {"model.temperature": 0}, "temperature", "train-model.temperature-0"),
            setting(
                "train",
                {"loss.family": "bce", "loss.preset": "", "model.temperature": 1e-300},
                "error: model: temperature must be >= 1/350 (about 0.00286), got 1e-300",
                "train-bce-model.temperature-1e-300",
            ),
            setting("train", {"model.dim": 0}, "dim", "train-model.dim-0"),
            setting("train", {"model.temperature": "nan"}, "'model.temperature': 'nan' is not finite", "train-temp-nan"),
            setting("train", {"train.learning_rate": "nan"}, "'train.learning_rate': 'nan'", "train-lr-nan"),
            setting("train", {"train.learning_rate": "-inf"}, "'train.learning_rate': '-inf'", "train-lr-inf"),
            setting("train", {"model.aggregator": "\udcff"}, "not UTF-8", "train-config-not-utf8"),
            setting(
                "train",
                {"train.optimizer": "sgd", "train.learning_rate": 1e308},
                "train: non-finite",
                "train-sgd-diverges",
            ),
            setting("train", {"train.adam_beta1": 1e308}, "train: adam_beta1 must be in [0, 1)", "train-beta1-1e308"),
            setting("train", {"train.adam_beta1": 2}, "train: adam_beta1 must be in [0, 1)", "train-beta1-2"),
            setting("train", {"train.adam_beta2": 1e308}, "train: adam_beta2 must be in [0, 1)", "train-beta2-1e308"),
            setting("train", {"train.adam_beta2": -1}, "train: adam_beta2 must be in [0, 1)", "train-beta2-neg"),
            setting("train", {"train.adam_epsilon": 0}, "train: adam_epsilon must be positive", "train-epsilon-0"),
            setting("train", {"loss.family": "foo"}, "unknown loss family", "train-loss.family-foo"),
            setting("train", {"loss.preset": "zz"}, "unknown preset", "train-loss.preset-zz"),
            setting(
                "train", {"loss.family": "bce", "loss.preset": "nope"}, "loss: unknown preset", "train-bce-loss.preset-nope"
            ),
            setting(
                "train",
                {"loss.family": "ssm", "loss.preset": "", "loss.num_sampled": 0},
                "num_sampled",
                "train-ssm-loss.num_sampled-0",
            ),
            setting("train", {"eval.top_n": 0}, "cutoff", "train-eval.top_n-0"),
            setting("eval --checkpoint {ckpt}", {"eval.top_n": 0}, "cutoff", "eval-eval.top_n-0"),
            setting(
                "eval --checkpoint {ckpt}",
                {"eval.num_negatives": 2, "eval.popularity_window_days": -5},
                "eval: popularity_window_days must be >= 1",
                "eval-eval.popularity_window_days-neg",
            ),
            setting(
                "train",
                {"loss.family": "ssm", "loss.preset": "", "loss.num_sampled": 500},
                "loss: num_sampled = 500",
                "train-ssm-loss.num_sampled-500",
            ),
            setting(
                "train",
                {"loss.family": "ssm", "loss.preset": "", "loss.ssm_proposal": "uniform", "loss.num_sampled": 12},
                "uniform proposal covers 12 items",
                "train-ssm-uniform-num_sampled-vocabulary",
            ),
            setting(
                "train",
                {"loss.family": "ssm", "loss.preset": "", "data.min_degree": 60, "loss.num_sampled": 11},
                "marginal proposal covers 11 items",
                "train-ssm-marginal-num_sampled-seen-items",
            ),
            setting("verify", {"verify.num_users": 0}, "num_users", "verify-verify.num_users-0"),
            setting("verify", {"verify.table_rank": 0}, "verify: table_rank must be >= 1", "verify-verify.table_rank-0"),
            setting("verify", {"verify.table_rank": -2}, "verify: table_rank must be >= 1", "verify-verify.table_rank-neg"),
            setting("verify", {"verify.num_samples": 0}, "verify: num_samples", "verify-verify.num_samples-0"),
            setting("verify", {"verify.dim": 0}, "verify: dim", "verify-verify.dim-0"),
            setting("verify", {"verify.temperature": 0}, "verify: temperature", "verify-verify.temperature-0"),
            setting("verify", {"verify.learning_rate": -1}, "verify: learning_rate", "verify-verify.learning_rate-neg"),
            setting("verify", {"verify.epochs": 0}, "verify: epochs", "verify-verify.epochs-0"),
            setting("verify", {"verify.seeds": ""}, "verify: seeds", "verify-verify.seeds-empty"),
            setting("verify", {"verify.seeds": -1}, "verify.seeds: seeds must be distinct", "verify-verify.seeds-neg"),
            setting("verify", {"verify.seeds": "1,1"}, "verify.seeds: seeds must be distinct", "verify-verify.seeds-dup"),
            setting("verify", {"verify.seeds": "1,,2"}, "verify.seeds: empty field", "verify-verify.seeds-empty-field"),
            setting("verify", {"verify.table_seed": -1}, "verify: table_seed must be >= 0", "verify-verify.table_seed-neg"),
            setting("verify", {"verify.sparsity": -0.5}, "verify: sparsity must be in [0, 1]", "verify-verify.sparsity-neg"),
            setting("verify", {"verify.sparsity": 1.5}, "verify: sparsity must be in [0, 1]", "verify-verify.sparsity-1.5"),
            setting("retrieve --checkpoint {ckpt} --query i1 --top-n -3", {}, "top-n", "retrieve-top-n-negative"),
            setting("retrieve --checkpoint {ckpt} --query i1 --top-n 0", {}, "top-n", "retrieve-top-n-0"),
            setting(
                "trace --checkpoint-dir {stray}",
                {"eval.num_negatives": 2},
                "Is a directory",
                "trace-month-checkpoint-is-a-directory",
            ),
            setting("prepare", {"data.input": "{nul_log}"}, "line 2: NUL byte", "prepare-log-nul-byte"),
            setting("prepare", {"data.input": "{latin1_log}"}, "latin1.csv: line 3: not valid UTF-8", "prepare-log-not-utf-8"),
            setting(
                "eval --checkpoint {nan_temperature}",
                {},
                "corrupt checkpoint (temperature must be finite, got nan)",
                "eval-checkpoint-nan-temperature",
            ),
            setting(
                "eval --task ir --checkpoint {inf_items}",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "eval-checkpoint-inf-items",
            ),
            setting(
                "eval --task ut --checkpoint {nan_row}",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "eval-checkpoint-nan-row",
            ),
            setting(
                "trace --checkpoint-dir {nan_months}",
                {"eval.num_negatives": 2},
                "corrupt checkpoint (item_embeddings must be finite)",
                "trace-month-checkpoint-nan-row",
            ),
            setting(
                "retrieve --task ir --checkpoint {nan_temperature} --query i1",
                {},
                "corrupt checkpoint (temperature must be finite, got nan)",
                "retrieve-checkpoint-nan-temperature",
            ),
            setting(
                "retrieve --task ut --checkpoint {inf_items} --query i1",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "retrieve-checkpoint-inf-items",
            ),
            setting(
                "retrieve --task ir --checkpoint {nan_row} --query i1",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "retrieve-checkpoint-nan-row",
            ),
            setting(
                "retrieve --task ir --checkpoint {overflowing_row} --query i1",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "retrieve-checkpoint-overflowing-row",
            ),
            setting(
                "eval --task ir --checkpoint {overflowing_row}",
                {},
                "corrupt checkpoint (item_embeddings must be finite)",
                "eval-checkpoint-overflowing-row",
            ),
            setting(
                "eval --checkpoint {max_aggregator}",
                {},
                "corrupt checkpoint (aggregator must be one of",
                "eval-checkpoint-unknown-aggregator",
            ),
            setting(
                "trace --checkpoint-dir {max_aggregator_months}",
                {"eval.num_negatives": 2},
                "corrupt checkpoint (aggregator must be one of",
                "trace-month-checkpoint-unknown-aggregator",
            ),
            setting(
                "retrieve --task ut --checkpoint {max_aggregator} --query i1",
                {},
                "corrupt checkpoint (aggregator must be one of",
                "retrieve-checkpoint-unknown-aggregator",
            ),
            setting(
                "trace --checkpoint-dir {vocabulary_months}",
                {"eval.num_negatives": 2},
                "checkpoint vocabulary (13 items) does not match data (12)",
                "trace-month-checkpoint-vocabulary",
            ),
            setting(
                "train --checkpoint {vocabulary_months}/month_0001.ckpt",
                {},
                "checkpoint vocabulary (13 items) does not match data (12)",
                "train-resume-checkpoint-vocabulary",
            ),
            setting("eval --checkpoint {version_1}", {}, "unsupported checkpoint version 1", "eval-checkpoint-version-1"),
            setting("eval --checkpoint {version_2}", {}, "unsupported checkpoint version 2", "eval-checkpoint-version-2"),
            setting(
                "train --checkpoint {string_trace}",
                {},
                "string_trace.ckpt: corrupt checkpoint (",
                "train-resume-checkpoint-string-trace",
            ),
            setting("eval --checkpoint {string_trace}", {}, "corrupt checkpoint (", "eval-checkpoint-string-trace"),
            setting(
                "train --checkpoint {other_trace}",
                {},
                "other_trace.ckpt: corrupt checkpoint (trace rows are not validation rows)",
                "train-resume-checkpoint-other-trace",
            ),
            setting(
                "verify",
                {"verify.learning_rate": 1.7e308, "verify.epochs": 2, "verify.num_samples": 2000},
                "verify: non-finite gradient",
                "verify-verify.learning_rate-diverges",
            ),
            setting("prepare", {"paths.output_dir": "{file}"}, "[Errno 17] File exists", "prepare-output-dir-is-a-file"),
            setting("prepare", {"data.input": "{directory}"}, "[Errno 21] Is a directory", "prepare-input-is-a-directory"),
            setting("prepare --config {directory}", {}, "[Errno 21] Is a directory", "prepare-config-is-a-directory"),
            setting(
                "train --export-embeddings {missing}/x.tsv",
                {"paths.output_dir": "{directory}/export"},
                "[Errno 2] No such file or directory",
                "train-export-under-a-missing-directory",
                absent="{directory}/export/checkpoints",  # the export path fails before the first step
            ),
            setting(
                "train --export-embeddings {directory}",
                {"paths.output_dir": "{directory}/export"},
                "[Errno 21] Is a directory",
                "train-export-is-a-directory",
                absent="{directory}/export/checkpoints",
            ),
            setting(
                "prepare",
                {"seed": -1, "loss.family": "bce", "loss.preset": ""},
                "key 'seed': must be >= 0, got -1",
                "prepare-bce-seed-neg",
            ),
            setting("train --seed -1", {}, "key 'seed': must be >= 0, got -1", "train-seed-flag-neg"),
        ],
    )
    def test_invalid_train_setting_fails_cleanly(
        self, small_events, small_checkpoint, invalid_checkpoints, capsys, command, settings, message, absent
    ):
        """A config value, option or path the program rejects ends in one
        ``error:`` line and exit 1, never a traceback."""
        tmp_path, events = small_events
        nul_log = tmp_path / "nul.csv"  # a log whose second line holds a NUL byte
        nul_log.write_text("u1,i1,0\nu\x002,i2,1\n", encoding="utf-8")
        latin1_log = tmp_path / "latin1.csv"  # a log whose third line holds the byte 0xff
        latin1_log.write_bytes(b"u1,i1,0\nu2,i2,1\nu\xff3,i3,2\n")
        stray = tmp_path / "stray"  # a checkpoint directory whose one month checkpoint is a directory
        (stray / "month_0001.ckpt").mkdir(parents=True, exist_ok=True)
        paths = {"nul_log": nul_log, "latin1_log": latin1_log, "stray": stray, "file": events, "directory": tmp_path}
        paths["missing"] = tmp_path / "absent"
        settings = {key: value.format(**paths) if isinstance(value, str) else value for key, value in settings.items()}
        config = write_config(
            tmp_path / "invalid.cfg",
            **{"data.input": str(events), "paths.output_dir": str(tmp_path / "invalid")} | settings,
        )
        command, *options = command.format(ckpt=small_checkpoint, **paths, **invalid_checkpoints).split()
        assert main([command, "--config", config, *options]) == 1  # a --config among the options comes last and wins
        err = capsys.readouterr().err
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
        assert message in err
        assert "Traceback" not in err
        assert absent is None or not os.path.exists(absent.format(**paths))


class TestPathBoundary:
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        option=st.sampled_from(["--config", "data.input", "paths.output_dir", "--checkpoint", "--export-embeddings"]),
        kind=st.sampled_from(["missing", "directory", "file", "under_missing"]),
    )
    def test_no_path_ends_in_a_traceback(self, small_events, small_checkpoint, tmp_path_factory, option, kind):
        """Whatever a path option names (nothing, a directory, an unrelated
        file, a path under a missing directory), ``main`` returns 0, or 1
        with one ``error:`` line; no exception escapes it."""
        _, events = small_events
        base = tmp_path_factory.mktemp("paths")
        unrelated = base / "notes.txt"
        unrelated.write_text("not what the option names\n", encoding="utf-8")
        path = {"missing": base / "absent", "directory": base, "file": unrelated, "under_missing": base / "absent" / "x"}
        settings = {"data.input": str(events), "eval.num_negatives": 2, "paths.output_dir": str(base / "out")}
        if option in settings:
            settings[option] = str(path[kind])
        argv = {"--checkpoint": ["eval"], "--export-embeddings": ["train"]}.get(option, ["prepare"])
        argv += ["--config", write_config(base / "run.cfg", **settings)]
        argv += ["--checkpoint", small_checkpoint] if argv[0] == "eval" else []
        argv += [option, str(path[kind])] if option.startswith("--") else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = sum(line.startswith("error: ") for line in err.getvalue().splitlines())
        assert (code, errors) in ((0, 0), (1, 1))
        assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def loggen_run(tmp_path_factory):
    """A 900-event ``bench/loggen.py`` log and ``final.ckpt`` of a run on it."""
    spec = importlib.util.spec_from_file_location("loggen", Path(__file__).resolve().parent.parent / "bench" / "loggen.py")
    loggen = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "loggen", loggen)  # a dataclass looks its module up there
        spec.loader.exec_module(loggen)
    tmp_path = tmp_path_factory.mktemp("loggen")
    events = tmp_path / "events.csv"
    loggen.write_csv(loggen.LogShape(users=100, items=150, events=900, months=4), 3, str(events))
    base = {"data.input": str(events), "model.dim": 8, "train.epochs_per_month": 1, "train.batch_size": 64}
    config = write_config(tmp_path / "run.cfg", **base, **{"eval.num_negatives": 5, "paths.output_dir": str(tmp_path / "out")})
    assert main(["train", "--config", config]) == 0
    item = events.read_text().split("\n", 1)[0].split(",")[1]
    return base, str(tmp_path / "out" / "checkpoints" / "final.ckpt"), item


def sizes(high: int, huge: int):
    """A size from -1 to ``high``, or one far above any pool."""
    return st.one_of(st.integers(-1, high), st.just(huge))


class TestEvalSettings:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        num_negatives=sizes(30, 10**12),
        top_n=sizes(200, 10**12),
        window=sizes(400, 10**18),
        task=st.one_of(st.sampled_from(["ir", "ut"]), st.sampled_from(["", "IR", "both"])),
    )
    def test_each_value_runs_or_fails_in_one_line(self, loggen_run, tmp_path_factory, num_negatives, top_n, window, task):
        """``train`` (its validation), ``eval`` and ``retrieve`` under any of the
        eval settings exit 0, or 1 with one ``error:`` line, with no
        traceback or warning; an unknown task fails every one of them."""
        base, checkpoint, item = loggen_run
        tmp_path = tmp_path_factory.mktemp("eval_settings")
        settings = {
            "eval.num_negatives": num_negatives,
            "eval.top_n": top_n,
            "eval.popularity_window_days": window,
            "eval.task": task,
            "paths.output_dir": str(tmp_path / "out"),
        }
        config = write_config(tmp_path / "run.cfg", **base, **settings)
        commands = [["train"], ["eval", "--checkpoint", checkpoint], ["retrieve", "--checkpoint", checkpoint, "--query", item]]
        for command, *options in commands:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command, "--config", config, *options])
            errors = sum(line.startswith("error: ") for line in err.getvalue().splitlines())
            assert (code, errors) in ((0, 0), (1, 1)), (command, err.getvalue())
            assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
            assert not caught, [str(w.message) for w in caught]
            assert task in ("ir", "ut") or code == 1, command


@pytest.fixture(scope="module")
def late_workspace(tmp_path_factory):
    """A run on a log whose integer days start at 299,940: months 9999-10003,
    so the month checkpoints' file names do not sort in month order."""
    tmp_path = tmp_path_factory.mktemp("late")
    events = tmp_path / "events.csv"
    spec = SyntheticSpec(
        num_users=5,
        num_items=12,
        joint=random_joint(5, 12, seed=41, table_rank=1, sparsity=0.5),
        num_samples=1_500,
        num_months=5,
    )
    with open(events, "w", encoding="utf-8") as out:
        for user, item, day in sample_events(generate_synthetic(spec, seed=1)):
            out.write(f"u{user},i{item},{day + 9998 * 30}\n")
    out = tmp_path / "out"
    config = write_config(
        tmp_path / "run.cfg",
        **{
            "seed": 2,
            "data.input": str(events),
            "data.min_degree": 2,
            "model.dim": 6,
            "train.epochs_per_month": 2,
            "train.batch_size": 32,
            "eval.num_negatives": 2,
            "eval.top_n": 3,
            "paths.output_dir": str(out),
        },
    )
    assert main(["train", "--config", config]) == 0
    return config, out


def stray_entries():
    """One entry named like a month checkpoint: a directory, random bytes, a
    copy of a month checkpoint cut at a fraction of its length, a padded
    copy, or an epoch checkpoint."""
    return st.one_of(
        st.tuples(st.just("directory"), st.none()),
        st.tuples(st.just("bytes"), st.binary(max_size=64)),
        st.tuples(st.just("cut"), st.floats(0.0, 1.0)),
        st.tuples(st.just("pad"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("epoch"), st.none()),
    )


class TestTraceMonths:
    def test_months_past_9999_come_from_the_checkpoints(self, late_workspace, capsys):
        config, out = late_workspace
        months = load_checkpoint(str(out / "checkpoints" / "final.ckpt")).months
        assert months == (9999, 10000, 10001, 10002)
        names = sorted(n for n in os.listdir(out / "checkpoints") if n.startswith("month_") and "_epoch_" not in n)
        assert names == ["month_10000.ckpt", "month_10001.ckpt", "month_10002.ckpt", "month_9999.ckpt"]
        capsys.readouterr()
        assert main(["trace", "--config", config]) == 0
        printed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        written = [line.split("\t")[0] for line in (out / "month_trace.tsv").read_text().splitlines()[1:]]
        assert printed == written == [str(month) for month in months]

    def test_epoch_in_the_directory_path_hides_no_checkpoint(self, late_workspace, tmp_path, capsys):
        """Only a file name marks an epoch checkpoint, not ``_epoch_`` in the directory path."""
        config, out = late_workspace
        directory = tmp_path / "run_epoch_1" / "checkpoints"
        shutil.copytree(out / "checkpoints", directory)
        capsys.readouterr()
        assert main(["trace", "--config", config, "--checkpoint-dir", str(directory)]) == 0
        printed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert printed == ["9999", "10000", "10001", "10002"]

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(name=st.sampled_from(["month_0000.ckpt", "month_99999.ckpt", "month_x.ckpt"]), stray=stray_entries())
    def test_stray_entries_never_end_in_a_traceback(self, late_workspace, tmp_path_factory, name, stray):
        """``trace`` over the month checkpoints plus one stray entry exits 0
        (only when the stray is an exact copy) or 1 with one ``error:`` line."""
        config, out = late_workspace
        source = out / "checkpoints"
        directory = tmp_path_factory.mktemp("strays")
        for month in ("month_9999.ckpt", "month_10000.ckpt"):
            shutil.copyfile(source / month, directory / month)
        blob = (source / "month_9999.ckpt").read_bytes()
        kind, value = stray
        if kind == "directory":
            (directory / name).mkdir()
        elif kind == "epoch":
            shutil.copyfile(source / "month_10000_epoch_00.ckpt", directory / name)
        else:
            damaged = {"bytes": lambda: value, "cut": lambda: blob[: int(value * len(blob))], "pad": lambda: blob + value}
            (directory / name).write_bytes(damaged[kind]())
        exact_copy = kind == "cut" and int(value * len(blob)) == len(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["trace", "--config", config, "--checkpoint-dir", str(directory)])
        assert code == (0 if exact_copy else 1)
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error: ") for line in lines) == (0 if exact_copy else 1)


class TestResumeViaCli:
    def test_interrupted_training_resumes_bit_identically(self, tmp_path):
        events = tmp_path / "events.csv"
        synthetic_events_csv(events, seed=4)
        common = {
            "seed": 9,
            "data.input": str(events),
            "data.min_degree": 2,
            "model.dim": 6,
            "train.epochs_per_month": 1,
            "train.batch_size": 64,
            "eval.num_negatives": 2,
            "eval.top_n": 3,
        }
        out_full = tmp_path / "full"
        cfg_full = write_config(tmp_path / "full.cfg", **common, **{"paths.output_dir": str(out_full)})
        assert main(["train", "--config", cfg_full]) == 0

        out_resume = tmp_path / "resume"
        cfg_resume = write_config(tmp_path / "resume.cfg", **common, **{"paths.output_dir": str(out_resume)})
        assert main(["train", "--config", cfg_resume]) == 0  # establishes identical full run
        first_month = sorted(
            name for name in os.listdir(out_resume / "checkpoints") if name.startswith("month_") and "_epoch_" not in name
        )[0]
        # rerun from the first month checkpoint; final bytes must match
        assert (
            main(
                [
                    "train",
                    "--config",
                    cfg_resume,
                    "--checkpoint",
                    str(out_resume / "checkpoints" / first_month),
                ]
            )
            == 0
        )
        final_a = (out_full / "checkpoints" / "final.ckpt").read_bytes()
        final_b = (out_resume / "checkpoints" / "final.ckpt").read_bytes()
        assert final_a == final_b
        # resuming in place rewrites the rows of the resumed months once
        assert (out_resume / "trace.tsv").read_text() == (out_full / "trace.tsv").read_text()

    @pytest.mark.parametrize("found", ["no-file", "garbage-rows", "other-seed"])
    def test_resume_writes_the_uninterrupted_trace_whatever_the_directory_holds(self, small_events, tmp_path, found):
        """A resume takes the rows of the months its checkpoint finished from
        the checkpoint, never from the ``trace.tsv`` it finds beside it."""
        _, events = small_events

        def config(name):
            settings = {"data.input": str(events), "eval.num_negatives": 2, "paths.output_dir": str(tmp_path / name)}
            return write_config(tmp_path / f"{name}.cfg", **settings)

        assert main(["train", "--config", config("full")]) == 0
        full = (tmp_path / "full" / "trace.tsv").read_bytes()
        assert full.count(b"\n") == 3  # the header and the rows of months 1 and 2
        resumed = config("resumed")
        if found == "garbage-rows":
            (tmp_path / "resumed").mkdir()
            garbage = [b"x\t0.1\t0.2\n", b"\n", b"01\t0\t0\n", b"1\t0.5\t0.5\n", b" 1\t0\t0\n", b"\xff\t1\t1\n"]
            (tmp_path / "resumed" / "trace.tsv").write_bytes(b"".join([b"month\trecall\tndcg\n", *garbage]))
        elif found == "other-seed":
            assert main(["train", "--config", resumed, "--seed", "8"]) == 0
            assert (tmp_path / "resumed" / "trace.tsv").read_bytes().split(b"\n")[1] != full.split(b"\n")[1]
        month = str(tmp_path / "full" / "checkpoints" / "month_0001.ckpt")
        assert main(["train", "--config", resumed, "--checkpoint", month]) == 0
        assert (tmp_path / "resumed" / "trace.tsv").read_bytes() == full

    @pytest.mark.parametrize(
        "mode, where, count",
        [
            *(("incremental", "steps", epoch) for epoch in (1, 2, 3, 4)),
            *(("incremental", "validation", month) for month in (1, 2)),
            ("shuffled", "steps", 1),
            ("shuffled", "steps", 2),
            ("shuffled", "validation", 1),
        ],
    )
    def test_interrupted_run_resumed_from_its_newest_checkpoint_is_the_uninterrupted_run(
        self, small_events, tmp_path, monkeypatch, mode, where, count
    ):
        """A ``KeyboardInterrupt`` midway through the ``count``-th epoch's
        steps, or in the ``count``-th validation, resumed in place from the
        newest checkpoint the interrupted run wrote (from the start if none),
        gives the uninterrupted run's ``trace.tsv`` and ``final.ckpt``."""
        _, events = small_events
        settings = {"data.input": str(events), "eval.num_negatives": 2, "train.epochs_per_month": 2, "train.mode": mode}

        def train(name, *options):
            config = write_config(tmp_path / f"{name}.cfg", **settings | {"paths.output_dir": str(tmp_path / name)})
            return main(["train", "--config", config, *options])

        assert train("full") == 0
        saved, calls = [], []
        save, batches, evaluate = trainer_mod.save_checkpoint, trainer_mod.make_batches, cli_mod.evaluate
        monkeypatch.setattr(trainer_mod, "save_checkpoint", lambda path, ckpt: save(path, ckpt) or saved.append(path))

        def interrupt():
            calls.append(1)
            if len(calls) == count:
                raise KeyboardInterrupt

        def interrupted_batches(*args):
            for index, rows in enumerate(batches(*args)):
                if index == 1:  # one step into the epoch
                    interrupt()
                yield rows

        if where == "steps":
            monkeypatch.setattr(trainer_mod, "make_batches", interrupted_batches)
        else:
            monkeypatch.setattr(cli_mod, "evaluate", lambda *args: interrupt() or evaluate(*args))
        with pytest.raises(KeyboardInterrupt):
            train("resumed")
        monkeypatch.undo()
        assert train("resumed", *(["--checkpoint", saved[-1]] if saved else [])) == 0
        for name in ("trace.tsv", "checkpoints/final.ckpt"):
            assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_shuffled_run_resumes_from_its_epoch_checkpoint(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        synthetic_events_csv(events, seed=4)
        common = {
            "seed": 9,
            "data.input": str(events),
            "data.min_degree": 2,
            "model.dim": 6,
            "train.mode": "shuffled",
            "train.epochs_per_month": 2,
            "train.batch_size": 64,
            "eval.num_negatives": 2,
            "eval.top_n": 3,
        }
        out_full = tmp_path / "full"
        cfg_full = write_config(tmp_path / "full.cfg", **common, **{"paths.output_dir": str(out_full)})
        assert main(["train", "--config", cfg_full]) == 0
        full_steps = int(capsys.readouterr().out.split("trained ")[1].split(" steps")[0])

        out_resume = tmp_path / "resume"
        cfg_resume = write_config(tmp_path / "resume.cfg", **common, **{"paths.output_dir": str(out_resume)})
        epoch0 = str(out_full / "checkpoints" / "shuffled_epoch_00.ckpt")
        assert main(["train", "--config", cfg_resume, "--checkpoint", epoch0]) == 0
        resumed_steps = int(capsys.readouterr().out.split("trained ")[1].split(" steps")[0])
        assert full_steps > 0 and resumed_steps * 2 == full_steps
        final_a = (out_full / "checkpoints" / "final.ckpt").read_bytes()
        final_b = (out_resume / "checkpoints" / "final.ckpt").read_bytes()
        assert final_a == final_b
        assert (out_resume / "trace.tsv").read_text() == (out_full / "trace.tsv").read_text()


class _FullDisk:
    """A file that keeps the first half of its first write, then fails as a
    full disk does."""

    def __init__(self, file):
        self.file = file

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, data):
        self.file.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture(scope="module")
def trained_bce(small_events):
    """The settings and output directory of a bce ``train`` on ``small_events``."""
    tmp_path, events = small_events
    settings = {"data.input": str(events), "loss.family": "bce", "loss.preset": "", "eval.num_negatives": 2}
    out = tmp_path / "bce"
    assert main(["train", "--config", write_config(tmp_path / "bce.cfg", **settings, **{"paths.output_dir": str(out)})]) == 0
    return settings, out


# Each output of the package but the caches, and a command that writes it.
OUTPUTS = [
    *(("prepare", name) for name in ("resolved.cfg", "marginals.tsv", "train_labeled.tsv")),
    *(("prepare", f"{part}_examples.tsv") for part in ("train", "validation", "test")),
    ("train", "trace.tsv"),
    ("train", "checkpoints/final.ckpt"),
    ("train --export-embeddings {out}/vectors.tsv", "vectors.tsv"),
    ("trace", "month_trace.tsv"),
    ("eval --checkpoint {out}/checkpoints/final.ckpt", "eval_report.json"),
    ("verify", "sweep_report.tsv"),
]


class TestWholeOutputs:
    """Every output is renamed into place whole: a write that fails midway
    leaves the file that was there and no temporary file."""

    @pytest.mark.parametrize("command, target", OUTPUTS, ids=[target for _, target in OUTPUTS])
    def test_failed_write_keeps_the_previous_file(self, trained_bce, tmp_path, monkeypatch, capsys, command, target):
        settings, trained = trained_bce
        out = tmp_path / "out"
        shutil.copytree(trained, out)
        if command == "verify":
            settings = {"verify.num_users": 4, "verify.num_items": 5, "verify.num_samples": 500, "verify.epochs": 5}
        config = write_config(tmp_path / "run.cfg", **settings, **{"paths.output_dir": str(out)})
        (out / target).write_bytes(b"previous\n")
        tmp = os.path.abspath(f"{out / target}.{os.getpid()}.tmp")

        def full_disk_open(path, *args, **kwargs):
            file = open(path, *args, **kwargs)
            return _FullDisk(file) if os.path.abspath(path) == tmp else file

        monkeypatch.setattr(container, "open", full_disk_open, raising=False)
        name, *options = command.format(out=out).split()
        assert main([name, "--config", config, *options]) == 1
        assert "error: [Errno 28] No space left on device" in capsys.readouterr().err
        assert (out / target).read_bytes() == b"previous\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_training_keeps_the_previous_export(self, trained_bce, tmp_path, capsys):
        settings, trained = trained_bce
        settings = settings | {"train.optimizer": "sgd", "train.learning_rate": 1e308, "paths.output_dir": str(tmp_path)}
        export = tmp_path / "vectors.tsv"
        export.write_bytes(b"previous\n")
        config = write_config(tmp_path / "run.cfg", **settings)
        assert main(["train", "--config", config, "--export-embeddings", str(export)]) == 1
        assert "train: non-finite" in capsys.readouterr().err
        assert export.read_bytes() == b"previous\n"
        assert not list(tmp_path.rglob("*.tmp"))


class TestVerifyCommand:
    def test_small_sweep_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "verify.cfg",
            **{
                "verify.num_users": 4,
                "verify.num_items": 5,
                "verify.num_samples": 5000,
                "verify.dim": 6,
                "verify.epochs": 300,  # the decayed learning rate needs ~250 epochs on this table
                "verify.seeds": "1",
                "paths.output_dir": str(out),
            },
        )
        assert main(["verify", "--config", config]) == 0
        report = (out / "sweep_report.tsv").read_text()
        assert report.splitlines()[0].startswith("label\tseed")
        assert len([l for l in report.splitlines() if l and not l.startswith(("label", "group"))]) >= 10
        assert "optimum checks passed" in capsys.readouterr().out

    def test_failed_gate_exits_one_after_writing_the_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "verify.cfg",
            **{
                "verify.num_users": 4,
                "verify.num_items": 5,
                "verify.num_samples": 5000,
                "verify.dim": 6,
                "verify.epochs": 2,
                "verify.seeds": "1",
                "paths.output_dir": str(out),
            },
        )
        assert main(["verify", "--config", config]) == 1
        report = (out / "sweep_report.tsv").read_text()
        assert "\tFAIL" in report
        assert "optimum checks passed" in capsys.readouterr().out


    def test_sparse_sample_keeps_stderr_clean(self, tmp_path):
        """A 20-event sample leaves users and items of the 8x12 table unseen;
        the sweep still reports without a numpy warning on stderr."""
        out = tmp_path / "out"
        config = write_config(
            tmp_path / "verify.cfg",
            **{"verify.num_samples": 20, "verify.seeds": "1", "paths.output_dir": str(out)},
        )
        done = _run_cli_process(["verify", "--config", config])
        assert done.returncode in (0, 1), done.stderr
        assert "Warning" not in done.stderr, done.stderr
        assert "optimum checks passed" in done.stdout
        assert (out / "sweep_report.tsv").exists()


class TestDivergenceKeepsStderrClean:
    """A learning rate that sends training to infinity ends in one
    ``error:`` line, with no numpy warning before it."""

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"verify.epochs": 2}, "verify: non-finite gradient"),
            ({"verify.epochs": 1}, "verify: non-finite parameters after epoch 0"),
        ],
        ids=["two-epochs", "one-epoch"],
    )
    def test_verify(self, tmp_path, settings, message):
        settings = settings | {"verify.learning_rate": 1e308, "verify.num_samples": 2000}
        config = write_config(tmp_path / "verify.cfg", **settings, **{"paths.output_dir": str(tmp_path / "out")})
        self._check(_run_cli_process(["verify", "--config", config]), message)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_train(self, small_events, optimizer):
        tmp_path, events = small_events
        settings = {"train.optimizer": optimizer, "train.learning_rate": 1e308, "eval.num_negatives": 2}
        out = tmp_path / f"diverge_{optimizer}"
        config = write_config(
            tmp_path / f"diverge_{optimizer}.cfg", **{"data.input": str(events), "paths.output_dir": str(out)} | settings
        )
        self._check(_run_cli_process(["train", "--config", config]), "train: non-finite loss")

    def test_train_overflowing_norm(self, small_events):
        """At learning rate 1e200 the first SGD step leaves finite rows whose
        squares overflow; the next step's scoring refuses their norm instead
        of scoring them as zero vectors and training on to exit 0."""
        tmp_path, events = small_events
        settings = {"train.optimizer": "sgd", "train.learning_rate": 1e200, "eval.num_negatives": 2}
        config = write_config(
            tmp_path / "overflow_norm.cfg",
            **{"data.input": str(events), "paths.output_dir": str(tmp_path / "overflow_norm")} | settings,
        )
        self._check(
            _run_cli_process(["train", "--config", config]),
            "train: non-finite loss: non-finite norm encountered during scoring",
        )

    @staticmethod
    def _check(done: subprocess.CompletedProcess, message: str) -> None:
        """Exit 1, and stderr is the one ``error:`` line, naming ``message``."""
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and message in line, done.stderr

    def test_small_temperature_verify(self, tmp_path):
        """At temperature 0.001 the scores reach 1000 in magnitude; the
        sigmoid's exponential overflows to its exact limit without a warning."""
        settings = {"verify.temperature": 0.001, "verify.epochs": 20, "verify.num_samples": 2000, "verify.seeds": "1"}
        config = write_config(tmp_path / "verify.cfg", **settings, **{"paths.output_dir": str(tmp_path / "out")})
        done = _run_cli_process(["verify", "--config", config])
        assert done.returncode in (0, 1), done.stderr
        assert done.stderr == ""
        assert "optimum checks passed" in done.stdout


class TestInBatchTemperatureFloor:
    """The in-batch losses' one exponential needs scores that span at most
    700, so ``train`` refuses a temperature below 1/350 (about 0.002857),
    under every loss (the settings table holds a ``bce`` row)."""

    def _train(self, small_events, temperature: float) -> subprocess.CompletedProcess:
        tmp_path, events = small_events
        out = tmp_path / f"tau_{temperature}"
        settings = {"model.temperature": temperature, "eval.num_negatives": 2}
        config = write_config(
            tmp_path / f"tau_{temperature}.cfg", **{"data.input": str(events), "paths.output_dir": str(out)} | settings
        )
        return _run_cli_process(["train", "--config", config])

    def test_just_above_the_floor_trains(self, small_events):
        done = self._train(small_events, 0.003)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr and "error" not in done.stderr

    def test_just_below_the_floor_is_refused(self, small_events):
        done = self._train(small_events, 0.0028)
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line == "error: model: temperature must be >= 1/350 (about 0.00286), got 0.0028"


def test_prepare_does_not_import_verify(tmp_path):
    """Only ``verify`` imports the sweep module: a fresh interpreter that
    imports the command line and runs ``prepare`` never loads it."""
    events = tmp_path / "events.csv"
    events.write_text(TINY_EVENTS, encoding="utf-8")
    config = write_config(
        tmp_path / "run.cfg",
        **{"data.input": str(events), "data.min_degree": 1, "paths.output_dir": str(tmp_path / "out")},
    )
    probe = (
        "import sys, twotower.cli as cli; "
        f"code = cli.main(['prepare', '--config', {config!r}]); "
        "print(code, 'twotower.verify' in sys.modules)"
    )
    done = _run_python(["-c", probe])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_runtime_imports_no_scipy():
    """The runtime needs only numpy: importing the command line loads no
    scipy module (scipy is a test dependency)."""
    probe = "import sys, twotower.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = _run_python(["-c", probe])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
