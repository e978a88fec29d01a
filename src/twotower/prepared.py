"""The files that keep what a command builds for the next command on the
same output directory: the prepared data of a log, and each task's test
cases.

What ingest, example building, the month split and the degree filter make
of a log depends only on the log's bytes and the ``data.*`` settings.  The
first command to build it writes it to ``FILE_NAME`` in the output
directory, in the ``container`` format with magic ``UMPD``: the event
columns, both vocabularies in id order (UTF-8, one token per line; no
ingested field holds a line feed), the ISO epoch, ``months_total``, the
shared pseudo-user table and the example columns of the train, validation
and test parts.  Every later command on the same key loads it and
recomputes the marginals.  The key is the SHA-256 of the log's SHA-256 and
every resolved ``data.*`` line but ``data.input``, so neither the log's path
nor its mtime, the seed or any other section counts; the file's own format
version is checked with its container's.

The test cases of a task depend on that data, the task,
``eval.num_negatives`` and the seed of their draw; the first ``eval`` or
``trace`` to draw them writes them to ``cases_file(task)`` with magic
``UMEC``: their ``query``, ``positive`` and ``candidates`` columns and, for
UT, the pool's ``user_keys`` and ``key_owner``.  The cutoff is read at load
time, and the pool's table is the test part's.

A file that is missing, damaged or of another key, or a case file whose
columns do not fit the test split, is never loaded: both kinds go through
``_read_keyed``.
"""

from __future__ import annotations

import datetime
import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

import numpy as np

from . import container
from . import data as data_mod
from .config import RunConfig, render_config
from .evaluation import EvalCases, EvalPool, restore_eval_cases

FILE_NAME = "prepared.bin"
MAGIC = b"UMPD"
VERSION = 1
_EVENT_COLUMNS = ("user", "item", "day", "month")
_EXAMPLE_COLUMNS = ("user", "key", "target", "day", "month")
_PARTS = ("train", "validation", "test")
CASES_MAGIC = b"UMEC"
CASES_VERSION = 1  # any change to the draw of build_eval_cases bumps it
T = TypeVar("T")


@dataclass
class Prepared:
    log: data_mod.InteractionLog
    split: data_mod.DatasetSplit
    months_total: int
    key: bytes
    loaded: bool = False  # read from the file, so there is nothing to write

    @cached_property
    def marginals(self) -> data_mod.EmpiricalMarginals:
        """The training marginals, computed when first read."""
        return data_mod.compute_marginals(self.split.train, self.log.num_items)


def key_of(log_bytes: bytes, cfg: RunConfig) -> bytes:
    """The key of the data ``cfg`` prepares from a log of ``log_bytes``."""
    lines = [line for line in render_config(cfg).splitlines() if line.startswith("data.")]
    lines = [hashlib.sha256(log_bytes).hexdigest()] + [line for line in lines if not line.startswith("data.input =")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()


def _tokens(vocab: dict[str, int]) -> np.ndarray:
    """The tokens of ``vocab`` in id order, its insertion order."""
    return np.frombuffer("\n".join(vocab).encode("utf-8"), dtype=np.uint8)


def _write_keyed(path: str, magic: bytes, version: int, key: bytes, meta: dict, arrays: list) -> None:
    """Write a container of ``key``: its metadata holds the key, its tag the key's first 8 bytes."""
    container.write(path, magic, version, int.from_bytes(key[:8], "big"), {**meta, "key": key.hex()}, arrays)


def _read_keyed(path: str, magic: bytes, version: int, kind: str, key: bytes, decode: Callable[[dict, dict], T]) -> T | None:
    """``decode(meta, arrays)`` of the container at ``path`` if it holds
    ``key``; ``None`` for a file that is missing, unreadable, damaged or of
    another key, or whose contents ``decode`` refuses with a ``KeyError``,
    ``TypeError`` or ``ValueError``."""
    try:
        _, meta, arrays = container.read(path, magic, version, kind)
        if meta["key"] != key.hex():
            return None
        return decode(meta, arrays)
    except (OSError, KeyError, TypeError, ValueError):  # a ContainerError is a ValueError
        return None


def save(path: str, prepared: Prepared) -> None:
    log, split = prepared.log, prepared.split
    arrays = [(f"events_{name}", getattr(log.records, name)) for name in _EVENT_COLUMNS]
    arrays += [("key_offsets", split.train.table.offsets), ("key_items", split.train.table.items)]
    arrays += [(f"{part}_{name}", getattr(getattr(split, part), name)) for part in _PARTS for name in _EXAMPLE_COLUMNS]
    arrays += [("user_tokens", _tokens(log.user_vocab)), ("item_tokens", _tokens(log.item_vocab))]
    meta = {"epoch": None if log.epoch is None else log.epoch.isoformat(), "months_total": prepared.months_total}
    _write_keyed(path, MAGIC, VERSION, prepared.key, meta, arrays)


def _decode(key: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> Prepared:
    records = data_mod.Events(*(arrays[f"events_{name}"] for name in _EVENT_COLUMNS))
    user_vocab, item_vocab = (
        {token: k for k, token in enumerate(arrays[f"{name}_tokens"].tobytes().decode("utf-8").split("\n"))}
        for name in ("user", "item")
    )
    epoch = None if meta["epoch"] is None else datetime.date.fromisoformat(meta["epoch"])
    log = data_mod.InteractionLog(records, user_vocab, item_vocab, epoch)
    table = data_mod.Sequences(arrays["key_offsets"], arrays["key_items"])
    parts = (data_mod.Examples(table, *(arrays[f"{part}_{name}"] for name in _EXAMPLE_COLUMNS)) for part in _PARTS)
    return Prepared(log, data_mod.DatasetSplit(*parts), meta["months_total"], key, loaded=True)


def load(path: str, key: bytes) -> Prepared | None:
    """The prepared data in the file at ``path`` if it holds ``key``; ``None``
    for a file that is missing, unreadable, damaged or of another key."""
    return _read_keyed(path, MAGIC, VERSION, "prepared-data", key, lambda meta, arrays: _decode(key, meta, arrays))


def cases_file(task: str) -> str:
    return f"eval_cases_{task}.bin"


def cases_key(prepared_key: bytes, task: str, num_negatives: int, seed: int) -> bytes:
    """The key of the test cases of ``task`` drawn with ``num_negatives``
    negatives and ``seed`` from the data of ``prepared_key``."""
    return hashlib.sha256(f"{prepared_key.hex()}\n{task}\n{num_negatives}\n{seed}".encode("utf-8")).digest()


def save_cases(path: str, key: bytes, cases: EvalCases, pool: EvalPool) -> None:
    arrays = [("query", cases.query), ("positive", cases.positive), ("candidates", cases.candidates)]
    if pool.user_keys is not None:
        arrays += [("user_keys", pool.user_keys), ("key_owner", pool.key_owner)]
    _write_keyed(path, CASES_MAGIC, CASES_VERSION, key, {}, arrays)


def load_cases(
    path: str, key: bytes, test_examples: data_mod.Examples, task: str, num_negatives: int, cutoff: int
) -> tuple[EvalCases, EvalPool] | None:
    """The cases of the file at ``path``, cut off at ``cutoff``, if it holds
    ``key`` and cases that fit ``test_examples``; ``None`` for a file that is
    missing, unreadable, damaged or of another key, whose arrays do not fit,
    or when ``restore_eval_cases`` refuses the arguments."""
    return _read_keyed(
        path,
        CASES_MAGIC,
        CASES_VERSION,
        "eval-cases",
        key,
        lambda meta, arrays: restore_eval_cases(test_examples, task, num_negatives, cutoff, arrays),
    )
