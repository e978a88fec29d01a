"""The prepared data of a log, and the file that keeps it between commands.

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
version is checked with its container's.  A file that is missing, damaged
or of another key is never loaded.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

import numpy as np

from . import container
from . import data as data_mod
from .config import RunConfig, render_config

FILE_NAME = "prepared.bin"
MAGIC = b"UMPD"
VERSION = 1
_EVENT_COLUMNS = ("user", "item", "day", "month")
_EXAMPLE_COLUMNS = ("user", "key", "target", "day", "month")
_PARTS = ("train", "validation", "test")


@dataclass
class Prepared:
    log: data_mod.InteractionLog
    split: data_mod.DatasetSplit
    marginals: data_mod.EmpiricalMarginals
    months_total: int
    key: bytes
    loaded: bool = False  # read from the file, so there is nothing to write


def key_of(log_bytes: bytes, cfg: RunConfig) -> bytes:
    """The key of the data ``cfg`` prepares from a log of ``log_bytes``."""
    lines = [line for line in render_config(cfg).splitlines() if line.startswith("data.")]
    lines = [hashlib.sha256(log_bytes).hexdigest()] + [line for line in lines if not line.startswith("data.input =")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()


def _tokens(vocab: dict[str, int]) -> np.ndarray:
    """The tokens of ``vocab`` in id order, its insertion order."""
    return np.frombuffer("\n".join(vocab).encode("utf-8"), dtype=np.uint8)


def save(path: str, prepared: Prepared) -> None:
    log, split = prepared.log, prepared.split
    arrays = [(f"events_{name}", getattr(log.records, name)) for name in _EVENT_COLUMNS]
    arrays += [("key_offsets", split.train.table.offsets), ("key_items", split.train.table.items)]
    arrays += [(f"{part}_{name}", getattr(getattr(split, part), name)) for part in _PARTS for name in _EXAMPLE_COLUMNS]
    # The byte arrays go last, so that every int64 array loads aligned.
    arrays += [("user_tokens", _tokens(log.user_vocab)), ("item_tokens", _tokens(log.item_vocab))]
    meta = {
        "key": prepared.key.hex(),
        "epoch": None if log.epoch is None else log.epoch.isoformat(),
        "months_total": prepared.months_total,
    }
    container.write(path, MAGIC, VERSION, int.from_bytes(prepared.key[:8], "big"), meta, arrays)


def load(path: str, key: bytes) -> Prepared | None:
    """The prepared data in the file at ``path`` if it holds ``key``; ``None``
    for a file that is missing, unreadable, damaged or of another key."""
    try:
        _, meta, arrays = container.read(path, MAGIC, VERSION, "prepared-data")
        if meta["key"] != key.hex():
            return None
        records = data_mod.Events(*(arrays[f"events_{name}"] for name in _EVENT_COLUMNS))
        user_vocab, item_vocab = (
            {token: k for k, token in enumerate(arrays[f"{name}_tokens"].tobytes().decode("utf-8").split("\n"))}
            for name in ("user", "item")
        )
        epoch = None if meta["epoch"] is None else datetime.date.fromisoformat(meta["epoch"])
        log = data_mod.InteractionLog(records, user_vocab, item_vocab, epoch)
        table = data_mod.Sequences(arrays["key_offsets"], arrays["key_items"])
        parts = (data_mod.Examples(table, *(arrays[f"{part}_{name}"] for name in _EXAMPLE_COLUMNS)) for part in _PARTS)
        split = data_mod.DatasetSplit(*parts)
        marginals = data_mod.compute_marginals(split.train, log.num_items)
        return Prepared(log, split, marginals, meta["months_total"], key, loaded=True)
    except (OSError, KeyError, TypeError, ValueError):  # a ContainerError is a ValueError
        return None
