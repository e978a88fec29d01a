"""The container format: each integer column stored as narrow as its values
allow and read back as int64, every array aligned, older files still read."""

import json
import struct
import zlib

import numpy as np
import pytest

from twotower import container
from twotower.model import GradientTable, ModelParams
from twotower.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    OptimizerState,
    apply_optimizer_step,
    save_checkpoint,
)

MAGIC, VERSION = b"TEST", 1


def write_wide(path, magic: bytes, version: int, tag: int, meta: dict, arrays: list) -> None:
    """A container as files were written before integer columns were
    narrowed: every integer array as ``<i8``, the arrays in the given order."""
    columns = [array.astype("<i8") if array.dtype.kind == "i" else array for _, array in arrays]
    manifest = [{"name": name, "dtype": column.dtype.str, "shape": list(column.shape)} for (name, _), column in zip(arrays, columns)]
    meta_bytes = json.dumps({**meta, "arrays": manifest}, sort_keys=True).encode("utf-8")
    blob = struct.pack("<4sIQI", magic, version, tag, len(meta_bytes)) + meta_bytes + b"".join(c.tobytes() for c in columns)
    with open(path, "wb") as out:
        out.write(blob + struct.pack("<I", zlib.crc32(blob)))


def _manifest(path) -> dict[str, str]:
    """Each array's stored dtype, from the file's own metadata."""
    _, meta, _ = container.read(str(path), MAGIC, VERSION, "test")
    return {entry["name"]: entry["dtype"] for entry in meta["arrays"]}


@pytest.mark.parametrize(
    "values, stored",
    [
        ([0], "<u2"),
        ([2**16 - 1], "<u2"),
        ([0, 2**16], "<u4"),
        ([2**32 - 1], "<u4"),
        ([2**32], "<i8"),
        ([5, -1], "<i8"),
        ([], "<u2"),
        (np.array([[3, 2**20], [0, 1]]), "<u4"),
    ],
    ids=["zero", "2**16-1", "2**16", "2**32-1", "2**32", "negative", "empty", "matrix"],
)
def test_integer_column_is_stored_narrow_and_read_as_int64(tmp_path, values, stored):
    column = np.asarray(values, dtype=np.int64)
    path = tmp_path / "c.bin"
    container.write(str(path), MAGIC, VERSION, 9, {}, [("column", column)])
    assert _manifest(path) == {"column": stored}
    _, _, arrays = container.read(str(path), MAGIC, VERSION, "test")
    loaded = arrays["column"]
    assert loaded.dtype == np.int64 and loaded.shape == column.shape and not loaded.flags.writeable
    np.testing.assert_array_equal(loaded, column)


def test_byte_array_stays_bytes(tmp_path):
    tokens = np.frombuffer("u1\nué".encode("utf-8"), dtype=np.uint8)
    path = tmp_path / "c.bin"
    container.write(str(path), MAGIC, VERSION, 0, {}, [("tokens", tokens), ("ids", np.array([1, 2]))])
    assert _manifest(path) == {"tokens": "|u1", "ids": "<u2"}
    _, _, arrays = container.read(str(path), MAGIC, VERSION, "test")
    assert arrays["tokens"].dtype == np.uint8 and arrays["tokens"].tobytes() == tokens.tobytes()


def test_mixed_checkpoint_loads_every_float_aligned_and_every_integer_as_int64(tmp_path):
    """A checkpoint's uint16 Adam rows sit between float64 tables in the
    order it lists them; each float64 array still loads as an aligned view."""
    params = ModelParams.initialize(7, 3, 0.25, 0, "attention")
    state = OptimizerState(kind="adam", learning_rate=0.01)
    apply_optimizer_step(params, GradientTable(np.array([1, 4]), np.ones((2, 3))), state)
    path = tmp_path / "c.ckpt"
    save_checkpoint(str(path), Checkpoint(params, state, 1, 0, (1, 2), 3, 0xABC))
    _, meta, arrays = container.read(str(path), CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    assert [entry["dtype"] for entry in meta["arrays"]] == ["<f8", "<f8", "<f8", "<u2", "<u2"]
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        if array.dtype == np.float64:
            assert array.flags.aligned, name
        else:
            assert array.dtype == np.int64, name
    np.testing.assert_array_equal(arrays["adam_row_ids"], [1, 4])
    np.testing.assert_array_equal(arrays["adam_row_t"], [1, 1])


def test_file_of_the_wide_layout_reads_the_same_arrays(tmp_path):
    """A file written with every integer column as ``<i8``, byte arrays
    before 8-byte arrays, loads with the arrays of the narrow layout."""
    arrays = [
        ("tokens", np.frombuffer(b"a\nbc", dtype=np.uint8)),
        ("ids", np.array([[0, 70_000], [3, 2]])),
        ("signed", np.array([-2, 5])),
        ("table", np.linspace(-1.0, 1.0, 6).reshape(2, 3)),
        ("empty", np.zeros(0, dtype=np.int64)),
    ]
    wide, narrow = tmp_path / "wide.bin", tmp_path / "narrow.bin"
    write_wide(str(wide), MAGIC, VERSION, 5, {"k": [1, 2]}, arrays)
    container.write(str(narrow), MAGIC, VERSION, 5, {"k": [1, 2]}, arrays)
    assert wide.read_bytes() != narrow.read_bytes() and narrow.stat().st_size < wide.stat().st_size
    tag_w, meta_w, wide_arrays = container.read(str(wide), MAGIC, VERSION, "test")
    tag_n, meta_n, narrow_arrays = container.read(str(narrow), MAGIC, VERSION, "test")
    assert (tag_w, meta_w["k"]) == (tag_n, meta_n["k"]) == (5, [1, 2])
    for name, array in arrays:
        for loaded in (wide_arrays[name], narrow_arrays[name]):
            assert loaded.dtype == array.dtype and not loaded.flags.writeable
            np.testing.assert_array_equal(loaded, array)
