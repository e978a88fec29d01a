"""One checksummed binary file format for named arrays.

Checkpoints, the prepared-data file and the case files share it.  A file
holds: a 4-byte magic naming its kind, a uint32 format version, a uint64
tag (a checkpoint's configuration fingerprint, the first bits of the other
files' key), a uint32 length and a JSON metadata block (sorted keys; its
``arrays`` entry lists each array's name, dtype and shape), the arrays'
raw bytes in that order, and a CRC-32 of every byte before it.  Integers
in the header are little-endian.

An array is stored little-endian as float64, as bytes (``|u1``, a uint8
array) or, for an integer column, as the narrowest of uint16 and uint32
that holds it when none of its values is negative, else as int64.  The
arrays are stored by item size, largest first, so that each lies on a
boundary of its item size.

Every output of the package is written by ``writing``: to a temporary file
beside it, named for the writing process, renamed into place only when the
write ends cleanly.  A write that fails midway leaves the previous file
intact, and of two processes writing one path each renames a whole file.
A container's payload is streamed from the arrays, never joined.  A file
is read into one buffer and checked before any of it is used: the magic,
the version, the checksum, and that the payload ends exactly at the
checksum.  The buffer places the payload at an 8-byte boundary.  The
float64, int64 and byte arrays read are read-only views of it, aligned in a
file of this layout; a uint16 or uint32 column is read as a read-only
int64 copy, so every integer array reads as int64 whatever its width on
disk.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import struct
import zlib
from collections.abc import Iterator
from typing import IO

import numpy as np

# Header: magic, version, tag, metadata length.
_HEAD = "<4sIQI"
_HEAD_SIZE = struct.calcsize(_HEAD)
_DTYPES = ("<i8", "<f8", "<u4", "<u2", "|u1")
_NARROW = ("<u4", "<u2")  # integer columns, widened to int64 on read


class ContainerError(ValueError):
    """A file that is not an intact container of the expected kind and version."""


def _dtype(array: np.ndarray) -> str:
    """The stored dtype of ``array``: a uint8 array is bytes, any other
    integer array the narrowest of uint16 and uint32 that holds it when it
    has no negative value, else int64; anything else float64."""
    if array.dtype == np.uint8:
        return "|u1"
    if array.dtype.kind not in "iu":
        return "<f8"
    if array.size and array.min() < 0:
        return "<i8"
    top = int(array.max()) if array.size else 0
    return "<u2" if top < 2**16 else "<u4" if top < 2**32 else "<i8"


@contextlib.contextmanager
def writing(path: str, mode: str = "w") -> Iterator[IO]:
    """A file open in ``mode`` (text in UTF-8) on a temporary file beside
    ``path``, renamed onto it when the block ends cleanly and removed on any
    exception.  A directory at ``path`` raises before the block runs."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, mode, encoding=None if "b" in mode else "utf-8") as out:
            yield out
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def write(path: str, magic: bytes, version: int, tag: int, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write ``meta`` and ``arrays`` (each stored as ``_dtype`` tells) to
    ``path`` in one container of ``magic`` and ``version``."""
    named = [(name, np.ascontiguousarray(array, dtype=_dtype(array))) for name, array in arrays]
    named.sort(key=lambda item: -item[1].itemsize)  # stable: arrays of one item size keep their order
    manifest = [{"name": name, "dtype": column.dtype.str, "shape": list(column.shape)} for name, column in named]
    meta_bytes = json.dumps({**meta, "arrays": manifest}, sort_keys=True).encode("utf-8")
    with writing(path, "wb") as out:
        head = struct.pack(_HEAD, magic, version, tag, len(meta_bytes)) + meta_bytes
        out.write(head)
        crc = zlib.crc32(head)
        for _, column in named:
            chunk = memoryview(column).cast("B")
            out.write(chunk)
            crc = zlib.crc32(chunk, crc)
        out.write(struct.pack("<I", crc))


def read(path: str, magic: bytes, version: int, kind: str) -> tuple[int, dict, dict[str, np.ndarray]]:
    """The tag, metadata and arrays of the container at ``path``.  A file of
    another magic or version, or one whose checksum does not match, that is
    cut short, has bytes after the payload or does not parse, raises
    ``ContainerError`` naming ``path`` and ``kind``; ``OSError`` passes."""
    with open(path, "rb") as src:
        head = src.read(_HEAD_SIZE)  # its last field, the metadata length, places the payload
        pad = -(_HEAD_SIZE + int.from_bytes(head[-4:], "little")) % 8 if len(head) == _HEAD_SIZE else 0
        buffer = np.empty(pad + os.fstat(src.fileno()).st_size, dtype=np.uint8)
        src.seek(0)
        with memoryview(buffer) as view:
            size = src.readinto(view[pad:])
    buffer.flags.writeable = False
    blob = memoryview(buffer)[pad : pad + size]
    if blob[:4] != magic:
        raise ContainerError(f"{path}: not a {kind} file (bad magic)")
    try:
        found, tag, meta_len = struct.unpack_from("<IQI", blob, 4)
        if found != version:
            raise ContainerError(f"{path}: unsupported {kind} version {found}")
        body = blob[:-4]  # everything the CRC-32 trailer covers
        if zlib.crc32(body) != struct.unpack_from("<I", blob, len(body))[0]:
            raise ValueError("checksum mismatch")
        meta = json.loads(str(blob[_HEAD_SIZE : _HEAD_SIZE + meta_len], "utf-8"))
        offset = _HEAD_SIZE + meta_len
        arrays: dict[str, np.ndarray] = {}
        for entry in meta["arrays"]:
            if entry["dtype"] not in _DTYPES:
                raise ValueError(f"array {entry['name']!r} has dtype {entry['dtype']!r}")
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            array = np.frombuffer(body, dtype=entry["dtype"], count=count, offset=offset).reshape(shape)
            offset += array.nbytes
            if entry["dtype"] in _NARROW:
                array = array.astype(np.int64)
                array.flags.writeable = False
            arrays[entry["name"]] = array
        if offset != len(body):
            raise ValueError(f"{len(body) - offset} bytes after the payload")
    except ContainerError:
        raise
    except (struct.error, ValueError, KeyError, TypeError, IndexError) as exc:
        raise ContainerError(f"{path}: corrupt {kind} ({exc})") from exc
    return tag, meta, arrays
