"""Framing shared by every binary file: a 4-byte magic, a u32 version, u16-length
UTF-8 strings and little-endian numbers. ``Reader`` checks each declared size
against the bytes left before it reads or allocates, so a damaged file fails
with a named error giving the file and byte offset; ``atomic_write`` renames a
finished temp file into place, so no reader sees a half-written file.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CorruptionError, FormatError, check_each


@contextmanager
def atomic_write(path, mode: str = "wb"):
    """Yield a temp file beside ``path`` that replaces it only if the block succeeds.

    The new file gets the permissions a plain ``open()`` gives.
    """
    tmp_path = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def text_lines(path):
    """``(line number, stripped line)`` for each line of a UTF-8 text file; a
    line that is not UTF-8 raises FormatError naming the file and the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")  # undecodable bytes became lone surrogates
            except UnicodeEncodeError:
                raise FormatError(f"{path}:{line_no}: line is not UTF-8") from None
            yield line_no, line.strip()


def header(magic: bytes, version: int) -> bytes:
    return magic + struct.pack("<I", version)


def string(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return struct.pack("<H", len(encoded)) + encoded


class Reader:
    """Bounded sequential reads of one file; opening it checks the magic and version."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        self.path, self.offset = os.fspath(path), 0
        self._file = open(path, "rb")
        try:
            self._size = os.fstat(self._file.fileno()).st_size
            if self._file.read(len(magic)) != magic:
                raise FormatError(f"{self.path}: not a {kind} file (bad magic)")
            self.offset = len(magic)
            (found,) = self.unpack("<I", "version")
            if found != version:
                raise FormatError(f"{self.path}: unsupported {kind} version {found}")
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        self._file.close()

    def read(self, n: int, what: str) -> bytearray:
        left = self._size - self.offset
        if n > left:
            raise CorruptionError(
                f"{self.path}: truncated at byte {self.offset}: {what} needs {n} bytes, "
                f"{left} left"
            )
        data = bytearray(n)
        if self._file.readinto(data) != n:
            raise CorruptionError(f"{self.path}: file shrank while reading {what}")
        self.offset += n
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        (n,) = self.unpack("<H", f"{what} length")
        try:
            return self.read(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {what} before byte {self.offset} is not UTF-8") from None

    def array(self, shape, dtype, what: str) -> np.ndarray:
        dtype = np.dtype(dtype)
        data = self.read(math.prod(shape) * dtype.itemsize, what)
        try:
            return np.frombuffer(data, dtype).reshape(shape)
        except ValueError as exc:  # over 64 dims, or an empty shape too big to index
            raise FormatError(f"{self.path}: {what} before byte {self.offset}: {exc}") from None

    def tensor(self, shape, what: str) -> np.ndarray:
        """A float64 array that must hold only finite values."""
        out = self.array(shape, "<f8", what)
        check_each(f"{self.path}: {what} before byte {self.offset} must be finite", np.isfinite(out), out)
        return out

    def finish(self) -> None:
        """Close the file; bytes after the last field are an error."""
        self.close()
        if self.offset != self._size:
            raise CorruptionError(
                f"{self.path}: {self._size - self.offset} trailing bytes at byte {self.offset}"
            )
