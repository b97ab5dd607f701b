"""On-disk formats: binary tensor files, sealed directories, and the
key=value text of run configs, world configs and checkpoint meta.

Tensor file layout: magic "MKT1" (4 bytes), u8 rank, rank u64
little-endian extents, then the row-major IEEE-754 f64 payload, whose
values must all be finite.

A sealed directory (a dataset split or a checkpoint) holds its files and
a manifest.txt of sorted "path<TAB>sha256" lines, hashed from the bytes
written and written last in a fresh sibling that then moves into place.
`read_sealed` reads each file once and hands on only bytes that passed
the manifest check. A checkpoint's tensors are its *.mkt1 files; its
texts are UTF-8.

Key=value text: one `key=value` per line, `#` comments and blank lines
skipped. Each key's type is a dataclass field's declared type: int,
float, str (optionally quoted), or a tuple of ints or of words.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import shutil
import struct
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path

import numpy as np

from .autodiff import _all_finite

MAGIC = b"MKT1"
MANIFEST = "manifest.txt"


class BadTensorFile(ValueError):
    pass


class BadManifest(ValueError):
    pass


class BadKeyValues(ValueError):
    pass


def field_kinds(*classes) -> dict[str, str]:
    """Key -> declared type name for every field of the given dataclasses."""
    return {f.name: f.type for cls in classes for f in fields(cls)}


def check_at_least(obj, low: float, *names: str) -> None:
    """Raise ValueError naming the first field of `obj` among `names` that is
    not a finite number at least `low`; NaN fails the comparison."""
    for name in names:
        value = getattr(obj, name)
        if not low <= value < math.inf:
            raise ValueError(f"{name} must be finite and at least {low}, got {value}")


def _convert(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "str":
        return raw.strip("'\"")
    item = {"tuple[int, ...]": int, "tuple[str, ...]": str}[kind]
    return tuple(item(x) for x in raw.replace(",", " ").split())


def read_key_values(text: str, kinds: dict[str, str], complete: bool = False) -> dict[str, object]:
    """Typed values of the keys a text sets; `complete` demands every key."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise BadKeyValues(f"line {lineno}: expected key=value, got {line!r}")
        if key not in kinds:
            raise BadKeyValues(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise BadKeyValues(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _convert(kinds[key], raw)
        except ValueError:
            raise BadKeyValues(f"key {key!r}: cannot parse {raw!r} as {kinds[key]}") from None
    if complete and values.keys() != kinds.keys():
        raise BadKeyValues(f"missing keys {[key for key in kinds if key not in values]}")
    return values


def _format(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_format(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def key_values_text(values: dict[str, object]) -> str:
    """One key=value line per entry, in order; floats round-trip through repr."""
    return "".join(f"{key}={_format(value)}\n" for key, value in values.items())


def tensor_bytes(array: np.ndarray) -> bytes:
    """The tensor file content of an array."""
    # asarray, not ascontiguousarray: the latter silently promotes 0-d to 1-d
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 255:
        raise BadTensorFile(f"rank {arr.ndim} exceeds format limit")
    # join copies the payload once, straight from the contiguous array's buffer
    return b"".join((MAGIC, struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape), np.ascontiguousarray(arr)))


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(array))


def _read_file(path: str | Path) -> memoryview:
    """A file's bytes, read once into a buffer 3 bytes past an 8-byte boundary, which aligns a tensor
    file's payload (5 + 8 * rank bytes in); a file that shrinks mid-read yields the bytes read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = np.empty(size + 8, dtype=np.uint8)
        start = (3 - raw.ctypes.data) % 8
        got = f.readinto(raw[start:start + size])
    return raw[start:start + got].data


def parse_tensor(buffer: bytes | memoryview, path: str | Path) -> np.ndarray:
    """The array of a tensor file's bytes, a view of `buffer` with no copy of the payload; a
    malformed buffer, or one holding NaN or Inf, raises BadTensorFile naming `path`."""
    if buffer[:4] != MAGIC:
        raise BadTensorFile(f"{path}: bad magic {bytes(buffer[:4])!r}")
    size = len(buffer)
    rank = buffer[4] if size > 4 else 0
    header_end = 5 + 8 * rank
    if size < header_end:
        raise BadTensorFile(f"{path}: header holds {size} bytes, rank {rank} needs {header_end}")
    shape = struct.unpack_from(f"<{rank}Q", buffer, 5)
    count = math.prod(shape)  # exact, where np.prod wraps at int64; 1 for rank 0
    if size - header_end != 8 * count:
        raise BadTensorFile(f"{path}: payload holds {size - header_end} bytes, expected {8 * count}")
    array = np.frombuffer(buffer, dtype="<f8", count=count, offset=header_end)
    if not _all_finite(array):
        raise BadTensorFile(f"{path}: non-finite values")
    return array.reshape(shape)


def read_tensor(path: str | Path) -> np.ndarray:
    """The array a tensor file holds, parsed from the one buffer the file is read into."""
    return parse_tensor(_read_file(path), path)


def _manifest(digests: dict[str, str]) -> bytes:
    """The manifest of path -> sha256 entries: one "path<TAB>sha256" line each, sorted by path."""
    return "".join(f"{rel}\t{digests[rel]}\n" for rel in sorted(digests)).encode()


def remove_sealed(*directories: Path) -> None:
    """Remove every given directory; when one is neither absent, empty nor
    sealed, remove none and raise FileExistsError."""
    for directory in directories:
        if directory.exists() and not (directory / MANIFEST).is_file():
            if directory.is_file() or any(directory.iterdir()):
                raise FileExistsError(f"{directory} holds no {MANIFEST}; not replacing it")
    for directory in directories:
        shutil.rmtree(directory, ignore_errors=True)


def write_sealed(directory: str | Path, files: Mapping[str, bytes]) -> str:
    """Write `files`, relative posix path -> bytes, and the manifest of those
    bytes to a fresh sibling, then move it to `directory`; return its digest.
    Only an empty or sealed directory is ever replaced, and a write that
    raises leaves the target as it was."""
    directory = Path(directory)
    staging = directory.parent / f".ovml-{directory.name}-{secrets.token_hex(4)}"
    staging.mkdir(parents=True)
    try:
        digests = {}
        for rel, content in files.items():
            path = staging / rel
            if "/" in rel:
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
            digests[rel] = hashlib.sha256(content).hexdigest()
        manifest = _manifest(digests)
        (staging / MANIFEST).write_bytes(manifest)
        remove_sealed(directory)
        staging.rename(directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # left only when a write or the replacement raised
    return hashlib.sha256(manifest).hexdigest()


def read_sealed(directory: str | Path) -> tuple[str, dict[str, memoryview]]:
    """The digest (its manifest's sha256) and relative posix path -> bytes of every other file of a
    sealed directory, each read once and returned only once those bytes pass the manifest check.
    A path that is not a directory raises NotADirectoryError; a failed check, BadManifest."""
    directory = Path(directory)
    if not os.path.isdir(directory):  # unlike Path.is_dir, False for a path the OS refuses to check
        raise NotADirectoryError(f"{directory} is not a directory")
    manifest = _read_file(directory / MANIFEST).tobytes()
    rels = sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())
    files = {rel: _read_file(directory / rel) for rel in rels if rel != MANIFEST}
    actual = {rel: hashlib.sha256(content).hexdigest() for rel, content in files.items()}
    if manifest != _manifest(actual):
        listed = dict(line.partition("\t")[::2] for line in manifest.decode(errors="replace").splitlines())
        if any(len(digest) != 64 for digest in listed.values()):
            raise BadManifest(f"{MANIFEST} is not a digest manifest (retrain a checkpoint saved before digests)")
        bad = sorted(rel for rel in listed.keys() | actual.keys() if listed.get(rel) != actual.get(rel))
        raise BadManifest(f"files disagree with {MANIFEST}: {bad or 'not one sorted line per file'}")
    return hashlib.sha256(manifest).hexdigest(), files


def directory_digest(directory: str | Path) -> str:
    """Content hash of a sealed directory once `read_sealed` has checked it."""
    return read_sealed(directory)[0]


def save_checkpoint(directory: str | Path, tensors: dict[str, np.ndarray], texts: dict[str, str]) -> str:
    """Write a sealed checkpoint of `<name>.mkt1` per tensor plus the given text files; return its digest."""
    files = {f"{name}.mkt1": tensor_bytes(array) for name, array in tensors.items()}
    return write_sealed(directory, {**files, **{rel: text.encode() for rel, text in texts.items()}})


def load_checkpoint(directory: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """The tensors and texts `save_checkpoint` took, from the bytes `read_sealed` checked:
    `<name>.mkt1` holds tensor `name`, and every other file is a UTF-8 text."""
    files = read_sealed(directory)[1]
    tensors = {rel[:-5]: parse_tensor(b, Path(directory) / rel) for rel, b in files.items() if rel.endswith(".mkt1")}
    return tensors, {rel: str(b, "utf-8") for rel, b in files.items() if not rel.endswith(".mkt1")}
