"""On-disk formats: binary tensor files, sealed directories, and the
key=value text of run configs, world configs and checkpoint meta.

Tensor file layout: magic "MKT1" (4 bytes), u8 rank, rank u64
little-endian extents, then the row-major IEEE-754 f64 payload, whose
values must all be finite.

A sealed directory (a dataset split or a checkpoint) holds its files and
a manifest.txt of sorted "path<TAB>sha256" lines, written last in a fresh
sibling that then moves into place. It is read only once its files are
exactly those listed. A checkpoint's tensors are its *.mkt1 files.

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
from collections.abc import Callable
from dataclasses import fields
from pathlib import Path

import numpy as np

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


def read_tensor(path: str | Path) -> np.ndarray:
    """The array a tensor file holds; a malformed file, or one holding NaN or
    Inf, raises BadTensorFile naming the path. The payload is read straight
    into the returned array, so the read holds no second copy of it."""
    with open(path, "rb") as f:
        head = f.read(5)
        if head[:4] != MAGIC:
            raise BadTensorFile(f"{path}: bad magic {head[:4]!r}")
        rank = head[4] if len(head) > 4 else 0
        header_end = 5 + 8 * rank
        size = os.fstat(f.fileno()).st_size
        if size < header_end:
            raise BadTensorFile(f"{path}: header holds {size} bytes, rank {rank} needs {header_end}")
        shape = struct.unpack(f"<{rank}Q", f.read(8 * rank))
        count = math.prod(shape)  # exact, where np.prod wraps at int64; 1 for rank 0
        if size - header_end != 8 * count:
            raise BadTensorFile(f"{path}: payload holds {size - header_end} bytes, expected {8 * count}")
        array = np.empty(count, dtype="<f8")
        got = f.readinto(array)
        if got != 8 * count:  # the file shrank after fstat
            raise BadTensorFile(f"{path}: payload holds {got} bytes, expected {8 * count}")
    if not np.isfinite(array).all():
        raise BadTensorFile(f"{path}: non-finite values")
    return array.reshape(shape)


def _manifest(directory: Path) -> tuple[bytes, dict[str, str]]:
    """The manifest the files now under a directory call for, and its path -> sha256 entries."""
    rels = sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())
    digests = {rel: hashlib.sha256((directory / rel).read_bytes()).hexdigest() for rel in rels if rel != MANIFEST}
    return "".join(f"{rel}\t{digest}\n" for rel, digest in digests.items()).encode(), digests


def seal(directory: str | Path) -> str:
    """Write the manifest of the files now in a directory; return its digest."""
    manifest, _ = _manifest(Path(directory))
    (Path(directory) / MANIFEST).write_bytes(manifest)
    return hashlib.sha256(manifest).hexdigest()


def remove_sealed(*directories: Path) -> None:
    """Remove every given directory; when one is neither absent, empty nor
    sealed, remove none and raise FileExistsError."""
    for directory in directories:
        if directory.exists() and not (directory / MANIFEST).is_file():
            if directory.is_file() or any(directory.iterdir()):
                raise FileExistsError(f"{directory} holds no {MANIFEST}; not replacing it")
    for directory in directories:
        shutil.rmtree(directory, ignore_errors=True)


def write_sealed(directory: str | Path, fill: Callable[[Path], None]) -> str:
    """Have `fill` write a fresh sibling directory, seal it and move it to
    `directory`; return its digest. Only an empty or sealed directory is
    ever replaced, and a fill that raises leaves the target as it was."""
    directory = Path(directory)
    staging = directory.parent / f".ovml-{directory.name}-{secrets.token_hex(4)}"
    staging.mkdir(parents=True)
    try:
        fill(staging)
        digest = seal(staging)
        remove_sealed(directory)
        staging.rename(directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # left only when the fill or the replacement raised
    return digest


def directory_digest(directory: str | Path) -> str:
    """Content hash of a sealed directory, the sha256 of its manifest, once its
    files are checked to be exactly those listed. A path that is not a
    directory raises NotADirectoryError; a failed check, BadManifest."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    manifest = (directory / MANIFEST).read_bytes()
    expected, actual = _manifest(directory)
    if manifest != expected:
        listed = dict(line.partition("\t")[::2] for line in manifest.decode(errors="replace").splitlines())
        if any(len(digest) != 64 for digest in listed.values()):
            raise BadManifest(f"{MANIFEST} is not a digest manifest (retrain a checkpoint saved before digests)")
        bad = sorted(rel for rel in listed.keys() | actual.keys() if listed.get(rel) != actual.get(rel))
        raise BadManifest(f"files disagree with {MANIFEST}: {bad or 'not one sorted line per file'}")
    return hashlib.sha256(manifest).hexdigest()


def save_checkpoint(directory: str | Path, tensors: dict[str, np.ndarray], texts: dict[str, str]) -> str:
    """Write a sealed checkpoint of `<name>.mkt1` per tensor plus the given text files; return its digest."""
    def fill(staging: Path) -> None:
        for name, array in tensors.items():
            write_tensor(staging / f"{name}.mkt1", array)
        for rel, text in texts.items():
            (staging / rel).write_text(text)
    return write_sealed(directory, fill)


def load_checkpoint(directory: str | Path) -> dict[str, np.ndarray]:
    """Every tensor of a verified checkpoint, named by its file's stem: `<name>.mkt1` holds `name`."""
    directory_digest(directory)
    return {path.stem: read_tensor(path) for path in sorted(Path(directory).glob("*.mkt1"))}
