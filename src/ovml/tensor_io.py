"""On-disk formats: binary tensor files, checkpoint directories, and
the key=value text of run configs, world configs and checkpoint meta.

Tensor file layout: magic "MKT1" (4 bytes), u8 rank, rank u64
little-endian extents, then the row-major IEEE-754 f64 payload.

A checkpoint is a directory holding one tensor file per parameter plus
a manifest: text lines "name<TAB>filename", each filename a plain name
inside the directory.

Key=value text: one `key=value` per line, `#` comments and blank lines
skipped. Each key's type is a dataclass field's declared type: int,
float, str (optionally quoted), or a tuple of ints or of words.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

MAGIC = b"MKT1"
MANIFEST = "manifest.txt"


class BadTensorFile(ValueError):
    pass


class BadKeyValues(ValueError):
    pass


def field_kinds(*classes) -> dict[str, str]:
    """Key -> declared type name for every field of the given dataclasses."""
    return {f.name: f.type for cls in classes for f in fields(cls)}


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


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    # asarray, not ascontiguousarray: the latter silently promotes 0-d to 1-d
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 255:
        raise BadTensorFile(f"rank {arr.ndim} exceeds format limit")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<B", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes(order="C"))


def read_tensor(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise BadTensorFile(f"{path}: bad magic {blob[:4]!r}")
    rank = blob[4] if len(blob) > 4 else 0
    header_end = 5 + 8 * rank
    if len(blob) < header_end:
        raise BadTensorFile(f"{path}: header holds {len(blob)} bytes, rank {rank} needs {header_end}")
    shape = struct.unpack(f"<{rank}Q", blob[5:header_end])
    count = int(np.prod(shape)) if rank else 1
    payload = blob[header_end:]
    if len(payload) != 8 * count:
        raise BadTensorFile(f"{path}: payload holds {len(payload)} bytes, expected {8 * count}")
    return np.frombuffer(payload, dtype="<f8", count=count).reshape(shape).copy()


def save_checkpoint(directory: str | Path, tensors: dict[str, np.ndarray]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in sorted(tensors):
        fname = name.replace("/", "_") + ".mkt1"
        write_tensor(directory / fname, tensors[name])
        lines.append(f"{name}\t{fname}")
    (directory / MANIFEST).write_text("\n".join(lines) + "\n")


def file_digests(directory: str | Path, skip: str = "") -> dict[str, str]:
    """sha256 hex digest of every file under a directory but `skip`, by sorted relative path."""
    directory = Path(directory)
    rels = sorted(str(p.relative_to(directory)).replace("\\", "/") for p in directory.rglob("*") if p.is_file())
    return {rel: hashlib.sha256((directory / rel).read_bytes()).hexdigest() for rel in rels if rel != skip}


def directory_digest(directory: str | Path) -> str:
    """Order-independent content hash of every file under a directory."""
    h = hashlib.sha256()
    for rel, digest in file_digests(directory).items():
        h.update(rel.encode())
        h.update(bytes.fromhex(digest))
    return h.hexdigest()


def load_checkpoint(directory: str | Path) -> dict[str, np.ndarray]:
    directory = Path(directory)
    out: dict[str, np.ndarray] = {}
    for lineno, line in enumerate((directory / MANIFEST).read_text().splitlines(), 1):
        if not line.strip():
            continue
        entry = line.split("\t")
        if len(entry) != 2:
            raise BadTensorFile(f"{directory / MANIFEST} line {lineno}: expected name<TAB>filename")
        name, fname = entry
        if fname in ("", "..") or Path(fname).name != fname:
            raise BadTensorFile(f"{directory / MANIFEST} line {lineno}: {fname!r} names no file of the directory")
        out[name] = read_tensor(directory / fname)
    return out
