"""Binary tensor format and checkpoint directory round trips."""

import builtins
import hashlib
import io
import math
import os
import struct
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovml import tensor_io
from ovml.tensor_io import (
    MANIFEST,
    BadTensorFile,
    directory_digest,
    load_checkpoint,
    parse_tensor,
    read_sealed,
    read_tensor,
    remove_sealed,
    save_checkpoint,
    tensor_bytes,
    write_sealed,
    write_tensor,
)


def reseal(directory: Path) -> str:
    """Seal the files a directory holds now through write_sealed, so an edit
    reaches the check behind the digests; return the new digest."""
    files = {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}
    del files[MANIFEST]
    return write_sealed(directory, files)


def rewrite_after_hashing(monkeypatch, path: Path, array: np.ndarray) -> None:
    """Write `array` over the tensor file at `path` as soon as tensor_io has
    hashed the file's present bytes, the way a writer racing a reader would."""
    original, sha256 = path.read_bytes(), hashlib.sha256

    def hash_then_rewrite(data):
        digest = sha256(data)
        if bytes(data) == original:
            write_tensor(path, array)
        return digest

    monkeypatch.setattr(tensor_io, "hashlib", SimpleNamespace(sha256=hash_then_rewrite))


def count_reads(monkeypatch) -> Counter:
    """Path -> number of times a file is opened for reading from now on."""
    opened, real_open = Counter(), io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, os.PathLike)):
            opened[Path(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # pathlib opens through io.open
    return opened


def assert_read_once(opened: Counter, directory: Path) -> None:
    """Every file of `directory`, the manifest too, was opened for reading exactly once."""
    files = {p: 1 for p in directory.rglob("*") if p.is_file()}
    assert {path: n for path, n in opened.items() if directory in path.parents} == files


def assert_writable_aligned(array: np.ndarray) -> None:
    """An array AdamW can update in place and BLAS can read at full speed."""
    assert array.flags.c_contiguous and array.flags.writeable and array.flags.aligned
    assert array.ctypes.data % 8 == 0


def test_known_byte_layout(tmp_path):
    path = tmp_path / "t.mkt1"
    write_tensor(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"MKT1"
    assert raw[4] == 2  # rank
    assert int.from_bytes(raw[5:13], "little") == 1
    assert int.from_bytes(raw[13:21], "little") == 2
    assert np.frombuffer(raw[21:], dtype="<f8").tolist() == [1.0, 2.0]


@given(
    st.lists(st.integers(1, 5), min_size=0, max_size=4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_any_shape(shape, seed):
    rng = np.random.default_rng(seed)
    arr = rng.normal(0, 1, tuple(shape))
    back = parse_tensor(tensor_bytes(arr), "x.mkt1")
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_scalar_rank_zero():
    back = parse_tensor(tensor_bytes(np.array(3.5)), "s.mkt1")
    assert back.shape == ()
    assert back == 3.5


def test_bad_magic_rejected():
    with pytest.raises(BadTensorFile, match="^x.mkt1: bad magic b'NOPE'$"):
        parse_tensor(b"NOPE" + bytes(20), "x.mkt1")


def test_truncated_payload_rejected():
    with pytest.raises(BadTensorFile, match="payload holds 64 bytes, expected 72$"):
        parse_tensor(tensor_bytes(np.ones((3, 3)))[:-8], "x.mkt1")


@pytest.mark.parametrize("length", [4, 7])
def test_truncated_header_rejected(length):
    with pytest.raises(BadTensorFile, match="header"):
        parse_tensor(tensor_bytes(np.ones((3, 3)))[:length], "x.mkt1")


@pytest.mark.parametrize("shape", [(2**32, 2**32), (3, 2**62)], ids=["product_2_64", "product_3_2_62"])
def test_header_whose_size_overflows_int64_rejected(shape):
    # the element count is exact: it neither wraps to 0 nor turns negative
    with pytest.raises(BadTensorFile, match=f"payload holds 0 bytes, expected {8 * math.prod(shape)}$"):
        parse_tensor(b"MKT1" + struct.pack("<B2Q", 2, *shape), "x.mkt1")


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_payload_rejected(value):
    with pytest.raises(BadTensorFile, match="^x.mkt1: non-finite values$"):
        parse_tensor(tensor_bytes(np.array([[1.0, value], [2.0, 3.0]])), "x.mkt1")


def test_trailing_garbage_rejected():
    with pytest.raises(BadTensorFile, match="payload holds 17 bytes, expected 16$"):
        parse_tensor(tensor_bytes(np.ones(2)) + b"\x00", "x.mkt1")


def test_read_holds_one_copy_of_the_payload(tmp_path):
    p = tmp_path / "x.mkt1"
    payload = 8 * 2**20
    write_tensor(p, np.ones((1024, 1024)))
    tracemalloc.start()
    try:
        read_tensor(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload <= peak < 1.25 * payload


def test_file_that_shrinks_while_read_is_rejected(tmp_path, monkeypatch):
    # the size check passes on the stale size; the read itself comes up short
    p = tmp_path / "x.mkt1"
    p.write_bytes(b"MKT1" + struct.pack("<BQ", 1, 3) + np.ones(2).tobytes())
    stat = os.stat(p)
    monkeypatch.setattr(tensor_io.os, "fstat", lambda fd: os.stat_result((*stat[:6], stat.st_size + 8, *stat[7:])))
    with pytest.raises(BadTensorFile, match="payload holds 16 bytes, expected 24$"):
        read_tensor(p)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "vit.b0.wq0": rng.normal(0, 1, (4, 2)),
        "heads.global_w": rng.normal(0, 1, (4, 3)),
        "prompt.context": rng.normal(0, 1, (2, 5)),
    }
    texts = {"meta.txt": "note=\u00fc\n", "vocab.tsv": "0\t1\n"}
    save_checkpoint(tmp_path / "ck", tensors, texts)
    back, back_texts = load_checkpoint(tmp_path / "ck")
    assert set(back) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])
        assert_writable_aligned(back[name])
    assert back_texts == texts


def test_directory_digest_tracks_content_not_mtime(tmp_path):
    rng = np.random.default_rng(1)
    t = {"a": rng.normal(0, 1, 3), "b": rng.normal(0, 1, (2, 2))}
    save_checkpoint(tmp_path / "x", t, {})
    save_checkpoint(tmp_path / "y", t, {})
    assert directory_digest(tmp_path / "x") == directory_digest(tmp_path / "y")

    t["a"] = t["a"] + 1.0
    save_checkpoint(tmp_path / "z", t, {})
    assert directory_digest(tmp_path / "x") != directory_digest(tmp_path / "z")


def test_resave_replaces_the_whole_directory(tmp_path):
    old_texts = {"meta.txt": "old\n", "notes.txt": "x\n"}
    save_checkpoint(tmp_path / "ck", {"a": np.ones(2), "b": np.zeros(3)}, old_texts)
    save_checkpoint(tmp_path / "ck", {"a": np.full(2, 2.0)}, {"meta.txt": "new\n"})
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["a.mkt1", "manifest.txt", "meta.txt"]
    assert (tmp_path / "ck" / "meta.txt").read_text() == "new\n"
    assert load_checkpoint(tmp_path / "ck")[0]["a"].tolist() == [2.0, 2.0]
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


class _Interrupted(dict):
    """A mapping whose second item raises KeyboardInterrupt as the writer reaches it."""

    def items(self):
        yield "a.txt", b"written\n"
        raise KeyboardInterrupt


def test_writer_that_raises_leaves_no_half_directory(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        write_sealed(tmp_path / "ck", _Interrupted())
    assert list(tmp_path.iterdir()) == []

    save_checkpoint(tmp_path / "ck", {"a": np.zeros(2)}, {})
    with pytest.raises(KeyboardInterrupt):
        write_sealed(tmp_path / "ck", _Interrupted())
    assert load_checkpoint(tmp_path / "ck")[0]["a"].tolist() == [0.0, 0.0]
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_manifest_hashed_from_the_bytes_is_the_one_recomputed_from_disk(tmp_path):
    # as strings "a.b" sorts before "a/b" ('.' < '/'); as Paths, ("a", "b") sorts before ("a.b",)
    files = {"a/b": b"nested\n", "a.b": b"dotted\n", "world/deep/z.mkt1": b"\x00\xff", "m.txt": "\u00fc\n".encode()}
    digest = write_sealed(tmp_path / "d", files)
    manifest = (tmp_path / "d" / MANIFEST).read_bytes()
    assert manifest.decode().splitlines() == [
        f"{rel}\t{hashlib.sha256(files[rel]).hexdigest()}" for rel in ("a.b", "a/b", "m.txt", "world/deep/z.mkt1")
    ]
    assert digest == hashlib.sha256(manifest).hexdigest() == directory_digest(tmp_path / "d")
    assert read_sealed(tmp_path / "d") == (digest, files)
    assert {p.relative_to(tmp_path / "d").as_posix(): p.read_bytes() for p in (tmp_path / "d").rglob("*")
            if p.is_file() and p.name != MANIFEST} == files
    assert reseal(tmp_path / "d") == digest


def test_writer_never_replaces_a_directory_it_did_not_write(tmp_path):
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "todo.txt").write_text("keep me\n")
    (tmp_path / "a_file").write_text("keep me too\n")
    save_checkpoint(tmp_path / "ck", {"a": np.ones(1)}, {})
    for target in (tmp_path / "notes", tmp_path / "a_file"):
        with pytest.raises(FileExistsError):
            save_checkpoint(target, {"a": np.ones(1)}, {})
        with pytest.raises(FileExistsError):
            remove_sealed(tmp_path / "ck", target)  # all or nothing: the sealed ck stays too
    assert (tmp_path / "notes" / "todo.txt").read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "ck", "notes"]
    remove_sealed(tmp_path / "ck", tmp_path / "absent")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "notes"]
