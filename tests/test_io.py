"""Binary tensor format and checkpoint directory round trips."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovml import tensor_io
from ovml.tensor_io import (
    BadTensorFile,
    directory_digest,
    load_checkpoint,
    read_tensor,
    remove_sealed,
    save_checkpoint,
    write_sealed,
    write_tensor,
)


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
    import tempfile

    rng = np.random.default_rng(seed)
    arr = rng.normal(0, 1, tuple(shape))
    with tempfile.TemporaryDirectory() as d:
        write_tensor(f"{d}/x.mkt1", arr)
        back = read_tensor(f"{d}/x.mkt1")
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_scalar_rank_zero(tmp_path):
    write_tensor(tmp_path / "s.mkt1", np.array(3.5))
    back = read_tensor(tmp_path / "s.mkt1")
    assert back.shape == ()
    assert back == 3.5


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "x.mkt1"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(BadTensorFile):
        read_tensor(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "x.mkt1"
    write_tensor(p, np.ones((3, 3)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(BadTensorFile):
        read_tensor(p)


@pytest.mark.parametrize("length", [4, 7])
def test_truncated_header_rejected(tmp_path, length):
    p = tmp_path / "x.mkt1"
    write_tensor(p, np.ones((3, 3)))
    p.write_bytes(p.read_bytes()[:length])
    with pytest.raises(BadTensorFile, match="header"):
        read_tensor(p)


@pytest.mark.parametrize("shape", [(2**32, 2**32), (3, 2**62)], ids=["product_2_64", "product_3_2_62"])
def test_header_whose_size_overflows_int64_rejected(tmp_path, shape):
    # the element count is exact: it neither wraps to 0 nor turns negative
    p = tmp_path / "x.mkt1"
    p.write_bytes(b"MKT1" + struct.pack("<B2Q", 2, *shape))
    with pytest.raises(BadTensorFile, match=f"payload holds 0 bytes, expected {8 * math.prod(shape)}$"):
        read_tensor(p)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_payload_rejected(tmp_path, value):
    p = tmp_path / "x.mkt1"
    write_tensor(p, np.array([[1.0, value], [2.0, 3.0]]))
    with pytest.raises(BadTensorFile, match=f"^{p}: non-finite values$"):
        read_tensor(p)


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "x.mkt1"
    write_tensor(p, np.ones(2))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(BadTensorFile):
        read_tensor(p)


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
    save_checkpoint(tmp_path / "ck", tensors, {})
    back = load_checkpoint(tmp_path / "ck")
    assert set(back) == set(tensors)
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])


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
    assert load_checkpoint(tmp_path / "ck")["a"].tolist() == [2.0, 2.0]
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_writer_that_raises_leaves_no_half_directory(tmp_path):
    def interrupted(staging):
        write_tensor(staging / "a.mkt1", np.ones(2))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_sealed(tmp_path / "ck", interrupted)
    assert list(tmp_path.iterdir()) == []

    save_checkpoint(tmp_path / "ck", {"a": np.zeros(2)}, {})
    with pytest.raises(KeyboardInterrupt):
        write_sealed(tmp_path / "ck", interrupted)
    assert load_checkpoint(tmp_path / "ck")["a"].tolist() == [0.0, 0.0]
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


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
