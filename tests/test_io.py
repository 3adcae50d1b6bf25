"""Binary tensor, weights, and state files: round-trips and corruption.

Every format error path is exercised with hand-built byte streams, so a
reader change that silently accepts garbage shows up here.
"""

import struct

import numpy as np
import pytest

from chunkmel import io


def test_tensor_roundtrip_shapes_and_dtypes(tmp_path):
    cases = [
        np.float64(3.5).reshape(()),
        np.zeros((0,), dtype=np.float32),
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        np.arange(2**8, dtype=np.float64).reshape((2,) * 8),
    ]
    for i, arr in enumerate(cases):
        path = str(tmp_path / f"t{i}.ctn")
        io.save_tensor(path, np.asarray(arr))
        back = io.load_tensor(path)
        assert back.dtype == arr.dtype
        assert back.shape == np.asarray(arr).shape
        assert np.array_equal(back, arr)


def test_tensor_bytes_layout():
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    blob = io.tensor_to_bytes(arr)
    assert blob[:4] == b"CTN1"
    ndim = struct.unpack("<I", blob[4:8])[0]
    assert ndim == 2
    dims = struct.unpack("<2Q", blob[8:24])
    assert dims == (1, 2)
    assert blob[24] == 0  # f32 code
    assert blob[25:] == arr.tobytes()


def test_tensor_rejects_unsupported_dtype():
    with pytest.raises(io.FormatError):
        io.tensor_to_bytes(np.zeros(3, dtype=np.int64))


def test_tensor_load_rejects_corruption(tmp_path):
    good = io.tensor_to_bytes(np.arange(6, dtype=np.float64).reshape(2, 3))

    def write(name, blob):
        p = tmp_path / name
        p.write_bytes(blob)
        return str(p)

    with pytest.raises(io.FormatError, match="magic"):
        io.load_tensor(write("magic.ctn", b"XXXX" + good[4:]))
    with pytest.raises(io.FormatError, match="truncated"):
        io.load_tensor(write("trunc.ctn", good[:-8]))
    with pytest.raises(io.FormatError, match="trailing"):
        io.load_tensor(write("trail.ctn", good + b"\x00"))
    with pytest.raises(io.FormatError, match="rank"):
        io.load_tensor(write("rank.ctn", good[:4] + struct.pack("<I", 9) + good[8:]))
    bad_code = good[: 4 + 4 + 16] + struct.pack("<B", 7) + good[4 + 4 + 16 + 1 :]
    with pytest.raises(io.FormatError, match="dtype code"):
        io.load_tensor(write("code.ctn", bad_code))


def test_oversized_header_is_format_error_not_memory_error(tmp_path):
    # 1M x 1M f64 declares 8 TB of payload; the file holds 16 bytes of it.
    blob = io.TENSOR_MAGIC + struct.pack("<I", 2) + struct.pack("<2Q", 10**6, 10**6)
    blob += struct.pack("<B", 1) + b"\x00" * 16
    path = tmp_path / "huge.ctn"
    path.write_bytes(blob)
    with pytest.raises(io.FormatError, match="declares 8000000000000 payload bytes"):
        io.load_tensor(str(path))
    state = tmp_path / "huge.cfps"
    state.write_bytes(io.STATE_MAGIC + struct.pack("<Q", 0) + blob)
    with pytest.raises(io.FormatError, match="payload"):
        io.load_state(str(state))


def test_loaded_tensor_is_native_and_writable(tmp_path):
    path = str(tmp_path / "w.ctn")
    io.save_tensor(path, np.ones((2, 2)))
    arr = io.load_tensor(path)
    arr[0, 0] = 5.0  # frombuffer views are read-only; the loader must copy
    assert arr.dtype.isnative


def test_weights_roundtrip(tmp_path):
    path = str(tmp_path / "model.cfpw")
    config = {"n_layers": 2, "dtype": "f64", "note": "anything JSON"}
    tensors = {
        "layers.0.wq.0": np.arange(6, dtype=np.float64).reshape(2, 3),
        "proj_b": np.zeros(4, dtype=np.float32),
    }
    io.save_weights(path, config, tensors)
    config2, tensors2 = io.load_weights(path)
    assert config2 == config
    assert set(tensors2) == set(tensors)
    for name in tensors:
        assert np.array_equal(tensors2[name], tensors[name])
        assert tensors2[name].dtype == tensors[name].dtype


def test_weights_rejects_duplicates_and_truncation(tmp_path):
    path = str(tmp_path / "dup.cfpw")
    with open(path, "wb") as f:
        f.write(b"CFPW")
        doc = b"{}"
        f.write(struct.pack("<I", len(doc)) + doc)
        rec = struct.pack("<I", 1) + b"a" + io.tensor_to_bytes(np.zeros(2))
        f.write(rec + rec)
    with pytest.raises(io.FormatError, match="duplicate"):
        io.load_weights(path)

    path2 = str(tmp_path / "tr.cfpw")
    io.save_weights(path2, {}, {"a": np.zeros(3)})
    blob = open(path2, "rb").read()
    open(path2, "wb").write(blob[:-2])
    with pytest.raises(io.FormatError, match="truncated"):
        io.load_weights(path2)

    path3 = str(tmp_path / "bad.cfpw")
    open(path3, "wb").write(b"CTN1" + blob[4:])
    with pytest.raises(io.FormatError, match="magic"):
        io.load_weights(path3)

    path4 = str(tmp_path / "json.cfpw")
    open(path4, "wb").write(b"CFPW" + struct.pack("<I", 3) + b"{{{")
    with pytest.raises(io.FormatError, match="JSON"):
        io.load_weights(path4)


def test_state_roundtrip_preserves_order_and_offset(tmp_path):
    path = str(tmp_path / "state.cfps")
    tensors = [
        np.arange(4, dtype=np.float64).reshape(2, 2),
        np.zeros((0, 2), dtype=np.float64),
        np.ones((1, 3), dtype=np.float32),
    ]
    io.save_state(path, frame_offset=123, tensors=tensors)
    offset, back = io.load_state(path)
    assert offset == 123
    assert len(back) == len(tensors)
    for got, want in zip(back, tensors):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_state_rejects_bad_magic_and_mid_stream_garbage(tmp_path):
    path = str(tmp_path / "bad.cfps")
    open(path, "wb").write(b"NOPE" + struct.pack("<Q", 0))
    with pytest.raises(io.FormatError, match="magic"):
        io.load_state(path)

    path2 = str(tmp_path / "mid.cfps")
    with open(path2, "wb") as f:
        f.write(b"CFPS" + struct.pack("<Q", 7))
        f.write(io.tensor_to_bytes(np.zeros((1, 1))))
        f.write(b"JUNKJUNKJUNK")
    with pytest.raises(io.FormatError, match="magic"):
        io.load_state(path2)


def test_read_tensor_leaves_stream_at_record_end(tmp_path):
    blob = io.tensor_to_bytes(np.ones((2, 2))) + io.tensor_to_bytes(np.zeros(3))
    path = tmp_path / "two.bin"
    path.write_bytes(blob)
    with open(path, "rb") as f:
        first = io.read_tensor(f)
        second = io.read_tensor(f)
        assert not f.read(1)
    assert first.shape == (2, 2) and second.shape == (3,)
