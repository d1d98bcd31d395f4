import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiketrim.errors import ContractError, ShapeError
from spiketrim.tensorfile import (MAGIC, read_manifest, read_tensor,
                                  write_manifest, write_tensor)
from spiketrim.tensors import DenseTensor, SpikeTensor


def test_dense_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    t = DenseTensor(rng.normal(size=(3, 4, 2)).astype(np.float32))
    path = tmp_path / "x.spkt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert isinstance(back, DenseTensor)
    assert back.data.tobytes() == t.data.tobytes()
    # file itself is byte-stable
    first = path.read_bytes()
    write_tensor(path, back)
    assert path.read_bytes() == first


def test_spike_roundtrip(tmp_path):
    t = SpikeTensor(np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8))
    path = tmp_path / "s.spkt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert isinstance(back, SpikeTensor)
    assert (back.data == t.data).all()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(ShapeError):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    t = SpikeTensor(np.ones((4,), dtype=np.uint8))
    path = tmp_path / "s.spkt"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(ShapeError):
        read_tensor(path)


@pytest.mark.parametrize("keep", [8, 10, 15])
def test_truncated_header(tmp_path, keep):
    # a rank-2 header needs 8 + 4 * 2 bytes before its payload
    path = tmp_path / "s.spkt"
    write_tensor(path, SpikeTensor(np.ones((2, 3), dtype=np.uint8)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ShapeError, match="truncated"):
        read_tensor(path)


# headers that reach the dims and payload checks, and arbitrary bytes
_HEADERS = st.builds(
    lambda dtype, dims, rank, payload: (MAGIC + bytes([1, dtype, rank, 0])
                                        + struct.pack(f"<{len(dims)}I", *dims) + payload),
    st.integers(0, 2), st.lists(st.integers(0, 4), max_size=6), st.integers(0, 6),
    st.binary(max_size=48))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.binary(max_size=64), _HEADERS))
def test_any_bytes_load_or_raise_contract_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.spkt"
        path.write_bytes(raw)
        try:
            tensor = read_tensor(path)
        except (ShapeError, ContractError):
            return
    assert isinstance(tensor, (DenseTensor, SpikeTensor))


def test_binary_payload_validated(tmp_path):
    t = SpikeTensor(np.ones((4,), dtype=np.uint8))
    path = tmp_path / "s.spkt"
    write_tensor(path, t)
    raw = bytearray(path.read_bytes())
    raw[-1] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ShapeError):
        read_tensor(path)


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    entries = {"beta": "2", "alpha": "one two", "tau": "0.9"}
    write_manifest(path, entries)
    assert read_manifest(path) == entries
    # sorted keys, LF endings
    assert path.read_bytes() == b"alpha=one two\nbeta=2\ntau=0.9\n"


def test_manifest_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\n\na=1\n b = 2 \n")
    assert read_manifest(path) == {"a": "1", "b": "2"}
