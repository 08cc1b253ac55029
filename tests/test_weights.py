"""PMWB weight container: round trips, manifest diffs, corruption."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plainscan import get_config, init_params
from plainscan.errors import FormatError, ManifestError, PlainScanError
from plainscan.tensor import Tensor
from plainscan.weights import MAGIC, VERSION, load_weights, save_weights


def test_round_trip_is_bit_exact(tmp_path):
    cfg = get_config("toy")
    params = init_params(cfg, seed=5)
    path = tmp_path / "toy.pmwb"
    save_weights(params, path)
    loaded = load_weights(path, cfg)
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].data.dtype == params[name].data.dtype
        assert np.array_equal(loaded[name].data, params[name].data)


def test_round_trip_float32(tmp_path):
    params = {"w": Tensor(np.float32([[1.5, -2.25], [0.1, 7.0]]))}
    path = tmp_path / "f32.pmwb"
    save_weights(params, path)
    loaded = load_weights(path)
    assert loaded["w"].data.dtype == np.dtype("<f4")
    assert np.array_equal(loaded["w"].data, params["w"].data)


def test_a_config_loads_every_tensor_in_its_dtype(tmp_path):
    wide, narrow = get_config("toy"), get_config("toy", dtype="float32")
    f8, f4 = tmp_path / "f8.pmwb", tmp_path / "f4.pmwb"
    save_weights(init_params(wide, seed=5), f8)
    save_weights(init_params(narrow, seed=5), f4)
    as_stored = {name: t.data for name, t in load_weights(f8).items()}
    assert all(a.dtype == np.float64 for a in as_stored.values())
    assert all(t.dtype == np.float32 for t in load_weights(f4).values())
    for path, cfg, want in [(f8, narrow, np.float32), (f4, wide, np.float64)]:
        loaded = load_weights(path, cfg)
        for name, a in as_stored.items():
            assert loaded[name].dtype == want
            # f8 to float32 rounds as astype does; f4 to float64 is exact
            assert np.array_equal(loaded[name].data, a.astype(np.float32))


def test_file_layout(tmp_path):
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    path = tmp_path / "toy.pmwb"
    save_weights(params, path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack("<I", blob[4:8])[0] == VERSION
    header_len = struct.unpack("<Q", blob[8:16])[0]
    payload_bytes = sum(t.data.nbytes for t in params.values())
    assert len(blob) == 16 + header_len + payload_bytes
    header = blob[16 : 16 + header_len].decode()
    first = header.splitlines()[0].split()
    assert first[0] == "patch_embed.weight" and first[1] == "f8"
    assert first[2] == "8,8,3,32" and first[3] == "0"


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.pmwb"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(FormatError, match="magic"):
        load_weights(path)
    good = MAGIC + struct.pack("<I", 9) + struct.pack("<Q", 0)
    path.write_bytes(good)
    with pytest.raises(FormatError, match="version 9"):
        load_weights(path)


def test_truncated_payload_names_tensor(tmp_path):
    params = {"a": Tensor(np.zeros(4)), "b": Tensor(np.ones(8))}
    path = tmp_path / "trunc.pmwb"
    save_weights(params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])  # cut into the final tensor
    with pytest.raises(FormatError, match="'b'"):
        load_weights(path)


def test_malformed_manifest_line(tmp_path):
    header = b"only three fields\n"
    path = tmp_path / "m.pmwb"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(header)) + header)
    with pytest.raises(FormatError, match="line 1"):
        load_weights(path)
    header = b"w f2 2 0\n"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(header)) + header)
    with pytest.raises(FormatError, match="dtype"):
        load_weights(path)


def test_manifest_diff_against_config(tmp_path):
    cfg = get_config("toy")
    params = init_params(cfg, seed=0)
    path = tmp_path / "toy.pmwb"

    missing = dict(params)
    del missing["blocks.0.A"]
    save_weights(missing, path)
    with pytest.raises(ManifestError, match="missing: blocks.0.A"):
        load_weights(path, cfg)

    extra = dict(params)
    extra["stowaway"] = Tensor(np.zeros(3))
    save_weights(extra, path)
    with pytest.raises(ManifestError, match="extra: stowaway"):
        load_weights(path, cfg)

    wrong = dict(params)
    wrong["head.bias"] = Tensor(np.zeros(7))
    save_weights(wrong, path)
    with pytest.raises(ManifestError, match="head.bias"):
        load_weights(path, cfg)

    save_weights(params, path)
    assert set(load_weights(path, cfg)) == set(params)  # clean file passes


def test_loaded_tensors_are_writable(tmp_path):
    # frombuffer views are read-only; the loader must copy
    params = {"w": Tensor(np.zeros(3))}
    path = tmp_path / "w.pmwb"
    save_weights(params, path)
    loaded = load_weights(path)
    loaded["w"].data[0] = 1.0
    assert loaded["w"].data[0] == 1.0


def _container(header: bytes, payload: bytes = b"", header_len=None) -> bytes:
    n = len(header) if header_len is None else header_len
    return MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", n) + header + payload


def test_short_file_is_format_error(tmp_path):
    path = tmp_path / "short.pmwb"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION))  # 8 of the 16 preamble bytes
    with pytest.raises(FormatError, match="shorter"):
        load_weights(path)


def test_non_utf8_manifest_is_format_error(tmp_path):
    path = tmp_path / "latin.pmwb"
    path.write_bytes(_container(b"w\xff f8 1 0\n", np.zeros(1).tobytes()))
    with pytest.raises(FormatError, match="UTF-8"):
        load_weights(path)


def test_non_integer_shape_or_offset_is_format_error(tmp_path):
    path = tmp_path / "m.pmwb"
    for header in (b"w f8 2,x 0\n", b"w f8 2 1.5\n"):
        path.write_bytes(_container(header, np.zeros(2).tobytes()))
        with pytest.raises(FormatError, match="integers"):
            load_weights(path)


def test_header_length_past_end_is_format_error(tmp_path):
    path = tmp_path / "m.pmwb"
    header = b"w f8 1 0\n"
    path.write_bytes(_container(header, np.zeros(1).tobytes(), header_len=1 << 40))
    with pytest.raises(FormatError, match="past the end"):
        load_weights(path)


def test_negative_offset_is_format_error(tmp_path):
    path = tmp_path / "m.pmwb"
    path.write_bytes(_container(b"w f8 1 -8\n", np.zeros(2).tobytes()))
    with pytest.raises(FormatError, match="negative"):
        load_weights(path)


def test_duplicate_tensor_name_is_format_error(tmp_path):
    path = tmp_path / "m.pmwb"
    path.write_bytes(_container(b"w f8 1 0\nw f8 1 8\n", np.zeros(2).tobytes()))
    with pytest.raises(FormatError, match="duplicate tensor name 'w'"):
        load_weights(path)


def test_overlapping_tensors_are_format_error(tmp_path):
    # b starts inside a: both would read the middle 8 bytes
    path = tmp_path / "m.pmwb"
    path.write_bytes(_container(b"a f8 2 0\nb f8 2 8\n", np.zeros(3).tobytes()))
    with pytest.raises(FormatError, match="'a' and 'b' overlap"):
        load_weights(path)


@pytest.mark.parametrize("shape", [
    "0,100000000000000000000",            # empty, but past numpy's extent limit
    "0," + ",".join(["1"] * 70),          # empty, but past numpy's 64 dimensions
    "9223372036854775807,0",
], ids=["huge-extent", "too-many-dims", "too-big"])
def test_unrepresentable_empty_shape_is_format_error(tmp_path, shape):
    path = tmp_path / "m.pmwb"
    path.write_bytes(_container(f"a f8 {shape} 0\n".encode(), b""))
    with pytest.raises(FormatError, match="cannot have shape"):
        load_weights(path)


# (kind, position, byte) edits; positions wrap around the current length
_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete", "truncate"]),
              st.integers(0, 2**16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def _mutate(blob, edits):
    out = bytearray(blob)
    for kind, pos, byte in edits:
        pos %= len(out) + 1
        if kind == "set" and pos < len(out):
            out[pos] = byte
        elif kind == "insert":
            out.insert(pos, byte)
        elif kind == "delete":
            del out[pos : pos + 1]
        elif kind == "truncate":
            del out[pos:]
    return bytes(out)


def _loads_or_exits_2(load, path):
    try:
        load(path)
    except PlainScanError as e:
        assert e.exit_code == 2, f"{type(e).__name__} ({e}) exits {e.exit_code}, not 2"


_SMALL = {
    "w": Tensor(np.arange(6.0).reshape(2, 3)),
    "b": Tensor(np.float32([0.5, -1.0, 2.0])),
    "s": Tensor(np.float64(3.0)),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_mutated_weight_file_loads_or_is_format_error(tmp_path, edits):
    # a small file, so most edits land in the preamble and the manifest
    path = tmp_path / "small.pmwb"
    save_weights(_SMALL, path)
    path.write_bytes(_mutate(path.read_bytes(), edits))
    _loads_or_exits_2(load_weights, path)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_EDITS)
def test_mutated_model_weight_file_loads_or_exits_2(tmp_path, edits):
    # against a config: a manifest edit may also be a ManifestError
    cfg = get_config("toy")
    path = tmp_path / "toy.pmwb"
    save_weights(init_params(cfg, seed=0), path)
    blob = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    edits = [(kind, pos % header_end, byte) for kind, pos, byte in edits]
    path.write_bytes(_mutate(blob, edits))
    _loads_or_exits_2(lambda p: load_weights(p, cfg), path)


def test_load_peak_is_under_two_and_a_half_file_sizes(tmp_path):
    # the file's bytes plus one copy per tensor; slicing the payload out of
    # the bytes would add a third copy of the file
    rng = np.random.default_rng(0)
    params = {f"w{i}": Tensor(rng.standard_normal(128 * 1024)) for i in range(5)}
    path = tmp_path / "big.pmwb"
    save_weights(params, path)
    size = path.stat().st_size
    assert size >= 4 * 2**20
    tracemalloc.start()
    try:
        loaded = load_weights(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size, f"peak {peak / size:.2f}x the file size"
    assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)
