"""Weight container: "PMWB" magic, u32 version, u64 header length, a text
manifest of (name dtype shape offset) lines, then raw little-endian
payload in manifest order.  Round trips are bit-exact and the manifest is
diffable with standard tools.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError
from .model import ModelConfig, check_params
from .tensor import Tensor

MAGIC = b"PMWB"
VERSION = 1
_PREAMBLE = 16  # magic, u32 version, u64 header length

_DTYPES = {"f8": np.dtype("<f8"), "f4": np.dtype("<f4")}
_DTYPE_NAMES = {np.dtype(np.float64): "f8", np.dtype(np.float32): "f4"}


def save_weights(params: dict, path) -> None:
    lines = []
    offset = 0
    for name, t in params.items():
        dt = _DTYPE_NAMES[np.dtype(t.dtype)]
        shape = ",".join(str(s) for s in t.shape) or "scalar"
        lines.append(f"{name} {dt} {shape} {offset}")
        offset += t.data.nbytes
    header = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for t in params.values():
            f.write(t.data.tobytes())


def _parse_manifest(header: str):
    entries = []
    names = set()
    for lineno, line in enumerate(header.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"manifest line {lineno} is malformed: {line!r}")
        name, dt, shape_s, off_s = parts
        if dt not in _DTYPES:
            raise FormatError(f"manifest line {lineno}: unknown dtype {dt!r}")
        try:
            shape = () if shape_s == "scalar" else tuple(int(s) for s in shape_s.split(","))
            offset = int(off_s)
        except ValueError:
            raise FormatError(
                f"manifest line {lineno}: shape {shape_s!r} and offset {off_s!r} "
                "must be integers"
            ) from None
        if offset < 0 or any(s < 0 for s in shape):
            raise FormatError(f"manifest line {lineno}: negative shape or offset in {line!r}")
        if name in names:
            raise FormatError(f"manifest line {lineno}: duplicate tensor name {name!r}")
        names.add(name)
        entries.append((name, _DTYPES[dt], shape, offset))
    return entries


def load_weights(path, config: ModelConfig | None = None) -> dict:
    """Read a weight file.  With a config, every tensor comes back in the
    config's dtype and the set is checked against the model; without one,
    each keeps the dtype the file stores."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < _PREAMBLE:
        raise FormatError(f"file is {len(blob)} bytes, shorter than the {_PREAMBLE}-byte preamble")
    version, header_len = struct.unpack("<IQ", blob[4:_PREAMBLE])
    if version != VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    if header_len > len(blob) - _PREAMBLE:
        raise FormatError(
            f"header length {header_len} runs past the end of the {len(blob)}-byte file"
        )
    try:
        header = blob[_PREAMBLE : _PREAMBLE + header_len].decode()
    except UnicodeDecodeError as e:
        raise FormatError(f"manifest is not UTF-8: {e}") from None
    # a view, so the file's bytes are copied once: into each tensor
    payload = memoryview(blob)[_PREAMBLE + header_len :]
    params, spans = {}, []
    for name, dtype, shape, offset in _parse_manifest(header):
        count = math.prod(shape)
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise FormatError(
                f"payload truncated: tensor {name!r} needs {nbytes} bytes at offset {offset}"
            )
        if nbytes:
            spans.append((offset, offset + nbytes, name))
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        try:  # an empty tensor passes the size check with any other extent
            arr = arr.reshape(shape)
        except ValueError as e:
            raise FormatError(f"tensor {name!r} cannot have shape {shape}: {e}") from None
        # astype copies, whether or not the dtype changes
        params[name] = Tensor(arr.astype(dtype if config is None else config.dtype), name=name)
    # sorted by start, any overlap shows up between neighbours
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise FormatError(
                f"tensors {first!r} and {second!r} overlap: both read payload byte {start}"
            )
    if config is not None:
        check_params(config, params)
    return params

