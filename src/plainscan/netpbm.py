"""Binary PPM (P6) / PGM (P5) ingestion and emission.

Only maxval 255 is supported.  Grayscale images are replicated to three
channels; pixel values are scaled to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def _next_token(blob: bytes, pos: int):
    n = len(blob)
    while pos < n:
        c = blob[pos : pos + 1]
        if c == b"#":
            while pos < n and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not blob[pos : pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def load_image(path):
    """Decode to float [H, W, 3] in [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, pos = _next_token(blob, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported magic {magic!r} at byte 0 (want P5 or P6)")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(blob, pos)
        if not tok.isdigit():
            raise FormatError(f"non-numeric header token {tok!r} at byte {pos - len(tok)}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"image extents must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval} (only 255)")
    pos += 1  # single whitespace byte separates header from raster
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    raster = blob[pos : pos + need]
    if len(raster) != need:
        raise FormatError(
            f"raster truncated at byte {pos + len(raster)}: need {need} bytes, got {len(raster)}"
        )
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        img = np.repeat(img, 3, axis=2)
    return img.astype(np.float64) / 255.0


def save_ppm(path, image) -> None:
    """Write [H, W, 3] values in [0, 1] (or uint8) as binary P6.

    Values outside [0, 1] clip; a NaN has no pixel value and is refused.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise FormatError(f"expected [H, W, 3], got shape {arr.shape}")
    if 0 in arr.shape:
        raise FormatError(f"image extents must be at least 1x1, got {arr.shape[1]}x{arr.shape[0]}")
    if arr.dtype != np.uint8:
        nan = np.isnan(arr)
        if nan.any():
            row, col, channel = (int(i) for i in np.argwhere(nan)[0])
            raise FormatError(f"NaN pixel value at (row {row}, col {col}, channel {channel})")
        arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        f.write(arr.tobytes())


def normalize(image):
    """Per-channel (x - 0.5) / 0.5, applied before tokenization."""
    return (np.asarray(image) - 0.5) / 0.5
