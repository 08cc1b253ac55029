"""Binary PPM/PGM decode and encode."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plainscan.errors import FormatError, PlainScanError
from plainscan.netpbm import load_image, normalize, save_ppm


def test_white_p6(tmp_path):
    path = tmp_path / "white.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
    img = load_image(path)
    assert img.shape == (2, 2, 3)
    assert np.all(img == 1.0)


def test_p6_pixel_order(tmp_path):
    # one red pixel then one blue pixel on a single row
    path = tmp_path / "rb.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
    img = load_image(path)
    assert np.array_equal(img[0, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(img[0, 1], [0.0, 0.0, 1.0])


def test_p5_replicates_gray_to_rgb(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 128]))
    img = load_image(path)
    assert img.shape == (1, 2, 3)
    assert np.all(img[0, 0] == 0.0)
    assert np.allclose(img[0, 1], 128 / 255.0)
    assert np.all(img[..., 0] == img[..., 1])


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6 # a comment\n# another\n  2\t1 # w h\n255\n" + b"\x00" * 6)
    img = load_image(path)
    assert img.shape == (1, 2, 3)


def test_format_errors_report_byte_offsets(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P4\n2 2\n255\n")
    with pytest.raises(FormatError, match="P4"):
        load_image(path)
    path.write_bytes(b"P6\n2 x\n255\n")
    with pytest.raises(FormatError, match="non-numeric"):
        load_image(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(FormatError, match="maxval 65535"):
        load_image(path)
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(FormatError, match="need 12 bytes, got 5"):
        load_image(path)
    path.write_bytes(b"P6\n2")
    with pytest.raises(FormatError, match="end of header"):
        load_image(path)


@pytest.mark.parametrize("extents", [b"0 32", b"32 0", b"0 0"],
                         ids=["width-0", "height-0", "both-0"])
def test_zero_extent_image_is_format_error(tmp_path, extents):
    path = tmp_path / "empty.ppm"
    path.write_bytes(b"P6\n" + extents + b"\n255\n")
    width, height = extents.decode().split()
    with pytest.raises(FormatError, match=f"at least 1x1, got {width}x{height}"):
        load_image(path)


@pytest.mark.parametrize("shape", [(0, 32, 3), (32, 0, 3)], ids=["height-0", "width-0"])
def test_save_ppm_refuses_zero_extent_images(tmp_path, shape):
    path = tmp_path / "empty.ppm"
    with pytest.raises(FormatError, match=f"at least 1x1, got {shape[1]}x{shape[0]}"):
        save_ppm(path, np.zeros(shape))
    assert not path.exists()


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    path = tmp_path / "rt.ppm"
    save_ppm(path, raw)
    img = load_image(path)
    assert np.array_equal(np.rint(img * 255).astype(np.uint8), raw)
    # float round trip through [0, 1]
    save_ppm(path, img)
    again = load_image(path)
    assert np.array_equal(img, again)


def test_save_ppm_clips_and_validates(tmp_path):
    path = tmp_path / "clip.ppm"
    save_ppm(path, np.array([[[2.0, -1.0, 0.5]]]))
    img = load_image(path)
    assert np.array_equal(np.rint(img * 255), [[[255, 0, 128]]])
    with pytest.raises(FormatError, match="H, W, 3"):
        save_ppm(path, np.zeros((4, 4)))


def test_save_ppm_refuses_nan_pixels(tmp_path):
    path = tmp_path / "nan.ppm"
    with pytest.raises(FormatError, match=r"NaN pixel value at \(row 0, col 0, channel 0\)"):
        save_ppm(path, np.full((2, 2, 3), np.nan))
    img = np.zeros((3, 4, 3))
    img[2, 1, 2] = np.nan
    img[0, 0, 0] = np.inf  # finite or not, a value that is a number clips
    with pytest.raises(FormatError, match=r"\(row 2, col 1, channel 2\)"):
        save_ppm(path, img)
    assert not path.exists()


def test_normalize_centering():
    x = np.array([0.0, 0.5, 1.0])
    assert np.allclose(normalize(x), [-1.0, 0.0, 1.0])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    magic=st.sampled_from([b"P6", b"P5"]),
    edits=st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete", "truncate"]),
                  st.integers(0, 2**16), st.integers(0, 255)),
        min_size=1, max_size=3,
    ),
)
def test_mutated_image_loads_or_is_format_error(tmp_path, magic, edits):
    channels = 3 if magic == b"P6" else 1
    blob = bytearray(magic + b"\n# a comment\n3 2\n255\n" + bytes(range(6 * channels)))
    for kind, pos, byte in edits:  # positions wrap around the current length
        pos %= len(blob) + 1
        if kind == "set" and pos < len(blob):
            blob[pos] = byte
        elif kind == "insert":
            blob.insert(pos, byte)
        elif kind == "delete":
            del blob[pos : pos + 1]
        elif kind == "truncate":
            del blob[pos:]
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(bytes(blob))
    try:
        load_image(path)
    except PlainScanError as e:
        assert e.exit_code == 2, f"{type(e).__name__} ({e}) exits {e.exit_code}, not 2"
