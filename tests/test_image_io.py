import numpy as np
import pytest

from asibench.errors import ParameterError
from asibench.image import Image, decode_netpbm, netpbm_bytes, read_netpbm, write_netpbm


def test_image_validation():
    with pytest.raises(ParameterError):
        Image(np.full((4, 4), 1.5))
    with pytest.raises(ParameterError):
        Image(np.full((4, 4), -0.1))
    with pytest.raises(ParameterError):
        Image(np.zeros((4, 4, 2)))
    with pytest.raises(ParameterError):
        Image(np.zeros((0, 4)))


def test_gray_promoted_to_3d():
    img = Image(np.zeros((5, 7)))
    assert (img.height, img.width, img.channels) == (5, 7, 1)


def test_pixels_are_frozen():
    img = Image.constant(4, 4, 0.5)
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 0.1


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = Image(rng.integers(0, 256, size=(9, 13)).astype(np.float64) / 255.0)
    path = tmp_path / "img.pgm"
    write_netpbm(img, path)
    back = read_netpbm(path)
    assert back == img  # 8-bit values survive exactly


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = Image(rng.integers(0, 256, size=(6, 5, 3)).astype(np.float64) / 255.0)
    path = tmp_path / "img.ppm"
    write_netpbm(img, path)
    back = read_netpbm(path)
    assert back.channels == 3
    assert back == img


def test_quantization_is_nearest():
    img = Image(np.array([[0.0, 1.0, 0.5]]))
    data = netpbm_bytes(img)
    assert data.endswith(bytes([0, 255, 128]))


def test_read_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([0, 255]))
    img = read_netpbm(path)
    assert img.pixels[0, 0, 0] == 0.0 and img.pixels[0, 1, 0] == 1.0


def test_read_rejects_truncated(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(ParameterError):
        read_netpbm(path)


def test_decode_is_a_read_only_view_of_the_bytes():
    data = b"P6\n# made by hand\n2 1\n255\n" + bytes(range(6)) + b"trailing"
    pixels = decode_netpbm(data)
    assert pixels.dtype == np.uint8 and pixels.shape == (1, 2, 3)
    assert pixels.tolist() == [[[0, 1, 2], [3, 4, 5]]]
    assert not pixels.flags.writeable


@pytest.mark.parametrize("data,message", [
    (b"P5\n4 4", "truncated netpbm header"),
    (b"P5\n4 4\n255\n" + bytes(15), "truncated pixel data"),
    (b"P2\n1 1\n255\n0", "unsupported netpbm magic"),
    (b"P5\n1 1\n65535\n\0\0", "only 8-bit"),
    (b"P5\nx 1\n255\n\0", "bad netpbm width"),
    (b"P5\n0 1\n255\n", "image dimensions must be positive"),
])
def test_decode_errors_name_the_file(data, message):
    with pytest.raises(ParameterError, match=f"^img.pgm: {message}"):
        decode_netpbm(data, "img.pgm")


def test_read_is_decode_over_the_file_bytes(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 3 1 255\n" + bytes([0, 128, 255]) + b"\n")
    assert np.array_equal(read_netpbm(path).pixels, decode_netpbm(path.read_bytes()) / 255.0)
    path.write_bytes(b"P5 3 1 255\n" + bytes(2))
    with pytest.raises(ParameterError, match=str(path)):
        read_netpbm(path)
