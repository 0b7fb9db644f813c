"""Normalized raster images and binary netpbm (PGM/PPM) I/O.

Pixels are float64 in [0.0, 1.0], stored row-major as (height, width, channels)
with channels 1 (gray) or 3 (RGB). Arrays are frozen after construction so
every operation downstream stays pure.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError

__all__ = ["Image", "decode_netpbm", "read_netpbm", "write_netpbm", "netpbm_bytes"]


@dataclass(frozen=True)
class Image:
    pixels: np.ndarray  # (H, W, C) float64 in [0, 1], read-only

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ParameterError(f"pixels must be 2-D or 3-D, got ndim={arr.ndim}")
        h, w, c = arr.shape
        if h < 1 or w < 1:
            raise ParameterError(f"image dimensions must be positive, got {h}x{w}")
        if c not in (1, 3):
            raise ParameterError(f"channels must be 1 or 3, got {c}")
        if not np.isfinite(arr).all():
            raise ParameterError("pixel intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ParameterError("pixel intensities must lie in [0, 1]")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    @classmethod
    def constant(cls, height: int, width: int, value: float, channels: int = 1) -> "Image":
        return cls(np.full((height, width, channels), value, dtype=np.float64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )


def _to_bytes_u8(img: Image) -> np.ndarray:
    # linear [0,1] -> [0,255] with round-half-away handled by np.rint
    return np.rint(img.pixels * 255.0).astype(np.uint8)


def netpbm_bytes(img: Image) -> bytes:
    """Serialize to binary PGM (P5, 1 channel) or PPM (P6, 3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + _to_bytes_u8(img).tobytes()


def write_netpbm(img: Image, path: str | Path) -> None:
    Path(path).write_bytes(netpbm_bytes(img))


def _read_token(stream: io.BufferedIOBase, name: str | Path) -> bytes:
    """Read one whitespace-delimited header token, skipping '#' comments."""
    tok = b""
    while True:
        ch = stream.read(1)
        if ch == b"":
            raise ParameterError(f"{name}: truncated netpbm header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_int(stream: io.BufferedIOBase, name: str | Path, what: str) -> int:
    tok = _read_token(stream, name)
    try:
        return int(tok)
    except ValueError:
        raise ParameterError(f"{name}: bad netpbm {what} {tok!r}") from None


def decode_netpbm(data: bytes, name: str | Path = "netpbm data") -> np.ndarray:
    """Decode binary PGM (P5) or PPM (P6) bytes into a (height, width, channels) uint8 view.

    The view shares ``data``'s memory and is read-only. The header may hold
    '#' comments; exactly one whitespace byte follows the maxval, and bytes
    after the pixel data are ignored. Errors name ``name``.
    """
    stream = io.BytesIO(data)
    magic = _read_token(stream, name)
    if magic not in (b"P5", b"P6"):
        raise ParameterError(f"{name}: unsupported netpbm magic {magic!r}")
    channels = 1 if magic == b"P5" else 3
    width = _read_int(stream, name, "width")
    height = _read_int(stream, name, "height")
    maxval = _read_int(stream, name, "maxval")
    if maxval != 255:
        raise ParameterError(f"{name}: only 8-bit netpbm supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise ParameterError(f"{name}: image dimensions must be positive, got {height}x{width}")
    count = width * height * channels
    offset = stream.tell()
    if len(data) - offset < count:
        raise ParameterError(f"{name}: truncated pixel data")
    pixels = np.frombuffer(data, np.uint8, count, offset).reshape(height, width, channels)
    pixels.setflags(write=False)
    return pixels


def read_netpbm(path: str | Path) -> Image:
    """Read a binary PGM (P5) or PPM (P6) file into a normalized Image."""
    return Image(decode_netpbm(Path(path).read_bytes(), path) / 255.0)
