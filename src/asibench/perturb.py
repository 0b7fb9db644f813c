"""Deterministic, seedable image-corruption kernels and ordered composition.

All randomness flows through numpy's PCG64 seeded from an explicit 64-bit
seed; identical (image, parameters, seed) triples give bit-identical output.
Sub-seeds for composed steps come from ``derive_seed(seed, step_index)``, so
reordering a sequence reassigns which random stream drives which kernel;
rotation draws no randomness.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .image import Image

__all__ = [
    "Kind",
    "PerturbationStep",
    "derive_seed",
    "apply_salt_pepper",
    "apply_gaussian_noise",
    "rotate",
    "apply_sequence",
]


class Kind(str, enum.Enum):
    SALT_PEPPER = "SP"
    GAUSSIAN = "GA"
    ROTATION = "ROT"


def _check(kind: Kind, v: float) -> None:
    """The one definition of each kind's valid intensities, for steps and kernels alike."""
    if not math.isfinite(v):
        raise ParameterError(f"{kind.value} intensity must be finite")
    if kind is Kind.SALT_PEPPER and not 0.0 <= v <= 1.0:
        raise ParameterError(f"salt-pepper density must be in [0, 1], got {v}")
    if kind is Kind.GAUSSIAN and v < 0.0:
        raise ParameterError(f"gaussian sigma must be >= 0, got {v}")
    if kind is Kind.ROTATION and not -360.0 < v < 360.0:
        raise ParameterError(f"rotation degrees must be in (-360, 360), got {v}")


@dataclass(frozen=True)
class PerturbationStep:
    """One corruption: a kind plus its intensity.

    Intensity meaning by kind: SALT_PEPPER = fraction of pixels hit (in [0,1]),
    GAUSSIAN = noise standard deviation on the [0,1] intensity scale (>= 0),
    ROTATION = signed degrees in (-360, 360), positive clockwise.
    """

    kind: Kind
    intensity: float = 0.0

    def __post_init__(self):
        _check(self.kind, self.intensity)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a position in a seeding tree.

    Defined as the first uint64 word of PCG64 state material produced by
    ``np.random.SeedSequence([seed, *path])``; stable across platforms.
    """
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


def apply_salt_pepper(img: Image, density: float, seed: int) -> Image:
    """Set round(density * W * H) distinct pixel positions to 0.0 or 1.0.

    Positions are drawn without replacement; a fair coin per hit pixel picks
    salt (1.0) or pepper (0.0), applied to every channel of that pixel.
    """
    _check(Kind.SALT_PEPPER, density)
    n_hit = round(density * img.width * img.height)
    if n_hit == 0:
        return Image(img.pixels.copy())
    rng = _rng(seed)
    flat = rng.choice(img.width * img.height, size=n_hit, replace=False)
    values = np.where(rng.random(n_hit) < 0.5, 1.0, 0.0)
    out = img.pixels.copy()
    rows, cols = np.divmod(flat, img.width)
    out[rows, cols, :] = values[:, np.newaxis]
    return Image(out)


def apply_gaussian_noise(img: Image, sigma: float, seed: int) -> Image:
    """Add i.i.d. zero-mean normal noise of the given sigma, then clamp to [0,1]."""
    _check(Kind.GAUSSIAN, sigma)
    if sigma == 0.0:
        return Image(img.pixels.copy())
    noise = _rng(seed).normal(0.0, sigma, size=img.pixels.shape)
    return Image(np.clip(img.pixels + noise, 0.0, 1.0))


@functools.lru_cache(maxsize=16)
def _rotation_plan(h: int, w: int, degrees: float):
    """Inverse map of a rotation, which depends only on (h, w, degrees).

    Returns one (index, wx, wy) triple per bilinear corner: the flat source
    index of each output pixel's corner (``h * w`` where it lies outside the
    image: a zero row the caller appends) and its x and y weights. All arrays
    are read-only, so cached plans are shared safely.
    """
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)

    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dx, dy = xs - cx, ys - cy
    # inverse map: rotate output coords by -theta (screen coords, y down)
    src_x = cx + dx * cos_t + dy * sin_t
    src_y = cy - dx * sin_t + dy * cos_t

    x0 = np.floor(src_x)
    y0 = np.floor(src_y)
    fx = (src_x - x0).reshape(-1, 1)
    fy = (src_y - y0).reshape(-1, 1)
    x0 = x0.astype(np.int64).ravel()
    y0 = y0.astype(np.int64).ravel()

    def corner(yi, xi):
        inside = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        return np.where(inside, yi * w + xi, h * w)

    wx0, wx1, wy0, wy1 = 1 - fx, fx, 1 - fy, fy
    plan = (
        (corner(y0, x0), wx0, wy0),
        (corner(y0, x0 + 1), wx1, wy0),
        (corner(y0 + 1, x0), wx0, wy1),
        (corner(y0 + 1, x0 + 1), wx1, wy1),
    )
    for arrays in plan:
        for arr in arrays:
            arr.setflags(write=False)
    return plan


def rotate(img: Image, degrees: float) -> Image:
    """Rotate about the image center, positive = clockwise.

    Output keeps the input dimensions; bilinear resampling; source positions
    outside the image fill with 0.0. 0 degrees is the exact identity.
    """
    _check(Kind.ROTATION, degrees)
    if degrees == 0.0:
        return Image(img.pixels.copy())
    h, w, c = img.pixels.shape
    src = np.zeros((h * w + 1, c))  # the last row is the 0.0 fill
    src[:-1] = img.pixels.reshape(h * w, c)
    # sum of (v * wx) * wy over the corners in order, as the direct bilinear formula
    out = np.zeros((h * w, c))
    for index, wx, wy in _rotation_plan(h, w, float(degrees)):
        term = src.take(index, axis=0)
        term *= wx
        term *= wy
        out += term
    np.clip(out, 0.0, 1.0, out=out)
    return Image(out.reshape(h, w, c))


def apply_sequence(img: Image, steps, seed: int, *, start: int = 0) -> Image:
    """Apply steps strictly in order; step i draws from derive_seed(seed, i).

    The steps hold positions ``start, start + 1, ...`` of their sequence, so a
    caller that applied the first ``start`` steps itself finishes the sequence
    with the streams it would have drawn whole. A rotation draws nothing, and
    no seed is derived for it.
    """
    out = img
    for i, step in enumerate(steps, start):
        if step.kind is Kind.ROTATION:
            out = rotate(out, step.intensity)
        elif step.kind is Kind.SALT_PEPPER:
            out = apply_salt_pepper(out, step.intensity, derive_seed(seed, i))
        else:
            out = apply_gaussian_noise(out, step.intensity, derive_seed(seed, i))
    if out is img:
        out = Image(img.pixels.copy())
    return out
