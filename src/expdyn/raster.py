"""Rasterization of orbit classifications and exceptional sets to PPM images.

Pixels are sampled at their centers only, so the classification invariants
(sign and mirror symmetries) hold pixel-exactly.  Rendering is deterministic
and independent of the worker count: every chunk writes to disjoint
pre-indexed rows of the output array.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptional import in_E_mask
from .funcs import ExpPoly
from .orbits import ClassifyParams, classify_batch

__all__ = [
    "Viewport",
    "ImageBuffer",
    "DEFAULT_PALETTE",
    "render_classification",
    "render_exceptional",
    "write_ppm",
    "read_ppm",
]

# Honest defaults: non-escape black, undetermined red, escape shaded blue by
# certified step count.
DEFAULT_PALETTE = {
    "NonEscapeObserved": (0, 0, 0),
    "Undetermined": (255, 0, 0),
}

COLOR_E1 = (96, 96, 96)
COLOR_E2 = (200, 200, 200)
COLOR_BG = (255, 255, 255)


@dataclass(frozen=True)
class Viewport:
    """World-rectangle-to-pixel mapping; aspect ratios must agree."""

    center: complex
    half_width: float
    half_height: float
    px_w: int
    px_h: int

    def __post_init__(self):
        if self.px_w < 1 or self.px_h < 1:
            raise ValueError("pixel dimensions must be >= 1")
        # Finite extents keep every pixel spacing and pixel centre finite.
        extents = (
            2.0 * self.half_width,
            2.0 * self.half_height,
            abs(self.center.real) + self.half_width,
            abs(self.center.imag) + self.half_height,
        )
        if not all(map(math.isfinite, extents)):
            raise ValueError("viewport center, half extents and edges must be finite")
        if self.half_width <= 0 or self.half_height <= 0:
            raise ValueError("half extents must be positive")
        sx = self.half_width / self.px_w
        sy = self.half_height / self.px_h
        if abs(sx - sy) > 1e-9 * max(sx, sy):
            raise ValueError("world aspect ratio must equal pixel aspect ratio")

    @classmethod
    def square(cls, center: complex, half: float, px: int) -> "Viewport":
        return cls(center=center, half_width=half, half_height=half, px_w=px, px_h=px)

    def row_points(self, j: int) -> np.ndarray:
        """Pixel-center points of row j (row 0 is the top of the image)."""
        sx = 2.0 * self.half_width / self.px_w
        sy = 2.0 * self.half_height / self.px_h
        x = self.center.real - self.half_width + (np.arange(self.px_w) + 0.5) * sx
        y = self.center.imag + self.half_height - (j + 0.5) * sy
        return x + 1j * y

    def all_points(self) -> np.ndarray:
        """(px_h, px_w) array of pixel centers, top row first."""
        sx = 2.0 * self.half_width / self.px_w
        sy = 2.0 * self.half_height / self.px_h
        x = self.center.real - self.half_width + (np.arange(self.px_w) + 0.5) * sx
        y = self.center.imag + self.half_height - (np.arange(self.px_h) + 0.5) * sy
        return x[None, :] + 1j * y[:, None]


class ImageBuffer:
    """8-bit RGB raster of shape (px_h, px_w, 3), row-major with the top row first."""

    def __init__(self, pixels: np.ndarray):
        if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
            raise ValueError("pixels must be uint8 with shape (px_h, px_w, 3)")
        if pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError("pixel dimensions must be >= 1")
        self.pixels = pixels

    @property
    def px_w(self) -> int:
        return self.pixels.shape[1]

    @property
    def px_h(self) -> int:
        return self.pixels.shape[0]

    @property
    def data(self) -> bytes:
        return self.pixels.tobytes()

    def __eq__(self, other):
        return isinstance(other, ImageBuffer) and np.array_equal(self.pixels, other.pixels)


def _escape_shade(steps: np.ndarray) -> np.ndarray:
    """Blue-graded escape colors: earlier escape renders brighter."""
    c = np.clip(255 - 8 * steps, 40, 255).astype(np.uint8)
    out = np.empty(steps.shape + (3,), dtype=np.uint8)
    out[..., 0] = c
    out[..., 1] = c
    out[..., 2] = 255
    return out


def _colorize(codes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Pixel colors from classify_batch tag codes (1 escape, 2 non-escape, 0 undetermined)."""
    rgb = _escape_shade(steps)
    rgb[codes == 2] = DEFAULT_PALETTE["NonEscapeObserved"]
    rgb[codes == 0] = DEFAULT_PALETTE["Undetermined"]
    return rgb


def render_classification(
    f: ExpPoly,
    v: Viewport,
    p: ClassifyParams | None = None,
    threads: int = 1,
    rows_per_chunk: int = 32,
) -> ImageBuffer:
    """Classify every pixel-center orbit and map classes to colors.

    Results are independent of threads and rows_per_chunk: classification is
    per-point and each chunk owns a disjoint block of output rows.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if p is None:
        p = ClassifyParams()
    out = np.zeros((v.px_h, v.px_w, 3), dtype=np.uint8)
    chunks = [
        (j0, min(j0 + rows_per_chunk, v.px_h)) for j0 in range(0, v.px_h, rows_per_chunk)
    ]

    def work(span):
        j0, j1 = span
        pts = np.concatenate([v.row_points(j) for j in range(j0, j1)])
        res = classify_batch(f, pts, p)
        codes = res["tag_code"].reshape(j1 - j0, v.px_w)
        steps = res["steps"].reshape(j1 - j0, v.px_w)
        out[j0:j1] = _colorize(codes, steps)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, chunks))
    else:
        for span in chunks:
            work(span)
    return ImageBuffer(out)


def render_exceptional(f: ExpPoly, v: Viewport) -> ImageBuffer:
    """Level-1 set dark grey, level-2-only light grey, background white."""
    pts = v.all_points()
    e1 = in_E_mask(f, pts, 1)
    e2 = in_E_mask(f, pts, 2)
    out = np.full((v.px_h, v.px_w, 3), COLOR_BG, dtype=np.uint8)
    out[e2] = COLOR_E2
    out[e1] = COLOR_E1
    return ImageBuffer(out)


def write_ppm(img: ImageBuffer, path) -> None:
    """Binary PPM (P6, maxval 255), bit-exact across platforms."""
    header = f"P6\n{img.px_w} {img.px_h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.data)


def read_ppm(path) -> ImageBuffer:
    """Read back a P6 file written by write_ppm (strict whitespace handling)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P6"):
        raise ValueError("not a P6 PPM file")
    fields = []
    i = 2
    while len(fields) < 3:
        while i < len(raw) and raw[i : i + 1].isspace():
            i += 1
        j = i
        while j < len(raw) and not raw[j : j + 1].isspace():
            j += 1
        fields.append(int(raw[i:j]))
        i = j
    i += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ValueError("only maxval 255 supported")
    body = raw[i : i + 3 * w * h]
    if len(body) != 3 * w * h:
        raise ValueError("truncated pixel payload")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).copy()
    return ImageBuffer(pixels)
