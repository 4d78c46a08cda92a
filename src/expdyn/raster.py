"""Rasterization of orbit classifications and exceptional sets to PPM images.

Pixels are sampled at their centers.  The centers are not exactly
antisymmetric in doubles (a center and its mirror can miss exact negatives
by an ulp), so an image need not be mirror symmetric.  Where f respects
z -> -z, conj z or -conj z exactly (funcs.mirror_group) and a pixel's
mirrored center is exactly that map's image of its center, the
classification render copies the pixel from its partner instead of
classifying it.  The two orbits are mirror images with the same verdict,
and the engine's arithmetic commutes with negation and conjugation, so the
bytes equal a render that classifies every pixel (tests/test_raster.py
compares the two).  Rendering is deterministic and independent of the
worker count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptional import in_E_mask
from .funcs import ExpPoly, mirror_group
from .orbits import ClassifyParams, _classify_pool

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

# Rows of pixels in the live-orbit pool of each render worker.
ROWS_PER_CHUNK = 32


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

    def axes(self):
        """(x, y): the real parts of the pixel centers of each column, left
        first, and their imaginary parts in each row, top row first."""
        sx = 2.0 * self.half_width / self.px_w
        sy = 2.0 * self.half_height / self.px_h
        x = self.center.real - self.half_width + (np.arange(self.px_w) + 0.5) * sx
        y = self.center.imag + self.half_height - (np.arange(self.px_h) + 0.5) * sy
        return x, y

    def all_points(self) -> np.ndarray:
        """(px_h, px_w) array of pixel centers, top row first."""
        x, y = self.axes()
        return x + 1j * y[:, None]


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


def _colorize(codes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Pixel colors from tag codes (1 escape, 2 non-escape, 0 undetermined).
    Escape colors are blue-graded: earlier escape renders brighter."""
    c = np.clip(255 - 8 * steps, 40, 255).astype(np.uint8)
    rgb = np.empty(steps.shape + (3,), dtype=np.uint8)
    rgb[..., 0] = c
    rgb[..., 1] = c
    rgb[..., 2] = 255
    rgb[codes == 2] = DEFAULT_PALETTE["NonEscapeObserved"]
    rgb[codes == 0] = DEFAULT_PALETTE["Undetermined"]
    return rgb


def _quotient(f: ExpPoly, x, y):
    """The pixels left to classify once the exact mirror pixels of f's
    symmetries are set aside, and the copies that fill those in.

    x and y are the pixel-center axes of Viewport.axes.  Column i pairs
    with column px_w-1-i, and row j with row px_h-1-j, only where their
    pixel-center coordinates are exact negatives in doubles, so a paired
    pixel's center is exactly g of its partner's, for the maps g of
    funcs.mirror_group that the pairing realises: -conj z mirrors columns,
    conj z mirrors rows, and -z, used alone only when f has neither of the
    others, mirrors both.  Returns (todo, copies): todo lists
    (row, columns) of the pixels to classify, top row first, and each copy
    (dst, src), applied in order, sets the pixels out[dst] from out[src]
    of an image out: whole columns, whole rows, or a block of np.ix_.
    """
    group = mirror_group(f)
    px_h, px_w = y.size, x.size
    every_row, every_col = np.arange(px_h), np.arange(px_w)
    paired_cols = x == -x[::-1]
    # The bottom rows and right columns with an exact mirror.
    is_low = (y == -y[::-1]) & (2 * every_row > px_h - 1)
    low = np.flatnonzero(is_low)
    right = np.flatnonzero(paired_cols & (2 * every_col > px_w - 1))
    # cols: the columns to classify in each row; low_cols: in the rows low.
    cols = every_col
    copies = []
    if (-1, True) in group:  # the right columns, from the left ones
        copies.append(((slice(None), right), (slice(None), px_w - 1 - right)))
        cols = np.setdiff1d(every_col, right)
    low_cols = cols
    if (1, True) in group:  # then the bottom rows, from the top ones
        copies.append((low, px_h - 1 - low))
        low_cols = every_col[:0]
    elif (-1, False) in group:  # the paired columns of the bottom rows
        pairs = np.flatnonzero(paired_cols)
        copies.append((np.ix_(low, pairs), np.ix_(px_h - 1 - low, px_w - 1 - pairs)))
        low_cols = np.setdiff1d(every_col, pairs)
    todo = [(j, low_cols if is_low[j] else cols) for j in range(px_h)]
    return [(j, c) for j, c in todo if c.size], copies


def render_classification(
    f: ExpPoly,
    v: Viewport,
    p: ClassifyParams | None = None,
    threads: int = 1,
) -> ImageBuffer:
    """Classify the pixel-center orbits and map classes to colors.

    Only the pixels of _quotient are classified; each exact mirror pixel
    is copied from its partner once the pools finish (see the module
    docstring for why the copy is the pixel a classification would write).

    Each worker thread runs one pool of ROWS_PER_CHUNK rows of live orbits
    (see orbits._classify_pool).  The pool takes the next unclaimed rows as
    its orbits finish, and each finished orbit's pixel is coloured at once,
    so an image pays its longest orbit once, not once per block of rows.
    No more threads start than there are blocks of ROWS_PER_CHUNK rows to
    classify.  Results are independent of threads and ROWS_PER_CHUNK:
    classification is per-point, and each pixel ends as the pool that ran
    it wrote it or as a copy of a pixel that a pool ran.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if p is None:
        p = ClassifyParams()
    out = np.zeros((v.px_h, v.px_w, 3), dtype=np.uint8)
    flat = out.reshape(-1, 3)
    x, y = v.axes()
    todo, copies = _quotient(f, x, y)
    rows = iter(todo)
    claim = threading.Lock()

    def blocks():
        while True:
            with claim:
                j, cols = next(rows, (None, None))
            if j is None:
                return
            yield j * v.px_w + cols, x[cols] + 1j * y[j]

    def sink(i, cols):
        flat[i] = _colorize(cols["tag_code"], cols["steps"])

    def work():
        _classify_pool(f, p, blocks(), ROWS_PER_CHUNK * v.px_w, sink)

    workers = min(threads, -(-len(todo) // ROWS_PER_CHUNK))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            for fut in [ex.submit(work) for _ in range(workers)]:
                fut.result()
    else:
        work()
    for dst, src in copies:
        out[dst] = out[src]
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
