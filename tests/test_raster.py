import cmath

import numpy as np
import pytest

from expdyn import (
    ClassifyParams,
    ExpPoly,
    ExpPolyTerm,
    ImageBuffer,
    Poly,
    Viewport,
    bundled_function,
    classify_batch,
    read_ppm,
    render_classification,
    render_exceptional,
    write_ppm,
)
from expdyn import raster
from expdyn.raster import COLOR_BG, COLOR_E1, COLOR_E2, DEFAULT_PALETTE, _colorize


# ---------------------------------------------------------------------------
# Viewport


def test_viewport_validation():
    with pytest.raises(ValueError):
        Viewport(0j, 1.0, 2.0, 100, 100)  # aspect mismatch
    with pytest.raises(ValueError):
        Viewport(0j, 1e306, 1e300, 800, 800)  # half extent times pixels overflows
    with pytest.raises(ValueError):
        Viewport(0j, 1.0, 1.0, 0, 100)
    with pytest.raises(ValueError):
        Viewport(0j, -1.0, -1.0, 100, 100)
    v = Viewport(0j, 2.0, 1.0, 200, 100)
    assert v.px_w == 200


def test_viewport_points():
    v = Viewport.square(0j, 1.0, 2)
    pts = v.all_points()
    assert pts.shape == (2, 2)
    # pixel centers of a 2x2 image over [-1, 1]^2
    assert pts[0, 0] == pytest.approx(-0.5 + 0.5j)
    assert pts[1, 1] == pytest.approx(0.5 - 0.5j)


# ---------------------------------------------------------------------------
# ImageBuffer and PPM I/O


def test_image_buffer_basics():
    img = ImageBuffer(np.zeros((2, 3, 3), dtype=np.uint8))
    assert (img.px_w, img.px_h) == (3, 2)
    assert len(img.data) == 3 * 2 * 3
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((1, 0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((2, 2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((2, 2, 3), dtype=np.float64))


def test_ppm_single_white_pixel(tmp_path):
    img = ImageBuffer(np.full((1, 1, 3), 255, dtype=np.uint8))
    path = tmp_path / "one.ppm"
    write_ppm(img, path)
    raw = path.read_bytes()
    assert raw == b"P6\n1 1\n255\n\xff\xff\xff"
    assert len(raw) == 14


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    img = ImageBuffer(pixels)
    path = tmp_path / "rt.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back == img


def test_read_ppm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_ppm(path)
    path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError):
        read_ppm(path)
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(ValueError, match="only maxval 255 supported"):
        read_ppm(path)


# ---------------------------------------------------------------------------
# Classification rendering


@pytest.fixture(scope="module")
def small_sin3_render(sin3_module):
    v = Viewport.square(0j, 2.0, 64)
    return render_classification(sin3_module, v, ClassifyParams())


@pytest.fixture(scope="module")
def sin3_module():
    return bundled_function("sin_z3")


def _full_render(f, v):
    """Every pixel center classified by classify_batch and coloured, with no
    appeal to any symmetry."""
    res = classify_batch(f, v.all_points().ravel(), ClassifyParams())
    return _colorize(res["tag_code"], res["steps"]).reshape(v.px_h, v.px_w, 3)


def test_render_symmetries_pixel_exact(sin3_module, monkeypatch):
    # render_classification copies exactly mirrored pixels from their
    # partners; each image must equal the one that classifies every pixel.
    def term(q, b, p=()):
        return ExpPolyTerm(Poly(q), b, Poly(p))

    sin2 = bundled_function("sin_z2")
    cases = [
        # every column and row centre has an exact mirror (spacing 1/16)
        (bundled_function("sin_z"), Viewport.square(0j, 2.0, 64)),
        (sin2, Viewport.square(0j, 2.0, 64)),
        (sin3_module, Viewport.square(0j, 2.0, 64)),
        # only some centres have an exact mirror; an odd width has a
        # centre column on the imaginary axis
        (sin3_module, Viewport.square(0j, 1.3, 63)),
        (bundled_function("example_h"), Viewport.square(0j, 1.5, 64)),  # {z, -conj z}
        # non-real coefficients: the group is trivial
        (ExpPoly(3, [term([0.5 + 0.2j], 1), term([-0.5], -1 + 0.5j)]), Viewport.square(0j, 1.5, 64)),
        # e^{0.3i} sin z^3 respects z -> -z only, and
        # f(z) = (e^{z^3 + z^2 + z} - e^{-z^3 + z^2 + z}) / 2 respects conj z only
        (ExpPoly(3, [term([-0.5j * cmath.exp(0.3j)], 1j), term([0.5j * cmath.exp(0.3j)], -1j)]),
         Viewport.square(0j, 1.7, 65)),
        (ExpPoly(3, [term([0.5], 1, [0, 1, 1]), term([-0.5], -1, [0, 1, 1])]), Viewport.square(0j, 1.7, 64)),
        (sin3_module, Viewport.square(0.3 + 0.1j, 2.0, 64)),  # off centre: no pairs
        (sin2, Viewport(0j, 2.0, 1.0, 64, 32)),
    ]
    for f, v in cases:
        want = _full_render(f, v)
        assert np.array_equal(render_classification(f, v, ClassifyParams()).pixels, want)
    f, v = cases[3]
    want = _full_render(f, v)
    assert np.array_equal(render_classification(f, v, ClassifyParams(), threads=4).pixels, want)
    monkeypatch.setattr(raster, "ROWS_PER_CHUNK", 7)
    assert np.array_equal(render_classification(f, v, ClassifyParams()).pixels, want)


def test_render_thread_and_chunk_invariance(sin3_module, small_sin3_render, monkeypatch):
    v = Viewport.square(0j, 2.0, 64)
    threaded = render_classification(sin3_module, v, ClassifyParams(), threads=4)
    monkeypatch.setattr(raster, "ROWS_PER_CHUNK", 7)
    rechunked = render_classification(sin3_module, v, ClassifyParams())
    assert threaded == small_sin3_render
    assert rechunked == small_sin3_render


def test_render_pays_the_budget_once(step_sizes):
    # The 96-px sin_z figure has full-budget orbits in the middle block of
    # rows.  One pool for the image pays that 512-step tail once, where one
    # batch per 32-row block took 98 + 512 + 98 = 708 steps.
    p = ClassifyParams()
    v = Viewport.square(0j, 4.0, 96)
    render_classification(bundled_function("sin_z"), v, p, threads=1)
    assert len(step_sizes) <= p.max_iter + 32
    assert max(step_sizes) <= raster.ROWS_PER_CHUNK * v.px_w


def test_render_starts_no_more_threads_than_row_blocks(sin3_module, small_sin3_render, monkeypatch):
    started = []
    executor = raster.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(raster, "ThreadPoolExecutor", recording)
    # The pixel spacing 1/16 is exact, so each of the bottom 32 rows is the
    # exact mirror of a top row and is copied: 32 rows are classified.
    v = Viewport.square(0j, 2.0, 64)
    monkeypatch.setattr(raster, "ROWS_PER_CHUNK", 16)
    img = render_classification(sin3_module, v, ClassifyParams(), threads=8)
    assert img == small_sin3_render
    assert started == [2]
    monkeypatch.setattr(raster, "ROWS_PER_CHUNK", 32)
    img = render_classification(sin3_module, v, ClassifyParams(), threads=8)
    assert img == small_sin3_render
    assert started == [2]  # one block of rows: no worker threads


def test_render_threads_claim_each_row_once(sin3_module, small_sin3_render, monkeypatch):
    # More workers than cores, one-row pools and a short switch interval:
    # a row claimed twice or never would show in the claims or the pixels.
    import sys
    import threading

    claims = []

    class CountingRows(list):
        """The rows to classify; records which thread takes each one."""

        def __iter__(self):
            for row in super().__iter__():
                claims.append((row[0], threading.get_ident()))
                yield row

    quotient = raster._quotient

    def spy(f, x, y):
        todo, copies = quotient(f, x, y)
        return CountingRows(todo), copies

    monkeypatch.setattr(raster, "_quotient", spy)
    monkeypatch.setattr(raster, "ROWS_PER_CHUNK", 1)
    v = Viewport.square(0j, 2.0, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        img = render_classification(sin3_module, v, ClassifyParams(), threads=4)
    finally:
        sys.setswitchinterval(interval)
    # The bottom 32 rows are exact mirrors of the top 32 and are copied.
    assert sorted(j for j, _ in claims) == list(range(32))
    assert len({t for _, t in claims}) > 1
    assert img == small_sin3_render


def test_render_has_all_classes_colored(small_sin3_render):
    px = small_sin3_render.pixels
    black = np.all(px == DEFAULT_PALETTE["NonEscapeObserved"], axis=-1)
    assert black.any()  # basin of the superattracting fixed point at 0
    blue = px[..., 2] == 255
    assert (blue & ~black).any()  # certified escape pixels


def test_sin_z_column_property():
    # the sine strip map leaves non-escaping points near the real axis in
    # every column of a viewport straddling it
    f = bundled_function("sin_z")
    v = Viewport.square(0j, 3.0, 48)
    img = render_classification(f, v, ClassifyParams())
    black = np.all(img.pixels == 0, axis=-1)
    assert black.any(axis=0).all()


# ---------------------------------------------------------------------------
# Exceptional-set rendering


def test_exceptional_render_layers(cosh3):
    v = Viewport.square(0j, 20.0, 128)
    img = render_exceptional(cosh3, v)
    px = img.pixels
    e1 = np.all(px == COLOR_E1, axis=-1)
    e2 = np.all(px == COLOR_E2, axis=-1)
    bg = np.all(px == COLOR_BG, axis=-1)
    assert e1.any() and e2.any() and bg.any()
    assert (e1 | e2 | bg).all()
    # symmetric function: the image shares the 180 degree rotation symmetry
    assert np.array_equal(px, px[::-1, ::-1])


def test_exceptional_spoke_vs_axis(cosh3):
    import cmath
    import math

    v = Viewport.square(15.0 * cmath.exp(1j * math.pi / 6), 0.01, 9)
    on_spoke = render_exceptional(cosh3, v)
    assert tuple(on_spoke.pixels[4, 4]) in (COLOR_E1, COLOR_E2)
    v2 = Viewport.square(15.0 + 0j, 0.01, 9)
    off_spoke = render_exceptional(cosh3, v2)
    assert tuple(off_spoke.pixels[4, 4]) == COLOR_BG
