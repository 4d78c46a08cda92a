import numpy as np
import pytest

from expdyn import (
    ClassifyParams,
    ImageBuffer,
    Viewport,
    read_ppm,
    render_classification,
    render_exceptional,
    write_ppm,
)
from expdyn.raster import COLOR_BG, COLOR_E1, COLOR_E2, DEFAULT_PALETTE


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
    assert np.array_equal(v.row_points(0), pts[0])
    assert np.array_equal(v.row_points(1), pts[1])


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


# ---------------------------------------------------------------------------
# Classification rendering


@pytest.fixture(scope="module")
def small_sin3_render(sin3_module):
    v = Viewport.square(0j, 2.0, 64)
    return render_classification(sin3_module, v, ClassifyParams())


@pytest.fixture(scope="module")
def sin3_module():
    from expdyn import bundled_function

    return bundled_function("sin_z3")


def test_render_symmetries_pixel_exact(small_sin3_render):
    px = small_sin3_render.pixels
    # sin((-z)^3) = -sin(z^3): 180 degree rotation invariance
    assert np.array_equal(px, px[::-1, ::-1])
    # conjugation symmetry: vertical mirror
    assert np.array_equal(px, px[::-1, :])


def test_render_thread_and_chunk_invariance(sin3_module, small_sin3_render):
    v = Viewport.square(0j, 2.0, 64)
    threaded = render_classification(sin3_module, v, ClassifyParams(), threads=4)
    rechunked = render_classification(
        sin3_module, v, ClassifyParams(), rows_per_chunk=7
    )
    assert threaded == small_sin3_render
    assert rechunked == small_sin3_render


def test_render_pays_the_budget_once(step_sizes):
    # The 96-px sin_z figure has full-budget orbits in the middle block of
    # rows.  One pool for the image pays that 512-step tail once, where one
    # batch per 32-row block took 98 + 512 + 98 = 708 steps.
    from expdyn import bundled_function

    p = ClassifyParams()
    rows_per_chunk = 32
    v = Viewport.square(0j, 4.0, 96)
    render_classification(bundled_function("sin_z"), v, p, threads=1, rows_per_chunk=rows_per_chunk)
    assert len(step_sizes) <= p.max_iter + 32
    assert max(step_sizes) <= rows_per_chunk * v.px_w


def test_render_starts_no_more_threads_than_row_blocks(sin3_module, small_sin3_render, monkeypatch):
    from expdyn import raster

    started = []
    executor = raster.ThreadPoolExecutor

    def recording(max_workers):
        started.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(raster, "ThreadPoolExecutor", recording)
    v = Viewport.square(0j, 2.0, 64)
    img = render_classification(sin3_module, v, ClassifyParams(), threads=8, rows_per_chunk=32)
    assert img == small_sin3_render
    assert started == [2]
    with pytest.raises(ValueError):
        render_classification(sin3_module, v, rows_per_chunk=0)


def test_render_threads_claim_each_row_once(sin3_module, small_sin3_render):
    # More workers than cores, one-row pools and a short switch interval:
    # a row claimed twice or never would show in the claims or the pixels.
    import sys
    import threading

    claims = []

    class CountingViewport(Viewport):
        def row_points(self, j):
            claims.append((j, threading.get_ident()))
            return super().row_points(j)

    v = CountingViewport(0j, 2.0, 2.0, 64, 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        img = render_classification(sin3_module, v, ClassifyParams(), threads=4, rows_per_chunk=1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(j for j, _ in claims) == list(range(64))
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
    from expdyn import bundled_function

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
