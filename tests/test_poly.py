import numpy as np
import pytest
from hypothesis import given, strategies as st

from expdyn import Poly

coeff = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def test_zero_poly():
    p = Poly()
    assert p.is_zero()
    assert p.degree == -1
    assert p(3.0 + 1j) == 0j


def test_trailing_zeros_trimmed():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p == Poly([1, 2])


def test_horner_matches_numpy():
    p = Poly([1, -2, 3j, 0.5])
    z = np.array([0.3 + 0.1j, -1.2, 2j])
    expected = 1 - 2 * z + 3j * z**2 + 0.5 * z**3
    assert np.allclose(p(z), expected)


def test_deriv():
    p = Poly([5, 1, 2, 3])
    assert p.deriv() == Poly([1, 4, 9])
    assert Poly([7]).deriv().is_zero()


@given(st.lists(coeff, max_size=5), st.lists(coeff, max_size=5))
def test_add_sub_roundtrip(a, b):
    pa, pb = Poly(a), Poly(b)
    got = (pa + pb) - pb
    n = max(len(got.coeffs), len(pa.coeffs))
    pad = lambda p: np.pad(p.coeffs, (0, n - len(p.coeffs)))
    scale = max([1.0] + [abs(c) for c in pb.coeffs])
    assert np.allclose(pad(got), pad(pa), atol=1e-9 * scale)


@given(st.lists(coeff, max_size=4), st.lists(coeff, max_size=4))
def test_mul_evaluates_pointwise(a, b):
    pa, pb = Poly(a), Poly(b)
    z = 0.7 - 0.3j
    assert abs((pa * pb)(z) - pa(z) * pb(z)) < 1e-6 * (1 + abs(pa(z) * pb(z)))


def test_coeff_accessor():
    p = Poly([1, 2, 3])
    assert p.coeff(1) == 2
    assert p.coeff(7) == 0j


def test_coeff_bound_dominates():
    p = Poly([1, -2, 3j])
    r = 2.5
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert abs(p(r * np.exp(1j * theta))) <= p.coeff_bound(r) + 1e-12


def test_coeffs_read_only():
    p = Poly([1, 2])
    with pytest.raises(ValueError):
        p.coeffs[0] = 5
