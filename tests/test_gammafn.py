"""Gamma-family primitives: frozen oracle values and functional identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import gammafn
from fracspec.errors import DomainError

# mpmath.gamma at 40 significant digits, frozen
GAMMA_ORACLE = [
    (0.1, "9.513507698668731285808"),
    (0.5, "1.772453850905516027298"),
    (1.0, "1.0"),
    (3.7, "4.170651783796604030087"),
    (12.3, "83385367.89997000096271"),
    (56.0, "1.269640335365827592597e+73"),
    (101.25, "2.955837447543366894935e+158"),
    (134.9, "1.22078347700172093368e+228"),
    (170.5, "5.562092414559999610706e+305"),
    (-0.5, "-3.544907701811032054596"),
    (-2.5, "-0.9453087204829418812257"),
    (-7.3, "0.0004183878730135480213331"),
    (-33.7, "3.800229568291706719349e-38"),
]


@pytest.mark.parametrize("x,expected", GAMMA_ORACLE)
def test_gamma_oracle(x, expected):
    want = float(expected)
    got = float(gammafn.gamma(x))
    tol = 1e-13 if x <= 135.0 else 5e-13
    assert got == pytest.approx(want, rel=tol)


@pytest.mark.parametrize("x,expected", GAMMA_ORACLE)
def test_rgamma_matches_reciprocal(x, expected):
    want = 1.0 / float(expected)
    got = float(gammafn.rgamma(x))
    tol = 1e-13 if x <= 135.0 else 5e-13
    assert got == pytest.approx(want, rel=tol)


@pytest.mark.parametrize("x,expected", [(x, e) for x, e in GAMMA_ORACLE if x > 0])
def test_lgamma_oracle(x, expected):
    want = math.log(abs(float(expected)))
    got = float(gammafn.lgamma(x))
    # near x=1 the log passes through 0; compare absolutely there
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_gamma_integers_and_half_integers():
    for n in range(1, 20):
        assert float(gammafn.gamma(float(n))) == pytest.approx(
            math.factorial(n - 1), rel=1e-13
        )
    assert float(gammafn.gamma(1.5)) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)


def test_rgamma_vanishes_at_poles():
    xs = np.array([0.0, -1.0, -2.0, -5.0, -40.0])
    assert np.all(gammafn.rgamma(xs) == 0.0)


def test_rgamma_vectorized_mixed_signs():
    xs = np.array([-2.5, -0.5, 0.1, 1.0, 7.7, 120.0])
    got = gammafn.rgamma(xs)
    for x, g in zip(xs, got):
        assert float(g) == pytest.approx(1.0 / float(gammafn.gamma(float(x))), rel=1e-13)


def test_lgamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gammafn.lgamma(0.0)
    with pytest.raises(DomainError):
        gammafn.lgamma(-3.2)


# at and past the edges of libm's gamma range: mpmath at 40 significant
# digits, frozen, as (x, 1/Gamma(x), log|Gamma(x)|)
RGAMMA_EDGE_ORACLE = [
    (1e-300, "1.0e-300", "690.7755278982137052053974"),
    (171.7, "3.770398861934029628385692e-309", "710.1716129403750148718214"),
    (200.0, "2.535953906961924843506033e-373", "857.9336698258574368182534"),
    (-170.5, "-3.018649650835053752241911e+307", "-707.9984331450788420982205"),
    (-180.5, "-8.597276862830757525618376e+329", "-759.7019411043013522751016"),
]


@pytest.mark.parametrize("x,recip,loggamma", RGAMMA_EDGE_ORACLE)
def test_rgamma_lgamma_past_libm_range(x, recip, loggamma):
    want = float(recip)
    got = float(gammafn.rgamma(x))
    if want == 0.0 or math.isinf(want):
        # 1/Gamma(200) underflows to 0; 1/Gamma(-180.5) exceeds the double range
        assert got == want
    else:
        assert got == pytest.approx(want, rel=5e-13)
    if x > 0:
        assert float(gammafn.lgamma(x)) == pytest.approx(float(loggamma), rel=1e-13)


def test_array_results_bit_equal_to_scalar_calls():
    xs = np.array(
        [0.0, -1.0, -40.0, -0.5, -33.7, -170.5, -180.5, -1e-300, 1e-300, 1e-320,
         0.1, 3.7, 170.5, 171.7, 200.0, 1e6]
    ).reshape(4, 4)
    for fn, arg in (
        (gammafn.gamma, xs),
        (gammafn.rgamma, xs),
        (gammafn.lgamma, xs[xs > 0.0]),
    ):
        got = fn(arg)
        assert isinstance(got, np.ndarray) and got.shape == arg.shape
        want = np.array([fn(float(x)) for x in arg.ravel()]).reshape(arg.shape)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.05, max_value=80.0))
def test_gamma_recurrence(x):
    lhs = float(gammafn.gamma(x + 1.0))
    rhs = x * float(gammafn.gamma(x))
    assert lhs == pytest.approx(rhs, rel=5e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.02, max_value=0.98))
def test_gamma_reflection(x):
    # Gamma(x) Gamma(1-x) sin(pi x) = pi
    prod = float(gammafn.gamma(x)) * float(gammafn.gamma(1.0 - x))
    assert prod * math.sin(math.pi * x) == pytest.approx(math.pi, rel=5e-13)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-60.0, max_value=-0.01))
def test_rgamma_negative_axis_recurrence(x):
    # 1/Gamma(x) = x / Gamma(x+1), also valid across poles
    if abs(x - round(x)) < 1e-6:
        return  # pole neighborhoods: both sides lose relative meaning
    lhs = float(gammafn.rgamma(x))
    rhs = x * float(gammafn.rgamma(x + 1.0))
    assert lhs == pytest.approx(rhs, rel=2e-12, abs=1e-300)
