import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from dwnls.errors import ConvergenceFailure
from dwnls.roots import brentq


@settings(max_examples=300, deadline=None)
@given(c=st.floats(-5.0, 5.0), p=st.floats(0.2, 3.0), q=st.floats(-2.0, 2.0),
       lo=st.floats(-8.0, -0.01), hi=st.floats(0.01, 8.0),
       kind=st.sampled_from(["cubic", "exp", "tanh"]),
       rtol=st.sampled_from([4 * 2.0**-52, 1e-10, 1e-6]),
       xtol=st.sampled_from([2e-12, 1e-13, 1e-4]))
def test_matches_scipy_bit_for_bit(c, p, q, lo, hi, kind, rtol, xtol):
    f = {"cubic": lambda x: (x - c) ** 3 + p * (x - c) + q * 1e-3,
         "exp": lambda x: math.exp(p * x) - math.exp(p * c) + q * 1e-9,
         "tanh": lambda x: math.tanh(p * (x - c)) + q * 1e-12}[kind]
    a, b = c + lo, c + hi
    if (f(a) < 0) == (f(b) < 0):
        with pytest.raises(ValueError):
            brentq(f, a, b, xtol=xtol, rtol=rtol)
        return
    want = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)
    got = brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert got.hex() == float(want).hex()


def test_endpoint_roots_and_refusals():
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="rtol"):
        brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0)
    with pytest.raises(ConvergenceFailure):
        brentq(lambda x: x**3 - 0.3, 0.0, 1.0, maxiter=2)
