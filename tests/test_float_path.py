"""The float path: calls whose numeric arguments are all Python floats.

Each such call must give what the array path gives, bit for bit (so the
sign of a zero counts), as a Python float, and must raise the same error
class with the same message. The array path is called on np.float64 scalars,
which must give the very same outcome, and on 1-element arrays, whose one
element must hold the same bits. The array path may warn where the float path
is silent (overflow on a subnormal eta, division by a zero price); only the
values are compared.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairtrade import spread, trading
from pairtrade.domain import DomainError
from pairtrade.spread import CointegrationSpread, StationaryPointError, spread_gradient
from pairtrade.trading import threshold_approx, threshold_exact

TINY = 5e-324  # the smallest subnormal
SUB = 1e-320  # a subnormal eta: a bound of 0.005 over 2 eta overflows to inf
# a quiet NaN with a payload: numpy's scalar and array additions pass on
# different ones of two NaN operands
NAN1 = struct.unpack("d", struct.pack("Q", 0x7FF8000000000001))[0]

betas = st.one_of(
    st.sampled_from([-3.0, -0.5, -0.0, 0.0, 0.3, 1.0, 2.0, 7.5]),
    st.floats(min_value=-1e6, max_value=1e6),
)
prices = st.one_of(
    st.sampled_from([100.0, 50.0, 0.0, -0.0, TINY, SUB, 1e300, math.inf, math.nan, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)
gammas = st.one_of(
    st.sampled_from([0.05, 0.5, 0.999, TINY, 0.0, 1.0, -0.1, 1.5, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
etas = st.one_of(
    st.sampled_from([1.0, 0.2, 0.0, -0.0, -1.0, TINY, SUB, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def outcome(f, *args):
    """("ok", (bits, ...), (type, ...)) or ("err", class, message)."""
    try:
        with np.errstate(all="ignore"):
            out = f(*args)
    except (DomainError, StationaryPointError) as err:
        return "err", type(err), str(err)
    out = out if isinstance(out, tuple) else (out,)
    return "ok", tuple(bits(np.asarray(x).reshape(-1)[0]) for x in out), tuple(map(type, out))


def check_paths(f, *args, float_path=True):
    """f on floats against f on np.float64 scalars and on 1-element arrays;
    float_path=False for float inputs that must go to the array path."""
    assert all(type(x) is float for x in args)
    got = outcome(f, *args)
    scalar = outcome(f, *map(np.float64, args))
    one = outcome(f, *(np.array([x]) for x in args))
    if got[0] == "ok":
        assert (set(got[2]) == {float}) is float_path
        assert scalar[:2] == got[:2]
        assert one[:2] == got[:2]
    else:
        assert scalar == got
        assert one[:2] == got[:2]
        assert one[2] in (got[2], got[2] + " at index [0]")
    return got


@given(betas, prices, prices, gammas, etas)
@settings(max_examples=400, deadline=None)
@example(2.0, 100.0, 50.0, 0.05, SUB)
@example(2.0, 100.0, 50.0, 0.05, -0.0)
@example(2.0, 100.0, 50.0, 1.5, 1.0)
@example(2.0, 100.0, 50.0, 0.05, math.inf)
@example(2.0, 100.0, 50.0, 0.999, 1e308)
@example(0.0, 0.0, 0.0, 0.05, TINY)
@example(-3.0, 0.0, NAN1, 0.05, 1.0)
def test_thresholds(beta, p1, p2, gamma, eta):
    model = CointegrationSpread(beta, 0.0)
    check_paths(lambda *a: threshold_exact(model, *a), p1, p2, gamma, eta)
    check_paths(lambda *a: threshold_approx(model, *a), p1, p2, gamma, eta)


@given(betas, prices, prices, gammas)
@settings(max_examples=400, deadline=None)
@example(2.0, 0.0, 50.0, 0.05)
@example(-0.5, TINY, -0.0, 1.0)
@example(0.0, math.nan, math.inf, 0.5)
def test_gradient_and_curvature_bound(beta, p1, p2, gamma):
    model = CointegrationSpread(beta, 0.0)
    # a zero price would raise ZeroDivisionError in floats, and so would gamma 1
    nonzero = p1 != 0.0 and p2 != 0.0
    check_paths(model.gradient, p1, p2, float_path=nonzero)
    check_paths(lambda *a: spread_gradient(model, *a), p1, p2, float_path=nonzero)
    check_paths(model.curvature_bound, p1, p2, gamma, float_path=gamma != 1.0)


@pytest.mark.parametrize(
    "f, args, cls, message",
    [
        (threshold_exact, (100.0, 50.0, 1.5, 1.0), DomainError,
         "gamma must lie in (0, 1), got 1.5"),
        (threshold_approx, (100.0, 50.0, 0.05, math.nan), DomainError,
         "eta must be finite, got nan"),
        (spread_gradient, (100.0, math.inf), StationaryPointError,
         "spread gradient vanishes at (100.0, inf)"),
    ],
)
def test_errors_read_alike(f, args, cls, message):
    model = CointegrationSpread(0.0, 0.0)
    assert check_paths(lambda *a: f(model, *a), *args) == ("err", cls, message)


@pytest.mark.parametrize("f, args", [
    (threshold_exact, (100.0, 50.0, 0.05, 1.0)),
    (threshold_approx, (100.0, 50.0, 0.05, 1.0)),
    (spread_gradient, (100.0, 50.0)),
    (lambda m, *a: m.gradient(*a), (100.0, 50.0)),
    (lambda m, *a: m.curvature_bound(*a), (100.0, 50.0, 0.05)),
])
def test_one_array_argument_takes_the_array_path(f, args):
    model = CointegrationSpread(-0.5, 0.0)
    for i in range(len(args)):
        pair = np.array([args[i], args[i] * 0.5])
        mixed = f(model, *args[:i], pair, *args[i + 1:])
        arrays = f(model, *(pair if j == i else np.array([x, x]) for j, x in enumerate(args)))
        for a, b in zip(*(out if isinstance(out, tuple) else (out,) for out in (mixed, arrays))):
            np.testing.assert_array_equal(np.broadcast_to(a, b.shape), b)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"the float path reached numpy: np.{name}")


def test_float_path_makes_no_numpy_call(monkeypatch):
    model = CointegrationSpread(2.0, 0.0)
    monkeypatch.setattr(trading, "np", _NoNumpy())
    monkeypatch.setattr(spread, "np", _NoNumpy())
    assert threshold_exact(model, 100.0, 50.0, 0.05, 1.0) == (0.05 / 0.95) ** 2
    assert spread_gradient(model, 100.0, 50.0) == (-0.02, 0.02)
