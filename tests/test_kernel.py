"""Kernel primitives against loop-based oracles, and the module contract."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sapprox import _kernel
from sapprox.checks import check_kernel_ap
from sapprox.counting import count_solutions, x_region_volume_mc
from sapprox.sampler import random_request


def test_count_in_ap_examples():
    assert _kernel.count_in_ap_int(0, 10, 1, 3) == 4  # {1, 4, 7, 10}
    assert _kernel.count_in_ap_int(5, 4, 0, 1) == 0  # empty interval
    assert _kernel.count_in_ap_int(-7, 7, 2, 5) == 3  # {-3, 2, 7}


def test_count_in_ap_random_vs_loop():
    # random rational endpoints, integer ones included
    ok, detail = check_kernel_ap(random.Random(20260810), rounds=2400)
    assert ok, detail


@given(x=st.integers(min_value=0, max_value=10**40), e=st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_introot_is_floor_root(x, e):
    r = _kernel.introot(x, e)
    assert r >= 0
    assert r**e <= x < (r + 1) ** e


@given(
    n=st.integers(min_value=-(10**18), max_value=10**18).filter(lambda v: v != 0),
    p=st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=300, deadline=None)
def test_valuation_definition(n, p):
    v = _kernel.valuation(n, p)
    assert n % p**v == 0
    assert (n // p**v) % p != 0


def test_counter_calls_kernel_through_module(monkeypatch):
    """The counter and the fibre oracle look every primitive up on the
    module at call time, so a wrapper patched onto ``_kernel`` (as per-layer
    tracing does) sees calls."""
    calls = {}
    for name in ("valuation", "introot", "count_in_ap_int"):
        fn = getattr(_kernel, name)

        def counted(*args, _name=name, _fn=fn):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(_kernel, name, counted)
    req = random_request(random.Random(5))  # S = {inf, 2, 3}, power-law psi, N = 5
    count_solutions(req)
    assert calls.get("valuation", 0) > 0
    assert calls.get("introot", 0) > 0
    # the counter's walk needs no progression count; the fibre oracle does
    calls.clear()
    x_region_volume_mc((Fraction(3, 2),), req.psi, req.places, 50, seed=5)
    assert calls.get("count_in_ap_int", 0) == 50
    assert _kernel.implementation_name() == "pure"
