"""Kernel primitives against loop-based oracles, and the module contract."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapprox import _kernel, sring
from sapprox.counting import count_solutions
from sapprox.sampler import random_request


def oracle_count_in_ap_int(lo, hi, r, M):
    return sum(1 for b in range(lo, hi + 1) if (b - r) % M == 0)


def rational_count_in_ap(lo_num, lo_den, hi_num, hi_den, residue, modulus):
    """AP count with rational endpoints lo_num/lo_den and hi_num/hi_den: the
    rational-endpoint entry point, which takes its own ceil and floor before
    calling ``_kernel.count_in_ap_int``."""
    return sring.count_in_ap(
        Fraction(lo_num, lo_den), Fraction(hi_num, hi_den), residue, modulus
    )


# The id keeps the names these two tests had while the kernel had several lanes.
RATIONAL_COUNT = [pytest.param(rational_count_in_ap, id="sapprox._kernel._pure")]


@pytest.mark.parametrize("count_in_ap", RATIONAL_COUNT)
def test_count_in_ap_examples(count_in_ap):
    assert count_in_ap(0, 1, 10, 1, 1, 3) == 4  # {1, 4, 7, 10}
    assert count_in_ap(5, 1, 4, 1, 0, 1) == 0  # empty interval
    assert count_in_ap(-7, 1, 7, 1, 2, 5) == 3  # {-3, 2, 7}


def test_count_in_ap_random_vs_loop():
    rng = random.Random(20260810)
    for _ in range(1000):
        lo = rng.randint(-200, 200)
        hi = rng.randint(-200, 200)
        r = rng.randint(-50, 50)
        M = rng.randint(1, 30)
        assert _kernel.count_in_ap_int(lo, hi, r, M) == oracle_count_in_ap_int(lo, hi, r, M)


@pytest.mark.parametrize("count_in_ap", RATIONAL_COUNT)
def test_count_in_ap_rational_endpoints(count_in_ap):
    rng = random.Random(7)
    for _ in range(400):
        ln, ld = rng.randint(-500, 500), rng.randint(1, 9)
        hn, hd = rng.randint(-500, 500), rng.randint(1, 9)
        r, M = rng.randint(-20, 20), rng.randint(1, 12)
        lo = Fraction(ln, ld)
        hi = Fraction(hn, hd)
        expected = sum(
            1
            for b in range(-600, 601)
            if lo <= b <= hi and (b - r) % M == 0
        )
        assert count_in_ap(ln, ld, hn, hd, r, M) == expected


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
    """The counter looks every primitive up on the module at call time, so a
    wrapper patched onto ``_kernel`` (as per-layer tracing does) sees calls."""
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
    assert calls.get("count_in_ap_int", 0) > 0
    assert _kernel.implementation_name() == "pure"
