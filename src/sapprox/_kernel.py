"""Counting kernel.

Exact integer primitives used by the hot per-candidate loop of the solution
counter: p-adic valuations of integers, integer k-th roots, and closed-form
counts of arithmetic-progression points inside intervals.

Callers look these up as ``_kernel.<name>`` at call time rather than
importing the functions, so a wrapper patched onto this module (for
per-layer timing) sees every call.

Everything here is arbitrary-precision and branch-exact: no floats, no
rounding, no iteration over the counted range.
"""

from math import isqrt


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n.  Requires n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity; handle upstream")
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def introot(x: int, e: int) -> int:
    """floor(x ** (1/e)) for x >= 0, exact."""
    if x < 0:
        raise ValueError("introot requires x >= 0")
    if e < 1:
        raise ValueError("introot requires e >= 1")
    if e == 1 or x < 2:
        return x
    if e == 2:
        return isqrt(x)
    if x.bit_length() <= e:
        return 1
    # Newton iteration from an over-estimate; converges monotonically down.
    r = 1 << ((x.bit_length() - 1) // e + 1)
    while True:
        nr = ((e - 1) * r + x // r ** (e - 1)) // e
        if nr >= r:
            break
        r = nr
    while r**e > x:
        r -= 1
    while (r + 1) ** e <= x:
        r += 1
    return r


def count_in_ap_int(lo: int, hi: int, residue: int, modulus: int) -> int:
    """#{b in Z : lo <= b <= hi, b = residue (mod modulus)}, closed form."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if lo > hi:
        return 0
    return (hi - residue) // modulus - (lo - 1 - residue) // modulus


def implementation_name() -> str:
    """The kernel lane, recorded in benchmark stamps: always 'pure'."""
    return "pure"
