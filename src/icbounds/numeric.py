"""Exact-arithmetic helpers: rational parsing, integer roots, log enclosures, small primes."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or a bare integer / int value) into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s).strip())


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def iroot(t: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if t < 0:
        raise ValueError("iroot of negative number")
    if t in (0, 1) or k == 1:
        return t
    r = int(round(t ** (1.0 / k)))
    while r > 0 and r**k > t:
        r -= 1
    while (r + 1) ** k <= t:
        r += 1
    return r


def ceil_root(t: int, k: int) -> int:
    """Smallest integer d with d**k >= t."""
    r = iroot(t, k)
    return r if r**k == t else r + 1


def pow_frac_ceil(n: int, k: int) -> int:
    """Smallest integer d with d >= n**(1 - 1/k), i.e. d**k >= n**(k-1)."""
    return ceil_root(n ** (k - 1), k)


def pow_frac_enclosure(n: int, k: int, denom: int = 10**6) -> tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of n**(1-1/k) with hi - lo <= 1/denom.

    hi is certified: hi**k >= n**(k-1) exactly.
    """
    target = n ** (k - 1) * denom**k
    m = ceil_root(target, k)
    hi = Fraction(m, denom)
    lo = Fraction(m - 1, denom)
    if lo < 0:
        lo = Fraction(0)
    return lo, hi


def log2_enclosure(x: Fraction, denom: int = 2**16) -> tuple[Fraction, Fraction]:
    """Rational enclosure of log2(x) for rational x > 0, width 1/denom."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2 of non-positive value")
    p, q = x.numerator, x.denominator
    # m = floor(denom * log2(x)) via exact comparison 2**m * q**denom <= p**denom.
    import math

    guess = int(math.floor(denom * math.log2(p) - denom * math.log2(q)))
    pd, qd = p**denom, q**denom

    def le(m):  # 2**m <= x**denom
        if m >= 0:
            return (qd << m) <= pd
        return qd <= (pd << (-m))

    m = guess
    while not le(m):
        m -= 1
    while le(m + 1):
        m += 1
    return Fraction(m, denom), Fraction(m + 1, denom)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def next_prime(p: int) -> int:
    """Smallest prime strictly greater than p."""
    q = p + 1
    while not is_prime(q):
        q += 1
    return q
