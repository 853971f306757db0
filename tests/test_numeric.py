import math
from fractions import Fraction

from icbounds.numeric import (
    ceil_root,
    format_rational,
    iroot,
    is_prime,
    log2_enclosure,
    next_prime,
    parse_rational,
    pow_frac_ceil,
    pow_frac_enclosure,
)


def test_rational_io():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational(3) == 3
    assert format_rational(Fraction(7, 3)) == "7/3"
    assert format_rational(Fraction(4)) == "4"


def test_iroot_exact():
    for t in range(0, 200):
        for k in (1, 2, 3, 5):
            r = iroot(t, k)
            assert r**k <= t < (r + 1) ** k
            c = ceil_root(t, k)
            assert (c - 1) ** k < t <= c**k or (t == 0 and c == 0)


def test_pow_frac_ceil():
    # ceil(n^{1-1/k})
    for n in range(1, 60):
        for k in (1, 2, 3, 4):
            want = math.ceil(n ** (1 - 1 / k) - 1e-9)
            assert pow_frac_ceil(n, k) == want


def test_pow_frac_enclosure_brackets():
    for n in (2, 5, 17, 100):
        for k in (2, 3, 5):
            lo, hi = pow_frac_enclosure(n, k)
            x = n ** (1 - 1 / k)
            assert float(lo) <= x <= float(hi)
            assert hi - lo < Fraction(1, 10**5)
            # the upper end must be certified: hi^k >= n^{k-1} exactly
            assert hi.numerator**k >= n ** (k - 1) * hi.denominator**k


def test_log2_enclosure():
    for x in (Fraction(2), Fraction(10), Fraction(7, 3), Fraction(1, 5)):
        lo, hi = log2_enclosure(x)
        assert float(lo) <= math.log2(float(x)) <= float(hi)
        assert hi - lo <= Fraction(2, 2**16)


def test_primes():
    primes = [2, 3, 5, 7, 11, 13, 8191, 1_000_003]
    for p in primes:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 8189, 1_000_001):
        assert not is_prime(c)
    assert next_prime(14) == 17
    assert next_prime(2) == 3
