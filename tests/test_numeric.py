import math
import random
from fractions import Fraction

import pytest
from numeric_reference import log2_enclosure_reference

from icbounds import numeric
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
        assert hi - lo == Fraction(1, 2**16)
    with pytest.raises(ValueError, match="power-of-two"):
        log2_enclosure(Fraction(3), 10)


def test_log2_enclosure_matches_exponentiation_on_ratio_bound_inputs():
    # ratio_bound encloses log2(n), then log2 of that enclosure's upper end:
    # both must equal the p**denom comparison's, on powers of two, 2^k +- 1
    # and seeded n
    rng = random.Random(13)
    ns = [2**k + d for k in range(2, 14) for d in (-1, 0, 1)] + [rng.randint(4, 10_000) for _ in range(50)]
    for n in ns:
        lo, hi = log2_enclosure(Fraction(n))
        assert (lo, hi) == log2_enclosure_reference(Fraction(n))
        assert log2_enclosure(hi) == log2_enclosure_reference(hi)


def test_log2_enclosure_matches_exponentiation_on_fractions():
    rng = random.Random(14)
    for _ in range(500):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        denom = 2 ** rng.randint(0, 10)
        assert log2_enclosure(x, denom) == log2_enclosure_reference(x, denom)


def test_log2_digit_passes_bracket_the_exact_digits():
    # at any width the rounded-down pass is a lower bound and the rounded-up
    # pass an upper bound; narrow widths disagree, which log2_enclosure
    # answers by doubling the width
    rng = random.Random(15)
    disagree = 0
    for _ in range(300):
        p = rng.randint(2**20, 2**21 - 1)  # p / 2^20 in [1, 2)
        exact = log2_enclosure_reference(Fraction(p, 2**20), 2**10)[0] * 2**10
        for width in (4, 12, 80):
            lo = numeric._log2_bits(p, 2**20, 10, width, up=False)
            hi = numeric._log2_bits(p, 2**20, 10, width, up=True)
            assert lo <= exact <= hi
            disagree += lo != hi
    assert disagree > 100


def test_primes():
    primes = [2, 3, 5, 7, 11, 13, 8191, 1_000_003]
    for p in primes:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 8189, 1_000_001):
        assert not is_prime(c)
    assert next_prime(14) == 17
    assert next_prime(2) == 3
