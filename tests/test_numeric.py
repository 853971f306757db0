import math
import random
from fractions import Fraction

import pytest
from numeric_reference import is_prime_reference, log2_enclosure_reference, lucas_lehmer

from icbounds import numeric
from icbounds.numeric import (
    PRIME_TEST_BOUND,
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


def _just_below_a_digit(j: int, k: int) -> Fraction:
    """floor(2^(j / 2^k) * 2^300) / 2^300, by k integer square roots in
    fixed point with 40 guard bits."""
    r = 1 << (j + 340)
    for _ in range(k):
        r = math.isqrt(r << 340)
    return Fraction(r >> 40, 2**300)


@pytest.mark.parametrize("k", [12, 16])
def test_log2_enclosure_widens_next_to_a_digit_boundary(monkeypatch, k):
    # x lies within 2^-300 below the digit boundary j / 2^k and x + 2^-300
    # above it: the 80- and 160-bit passes disagree there, and the 320-bit
    # pass settles the digit, j - 1 for x and j for x + 2^-300
    widths = []
    passes = numeric._log2_bits

    def spy(p, q, k, width, up):
        widths.append(width)
        return passes(p, q, k, width, up)

    monkeypatch.setattr(numeric, "_log2_bits", spy)
    for j in (1, 3, 12345, 40000):
        x = _just_below_a_digit(j, k)
        for y, digit in ((x, j - 1), (x + Fraction(1, 2**300), j)):
            widths.clear()
            lo, hi = log2_enclosure(y, 2**k)
            assert lo == Fraction(digit, 2**k)
            assert widths == [80, 80, 160, 160, 320, 320]
            if k == 12:  # at 2^16 the reference's y ** 2^16 takes seconds
                assert (lo, hi) == log2_enclosure_reference(y, 2**k)


def test_primes():
    primes = [2, 3, 5, 7, 11, 13, 8191, 1_000_003]
    for p in primes:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 8189, 1_000_001):
        assert not is_prime(c)
    assert next_prime(14) == 17
    assert next_prime(2) == 3


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
              52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065]


def test_miller_rabin_matches_trial_division():
    for n in range(-3, 10**5):
        assert is_prime(n) == is_prime_reference(n), n
    # Carmichael numbers, and strong pseudoprimes to the bases 2 (2047,
    # 3277), 2..7 (3215031751) and 2..23 (3825123056546413051), all
    # composite with a factor small enough for trial division
    for n in CARMICHAEL + [2047, 3277, 3215031751, 3825123056546413051]:
        assert not is_prime(n) and not is_prime_reference(n), n
    # every n next to the primes 2^40 + 15 and 2^46 - 57 and 2^46 + 15
    for n in [*range(2**40 - 30, 2**40 + 30), *range(2**46 - 58, 2**46 - 54),
              *range(2**46 + 14, 2**46 + 17)]:
        assert is_prime(n) == is_prime_reference(n), n
    assert is_prime(2**40 + 15) and is_prime(2**46 - 57) and is_prime(2**46 + 15)


def test_miller_rabin_near_two_to_the_61():
    # 2^61 - 1 is prime by the Lucas-Lehmer test, 2^67 - 1 is not; the
    # semiprimes p * q of primes just above 2^30.5 are composite by
    # construction
    assert lucas_lehmer(61) and is_prime(2**61 - 1)
    assert not lucas_lehmer(67) and not is_prime(2**67 - 1)
    primes = [p for p in range(1_518_500_250, 1_518_500_500) if is_prime_reference(p)]
    assert all(is_prime(p) for p in primes) and len(primes) > 5
    for p, q in zip(primes, primes[1:]):
        assert not is_prime(p * q)
        assert not is_prime(p * p)
    for n in range(2**61 - 9, 2**61 + 10, 2):
        if any(n % d == 0 for d in range(3, 100_000, 2)):
            assert not is_prime(n), n


def test_miller_rabin_needs_every_base_and_stops_at_its_bound():
    # a strong pseudoprime to every prime base up to 37, which base 41
    # exposes; the bound itself fools all thirteen bases, so it is refused
    n = 399165290221 * 798330580441
    assert not is_prime(n)
    assert PRIME_TEST_BOUND == 1287836182261 * 2575672364521
    assert not is_prime(PRIME_TEST_BOUND - 1)  # just below the bound: an answer
    with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
        is_prime(PRIME_TEST_BOUND)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(2**127 - 1)
