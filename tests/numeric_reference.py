"""References for tests.

log2_enclosure_reference: m = floor(denom * log2(x)) by the exact
comparison 2**m * q**denom <= p**denom, as `icbounds.numeric` computed it
before the fixed-point squaring.  The two must return the same enclosure.

is_prime_reference: trial division, as `icbounds.numeric.is_prime` ran
before its Miller-Rabin test; lucas_lehmer decides a Mersenne number
2^q - 1, for a prime too large to divide by trial."""

from __future__ import annotations

import math
from fractions import Fraction


def log2_enclosure_reference(x: Fraction, denom: int = 2**16) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    p, q = x.numerator, x.denominator
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


def is_prime_reference(p: int) -> bool:
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


def lucas_lehmer(q: int) -> bool:
    """Whether 2^q - 1 is prime, for an odd prime q."""
    m = (1 << q) - 1
    s = 4
    for _ in range(q - 2):
        s = (s * s - 2) % m
    return s == 0
