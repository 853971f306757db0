"""Reference log2 enclosure for tests: m = floor(denom * log2(x)) by the
exact comparison 2**m * q**denom <= p**denom, as `icbounds.numeric`
computed it before the fixed-point squaring.  The two must return the same
enclosure."""

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
