"""Exact-arithmetic helpers: rational parsing, integer roots, log enclosures, primality."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or a bare integer / int value) into a Fraction.  A bool
    raises ValueError rather than being read as 0 or 1."""
    if isinstance(s, bool):
        raise ValueError(f"{str(s).lower()} is not a rational")
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
    """Rational enclosure [m/denom, (m+1)/denom] of log2(x) for rational
    x > 0, with m = floor(denom * log2(x)) exact; denom is a power of two."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log2 of non-positive value")
    k = denom.bit_length() - 1
    if denom != 1 << k:
        raise ValueError("log2 enclosure needs a power-of-two denominator")
    p, q = x.numerator, x.denominator
    # x = 2**e * P/Q with 1 <= P/Q < 2, so m = e * denom + floor(denom * log2(P/Q)).
    e = p.bit_length() - q.bit_length()
    if p << max(-e, 0) < q << max(e, 0):
        e -= 1
    num, den = p << max(-e, 0), q << max(e, 0)
    # Each squaring doubles the relative rounding error, so 80 bits keep
    # about 64 through 2**16's 16 digits; the two passes then disagree only
    # that close to a digit boundary, and a wider pass settles it.
    width = 80
    while (digits := _log2_bits(num, den, k, width, up=False)) != _log2_bits(num, den, k, width, up=True):
        width *= 2
    m = (e << k) + digits
    return Fraction(m, denom), Fraction(m + 1, denom)


def _log2_bits(p: int, q: int, k: int, width: int, up: bool) -> int:
    """The first k binary digits of log2(p/q) for 1 <= p/q < 2, i.e.
    floor(2**k * log2(p/q)), by repeated squaring in fixed point with
    `width` fractional bits.  Rounding every step down gives a lower bound
    on the exact digits, rounding up an upper one; equal bounds are exact."""
    two = 2 << width
    y = -((-p << width) // q) if up else (p << width) // q
    bits = 0
    for _ in range(k):
        y = -(-y * y >> width) if up else y * y >> width
        bits <<= 1
        if y >= two:
            bits |= 1
            y = -(-y >> 1) if up else y >> 1
    return bits


# Miller-Rabin over the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# 2015); the bound itself is a strong pseudoprime to all of them.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over PRIME_BASES, exact for every p below
    PRIME_TEST_BOUND (about 3.3 * 10^24); a larger p raises ValueError."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"is_prime is exact only below {PRIME_TEST_BOUND}, not for {p}")
    if p < 2:
        return False
    for b in PRIME_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # b witnesses that p is composite
    return True


def next_prime(p: int) -> int:
    """Smallest prime strictly greater than p."""
    q = p + 1
    while not is_prime(q):
        q += 1
    return q
