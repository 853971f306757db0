"""Executable linear index codes and a decodability check.

A CodeScheme is uniform: every message is d symbols over a prime field, the
broadcast is the encoder matrix applied to the concatenated message symbols,
and each receiver has a linear decoder (a combination of broadcast symbols
and its own side-information symbols).  verify_code folds the code into one
residual map M = (C_b E + C_s) mod p, whose row k*d + t gives decoder k's
symbol t minus the symbol it wants, so a vector x decodes wrong iff one of
its decoder's rows of M x is nonzero.  The code therefore decodes all
p^(n*d) message vectors iff M is zero: exhaustive mode proves that by
looking at M, and when M is not zero it walks the failing vectors in index
order to report the first counterexamples.  Random mode, a simulation kept
as a cross-check, is answered by M as well when M is zero (every vector
decodes, so no draw can fail, and none is made); otherwise it applies M to
seeded random vectors in float64, exact below 2^53.  A field too large for
exact arithmetic is refused with CapExceeded rather than decided on rounded
arithmetic.  The code's coefficients are read into int64 arrays once, and
the locality of every decoder is one mask test on them.

Constructions: the strong-cover code (an integer clique cover is the strong
cover with weight 1 per clique), the MDS weak-cover code, the minrank code
of any instance's fitting matrix, and the two-symbol code of a rate-2
instance.  Each builds only its encoder; every decoder is solved from the
encoder by one `combinatorial.row_reduce` per receiver, which also refuses
an encoder some receiver cannot decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from .combinatorial import FractionalCover, MinrkResult, row_reduce
from .instance import CapExceeded, Graph, Instance, from_graph
from .numeric import next_prime

RANDOM_TRIALS = 100_000
MAX_FAILURES = 5  # counterexamples kept per report
# Encoder entries a cover code may have.  The largest code any caller builds,
# projective-Hadamard q = 5's strong cover (1 000 x 7 000), has 7 * 10^6.
CODE_SIZE_CAP = 10**7


@dataclass
class DecoderSpec:
    """x_f(j) = bcast_coef @ broadcast + side_coef @ message_symbols, mod p.
    side_coef may only touch columns of messages in N(j)."""

    receiver: int
    bcast_coef: list[list[int]]  # d x (#broadcast rows)
    side_coef: list[list[int]]  # d x (n*d)


@dataclass
class CodeScheme:
    field: int
    msg_symbols: int  # d: symbols per message
    encoder: list[list[int]]  # (#broadcast rows) x (n*d)
    decoders: list[DecoderSpec]
    rate: Fraction
    kind: str = ""

    @property
    def broadcast_symbols(self) -> int:
        return len(self.encoder)


@dataclass
class VerificationReport:
    mode: str  # "exhaustive" | "random"
    trials: int
    seed: int | None
    failures: list[tuple[tuple[int, ...], int]]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_decoder_locality(inst: Instance, scheme: CodeScheme, sc: np.ndarray) -> None:
    """Refuse a decoder whose side_coef rows (sc, reduced mod p) read a
    message outside its N(j), naming the first offender in decoder, row
    and column order."""
    d, decs = scheme.msg_symbols, len(scheme.decoders)
    local = np.zeros((decs, inst.n), bool)
    for k, dec in enumerate(scheme.decoders):
        local[k, list(inst.receivers[dec.receiver].knows)] = True
    bad = sc.reshape(decs, d, inst.n, d).astype(bool) & ~local[:, None, :, None]
    if bad.any():
        k, _, v, _ = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"decoder {scheme.decoders[k].receiver} reads message {v} outside N(j)")


def _check_shapes(inst: Instance, scheme: CodeScheme) -> None:
    """Every encoder row has n*d entries, and every decoder d rows of
    broadcast_symbols and of n*d coefficients."""
    d, rows, cols = scheme.msg_symbols, scheme.broadcast_symbols, inst.n * scheme.msg_symbols
    if any(len(row) != cols for row in scheme.encoder):
        raise ValueError(f"encoder rows must have n*d = {cols} entries")
    for dec in scheme.decoders:
        if len(dec.bcast_coef) != d or len(dec.side_coef) != d:
            raise ValueError(f"decoder {dec.receiver} must have d = {d} rows")
        if any(len(row) != rows for row in dec.bcast_coef) or any(len(row) != cols for row in dec.side_coef):
            raise ValueError(f"decoder {dec.receiver} rows must have {rows} broadcast and {cols} side entries")


def _coefficients(inst: Instance, scheme: CodeScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E (the encoder), C_b (the decoders' bcast_coef rows) and C_s (their
    side_coef rows) as int64 arrays reduced mod p, one row per decoder
    symbol in C_b and C_s.  An entry that does not fit int64 raises
    ValueError."""
    p, d = scheme.field, scheme.msg_symbols
    rows, cols, checks = scheme.broadcast_symbols, inst.n * d, len(scheme.decoders) * d
    try:
        enc = np.array(scheme.encoder, np.int64).reshape(rows, cols)
        bc = np.array([dec.bcast_coef for dec in scheme.decoders], np.int64).reshape(checks, rows)
        sc = np.array([dec.side_coef for dec in scheme.decoders], np.int64).reshape(checks, cols)
    except OverflowError as e:
        raise ValueError(f"code entries must fit in int64: {e}") from None
    for a in (enc, bc, sc):
        np.remainder(a, p, out=a)
    return enc, bc, sc


def _residual_map(inst: Instance, scheme: CodeScheme, enc: np.ndarray, bc: np.ndarray,
                  sc: np.ndarray) -> np.ndarray:
    """M = (C_b E + C_s - W) mod p from _coefficients' arrays, one row per
    decoder symbol: row k*d + t maps a message vector to what decoder k's
    symbol t decodes minus the symbol it wants, W selecting that symbol.
    C_b E is a float64 product (numpy runs it on BLAS, an int64 one
    without), exact since every partial sum is an integer of at most
    rows * (p-1)^2 < 2^53: verify_code admits no larger odd p.  M is
    formed in place of sc."""
    p, d = scheme.field, scheme.msg_symbols
    wanted = [inst.receivers[dec.receiver].wants * d + t for dec in scheme.decoders for t in range(d)]
    sc[np.arange(len(wanted)), wanted] -= 1
    np.add(sc, bc.astype(float) @ enc.astype(float), out=sc, casting="unsafe")
    return np.remainder(sc, p, out=sc)


def verify_code(
    inst: Instance,
    scheme: CodeScheme,
    mode: str = "exhaustive",
    trials: int = RANDOM_TRIALS,
    seed: int = 0,
) -> VerificationReport:
    """Check that every receiver decodes every message vector.  "exhaustive"
    covers all p^(n*d) vectors; "random" takes `trials` rows of the seeded
    draw rng.integers(0, p, (trials, n*d)).  Failures are the first
    MAX_FAILURES wrong decodings, in the order of the vectors (index order,
    column 0 most significant, or draw order), then of scheme.decoders.

    Each code is folded into one residual map M (see _residual_map): x
    decodes wrong at decoder k iff one of k's d rows of M x is nonzero mod
    p, so an all-zero M proves the code, and a nonzero M has its failing
    vectors walked (see _exhaustive_failures).  Random mode returns at once
    with no failure when M is zero, which is exact, and draws nothing;
    otherwise it makes the draw and applies M in float64, exact while
    (rows + n*d)(p-1)^2 < 2^53.  A larger odd field is refused with
    CapExceeded("verify-field") in either mode, before any array is built,
    which also keeps the float64 product forming M exact.  Misshaped encoder or decoder rows, a
    decoder reading outside its N(j) and an entry that does not fit int64
    raise ValueError."""
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if trials < 1:
        raise ValueError(f"need at least 1 random trial, got {trials}")
    _check_shapes(inst, scheme)
    p = scheme.field
    d = scheme.msg_symbols
    rows, cols = scheme.broadcast_symbols, inst.n * d
    if p > 2 and (rows + cols) * (p - 1) ** 2 >= FLOAT_EXACT:
        raise CapExceeded("verify-field", (rows + cols) * (p - 1) ** 2, FLOAT_EXACT)
    enc, bc, sc = _coefficients(inst, scheme)
    _check_decoder_locality(inst, scheme, sc)
    if {d.receiver for d in scheme.decoders} != set(range(inst.m)):
        raise ValueError("scheme lacks a decoder for some receiver")
    res = _residual_map(inst, scheme, enc, bc, sc)
    decs = len(scheme.decoders)
    if mode == "exhaustive":
        hits = _exhaustive_failures(res, p, decs, d)
    elif res.any():
        xs = np.random.default_rng(seed).integers(0, p, size=(trials, cols), dtype=np.int64)
        hits = _random_failures(res, p, decs, d, xs)
    else:  # M = 0: every vector decodes, so no draw can fail
        hits = iter(())
    failures = [(x, scheme.decoders[k].receiver) for x, k in islice(hits, MAX_FAILURES)]
    if mode == "random":
        return VerificationReport(mode, trials, seed, failures)
    return VerificationReport(mode, p**cols, None, failures)


# -- verification kernels ---------------------------------------------------
#
# Each kernel takes the residual map M, (decoders * d) x (n*d) over F_p, and
# yields the (vector, decoder index) pairs of the wrong decodings, in vector
# then decoder order; verify_code stops reading after MAX_FAILURES.

_ROWS = 1 << 12  # vectors per random-mode product
FLOAT_EXACT = 1 << 53  # float64 holds every integer below this


def _exhaustive_failures(res: np.ndarray, p: int, decs: int, d: int):
    """Walk the failing vectors in index order, one digit per column.  A
    prefix of digits has a failing completion iff its partial sum M x is
    already nonzero or M has a nonzero entry in a later column (varying
    that column's digit then changes M x), so the walk enters no subtree
    without a failure and skips at most one digit value per column.  An
    all-zero M yields nothing at once.  A loop over columns, not recursion,
    since n*d can pass the recursion limit."""
    cols = res.shape[1]
    # live[c]: some column at or after c is nonzero
    live = np.append(np.logical_or.accumulate(res.any(axis=0)[::-1])[::-1], False)
    if not live[0]:
        return
    digits, sums, v = [], [np.zeros(len(res), np.int64)], 0
    while True:
        c = len(digits)
        if c == cols:  # a failing vector: report each decoder with a nonzero row
            for k in np.flatnonzero(sums[c].reshape(decs, d).any(axis=1)).tolist():
                yield tuple(digits), k
        elif v < p:
            s = (sums[c] + v * res[:, c]) % p
            if live[c + 1] or s.any():
                digits.append(v)
                sums.append(s)
                v = 0
            else:
                v += 1
            continue
        if not digits:
            return
        v = digits.pop() + 1
        sums.pop()


def _random_failures(res: np.ndarray, p: int, decs: int, d: int, xs: np.ndarray):
    """One float64 product x M^T per chunk of drawn vectors: each entry is an
    integer at most (n*d)(p-1)^2 < 2^53, so v / p is within half an ulp of
    the true quotient, less than 1/p, and floor(v / p) is exact."""
    mt = res.T.astype(float)
    for a in range(0, len(xs), _ROWS):
        v = xs[a : a + _ROWS].astype(float) @ mt
        v /= p  # an integer exactly when the residual is 0 mod p
        bad = v != np.floor(v)
        if bad.any():
            s, k = np.nonzero(bad.reshape(len(v), decs, d).any(axis=2))
            for i, j in zip((a + s).tolist(), k.tolist()):
                yield tuple(int(u) for u in xs[i]), j


# -- constructions ----------------------------------------------------------


def _unit_copies(inst: Instance, cover: FractionalCover) -> tuple[list[int], int]:
    """The number of unit-weight copies of each cover set once the weights'
    common denominator q is cleared, and q.  A code with one broadcast row
    per copy and n*q columns past CODE_SIZE_CAP entries is refused with
    CapExceeded before any copy is made."""
    q = lcm(*[w.denominator for _, w in cover.items])
    counts = [int(w * q) for _, w in cover.items]
    size = sum(counts) * inst.n * q
    if size > CODE_SIZE_CAP:
        raise CapExceeded("code-size", size, CODE_SIZE_CAP)
    return counts, q


def _equalized_cover_sets(inst: Instance, cover: FractionalCover) -> tuple[list[frozenset[int]], int]:
    """Clear denominators to unit-weight copies, one set object each, and
    shrink sets until every message is covered exactly q times
    (highest-index copies lose first)."""
    counts, q = _unit_copies(inst, cover)
    sets = [set(s) for (s, _), c in zip(cover.items, counts) for _ in range(c)]
    count = [sum(1 for s in sets if v in s) for v in range(inst.n)]
    for v in range(inst.n):
        for i in range(len(sets) - 1, -1, -1):
            if count[v] == q:
                break
            if v in sets[i]:
                sets[i].discard(v)
                count[v] -= 1
        if count[v] != q:
            raise ValueError(f"message {v} covered {count[v]} < {q} times")
    return [frozenset(s) for s in sets], q


def _decoders(inst: Instance, p: int, d: int, encoder: list[list[int]]) -> list[DecoderSpec]:
    """Every receiver's decoder, solved from the encoder over F_p.  Receiver
    j needs bcast_coef @ E to equal the selector of f(j) on the columns U of
    the messages outside N(j); row-reducing [E_U^T | Sel_U^T] either puts a
    pivot in the selector block (no decoder exists) or gives bcast_coef from
    the reduced rows.  side_coef then cancels bcast_coef @ E on N(j)."""
    rows, cols = len(encoder), inst.n * d
    columns = [[row[c] for row in encoder] for c in range(cols)]
    decoders = []
    for j, r in enumerate(inst.receivers):
        want = range(r.wants * d, (r.wants + 1) * d)
        red, pivots = row_reduce([columns[c] + [int(c == s) for s in want] for c in range(cols)
                                  if c // d not in r.knows], p)
        if pivots and pivots[-1] >= rows:
            raise ValueError(f"receiver {j} cannot decode message {r.wants}")
        bc = [[0] * rows for _ in range(d)]
        for row, i in zip(red, pivots):
            for t in range(d):
                bc[t][i] = row[rows + t]
        sc = []
        for coef in bc:
            acc = [0] * cols
            for b, enc in zip(coef, encoder):
                if b:
                    acc = [a + b * e for a, e in zip(acc, enc)]
            sc.append([-a % p if c // d in r.knows else 0 for c, a in enumerate(acc)])
        decoders.append(DecoderSpec(j, bc, sc))
    return decoders


def strong_cover_code(inst: Instance, cover: FractionalCover) -> CodeScheme:
    """q bits per message, one broadcast bit per unit-weight set copy: bit k
    of message x rides in the k-th set containing x."""
    if cover.kind != "strong":
        raise ValueError("needs a strong cover")
    if inst.is_weighted():
        raise ValueError("unit rates only")
    sets, q = _equalized_cover_sets(inst, cover)
    n = inst.n
    encoder = [[0] * (n * q) for _ in sets]
    for v in range(n):
        for k, i in enumerate(i for i, s in enumerate(sets) if v in s):
            encoder[i][v * q + k] = 1
    return CodeScheme(2, q, encoder, _decoders(inst, 2, q, encoder),
                      Fraction(len(sets), q), "strong-cover")


def mds_weak_cover_code(inst: Instance, cover: FractionalCover) -> CodeScheme:
    """Vandermonde combination per unit-weight weak-hyperclique copy; any d
    of the evaluation vectors form a basis, so d coordinates recover the d
    symbols of the wanted message."""
    if cover.kind != "weak":
        raise ValueError("needs a weak cover")
    if inst.is_weighted():
        raise ValueError("unit rates only")
    counts, d = _unit_copies(inst, cover)
    copies = [s for (s, _), c in zip(cover.items, counts) for _ in range(c)]
    dw = len(copies)
    p = next_prime(dw)
    n = inst.n
    # Broadcast row per copy i with evaluation point a_i = i+1: the wanted
    # messages of the member receivers, each hit with (1, a, ..., a^{d-1}).
    # Powers stay below p^2, and p < 2 * CODE_SIZE_CAP, so int64 is exact.
    powers = np.ones((dw, d), np.int64)
    a = np.arange(1, dw + 1, dtype=np.int64) % p
    for t in range(1, d):
        powers[:, t] = powers[:, t - 1] * a % p
    enc = np.zeros((dw, n, d), np.int64)
    for i, s in enumerate(copies):
        enc[i, [inst.receivers[j].wants for j in s]] = powers[i]
    encoder = enc.reshape(dw, n * d).tolist()
    return CodeScheme(p, d, encoder, _decoders(inst, p, d, encoder),
                      Fraction(dw, d), "mds-weak-cover")


def minrk_code(inst: Instance | Graph, rep: MinrkResult) -> CodeScheme:
    """Broadcast a row basis of B x, B the fitting matrix of `rep`: row j of
    B lies in its span, so every receiver has a decoder.  A graph is read as
    its instance."""
    if isinstance(inst, Graph):
        inst = from_graph(inst)
    p = rep.field
    mat = [[v % p for v in row] for row in rep.matrix]
    # The pivot columns of the reduced transpose are the first rows of B
    # that raise the rank.
    basis = row_reduce([list(col) for col in zip(*mat)], p)[1]
    encoder = [mat[j] for j in basis]
    return CodeScheme(p, 1, encoder, _decoders(inst, p, 1, encoder),
                      Fraction(len(basis)), "minrank")


def two_symbol_code(inst: Instance, phi: list[int], num_classes: int) -> CodeScheme:
    """Broadcast the plain sum and the phi-weighted sum of all messages over
    F_p, p the smallest prime above the class count.  Receiver j decodes iff
    phi is constant on T(j) and phi(f(j)) differs from that constant."""
    p = next_prime(num_classes)
    n = inst.n
    encoder = [[1] * n, [phi[v] % p for v in range(n)]]
    return CodeScheme(p, 1, encoder, _decoders(inst, p, 1, encoder), Fraction(2), "two-symbol")
