"""Executable linear index codes and a decodability simulator.

A CodeScheme is uniform: every message is d symbols over a prime field, the
broadcast is the encoder matrix applied to the concatenated message symbols,
and each receiver has a linear decoder (a combination of broadcast symbols
and its own side-information symbols).  verify_code simulates decoding over
all message vectors (exhaustively up to EXHAUSTIVE_CAP, else with seeded
random trials) and reports the first counterexamples in vector order.  The
field picks the kernel: over GF(2) each uint64 word carries 64 vectors, one
bit plane per message symbol, and decoding is XORs of planes; over an odd p
the decoders are stacked into one float64 product per chunk of vectors,
exact below 2^53, and a field too large for that is refused with
CapExceeded rather than decided on rounded arithmetic.

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
from functools import partial
from itertools import product
from math import lcm

import numpy as np

from .combinatorial import FractionalCover, MinrkResult, row_reduce
from .instance import CapExceeded, Graph, Instance, from_graph
from .numeric import next_prime

EXHAUSTIVE_CAP = 1 << 24
RANDOM_TRIALS = 100_000
MAX_FAILURES = 5  # counterexamples kept per report


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


def _check_decoder_locality(inst: Instance, scheme: CodeScheme) -> None:
    d = scheme.msg_symbols
    for dec in scheme.decoders:
        r = inst.receivers[dec.receiver]
        for row in dec.side_coef:
            for col, c in enumerate(row):
                if c % scheme.field and col // d not in r.knows:
                    raise ValueError(
                        f"decoder {dec.receiver} reads message {col // d} outside N(j)"
                    )


def verify_code(
    inst: Instance,
    scheme: CodeScheme,
    mode: str = "auto",
    trials: int = RANDOM_TRIALS,
    seed: int = 0,
) -> VerificationReport:
    """Broadcast message vectors through the encoder and decode each at every
    receiver.  "exhaustive" takes all p^(n*d) vectors (refused with
    CapExceeded above EXHAUSTIVE_CAP); "random" takes `trials` rows of the
    seeded draw rng.integers(0, p, (trials, n*d)); "auto" is exhaustive up
    to the cap, random beyond.  Failures are the first MAX_FAILURES wrong
    decodings, in the order of the vectors (index order, column 0 most
    significant, or draw order), then of scheme.decoders.

    Over GF(2) the vectors are bit-sliced, 64 to a uint64 word, and each
    broadcast and decoded plane is an XOR of planes.  Over an odd p the
    decoders are stacked into one matrix applied to [broadcast | message]
    in float64, exact while (rows + n*d)(p-1)^2 < 2^53; a larger field is
    refused with CapExceeded("verify-field") rather than decided on rounded
    arithmetic."""
    if mode not in ("auto", "exhaustive", "random"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if trials < 1:
        raise ValueError(f"need at least 1 random trial, got {trials}")
    _check_decoder_locality(inst, scheme)
    if {d.receiver for d in scheme.decoders} != set(range(inst.m)):
        raise ValueError("scheme lacks a decoder for some receiver")
    p = scheme.field
    d = scheme.msg_symbols
    rows, cols = scheme.broadcast_symbols, inst.n * d
    total = p**cols
    if mode == "auto":
        mode = "exhaustive" if total <= EXHAUSTIVE_CAP else "random"
    elif mode == "exhaustive" and total > EXHAUSTIVE_CAP:
        raise CapExceeded("exhaustive-verify", total, EXHAUSTIVE_CAP)
    if p > 2 and (rows + cols) * (p - 1) ** 2 >= FLOAT_EXACT:
        raise CapExceeded("verify-field", (rows + cols) * (p - 1) ** 2, FLOAT_EXACT)
    enc = np.array([[v % p for v in row] for row in scheme.encoder], dtype=np.int64).reshape(rows, cols)
    # Row k*d + t of check maps [broadcast | message] to what decoder k's
    # symbol t decodes minus the symbol it wants, mod p: [bcast_coef |
    # side_coef] less 1 at the wanted column.  A vector decodes wrong at k
    # iff one of k's d rows is nonzero on it.
    check = np.array([[v % p for v in [*bc, *sc]] for dec in scheme.decoders
                      for bc, sc in zip(dec.bcast_coef, dec.side_coef)], dtype=np.int64)
    check = check.reshape(len(scheme.decoders) * d, rows + cols)
    for k, dec in enumerate(scheme.decoders):
        for t in range(d):
            c = rows + inst.receivers[dec.receiver].wants * d + t
            check[k * d + t, c] = (check[k * d + t, c] - 1) % p
    if mode == "exhaustive":
        chunks = _gf2_exhaustive(cols, total) if p == 2 else _fp_exhaustive(p, cols)
    else:
        xs = np.random.default_rng(seed).integers(0, p, size=(trials, cols), dtype=np.int64)
        chunks = _gf2_random(xs) if p == 2 else _fp_random(xs)

    def vector(s: int) -> tuple[int, ...]:
        if mode == "random":
            return tuple(int(v) for v in xs[s])
        return tuple(s // p ** (cols - 1 - c) % p for c in range(cols))

    find = _gf2_failures if p == 2 else partial(_fp_failures, p)
    failures: list[tuple[tuple[int, ...], int]] = []
    for start, *chunk in chunks:
        for s, k in find(*chunk, enc, check, d, MAX_FAILURES - len(failures)):
            failures.append((vector(start + s), scheme.decoders[k].receiver))
        if len(failures) >= MAX_FAILURES:
            break
    if mode == "exhaustive":
        return VerificationReport(mode, total, None, failures)
    return VerificationReport(mode, trials, seed, failures)


# -- verification kernels ---------------------------------------------------
#
# Each chunk generator yields (index of its first vector, *chunk), and the
# matching `*_failures` returns the (index within the chunk, decoder) pairs
# of the chunk's first `limit` wrong decodings, in vector then decoder order.

_WORDS = 1 << 14  # uint64 words (64 vectors each) per GF(2) chunk
_ROWS = 1 << 14  # vectors per F_p product
FLOAT_EXACT = 1 << 53  # float64 holds every integer below this
_ONES = np.uint64(2**64 - 1)
# Bit b of _LOW_PLANES[k] is bit k of b: the plane of state-index bit k < 6.
_LOW_PLANES = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                        0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000], dtype=np.uint64)


def _gf2_exhaustive(cols: int, total: int):
    """Bit planes of every state index: column c reads index bit cols-1-c,
    a fixed word pattern for the 6 low bits and a bit of the word index
    above them.  Yields (start, planes, number of vectors)."""
    words = max(1, total >> 6)
    for w0 in range(0, words, _WORDS):
        w = np.arange(w0, min(w0 + _WORDS, words), dtype=np.uint64)
        planes = np.empty((cols, len(w)), np.uint64)
        for c in range(cols):
            k = cols - 1 - c
            planes[c] = _LOW_PLANES[k] if k < 6 else (w >> np.uint64(k - 6) & np.uint64(1)) * _ONES
        yield 64 * w0, planes, min(total - 64 * w0, 64 * len(w))


def _gf2_random(xs: np.ndarray):
    """The drawn 0/1 rows as bit planes, trial i at bit i % 64 of word i // 64."""
    trials, cols = xs.shape
    packed = np.zeros((cols, -(-trials // 64) * 8), np.uint8)
    packed[:, : -(-trials // 8)] = np.packbits(xs.T, axis=1, bitorder="little")
    yield 0, packed.view("<u8"), trials


def _gf2_failures(planes, count, enc, check, d, limit):
    """Each broadcast plane is the XOR of its encoder columns' planes, each
    residual plane the XOR of its check row's planes of [broadcast |
    message]; a set bit is a wrong decoding."""
    rows, width = len(enc), planes.shape[1]
    z = np.empty((rows + len(planes), width), np.uint64)
    z[rows:] = planes
    for i, row in enumerate(enc):
        z[i] = np.bitwise_xor.reduce(planes[row == 1], axis=0)
    res = np.array([np.bitwise_xor.reduce(z[row == 1], axis=0) for row in check], np.uint64)
    bad = np.bitwise_or.reduce(res.reshape(-1, d, width), axis=1)  # per decoder
    if count % 64:  # bits past the last vector are padding
        bad[:, -1] &= np.uint64((1 << count % 64) - 1)
    words = np.flatnonzero(bad.any(axis=0))[:limit]
    if not len(words):
        return []
    bits = np.unpackbits(np.ascontiguousarray(bad[:, words], "<u8").view(np.uint8), axis=1, bitorder="little")
    pos, k = np.nonzero(bits.T)
    return list(zip((words[pos >> 6] * 64 + (pos & 63)).tolist(), k.tolist()))[:limit]


def _fp_exhaustive(p: int, cols: int):
    """Every vector in index order, one per column of a float64 (cols, N)
    block: a table of the low digits (at most _ROWS vectors) tiled under
    each prefix of high digits, so no digit is cut out of the index by
    div/mod.  Yields (start, block)."""
    low = 0
    while low < cols and p ** (low + 1) <= _ROWS:
        low += 1
    if low == 0:  # no column, or p > _ROWS and one column (more fail the cap)
        for a in range(0, p**cols, _ROWS):
            yield a, np.arange(a, min(a + _ROWS, p**cols), dtype=float)[None][:cols]
        return
    table = np.indices((p,) * low, dtype=float).reshape(low, -1)
    for start, prefix in enumerate(product(range(p), repeat=cols - low)):
        xs = np.empty((cols, table.shape[1]))
        xs[: cols - low] = np.array(prefix, dtype=float)[:, None]
        xs[cols - low :] = table
        yield start * table.shape[1], xs


def _fp_random(xs: np.ndarray):
    for a in range(0, len(xs), _ROWS):
        yield a, np.ascontiguousarray(xs[a : a + _ROWS].T, dtype=float)


def _fp_failures(p, xs, enc, check, d, limit):
    """One product for the broadcast and one for every decoder at once, in
    float64 with one vector per column: each entry is an integer below
    (rows + cols)(p-1)^2 < 2^53, so v / p is within half an ulp of the true
    quotient, less than 1/p, and floor(v / p) is exact."""
    rows = len(enc)
    z = np.empty((rows + len(xs), xs.shape[1]))  # [broadcast; message]
    z[rows:] = xs
    v = z[:rows]
    np.matmul(enc.astype(float), xs, out=v)
    v -= p * np.floor(v / p)
    v = check.astype(float) @ z
    v /= p  # an integer exactly when the residual is 0 mod p
    bad = v != np.floor(v)
    if not bad.any():
        return []
    bad = bad.reshape(-1, d, bad.shape[1]).any(axis=1)  # per decoder
    return [tuple(pair) for pair in np.argwhere(bad.T)[:limit].tolist()]


# -- constructions ----------------------------------------------------------


def _equalized_cover_sets(inst: Instance, cover: FractionalCover) -> tuple[list[frozenset[int]], int]:
    """Clear denominators to unit-weight copies and shrink sets until every
    message is covered exactly q times (highest-index copies lose first)."""
    q = lcm(*[w.denominator for _, w in cover.items])
    sets: list[set[int]] = []
    for s, w in cover.items:
        sets += [set(s)] * int(w * q)
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
    d = lcm(*[w.denominator for _, w in cover.items])
    copies: list[frozenset[int]] = []
    for s, w in cover.items:
        copies += [s] * int(w * d)
    dw = len(copies)
    p = next_prime(dw)
    n = inst.n
    # Broadcast row per copy i with evaluation point a_i = i+1: the wanted
    # messages of the member receivers, each hit with (1, a, ..., a^{d-1}).
    encoder = [[0] * (n * d) for _ in range(dw)]
    for i, s in enumerate(copies):
        a = i + 1
        msgs = {inst.receivers[j].wants for j in s}
        for x in msgs:
            for t in range(d):
                encoder[i][x * d + t] = (encoder[i][x * d + t] + pow(a, t, p)) % p
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
