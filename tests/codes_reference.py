"""Reference verifier for tests: the int64 decoding simulation, one receiver
at a time, which broadcasts every vector through the encoder and decodes it
at each receiver with the bcast rows and the side rows they imply (see
`side_reference`).  It enumerates every vector up to ENUMERATION_CAP and
samples beyond it.  `icbounds.codes.verify_code` instead folds the code into
one residual map M and tests M for zero (exhaustive, at any size; random
when M is zero) or applies it in float64 (random, when M is not zero).  It
must agree with this reference on mode, trials, seed and verdict wherever
the reference enumerates, and in random mode, while the reference's
arithmetic is exact (every product below 2^63).  Past the cap,
`reference_failures` on the n*d unit vectors decides the verdict: M e_c is
column c of M, so a linear code fails on some vector iff it fails on a unit
vector.

`decoders_reference` is the decoder solve as it ran on Python lists, one
`row_reduce` per receiver on columns copied out of the encoder's rows,
before the code became int64 arrays; `icbounds.codes._decoders` must give
its bcast rows entry for entry, and `icbounds.codes.side_rows` its side
rows.  `strong_cover_encoder_reference` builds the strong-cover encoder from
one Python set per unit-weight copy, as before `strong_cover_code` read the
copies off one membership array."""

from __future__ import annotations

from math import lcm

import numpy as np

from icbounds.codes import (
    MAX_FAILURES,
    RANDOM_TRIALS,
    CodeScheme,
    VerificationReport,
)
from icbounds.combinatorial import row_reduce
from icbounds.instance import CapExceeded, Instance

ENUMERATION_CAP = 1 << 24


def side_reference(
    inst: Instance, p: int, d: int, encoder: list[list[int]], bcast: list[list[int]]
) -> list[list[int]]:
    """The side rows that bcast's rows imply, summed entry by entry in
    Python ints: row j*d + t cancels what bcast row j*d + t carries of E on
    the columns of N(j), -(bcast_(j*d+t) @ E) mod p there, and is 0 on the
    columns of the messages receiver j does not know."""
    cols = inst.n * d
    side = []
    for k, coef in enumerate(bcast):
        knows = inst.receivers[k // d].knows
        acc = [0] * cols
        for b, enc in zip(coef, encoder):
            if b:
                acc = [a + b * e for a, e in zip(acc, enc)]
        side.append([-a % p if c // d in knows else 0 for c, a in enumerate(acc)])
    return side


def strong_cover_encoder_reference(inst: Instance, cover) -> list[list[int]]:
    """The strong-cover encoder, rows x n*q, from one set per unit-weight
    copy of `cover`, q the weights' common denominator: each message is
    dropped from the copies past the q-th holding it, and bit k of message
    v rides in the k-th copy left holding v.  A message in fewer than q
    copies is refused, the first in message order."""
    q = lcm(*[w.denominator for _, w in cover.items])
    sets = [set(s) for s, w in cover.items for _ in range(int(w * q))]
    enc = [[0] * (inst.n * q) for _ in sets]
    for v in range(inst.n):
        holders = [i for i, s in enumerate(sets) if v in s]
        if len(holders) < q:
            raise ValueError(f"message {v} covered {len(holders)} < {q} times")
        for i in holders[q:]:
            sets[i].discard(v)
        for k, i in enumerate(holders[:q]):
            enc[i][v * q + k] = 1
    return enc


def decoders_reference(
    inst: Instance, p: int, d: int, encoder: list[list[int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Every receiver's decoder from the encoder rows over F_p, as the
    stacked bcast and side rows (receiver j's d symbols at rows j*d ..
    j*d+d-1).  Receiver j needs bcast_coef @ E to equal the selector of f(j)
    on the columns U of the messages outside N(j); row-reducing
    [E_U^T | Sel_U^T] either puts a pivot in the selector block (no decoder
    exists) or gives bcast_coef from the reduced rows.  side_coef then
    cancels bcast_coef @ E on N(j) (see side_reference)."""
    rows, cols = len(encoder), inst.n * d
    columns = [[row[c] for row in encoder] for c in range(cols)]
    bcast = []
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
        bcast += bc
    return bcast, side_reference(inst, p, d, encoder, bcast)


def verify_code_reference(
    inst: Instance,
    scheme: CodeScheme,
    mode: str = "auto",
    trials: int = RANDOM_TRIALS,
    seed: int = 0,
) -> VerificationReport:
    p = scheme.field
    d = scheme.msg_symbols
    cols = inst.n * d
    total = p**cols
    if mode == "auto":
        mode = "exhaustive" if total <= ENUMERATION_CAP else "random"
    elif mode == "exhaustive" and total > ENUMERATION_CAP:
        raise CapExceeded("exhaustive-verify", total, ENUMERATION_CAP)
    if mode == "exhaustive":
        failures: list[tuple[tuple[int, ...], int]] = []
        chunk = 1 << 14
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            xs = np.empty((len(idx), cols), dtype=np.int64)
            rem = idx.copy()
            for c in range(cols - 1, -1, -1):
                xs[:, c] = rem % p
                rem //= p
            failures += reference_failures(inst, scheme, xs, MAX_FAILURES - len(failures))
            if len(failures) >= MAX_FAILURES:
                break
        return VerificationReport("exhaustive", total, None, failures)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, p, size=(trials, cols), dtype=np.int64)
    return VerificationReport("random", trials, seed, reference_failures(inst, scheme, xs))


def reference_failures(
    inst: Instance, scheme: CodeScheme, xs: np.ndarray, limit: int = MAX_FAILURES
) -> list[tuple[tuple[int, ...], int]]:
    """The first `limit` wrong decodings of the rows of xs, in receiver-major
    order within the batch, decoded one receiver at a time in int64 with
    the side rows the bcast rows imply."""
    p = scheme.field
    d = scheme.msg_symbols
    enc = scheme.encoder % p
    coef = scheme.bcast % p
    side = np.array(side_reference(inst, p, d, enc.tolist(), coef.tolist()), np.int64)
    decs = [(j, coef[j * d : (j + 1) * d], side[j * d : (j + 1) * d]) for j in range(inst.m)]
    failures: list[tuple[tuple[int, ...], int]] = []
    bcast = xs @ enc.T % p
    for j, bc, sc in decs:
        want = inst.receivers[j].wants
        got = (bcast @ bc.T + xs @ sc.T) % p
        target = xs[:, want * d : (want + 1) * d]
        bad = np.nonzero((got != target).any(axis=1))[0]
        for i in bad[: limit - len(failures)]:
            failures.append((tuple(int(v) for v in xs[i]), j))
    return failures
