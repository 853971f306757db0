"""Executable linear index codes and a decodability simulator.

A CodeScheme is uniform: every message is d symbols over a prime field, the
broadcast is the encoder matrix applied to the concatenated message symbols,
and each receiver has a linear decoder (a combination of broadcast symbols
and its own side-information symbols).  verify_code simulates decoding over
all message vectors (exhaustively up to a cap, else with seeded random
trials) and reports counterexamples.

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
    _check_decoder_locality(inst, scheme)
    if {d.receiver for d in scheme.decoders} != set(range(inst.m)):
        raise ValueError("scheme lacks a decoder for some receiver")
    p = scheme.field
    d = scheme.msg_symbols
    cols = inst.n * d
    total = p**cols
    if mode == "auto":
        mode = "exhaustive" if total <= EXHAUSTIVE_CAP else "random"
    elif mode == "exhaustive" and total > EXHAUSTIVE_CAP:
        raise CapExceeded("exhaustive-verify", total, EXHAUSTIVE_CAP)
    enc = np.array(scheme.encoder, dtype=np.int64) % p
    decs = [
        (
            dec.receiver,
            np.array(dec.bcast_coef, dtype=np.int64) % p,
            np.array(dec.side_coef, dtype=np.int64) % p,
        )
        for dec in scheme.decoders
    ]
    failures: list[tuple[tuple[int, ...], int]] = []

    def run_batch(xs: np.ndarray) -> None:
        bcast = xs @ enc.T % p
        for j, bc, sc in decs:
            want = inst.receivers[j].wants
            got = (bcast @ bc.T + xs @ sc.T) % p
            target = xs[:, want * d : (want + 1) * d]
            bad = np.nonzero((got != target).any(axis=1))[0]
            for i in bad[: MAX_FAILURES - len(failures)]:
                failures.append((tuple(int(v) for v in xs[i]), j))

    if mode == "exhaustive":
        chunk = 1 << 14
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            xs = np.empty((len(idx), cols), dtype=np.int64)
            rem = idx.copy()
            for c in range(cols - 1, -1, -1):
                xs[:, c] = rem % p
                rem //= p
            run_batch(xs)
            if len(failures) >= MAX_FAILURES:
                break
        return VerificationReport("exhaustive", total, None, failures)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, p, size=(trials, cols), dtype=np.int64)
    run_batch(xs)
    return VerificationReport("random", trials, seed, failures)


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
