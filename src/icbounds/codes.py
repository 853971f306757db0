"""Executable linear index codes and a decodability check.

A CodeScheme is uniform: every message is d symbols over a prime field, and
the code is two int64 arrays reduced mod p.  The encoder E (rows x n*d)
maps the message symbols to the broadcast; receiver j decodes its d wanted
symbols from rows j*d .. j*d+d-1 of bcast (m*d x rows), applied to the
broadcast, less what they carry of the messages it knows: once bcast_j is
fixed, the only side rows that decode are -(bcast_j E) mod p on N(j)'s
columns (the linear model of Bar-Yossef, Birk, Jayram and Kol), so they are
not stored; `side_rows` forms them for output.  verify_code folds the code
into one residual map M = (C_b E - W) mod p with each receiver's N(j)
columns zeroed, C_b = bcast and W the wanted symbols, so the code decodes
all p^(n*d) message vectors iff M is zero.  Exhaustive mode proves that by
looking at M and otherwise walks the failing vectors in index order;
random mode, a simulation kept as a cross-check, draws nothing when M is
zero and otherwise applies M to a seeded draw in float64.  A field too
large for exact float64 products is refused with CapExceeded("verify-field")
by verify_code and, with the same numbers, by a construction before it
makes an array.

Constructions: the strong-cover code (an integer clique cover is the strong
cover with weight 1 per clique), the MDS weak-cover code, the minrank code
of any instance's fitting matrix, and the two-symbol code of a rate-2
instance.  Each builds only its encoder; every decoder is solved from the
encoder.  A receiver whose wanted columns each have a local pivot row (a
first nonzero row with no other nonzero outside N(j), as in every valid
cover code) reads its decoder off those rows, all such receivers at once;
each other receiver takes one `combinatorial.row_reduce`, which also
refuses an encoder that receiver cannot decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from .combinatorial import FractionalCover, MinrkResult, row_reduce
from .instance import CapExceeded, Graph, Instance, from_graph
from .numeric import next_prime

RANDOM_TRIALS = 100_000
MAX_FAILURES = 5  # counterexamples kept per report
# Encoder entries (rows x n*d) a cover code may have.  The largest code any
# caller builds, projective-Hadamard q = 5's strong cover (1 000 x 7 000), has
# 7 * 10^6; its residual map, (m*d) x (n*d), has 4.9 * 10^7.
CODE_SIZE_CAP = 10**7
FLOAT_EXACT = 1 << 53  # float64 holds every integer below this
_ROWS = 1 << 12  # vectors per random-mode product
_BLOCK = 1 << 22  # entries per block of a float64 product forming C_b E


@dataclass(eq=False)
class CodeScheme:
    """A linear code over F_`field` as two int64 arrays reduced mod p
    (compare two schemes array by array): rows j*d .. j*d+d-1 of bcast are
    receiver j's decoder, x_f(j) = bcast_j @ broadcast + side_j @ x, where
    side_j = -(bcast_j @ encoder) mod p on the columns of messages in N(j)
    and 0 elsewhere (see side_rows)."""

    field: int
    msg_symbols: int  # d: symbols per message
    encoder: np.ndarray  # (#broadcast rows) x (n*d)
    bcast: np.ndarray  # (m*d) x (#broadcast rows)
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


def _check_field(p: int, rows: int, cols: int) -> None:
    """The verify-field cap: every float64 product of a code with `rows`
    broadcast and `cols` = n*d message symbols stays exact while
    (rows + cols)(p-1)^2 < 2^53 (C_b E sums `rows` products of entries
    below p, random mode's x M^T sums `cols`).  A larger odd field raises
    CapExceeded, from verify_code and from a construction alike."""
    if p > 2 and (rows + cols) * (p - 1) ** 2 >= FLOAT_EXACT:
        raise CapExceeded("verify-field", (rows + cols) * (p - 1) ** 2, FLOAT_EXACT)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as int64, for int64 arrays a and b with entries in [0, p), as
    one float64 product (numpy runs it on BLAS, an int64 one without) per
    block of rows of about _BLOCK entries of the result.  Exact, since
    every partial sum is an integer of at most len(b) * (p-1)^2 < 2^53,
    which _check_field keeps."""
    out = np.empty((len(a), b.shape[1]), np.int64)
    bf = b.astype(float)
    step = max(1, _BLOCK // max(1, b.shape[1]))
    for i in range(0, len(a), step):
        out[i : i + step] = a[i : i + step].astype(float) @ bf
    return out


def _knows(inst: Instance) -> np.ndarray:
    """The m x n mask of the messages each receiver knows."""
    mask = np.zeros((inst.m, inst.n), bool)
    for j, r in enumerate(inst.receivers):
        mask[j, list(r.knows)] = True
    return mask


def _product_on(inst: Instance, scheme: CodeScheme, keep: np.ndarray) -> np.ndarray:
    """C_b E, (m*d) x (n*d), on the columns of the messages that the m x n
    mask keep marks for each receiver and zero on the others; not reduced
    mod p, its entries in [0, rows * (p-1)^2]."""
    p, d = scheme.field, scheme.msg_symbols
    out = _product(np.remainder(scheme.bcast, p), np.remainder(scheme.encoder, p))
    out4 = out.reshape(inst.m, d, inst.n, d)
    np.multiply(out4, keep[:, None, :, None], out=out4)
    return out


def side_rows(inst: Instance, scheme: CodeScheme) -> np.ndarray:
    """The side rows the decoders imply, (m*d) x (n*d): receiver j cancels
    what bcast_j carries on the messages it knows, so its rows are
    -(bcast_j E) mod p on the columns of N(j) and 0 elsewhere."""
    side = _product_on(inst, scheme, _knows(inst))
    np.negative(side, out=side)
    return np.remainder(side, scheme.field, out=side)


def _residual_map(inst: Instance, scheme: CodeScheme) -> np.ndarray:
    """M = (C_b E + side_rows - W) mod p, one row per decoder symbol: row
    j*d + t maps a message vector to what decoder j's symbol t decodes
    minus the symbol it wants, W selecting that symbol.  The side rows
    cancel C_b E on N(j), so M is C_b E with those columns zeroed, less W."""
    p, d = scheme.field, scheme.msg_symbols
    res = _product_on(inst, scheme, ~_knows(inst))
    wanted = np.array([r.wants * d for r in inst.receivers], np.int64)[:, None] + np.arange(d)
    res[np.arange(len(res)), wanted.ravel()] -= 1
    return np.remainder(res, p, out=res)


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
    column 0 most significant, or draw order), then of the receivers.

    Each code is folded into one residual map M (see _residual_map): x
    decodes wrong at receiver j iff one of j's d rows of M x is nonzero mod
    p, so an all-zero M proves the code, and a nonzero M has its failing
    vectors walked (see _exhaustive_failures).  Random mode returns at once
    with no failure when M is zero, which is exact, and draws nothing;
    otherwise it makes the draw and applies M in float64.  A field past
    _check_field's cap is refused with CapExceeded("verify-field") in either
    mode, before any product is formed.  Arrays not of the shapes rows x n*d
    and m*d x rows, a negative seed, too few trials and an unknown mode
    raise ValueError."""
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if trials < 1:
        raise ValueError(f"need at least 1 random trial, got {trials}")
    if seed < 0:
        raise ValueError(f"the random seed must not be negative, got {seed}")
    p, d = scheme.field, scheme.msg_symbols
    rows, cols, checks = scheme.broadcast_symbols, inst.n * d, inst.m * d
    for name, shape, want in (("encoder", scheme.encoder.shape, (rows, cols)),
                              ("bcast", scheme.bcast.shape, (checks, rows))):
        if shape != want:
            raise ValueError(f"{name} must be {want[0]} x {want[1]}, not {' x '.join(map(str, shape))}")
    _check_field(p, rows, cols)
    res = _residual_map(inst, scheme)
    if mode == "exhaustive":
        hits = _exhaustive_failures(res, p, inst.m, d)
    elif res.any():
        xs = np.random.default_rng(seed).integers(0, p, size=(trials, cols), dtype=np.int64)
        hits = _random_failures(res, p, inst.m, d, xs)
    else:  # M = 0: every vector decodes, so no draw can fail
        hits = iter(())
    failures = list(islice(hits, MAX_FAILURES))
    if mode == "random":
        return VerificationReport(mode, trials, seed, failures)
    return VerificationReport(mode, p**cols, None, failures)


# -- verification kernels ---------------------------------------------------
#
# Each kernel takes the residual map M, (m*d) x (n*d) over F_p, and yields
# the (vector, receiver) pairs of the wrong decodings, in vector then
# receiver order; verify_code stops reading after MAX_FAILURES.


def _exhaustive_failures(res: np.ndarray, p: int, m: int, d: int):
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
        if c == cols:  # a failing vector: report each receiver with a nonzero row
            for j in np.flatnonzero(sums[c].reshape(m, d).any(axis=1)):
                yield tuple(digits), int(j)
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


def _random_failures(res: np.ndarray, p: int, m: int, d: int, xs: np.ndarray):
    """x M^T mod p per chunk of drawn vectors, each an exact _product."""
    for a in range(0, len(xs), _ROWS):
        bad = _product(xs[a : a + _ROWS], res.T) % p != 0
        if bad.any():
            s, k = np.nonzero(bad.reshape(len(bad), m, d).any(axis=2))
            for i, j in zip(a + s, k):
                yield tuple(int(u) for u in xs[i]), int(j)


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


def _decoders(inst: Instance, p: int, d: int, enc: np.ndarray) -> np.ndarray:
    """Every receiver's decoder, solved from the encoder E over F_p: the
    bcast array.  Receiver j needs bcast_j E to equal the selector of f(j)
    on the columns U of the messages outside N(j); its bcast_j is what
    row-reducing the slice [E_U^T | Sel_U^T] gives, and a pivot in the
    selector block means no decoder exists.  What bcast_j E carries on N(j)
    is cancelled by the side rows it implies (see side_rows).

    The elimination's answer is read off without it where it can be.  Let r
    be the first row of E with a nonzero in wanted column c = f(j)*d + t,
    and call r local when it has no other nonzero on U.  No earlier row
    touches c, so r is a pivot of j's system, and the reduced system's
    answer for symbol t is E[r, c]^-1 on row r and 0 elsewhere.  Every
    receiver whose d wanted columns all have a local first row is answered
    so, all at once (in a valid cover code, every receiver: bit t of f(j)
    rides in one set, whose other members j knows); each other receiver
    takes one `row_reduce`, in receiver order, which refuses the first that
    cannot decode."""
    rows, m = len(enc), inst.m
    knows = _knows(inst)
    bcast = np.zeros((m * d, rows), np.int64)
    f = np.array([r.wants for r in inst.receivers], np.int64)
    wanted = f[:, None] * d + np.arange(d)
    fast = np.zeros(m, bool)
    if rows:  # an encoder of no rows has no pivot row
        nonzero = enc != 0
        first = nonzero.argmax(axis=0)[wanted]  # row 0 for a column E leaves zero
        # on_unknown[r, j]: row r's nonzeros on the columns U of receiver j
        on_unknown = nonzero.reshape(rows, inst.n, d).sum(axis=2) @ ~knows.T
        local = (enc[first, wanted] != 0) & (on_unknown[first, np.arange(m)[:, None]] == 1)
        fast = local.all(axis=1) & ~knows[np.arange(m), f]  # f(j) outside N(j), so c is in U
        pivot = enc[first[fast], wanted[fast]].ravel().tolist()
        inverse = {v: pow(v, p - 2, p) for v in set(pivot)}
        symbol = np.arange(m * d).reshape(m, d)  # bcast row j*d + t
        bcast[symbol[fast].ravel(), first[fast].ravel()] = [inverse[v] for v in pivot]
    for j in np.flatnonzero(~fast).tolist():
        u = np.flatnonzero(~knows[j].repeat(d))
        red, pivots = row_reduce(np.hstack([enc[:, u].T, u[:, None] == wanted[j]]), p)
        if pivots and pivots[-1] >= rows:
            raise ValueError(f"receiver {j} cannot decode message {f[j]}")
        bcast[j * d : (j + 1) * d, pivots] = np.array([row[rows:] for row in red]).T
    return bcast


def _code(inst: Instance, p: int, d: int, encoder, rate: Fraction, kind: str) -> CodeScheme:
    """The code of `encoder` (rows x n*d over F_p, entries in [0, p)) with
    every receiver's decoder solved by _decoders.  The verify-field cap
    fires here, before any array is made, with verify_code's numbers."""
    rows, cols = len(encoder), inst.n * d
    _check_field(p, rows, cols)
    enc = np.asarray(encoder, np.int64).reshape(rows, cols)
    return CodeScheme(p, d, enc, _decoders(inst, p, d, enc), rate, kind)


def strong_cover_code(inst: Instance, cover: FractionalCover) -> CodeScheme:
    """q bits per message, one broadcast bit per unit-weight set copy, the
    weights' common denominator q cleared: bit k of message v rides in the
    k-th copy holding v, and later copies drop v."""
    if cover.kind != "strong":
        raise ValueError("needs a strong cover")
    if inst.is_weighted():
        raise ValueError("unit rates only")
    counts, q = _unit_copies(inst, cover)
    member = np.zeros((len(counts), inst.n), bool)
    for i, (s, _) in enumerate(cover.items):
        member[i, list(s)] = True
    copies = np.repeat(member, counts, axis=0)  # one row per unit-weight copy
    covered = copies.sum(axis=0)
    short = np.flatnonzero(covered < q)
    if len(short):
        raise ValueError(f"message {short[0]} covered {covered[short[0]]} < {q} times")
    rank = np.cumsum(copies, axis=0)  # rank[i, v]: the copies 0..i holding v
    i, v = np.nonzero(copies & (rank <= q))
    encoder = np.zeros((len(copies), inst.n, q), np.int64)
    encoder[i, v, rank[i, v] - 1] = 1
    return _code(inst, 2, q, encoder, Fraction(len(copies), q), "strong-cover")


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
    encoder = np.zeros((dw, n, d), np.int64)
    for i, s in enumerate(copies):
        encoder[i, [inst.receivers[j].wants for j in s]] = powers[i]
    return _code(inst, p, d, encoder, Fraction(dw, d), "mds-weak-cover")


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
    return _code(inst, p, 1, [mat[j] for j in basis], Fraction(len(basis)), "minrank")


def two_symbol_code(inst: Instance, phi: list[int], num_classes: int) -> CodeScheme:
    """Broadcast the plain sum and the phi-weighted sum of all messages over
    F_p, p the smallest prime above the class count.  Receiver j decodes iff
    phi is constant on T(j) and phi(f(j)) differs from that constant."""
    p = next_prime(num_classes)
    return _code(inst, p, 1, [[1] * inst.n, [phi[v] % p for v in range(inst.n)]], Fraction(2), "two-symbol")
