"""Reference verifier for tests: the int64 decoding simulation, one receiver
at a time, which broadcasts every vector through the encoder and decodes it
at each receiver.  It enumerates every vector up to ENUMERATION_CAP and
samples beyond it.  `icbounds.codes.verify_code` instead folds the code into
one residual map M and tests M for zero (exhaustive, at any size; random
when M is zero) or applies it in float64 (random, when M is not zero).  Its
locality check is the per-entry loop `verify_code` ran before it tested
the side coefficients as one array.  It must agree with this reference on mode, trials,
seed and verdict wherever the reference enumerates, and in random mode,
while the reference's arithmetic is exact (every product below 2^63).
Past the cap, `reference_failures` on the n*d unit vectors decides the
verdict: M e_c is column c of M, so a linear code fails on some vector iff
it fails on a unit vector."""

from __future__ import annotations

import numpy as np

from icbounds.codes import (
    MAX_FAILURES,
    RANDOM_TRIALS,
    CodeScheme,
    VerificationReport,
)
from icbounds.instance import CapExceeded, Instance

ENUMERATION_CAP = 1 << 24


def check_decoder_locality_reference(inst: Instance, scheme: CodeScheme) -> None:
    """The per-entry locality check: the first side_coef entry nonzero mod p
    outside its decoder's N(j), in decoder, row and column order."""
    d = scheme.msg_symbols
    for dec in scheme.decoders:
        r = inst.receivers[dec.receiver]
        for row in dec.side_coef:
            for col, c in enumerate(row):
                if c % scheme.field and col // d not in r.knows:
                    raise ValueError(
                        f"decoder {dec.receiver} reads message {col // d} outside N(j)"
                    )


def verify_code_reference(
    inst: Instance,
    scheme: CodeScheme,
    mode: str = "auto",
    trials: int = RANDOM_TRIALS,
    seed: int = 0,
) -> VerificationReport:
    check_decoder_locality_reference(inst, scheme)
    if {d.receiver for d in scheme.decoders} != set(range(inst.m)):
        raise ValueError("scheme lacks a decoder for some receiver")
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
    order within the batch, decoded one receiver at a time in int64."""
    p = scheme.field
    d = scheme.msg_symbols
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
    bcast = xs @ enc.T % p
    for j, bc, sc in decs:
        want = inst.receivers[j].wants
        got = (bcast @ bc.T + xs @ sc.T) % p
        target = xs[:, want * d : (want + 1) * d]
        bad = np.nonzero((got != target).any(axis=1))[0]
        for i in bad[: limit - len(failures)]:
            failures.append((tuple(int(v) for v in xs[i]), j))
    return failures
