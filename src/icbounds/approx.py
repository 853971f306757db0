"""Polynomial-time sandwich bounds on the broadcast rate.

Lower bound: greedy expanding sequence (a sequence of receivers, each wanting
a message unknown to all earlier ones).  Upper bound: the certified quantity
tau built from weak fractional hyperclique covers -- a dyadic partition by
message rate, and per class either a cover from the expanding-or-cover
recursion (weight at most 12 k n^{1-1/k}) or the trivial one-clique-per-vertex
cover of weight 2|V_s|.  All arithmetic is rational; irrational thresholds
n^{1-1/k} enter only through certified rational enclosures.

The recursion is split in two, both halves in the instance's own receiver
indices and messages, on message sets held as masks.
decide_expanding_or_cover finds either the expanding sequence or the
cover's parts (hypercliques and dense leaves); build_cover merges them,
each leaf's cover sampled by low_degree_cover, and checks the result
exactly.  tau's rate classes come from the rates' integer numerators and
denominators, and its search for k(s) decides each class on its message
mask, once per k.  A class's cover is built only where it sets tau's value:
with k >= 2 that needs n >= 144, since 12 k n^{1-1/k} > 2n >= 2|V_s| for
n < 144 (at n = 144, k = 2 and V_s = V the two terms tie and the cover is
taken).

A leaf's cover is sampled: its weights are MC_INFLATION times the sampled
frequencies, so a built cover weighs at most MC_INFLATION times the
recursion's bound.  The exact prefix-set enumeration the bound is proved
for lives in tests/approx_reference.py, which checks the bound on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorial import (
    ExpandingSequence,
    FractionalCover,
    expanding_pair,
    fractional_cover,
    is_expanding_sequence,
    sequence_weight,
    verify_cover,
)
from .instance import Instance, bits, to_mask
from .numeric import log2_enclosure, pow_frac_ceil, pow_frac_enclosure

F0 = Fraction(0)
F1 = Fraction(1)

MC_BASE_SAMPLES = 50_000
MC_INFLATION = Fraction(11, 10)


def alpha_greedy(inst: Instance) -> ExpandingSequence:
    """Greedy expanding sequence: scan receivers by wanted rate (desc, then
    index), adding any whose wanted message avoids every earlier S(j)."""
    rates = inst.rates or (F1,) * inst.n
    # by wanted rate, descending; the sort is stable, so ties keep index order
    order = sorted(range(inst.m), key=lambda j: rates[inst.receivers[j].wants], reverse=True)
    used = 0  # the union of the chosen S(j), a mask
    seq = []
    for j in order:
        if not used >> inst.receivers[j].wants & 1:
            seq.append(j)
            used |= inst.side_masks[j]
    out = ExpandingSequence(tuple(seq), sequence_weight(inst, seq))
    if not is_expanding_sequence(inst, out.receivers):
        raise AssertionError("greedy produced a sequence that is not expanding")
    return out


# -- low-degree cover -------------------------------------------------------


def low_degree_cover(inst: Instance, vmask: int, d: int, seed: int = 0) -> FractionalCover:
    """Weak fractional cover, at unit rate and of total weight at most
    MC_INFLATION * (4d+2), of the receivers wanting into the message set V
    (the mask vmask), each with |V - S(j)| <= d.  Its hypercliques are
    {j : f(j) in T <= S(j)} for a random prefix set T of V, weighted by
    (4d+2) * MC_INFLATION times their sampled frequency; items are inst's
    receiver indices, identical copies included."""
    return next(cover for cover, covered in _sample_rounds(inst, vmask, d, seed) if covered)


def _sample_rounds(inst: Instance, vmask: int, d: int, seed: int):
    """low_degree_cover's rounds of MC_BASE_SAMPLES, then twice as many
    samples as the round before: (the round's cover, whether it covers
    every receiver).  Receivers are grouped by (f(j), S(j) & V), and a
    hyperclique is the union of the groups T takes.  T is the prefix of a
    uniformly random permutation of [|V| + d] cut just before its first
    element >= |V|, point i standing for V's i-th message.  A round covers
    a group that `hits` of its draws take when (4d+2) * 11 * hits >=
    10 * samples: a stopping rule; build_cover's exact check certifies."""
    groups: dict[tuple[int, int], list[int]] = {}
    for j, r in enumerate(inst.receivers):
        if vmask >> r.wants & 1:
            side = inst.side_masks[j] & vmask
            if (vmask & ~side).bit_count() > d:
                raise ValueError(f"receiver {j} has |S| + d = {side.bit_count() + d} < n")
            groups.setdefault((1 << r.wants, side), []).append(j)
    keys, members = list(groups), list(groups.values())
    scale = (4 * d + 2) * MC_INFLATION
    point = [1 << v for v in bits(vmask)]
    n = len(point)
    rng = random.Random(seed)
    points = list(range(n + d))
    samples = MC_BASE_SAMPLES
    while True:
        counts: dict[int, int] = {}  # draws per set of groups taken, as a mask
        for _ in range(samples):
            # a partial Fisher-Yates shuffle, stopped at the first point >= n:
            # its prefix is that of a uniformly random permutation, whatever
            # order the previous sample left the points in
            tmask = 0
            for i in range(n + d):
                k = rng.randrange(i, n + d)
                x = points[k]
                if x >= n:
                    break
                points[k], points[i] = points[i], x
                tmask |= point[x]
            taken = 0
            for g, (fb, side) in enumerate(keys):
                if fb & tmask and not tmask & ~side:
                    taken |= 1 << g
            if taken:
                counts[taken] = counts.get(taken, 0) + 1
        hits = [0] * len(keys)
        weights = {}
        for taken, c in counts.items():
            for g in bits(taken):
                hits[g] += c
            weights[frozenset(j for g in bits(taken) for j in members[g])] = (
                scale * Fraction(c, samples))
        cover = FractionalCover(
            "weak", sorted(weights.items(), key=lambda kv: sorted(kv[0])),
            sum(weights.values(), F0),
        )
        yield cover, all(scale.numerator * h >= scale.denominator * samples for h in hits)
        samples *= 2  # under-covered: resample at higher resolution


# -- expanding sequence or cover --------------------------------------------


@dataclass
class CoverParts:
    """The cover side of the expanding-or-cover recursion before anything is
    built, decided on the message mask `top`: the hypercliques it takes at
    weight 1, as receiver-index sets, and its dense leaves, each a message
    set V (a mask) with its d, awaiting low_degree_cover(inst, V, d).  All
    in the decided instance's own receiver indices and messages."""

    top: int
    cliques: list[frozenset[int]] = field(default_factory=list)
    leaves: list[tuple[int, int]] = field(default_factory=list)


def decide_expanding_or_cover(inst: Instance, k: int) -> ExpandingSequence | CoverParts:
    """The expanding-or-cover recursion's decision: a verified expanding
    sequence of size k+1, or the parts of a cover of nominal weight (1 per
    hyperclique, 4d+2 per leaf) at most 6k * n^{1-1/k}.

    Each step holds a message set V as a mask and its receivers, those
    wanting into V, in increasing order; within V a receiver knows
    S(j) & V, so V's induced sub-instance is never built.  The decision
    builds no low-degree cover either, only checks each dense leaf's
    precondition, |V - S(j)| <= d for every receiver of V."""
    return _decide(inst, k, (1 << inst.n) - 1)


def _decide(inst: Instance, k: int, top: int) -> ExpandingSequence | CoverParts:
    """decide_expanding_or_cover restricted to the message mask `top`: its
    |top| messages and the receivers wanting into it, in inst's receiver
    indices and messages.  The parts record `top`."""
    if k < 1:
        raise ValueError("need k >= 1")
    nn = top.bit_count()
    wants = [r.wants for r in inst.receivers]
    side = inst.side_masks
    parts = CoverParts(top)

    def go(vmask: int, recs: list[int], kk: int) -> list[int] | None:
        # An expanding sequence, or None once V's cover parts are in `parts`.
        if kk == 1:
            pair = expanding_pair(inst, recs)
            if pair is None:
                if recs:
                    parts.cliques.append(frozenset(recs))
                return None
            return list(pair)
        while recs:
            blind = [(vmask & ~side[j]).bit_count() for j in recs]  # |V - S(j)|
            i1 = max(range(len(recs)), key=lambda i: (blind[i], -i))
            j1 = recs[i1]
            # dense enough: |V - S(j1)|^k <= n^{k-1}, exactly
            if blind[i1] ** kk <= nn ** (kk - 1):
                d = pow_frac_ceil(nn, kk)
                if blind[i1] > d:
                    raise ValueError(f"receiver {j1} has |S| + d = "
                                     f"{vmask.bit_count() - blind[i1] + d} < n")
                parts.leaves.append((vmask, d))
                return None
            v1 = vmask & ~side[j1]
            seq = go(v1, [j for j in recs if v1 >> wants[j] & 1], kk - 1)
            if seq is not None:
                return [j1] + seq
            vmask &= side[j1]
            recs = [j for j in recs if vmask >> wants[j] & 1]
        return None

    seq = go(top, [j for j in range(inst.m) if top >> wants[j] & 1], k)
    if seq is None:
        return parts
    if len(seq) != k + 1 or not is_expanding_sequence(inst, seq):
        raise AssertionError("recursion produced a bad sequence")
    return ExpandingSequence(tuple(seq), sequence_weight(inst, seq))


def build_cover(inst: Instance, k: int, parts: CoverParts, seed: int = 0) -> FractionalCover:
    """The cover from the parts that _decide(inst, k, parts.top) found: the
    hypercliques merged with each dense leaf's low_degree_cover, in inst's
    receiver indices.  Its one exact check: a unit-rate weak cover of the
    receivers wanting into parts.top, of weight at most MC_INFLATION *
    6k * |top|^{1-1/k}, since sampling raises each leaf's nominal 4d+2 by
    at most MC_INFLATION."""
    merged: dict[frozenset[int], Fraction] = {}
    for item in parts.cliques:
        merged[item] = merged.get(item, F0) + F1
    for vmask, d in parts.leaves:
        for item, w in low_degree_cover(inst, vmask, d, seed=seed).items:
            merged[item] = merged.get(item, F0) + w
    cover = FractionalCover(
        "weak", sorted(merged.items(), key=lambda kv: sorted(kv[0])),
        sum(merged.values(), F0),
    )
    nn = parts.top.bit_count()
    hi = pow_frac_enclosure(nn, k)[1] if nn else F0
    bound = 6 * k * max(hi, F1)  # n^{1-1/k} >= 1 guard for n = 1
    # rate 0 outside top: a receiver wanting there asks for no coverage
    need = tuple(F1 if parts.top >> v & 1 else F0 for v in range(inst.n))
    bad = verify_cover(Instance(inst.n, inst.receivers, need), cover)
    if bad:
        raise AssertionError(f"recursion cover failed verification: {bad}")
    if cover.total > MC_INFLATION * bound:
        raise AssertionError(f"cover weight {cover.total} exceeds {MC_INFLATION} * {bound}")
    return cover


# -- weighted tau pipeline --------------------------------------------------


@dataclass
class TauClass:
    s: int
    vertices: list[int]
    k: int
    cover_term: Fraction | None  # certified 12 k n^{1-1/k}, None past the cap
    trivial_term: Fraction  # 2 |V_s|
    choice: str  # "cover" | "trivial"
    term: Fraction  # 2^{-s} * min(...)
    # the verified recursion cover when choice == "cover": unit-rate weak
    # cover of the receivers wanting into `vertices`, by receiver index of
    # the instance; None for a trivial class (one clique per vertex).  term
    # uses cover_term, which the recursion's bound proves; the built cover,
    # sampled leaves and all, weighs at most MC_INFLATION * cover_term / 2
    cover: FractionalCover | None = None


@dataclass
class TauCertificate:
    value: Fraction
    classes: list[TauClass] = field(default_factory=list)
    k_cap: int = 0
    # "monte-carlo" when a built class cover (choice == "cover") sampled a
    # low-degree leaf with seed, else "exact"; the fields above do not
    # depend on it
    mode: str = "exact"  # "exact" | "monte-carlo"
    seed: int = 0
    fallback: str | None = None  # set when n < 4 shortcuts the pipeline


def tau(inst: Instance, seed: int = 0) -> TauCertificate:
    """Certified upper bound on the minimum weak-cover weight (hence on the
    broadcast rate): dyadic rate classes 2^{-s} < r <= 2^{1-s}, per class the
    cheaper of the recursion cover bound 12 k(s) n^{1-1/k(s)} and the trivial
    2|V_s|, scaled by 2^{-s}.  k(s) is the least k <= k_cap at which the
    decision on the class's message mask finds no expanding sequence of
    size k+1; each class is decided once per k.

    A class's cover is built (by build_cover, with `seed`, from the parts
    that decided k(s)) and stored on its TauClass only where it sets the
    value, i.e. choice == "cover".
    With k >= 2 that needs n >= 144, since 12 k n^{1-1/k} > 2n for
    n < 144; with k = 1 the cover is a single hyperclique.  The mode is
    "monte-carlo" exactly when such a cover has a dense leaf to sample."""
    n = inst.n
    mode = "exact"
    if n < 4:
        # log log n is degenerate; take the cheaper of "send everything" and
        # the exact cover LP.
        total = sum((inst.rate(v) for v in range(n)), F0)
        psi = fractional_cover(inst, "weak").total if inst.m else F0
        return TauCertificate(min(total, psi), [], 0, mode, seed, "small-n exact value")
    classes: dict[int, list[int]] = {}
    for v, r in enumerate(inst.rates or (F1,) * n):
        num, den = r.numerator, r.denominator
        if not 0 < num <= den:
            raise ValueError(f"rate of message {v} must lie in (0, 1]")
        # the least s >= 1 with num * 2^s > den
        classes.setdefault(max(1, (den // num).bit_length()), []).append(v)
    k_cap = (n - 1).bit_length() + 2  # ceil(log2 n) + 2
    out: list[TauClass] = []
    value = F0
    for s in sorted(classes):
        vs = classes[s]
        vmask = to_mask(vs)
        kk = cover = None
        for k in range(1, k_cap + 1):
            parts = _decide(inst, k, vmask)
            if isinstance(parts, CoverParts):
                kk = k
                break
        trivial = Fraction(2 * len(vs))
        if kk is None:
            kk, cover_term, choice = k_cap, None, "trivial"
            best = trivial
        else:
            cover_term = 12 * kk * pow_frac_enclosure(n, kk)[1]
            choice = "cover" if cover_term <= trivial else "trivial"
            best = min(cover_term, trivial)
        if choice == "cover":
            cover = build_cover(inst, kk, parts, seed=seed)
            if parts.leaves:
                mode = "monte-carlo"
        term = Fraction(1, 2**s) * best
        out.append(TauClass(s, vs, kk, cover_term, trivial, choice, term, cover))
        value += term
    return TauCertificate(value, out, k_cap, mode, seed)


@dataclass
class ApproxReport:
    lower: Fraction
    sequence: ExpandingSequence
    upper: Fraction
    certificate: TauCertificate
    ratio_bound: Fraction | None  # n(2 loglog n + 24)/log n, base-2 logs


def ratio_bound(n: int) -> Fraction:
    """Certified rational upper bound on n(2 loglog n + 24)/log n for n >= 4,
    rounding the log enclosures adversarially (numerator up, denominator
    down)."""
    if n < 4:
        raise ValueError("ratio bound needs n >= 4")
    log_lo, log_hi = log2_enclosure(Fraction(n))
    ll_hi = log2_enclosure(log_hi)[1]
    return n * (2 * ll_hi + 24) / log_lo


def approximate_beta(inst: Instance, seed: int = 0) -> ApproxReport:
    seq = alpha_greedy(inst)
    cert = tau(inst, seed=seed)
    rb = ratio_bound(inst.n) if inst.n >= 4 else None
    return ApproxReport(seq.weight, seq, cert.value, cert, rb)
