"""Polynomial-time sandwich bounds on the broadcast rate.

Lower bound: greedy expanding sequence (a sequence of receivers, each wanting
a message unknown to all earlier ones).  Upper bound: the certified quantity
tau built from weak fractional hyperclique covers -- a dyadic partition by
message rate, and per class either a cover from the expanding-or-cover
recursion (weight at most 12 k n^{1-1/k}) or the trivial one-clique-per-vertex
cover of weight 2|V_s|.  All arithmetic is rational; irrational thresholds
n^{1-1/k} enter only through certified rational enclosures.

The recursion is split in two.  decide_expanding_or_cover finds either the
expanding sequence or the cover's parts (hypercliques and dense leaves),
recursing on message sets held as masks; build_cover turns the parts into
the merged cover, sampled by low_degree_cover at each leaf and verified
exactly.  tau's rate classes come from the rates' integer numerators and
denominators, and its search for k(s) runs only the decision, on the
class's message mask, so a class whose cover is not taken builds no
sub-instance.  A class's cover is built only where it sets tau's value:
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
from .instance import Instance, Receiver, bits, to_mask
from .numeric import log2_enclosure, pow_frac_ceil, pow_frac_enclosure

F0 = Fraction(0)
F1 = Fraction(1)

MC_BASE_SAMPLES = 50_000
MC_INFLATION = Fraction(11, 10)


def induced_subhypergraph(inst: Instance, verts) -> tuple[Instance, list[int], list[int]]:
    """Restriction to a vertex set: keeps receivers wanting into it, with side
    information intersected.  Returns (sub, vertex map, edge map) where maps
    send sub indices back to the parent's."""
    vmap = sorted(verts)
    local = {v: i for i, v in enumerate(vmap)}
    recs = []
    emap = []
    for j, r in enumerate(inst.receivers):
        if r.wants not in local:
            continue
        recs.append(
            Receiver(local[r.wants], frozenset(local[v] for v in r.knows if v in local))
        )
        emap.append(j)
    rates = tuple(inst.rate(v) for v in vmap) if inst.is_weighted() else None
    return Instance(len(vmap), tuple(recs), rates), vmap, emap


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


def _check_low_degree(inst: Instance, d: int) -> None:
    """low_degree_cover's precondition: |S(j)| + d >= n for every receiver."""
    for j, r in enumerate(inst.receivers):
        if len(r.knows) + 1 + d < inst.n:
            raise ValueError(f"receiver {j} has |S| + d = {len(r.knows) + 1 + d} < n")


def low_degree_cover(inst: Instance, d: int, seed: int = 0) -> FractionalCover:
    """Weak fractional cover of total weight <= MC_INFLATION * (4d+2) for
    dense side information (every receiver with |S(j)| + d >= n).
    Hypercliques are {j : f(j) in T <= S(j)} for a random prefix set T (a
    uniformly random permutation of [n+d] cut just before its first element
    >= n, drawn one point at a time up to that element), each weighted by
    (4d+2) * MC_INFLATION times its sampled frequency; the sample count
    doubles until the coverage of every receiver verifies exactly."""
    n = inst.n
    _check_low_degree(inst, d)
    reps = inst.distinct_receivers()
    info = [(j, 1 << inst.receivers[j].wants, inst.side_masks[j]) for j in reps]

    def clique_of(tmask: int) -> frozenset[int]:
        return frozenset(j for j, fb, sm in info if fb & tmask and not tmask & ~sm)

    rng = random.Random(seed)
    points = list(range(n + d))
    samples = MC_BASE_SAMPLES
    while True:
        counts: dict[frozenset[int], int] = {}
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
                tmask |= 1 << x
            cl = clique_of(tmask)
            if cl:
                counts[cl] = counts.get(cl, 0) + 1
        weights = {
            cl: Fraction(4 * d + 2) * MC_INFLATION * Fraction(c, samples)
            for cl, c in counts.items()
        }
        cover = FractionalCover(
            "weak", sorted(weights.items(), key=lambda kv: sorted(kv[0])),
            sum(weights.values(), F0),
        )
        if not verify_cover(inst, cover):
            return cover
        samples *= 2  # under-covered: resample at higher resolution


# -- expanding sequence or cover --------------------------------------------


@dataclass
class CoverParts:
    """The cover side of the expanding-or-cover recursion before anything is
    built: the hypercliques it takes at weight 1, as receiver-index sets,
    and its dense leaves, each a message set V (a mask) with its d, awaiting
    low_degree_cover on V's induced sub-instance."""

    cliques: list[frozenset[int]] = field(default_factory=list)
    leaves: list[tuple[int, int]] = field(default_factory=list)


def _members(sub: Instance, emap: list[int]) -> dict[int, list[int]]:
    """members[rep]: every receiver of `sub` that rep represents, in emap's
    indices; a hyperclique of representatives lifts to the union of its
    members' lists."""
    members: dict[int, list[int]] = {}
    for e, rep in enumerate(sub.representative):
        members.setdefault(rep, []).append(emap[e])
    return members


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
    """decide_expanding_or_cover on the sub-instance induced by the message
    mask `top`, |top| messages, in inst's receiver indices and messages."""
    if k < 1:
        raise ValueError("need k >= 1")
    nn = top.bit_count()
    wants = [r.wants for r in inst.receivers]
    side = inst.side_masks
    parts = CoverParts()

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
    """The cover from decide_expanding_or_cover(inst, k)'s parts: each
    dense leaf's low_degree_cover on its induced sub-instance, lifted to
    inst's receivers, merged with the hypercliques, verified exactly at
    unit rate and held to MC_INFLATION * 6k * n^{1-1/k}.  Sampling raises
    only the leaf weights, each to at most MC_INFLATION * (4d+2), so the
    parts' nominal weight bound carries over inflated."""
    merged: dict[frozenset[int], Fraction] = {}
    for item in parts.cliques:
        merged[item] = merged.get(item, F0) + F1
    for vmask, d in parts.leaves:
        sub, _, emap = induced_subhypergraph(inst, bits(vmask))
        members = _members(sub, emap)
        for cl, w in low_degree_cover(sub, d, seed=seed).items:
            item = frozenset(e for rep in cl for e in members[rep])
            merged[item] = merged.get(item, F0) + w
    cover = FractionalCover(
        "weak", sorted(merged.items(), key=lambda kv: sorted(kv[0])),
        sum(merged.values(), F0),
    )
    hi = pow_frac_enclosure(inst.n, k)[1] if inst.n else F0
    bound = 6 * k * max(hi, F1)  # n^{1-1/k} >= 1 guard for n = 1
    flat = Instance(inst.n, inst.receivers)  # rates ignored: unit coverage
    bad = verify_cover(flat, cover)
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
    2|V_s|, scaled by 2^{-s}.  k(s) is the least k <= k_cap at which
    decide_expanding_or_cover finds no expanding sequence of size k+1.

    A class's cover is built (by build_cover, with `seed`) and stored on
    its TauClass only where it sets the value, i.e. choice == "cover".
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
            if isinstance(_decide(inst, k, vmask), CoverParts):
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
            # build_cover reads the parts in the indices of the instance it
            # covers, so they are decided again on the class's sub-instance
            sub, _, emap = induced_subhypergraph(Instance(inst.n, inst.receivers), vs)
            parts = decide_expanding_or_cover(sub, kk)
            built = build_cover(sub, kk, parts, seed=seed)
            if parts.leaves:
                mode = "monte-carlo"
            cover = FractionalCover(
                "weak", [(frozenset(emap[e] for e in c), w) for c, w in built.items],
                built.total,
            )
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
