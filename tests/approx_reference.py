"""References for tests.

low_degree_cover_reference is the low-degree cover by exact enumeration of
the prefix-set distribution, the construction whose weight 4d+2 the
recursion's bound is proved for; `icbounds.approx.low_degree_cover` samples
it.  exact_leaves() patches it into `icbounds.approx` for a block.

induced_subhypergraph is the restriction of an instance to a message set,
relabelled; the one-pass recursion below works on it, as `icbounds.approx`
did before its decision and build worked in the instance's own indices.

expanding_or_cover_reference is the expanding-or-cover recursion in one
pass, on induced sub-instances, as it was before the decision and the build
were split, and tau_reference is tau's k search on top of it.  They build
every leaf's cover as they go, by `icbounds.approx.low_degree_cover` looked
up at call time (so exact_leaves() reaches them too), and are slow;
`icbounds.approx`'s decision followed by its build must give the same
sequences, covers and certificates.

alpha_greedy_reference is the greedy expanding sequence on Python sets,
ordered by the key (-rate, index), as `icbounds.approx.alpha_greedy` ran
before it read the side-information masks."""

from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest
from instance_reference import side_set

from icbounds import approx
from icbounds.approx import MC_INFLATION, TauCertificate, TauClass
from icbounds.combinatorial import (
    ExpandingSequence,
    FractionalCover,
    fractional_cover,
    is_expanding_sequence,
    is_weak_hyperclique,
    sequence_weight,
    verify_cover,
)
from icbounds.instance import Instance, Receiver
from icbounds.numeric import pow_frac_ceil, pow_frac_enclosure

F0 = Fraction(0)
F1 = Fraction(1)


def alpha_greedy_reference(inst: Instance) -> ExpandingSequence:
    order = sorted(range(inst.m), key=lambda j: (-inst.rate(inst.receivers[j].wants), j))
    used: set[int] = set()
    seq = []
    for j in order:
        r = inst.receivers[j]
        if r.wants not in used:
            seq.append(j)
            used |= side_set(r)
    return ExpandingSequence(tuple(seq), sequence_weight(inst, seq))


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


def _prefix_sets(n: int, d: int):
    """Exact distribution of the random prefix set T: a uniformly random
    permutation of [n+d] is cut just before its first element >= n.  Yields
    (mask, probability); any T of size t has probability
    t! * d * (n+d-t-1)! / (n+d)!."""
    if d == 0:
        yield (1 << n) - 1, F1
        return
    denom = factorial(n + d)
    for mask in range(1 << n):
        t = mask.bit_count()
        yield mask, Fraction(factorial(t) * d * factorial(n + d - t - 1), denom)


def low_degree_cover_reference(inst: Instance, vmask: int, d: int, seed: int = 0) -> FractionalCover:
    """The low-degree cover of the receivers wanting into the message mask
    vmask, with every prefix set of V weighted by (4d+2) times its exact
    probability: total weight at most 4d+2, verified at unit rate on V's
    induced sub-instance.  Items are receiver-index sets of inst.  `seed`
    is ignored, so this stands in for the sampler."""
    sub, _, emap = induced_subhypergraph(inst, [v for v in range(inst.n) if vmask >> v & 1])
    for e, r in enumerate(sub.receivers):
        if len(r.knows) + 1 + d < sub.n:
            raise ValueError(f"receiver {emap[e]} has |S| + d = {len(r.knows) + 1 + d} < n")
    weights: dict[frozenset[int], Fraction] = {}
    for local, p in _prefix_sets(sub.n, d):
        t = {i for i in range(sub.n) if local >> i & 1}
        cl = frozenset(
            emap[e] for e, r in enumerate(sub.receivers)
            if r.wants in t and t <= r.knows | {r.wants}
        )
        if cl:
            weights[cl] = weights.get(cl, F0) + (4 * d + 2) * p
    cover = FractionalCover(
        "weak", sorted(weights.items(), key=lambda kv: sorted(kv[0])), sum(weights.values(), F0)
    )
    pos = {j: e for e, j in enumerate(emap)}
    bad = verify_cover(
        Instance(sub.n, sub.receivers),
        FractionalCover("weak", [(frozenset(pos[j] for j in s), w) for s, w in cover.items],
                        cover.total),
    )
    if bad:
        raise AssertionError(f"low-degree cover failed verification: {bad}")
    if cover.total > 4 * d + 2:
        raise AssertionError("cover weight exceeds 4d+2")
    return cover


@contextmanager
def exact_leaves():
    """Within the block, icbounds.approx covers its dense leaves exactly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "low_degree_cover", low_degree_cover_reference)
        yield


def _rep_key(inst, j):
    r = inst.receivers[j]
    return (r.wants, r.knows)


def _recursion(inst, k, seed):
    """(the expanding sequence or the verified cover, number of dense
    leaves covered)."""
    if k < 1:
        raise ValueError("need k >= 1")
    n0 = inst.n
    hi = pow_frac_enclosure(n0, k)[1] if n0 else F0
    bound = 6 * k * max(hi, F1)
    leaves = 0

    def go(sub, emap, kk, nn):
        nonlocal leaves
        if sub.m == 0 or sub.n == 0:
            return "cover", []
        reps = sub.distinct_receivers()
        if kk == 1:
            if is_weak_hyperclique(sub, reps):
                keys = {_rep_key(sub, j) for j in reps}
                item = frozenset(emap[e] for e in range(sub.m) if _rep_key(sub, e) in keys)
                return "cover", [(item, F1)]
            for jp in reps:
                sp = sub.receivers[jp].knows | {sub.receivers[jp].wants}
                for j in reps:
                    if j != jp and sub.receivers[j].wants not in sp:
                        return "seq", [emap[jp], emap[j]]
            raise AssertionError("neither hyperclique nor expanding pair")
        items = []
        cur, cur_emap = sub, emap
        while True:
            if cur.m == 0 or cur.n == 0:
                return "cover", items
            dsz = [cur.n - len(r.knows) for r in cur.receivers]
            j1 = max(range(cur.m), key=lambda j: (dsz[j], -j))
            if (dsz[j1] - 1) ** kk <= nn ** (kk - 1):
                d = pow_frac_ceil(nn, kk)
                leaves += 1
                ld = approx.low_degree_cover(cur, (1 << cur.n) - 1, d, seed=seed)
                for cl, w in ld.items:
                    keys = {_rep_key(cur, j) for j in cl}
                    item = frozenset(
                        cur_emap[e] for e in range(cur.m) if _rep_key(cur, e) in keys
                    )
                    items.append((item, w))
                return "cover", items
            r1 = cur.receivers[j1]
            v1 = set(range(cur.n)) - r1.knows - {r1.wants}
            v2 = r1.knows | {r1.wants}
            sub1, _, em1 = induced_subhypergraph(cur, v1)
            res, payload = go(sub1, [cur_emap[e] for e in em1], kk - 1, nn)
            if res == "seq":
                return "seq", [cur_emap[j1]] + payload
            items.extend(payload)
            cur, _, em2 = induced_subhypergraph(cur, v2)
            cur_emap = [cur_emap[e] for e in em2]

    res, payload = go(inst, list(range(inst.m)), k, n0)
    if res == "seq":
        if len(payload) != k + 1 or not is_expanding_sequence(inst, payload):
            raise AssertionError("recursion produced a bad sequence")
        return ExpandingSequence(tuple(payload), sequence_weight(inst, payload)), 0
    merged = {}
    for item, w in payload:
        merged[item] = merged.get(item, F0) + w
    cover = FractionalCover(
        "weak", sorted(merged.items(), key=lambda kv: sorted(kv[0])), sum(merged.values(), F0)
    )
    if verify_cover(Instance(inst.n, inst.receivers), cover):
        raise AssertionError("recursion cover failed verification")
    if cover.total > MC_INFLATION * bound:
        raise AssertionError("cover weight exceeds the inflated bound")
    return cover, leaves


def expanding_or_cover_reference(inst, k, seed=0) -> ExpandingSequence | FractionalCover:
    return _recursion(inst, k, seed)[0]


def tau_reference(inst, seed=0) -> TauCertificate:
    """tau with the k search on the one-pass recursion (every cover built);
    classes carry no cover."""
    n = inst.n
    mode = "exact"
    if n < 4:
        total = sum((inst.rate(v) for v in range(n)), F0)
        psi = fractional_cover(inst, "weak").total if inst.m else F0
        return TauCertificate(min(total, psi), [], 0, mode, seed, "small-n exact value")
    classes = {}
    for v in range(n):
        r = inst.rate(v)
        s = 1
        while r <= Fraction(1, 2**s):
            s += 1
        classes.setdefault(s, []).append(v)
    k_cap = (n - 1).bit_length() + 2
    out = []
    value = F0
    for s in sorted(classes):
        vs = classes[s]
        sub, _, _ = induced_subhypergraph(Instance(inst.n, inst.receivers), vs)
        kk = None
        for k in range(1, k_cap + 1):
            found, leaves = _recursion(sub, k, seed)
            if isinstance(found, FractionalCover):
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
            if choice == "cover" and leaves:
                mode = "monte-carlo"
        term = Fraction(1, 2**s) * best
        out.append(TauClass(s, vs, kk, cover_term, trivial, choice, term))
        value += term
    return TauCertificate(value, out, k_cap, mode, seed)
