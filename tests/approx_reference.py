"""Reference for tests: the expanding-or-cover recursion in one pass, as it
was before the decision and the build were split, and tau's k search on
top of it.  It builds every leaf's low-degree cover as it goes, so it is
slow; `icbounds.approx` must give the same outcomes and certificates."""

from fractions import Fraction

from icbounds.approx import (
    EXACT_COVER_CAP,
    ApproxOutcome,
    TauCertificate,
    TauClass,
    induced_subhypergraph,
    low_degree_cover,
)
from icbounds.combinatorial import (
    ExpandingSequence,
    FractionalCover,
    fractional_cover,
    is_expanding_sequence,
    is_weak_hyperclique,
    sequence_weight,
    verify_cover,
)
from icbounds.instance import Instance
from icbounds.numeric import pow_frac_ceil, pow_frac_enclosure

F0 = Fraction(0)
F1 = Fraction(1)


def _rep_key(inst, j):
    r = inst.receivers[j]
    return (r.wants, r.knows)


def find_expanding_or_cover_reference(inst, k, mc=False, seed=0) -> ApproxOutcome:
    if k < 1:
        raise ValueError("need k >= 1")
    n0 = inst.n
    hi = pow_frac_enclosure(n0, k)[1] if n0 else F0
    bound = 6 * k * max(hi, F1)

    def go(sub, emap, kk, nn):
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
                ld = low_degree_cover(cur, d, mc=mc, seed=seed)
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
        seq = ExpandingSequence(tuple(payload), sequence_weight(inst, payload))
        return ApproxOutcome("sequence", sequence=seq)
    merged = {}
    for item, w in payload:
        merged[item] = merged.get(item, F0) + w
    cover = FractionalCover(
        "weak", sorted(merged.items(), key=lambda kv: sorted(kv[0])), sum(merged.values(), F0)
    )
    if verify_cover(Instance(inst.n, inst.receivers), cover):
        raise AssertionError("recursion cover failed verification")
    if not mc and cover.total > bound:
        raise AssertionError("cover weight exceeds bound")
    return ApproxOutcome("cover", cover=cover, bound=bound)


def tau_reference(inst, mc=False, seed=0) -> TauCertificate:
    """tau with the k search on the one-pass recursion (every cover built);
    classes carry no cover."""
    n = inst.n
    mode = "monte-carlo" if (mc or n > EXACT_COVER_CAP) else "exact"
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
            if find_expanding_or_cover_reference(sub, k, mc=mc, seed=seed).kind == "cover":
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
        term = Fraction(1, 2**s) * best
        out.append(TauClass(s, vs, kk, cover_term, trivial, choice, term))
        value += term
    return TauCertificate(value, out, k_cap, mode, seed)
