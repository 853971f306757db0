"""The benchmark's three workloads: seeded inputs, the op each input runs
through, and the independent reference every answer is checked against.

A workload is a catalogue of templates ordered from cheap to expensive.  A
run of `seconds` takes templates in that order, each `count` times, until
their nominal cost reaches `seconds`, repeating the catalogue when it is
exhausted.  The op count of a run therefore depends only on `seconds`, never
on how fast the code is, so every version of the program does the same work
and percentiles are taken over the same number of samples.  Nominal costs are
the seed code's per-op wall times on a 2-core x86 box.  The seed picks vertex
labellings, random graphs and where in the run each op falls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import icbounds as ib
from icbounds import families as fam
from icbounds.codes import RANDOM_TRIALS
from icbounds.instance import Graph

# icbounds.lp imports scipy.optimize on its first large LP; importing it here
# keeps that one-off cost in set-up instead of in the first timed op.
import scipy.optimize  # noqa: F401


@dataclass
class Op:
    kind: str
    nominal_s: float
    text: str  # the JSON input file the op parses
    ref: dict  # reference values the answer must match
    args: dict = field(default_factory=dict)  # op parameters outside the input
    path: str = ""


@dataclass
class Template:
    kind: str
    count: int
    nominal_s: float
    # (seeded rng, rng that is the same for every op of the template in every
    # run) -> data, ref, args
    make: Callable[[random.Random, random.Random], tuple[dict, dict, dict]]


# -- generators ---------------------------------------------------------------


def relabel(g: Graph, pi: list[int]) -> Graph:
    return Graph.from_edge_list(g.n, [(pi[u], pi[v]) for u, v in g.edge_list()])


def conjugate(perm: list[int], pi: list[int]) -> list[int]:
    """The automorphism `perm` of g, written for relabel(g, pi)."""
    out = [0] * len(perm)
    for v, w in enumerate(perm):
        out[pi[v]] = pi[w]
    return out


def graph_data(g: Graph, symmetry=None) -> dict:
    data: dict = {"n": g.n, "edges": [list(e) for e in g.edge_list()]}
    if symmetry:
        data["symmetry"] = symmetry
    return data


def sparse_cycles_paths(n: int, rng: random.Random, bipartite: bool) -> Graph:
    """Vertex-disjoint paths and cycles covering [n], so every degree is at
    most 2.  Bipartite iff every cycle is even; otherwise the first piece is
    an odd cycle."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    i = 0
    while i < n:
        if i == 0 and not bipartite:
            size, closed = rng.choice((3, 5)), True
        else:
            size = min(rng.randint(3, 6), n - i)
            closed = size >= 3 and rng.random() < 0.5 and (size % 2 == 0 or not bipartite)
        piece = verts[i:i + size]
        edges += list(zip(piece, piece[1:]))
        if closed:
            edges.append((piece[-1], piece[0]))
        i += size
    return Graph.from_edge_list(n, edges)


def connected_bipartite(a: int, b: int, base: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random connected bipartite graph with sides of a and b
    vertices, numbered from base."""
    side_a = list(range(base, base + a))
    side_b = list(range(base + a, base + a + b))
    edges = {(side_a[0], side_b[0])}
    placed = {0: [side_a[0]], 1: [side_b[0]]}
    rest = [(0, v) for v in side_a[1:]] + [(1, v) for v in side_b[1:]]
    rng.shuffle(rest)
    for side, v in rest:
        u = rng.choice(placed[1 - side])
        edges.add((v, u) if side == 0 else (u, v))
        placed[side].append(v)
    for u in side_a:
        for v in side_b:
            if rng.random() < 0.3:
                edges.add((u, v))
    return sorted(edges)


def random_graph_m(n: int, m: int, rng: random.Random) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph.from_edge_list(n, rng.sample(pairs, m))


# -- hierarchy-b2 ---------------------------------------------------------------


def family_case(name: str, relabelled: bool = True, with_symmetry: bool = True, **params):
    def make(rng: random.Random, fixed: random.Random):
        f = fam.family(name, **params)
        g, syms = f.graph, (f.symmetry if with_symmetry else [])
        if relabelled:
            pi = list(range(g.n))
            rng.shuffle(pi)
            g, syms = relabel(g, pi), [conjugate(s, pi) for s in syms]
        return graph_data(g, syms), {"b2": f.expected["b2"], "beta": f.expected["beta"]}, {}

    return make


# Sorted by cost the ops of a run fall into four groups, sized so that the
# median op is a build-heavy one and the tail (the 11th slowest) an LP-bound
# one: 20 five-vertex reports; 24 eight-vertex ones, where building the LP is
# about half the time; 17 seven-vertex ones, where the solve is about 90%; and
# Petersen (mostly build), co-C9 and the 512-variable LP.  The eight- and
# seven-vertex ops keep the family's vertex order: relabelling changes their
# solve time by up to 2x, and the median and tail are taken among them.
HIERARCHY = [
    Template("C5", 10, 0.014, family_case("cycle", n=5)),
    Template("co-C5", 10, 0.014, family_case("complement-cycle", n=5)),
    Template("C8", 6, 0.125, family_case("cycle", n=8, relabelled=False)),
    Template("co-C8", 6, 0.135, family_case("complement-cycle", n=8, relabelled=False)),
    Template("circulant-8-2", 6, 0.135, family_case("circulant", n=8, k=2, relabelled=False)),
    Template("cayley3-8", 6, 0.13, family_case("cayley3", n=8, relabelled=False)),
    Template("co-C7", 8, 0.22, family_case("complement-cycle", n=7, relabelled=False)),
    Template("circulant-7-2", 9, 0.23, family_case("circulant", n=7, k=2, relabelled=False)),
    Template("petersen", 1, 0.41, family_case("petersen")),
    Template("co-C9", 1, 0.38, family_case("complement-cycle", n=9)),
    # 512 variables.  It keeps the family's vertex order: relabelling changes
    # the exact re-solve's fill-in and its time by up to 40%, so every seed
    # solves the same LP.
    Template("C9-unreduced", 1, 12.0,
             family_case("cycle", relabelled=False, with_symmetry=False, n=9)),
]


def run_hierarchy(t, op: Op) -> dict:
    inst, data = t.call("instance", "read_problem", ib.read_problem, op.path)
    alpha, _ = t.call("combinatorial", "alpha_exact", ib.alpha_exact, inst)
    lp, _ = t.call("hierarchy", "build_hierarchy_lp", ib.build_hierarchy_lp,
                   inst, 2, data.get("symmetry"))
    t.count("hierarchy.lp_vars", lp.num_vars)
    t.count("hierarchy.lp_rows", len(lp.constraints))
    opt = t.call("lp", "solve_min", ib.solve_min, lp)
    t.count("lp.calls")
    t.count("lp.vars_x_rows", lp.num_vars * len(lp.constraints))
    cover = t.call("combinatorial", "fractional_cover", ib.fractional_cover, inst, "strong")
    t.count("combinatorial.cover_calls")
    t.count("combinatorial.cover_sets", len(cover.items))
    return {"alpha": alpha, "status": opt.status, "b2": opt.value, "chibarf": cover.total}


def check_hierarchy(op: Op, out: dict) -> list[str]:
    if out["status"] != "optimal":
        return [f"LP status {out['status']}"]
    errs = []
    if out["b2"] != op.ref["b2"]:
        errs.append(f"b2 = {out['b2']}, expected {op.ref['b2']}")
    lower, upper = max(out["alpha"], out["b2"]), out["chibarf"]
    if lower != upper:
        errs.append(f"verdict not exact: {lower} <= beta <= {upper}")
    elif upper != op.ref["beta"]:
        errs.append(f"beta = {upper}, expected {op.ref['beta']}")
    return errs


# -- approx-sweep -----------------------------------------------------------------

PSI_REFERENCE_MAX_N = 16


def dense_case(n: int, bipartite: bool, relabelled: bool = True):
    """Complement of a max-degree-2 graph: every receiver knows all but at
    most two other messages, the low-degree cover's exact path for n <= 20.
    The graph is the same for every op of the template and in every run,
    since the cost differs by up to 2.4x between graphs of one size, which
    would swamp the run-to-run comparison; the seed relabels it unless
    `relabelled` is off."""

    def make(rng: random.Random, fixed: random.Random):
        g = fam.complement(sparse_cycles_paths(n, fixed, bipartite))
        if relabelled:
            pi = list(range(n))
            rng.shuffle(pi)
            g = relabel(g, pi)
        # rate 2 iff the complement is bipartite, known here by construction
        return graph_data(g), {"is_two": bipartite}, {"tau_seed": rng.randrange(1 << 30)}

    return make


def gnp_case(n: int):
    """G(n, 1/2), the same graph and Monte-Carlo seed in every run: the
    sampler's cost differs by up to 2x between graphs of one size, which
    would swamp the run-to-run comparison."""

    def make(rng: random.Random, fixed: random.Random):
        g = fam.random_gnp(n, 0.5, fixed)
        return graph_data(g), {}, {"tau_seed": n}

    return make


# Sorted by cost: 15 ops with n = 12, 16 with n = 14, 9 with n = 15 and 6
# larger ones (five with n = 16 and G(160, 1/2)), so that the median falls among the n = 14 ops and the tail
# (the 11th slowest) among the n = 15 ones.  Those two groups are one graph
# each, a bipartite complement, in its own vertex order: relabelling changes
# its cost by up to 1.5x, and a second graph would put the median or the tail
# on the boundary between two costs.
APPROX = [
    Template("dense-12", 8, 0.1, dense_case(12, bipartite=True)),
    Template("dense-12-odd", 7, 0.1, dense_case(12, bipartite=False)),
    Template("dense-14", 16, 0.32, dense_case(14, bipartite=True, relabelled=False)),
    Template("dense-15", 9, 0.55, dense_case(15, bipartite=True, relabelled=False)),
    Template("dense-16", 3, 0.8, dense_case(16, bipartite=True)),
    Template("dense-16-odd", 2, 1.0, dense_case(16, bipartite=False)),
    Template("gnp-160", 1, 6.2, gnp_case(160)),
]


def run_approx(t, op: Op) -> dict:
    inst, _ = t.call("instance", "read_problem", ib.read_problem, op.path)
    seq = t.call("approx", "alpha_greedy", ib.alpha_greedy, inst)
    cert = t.call("approx", "tau", ib.tau, inst, seed=op.args["tau_seed"])
    t.count("approx.exact_mode_ops" if cert.mode == "exact" else "approx.mc_mode_ops")
    dec = t.call("beta2", "decide_beta_eq_2", ib.decide_beta_eq_2, inst)
    t.count("beta2.is_two" if dec.is_two else "beta2.aac")
    out = {"lower": seq.weight, "upper": cert.value, "is_two": dec.is_two,
           "reason": dec.reason, "bound": dec.bound, "aac": dec.aac}
    if inst.n <= PSI_REFERENCE_MAX_N:
        psi = t.call("combinatorial", "fractional_cover", ib.fractional_cover, inst, "weak")
        chi = t.call("combinatorial", "fractional_cover", ib.fractional_cover, inst, "strong")
        t.count("combinatorial.cover_calls", 2)
        t.count("combinatorial.cover_sets", len(psi.items) + len(chi.items))
        t.count("approx.tau_over_psi_sum", float(cert.value / psi.total))
        t.count("approx.tau_over_psi_ops")
        t.count("approx.tau_gap_sum", float(cert.value - psi.total))
        out.update(psi=psi.total, chibarf=chi.total)
    return out


def check_approx(op: Op, out: dict) -> list[str]:
    errs = []
    lo, up = out["lower"], out["upper"]
    if not lo <= up:
        errs.append(f"lower {lo} > upper {up}")
    if "psi" in out:
        psi, chi = out["psi"], out["chibarf"]
        if not lo <= psi <= up:
            errs.append(f"not alpha_greedy {lo} <= psi_f {psi} <= tau {up}")
        if not psi <= chi:
            errs.append(f"psi_f {psi} > chibar_f {chi}")
    g = Graph.from_edge_list(op.ref["n"], op.ref["edges"])
    if out["is_two"] != ib.undirected_beta2(g):
        errs.append(f"decide_beta_eq_2 says {out['is_two']}, undirected_beta2 disagrees")
    if "is_two" in op.ref and out["is_two"] != op.ref["is_two"]:
        errs.append(f"decide_beta_eq_2 says {out['is_two']}, the generator built {op.ref['is_two']}")
    if not out["is_two"] and out["reason"] == "aac":
        if out["bound"] != 2 + Fraction(1, out["aac"].n):
            errs.append(f"witness bound {out['bound']} is not 2 + 1/{out['aac'].n}")
    return errs


# -- code-verify ------------------------------------------------------------------


def strong_case(name: str, **params):
    def make(rng: random.Random, fixed: random.Random):
        f = fam.family(name, **params)
        pi = list(range(f.graph.n))
        rng.shuffle(pi)
        return graph_data(relabel(f.graph, pi)), {"rate": f.expected["beta"]}, {"scheme": "strong"}

    return make


def mds_case(name: str, **params):
    def make(rng: random.Random, fixed: random.Random):
        data, ref, _ = strong_case(name, **params)(rng, fixed)
        return data, ref, {"scheme": "mds", "verify_seed": rng.randrange(1 << 30)}

    return make


def two_symbol_case(sides: list[tuple[int, int]]):
    """Complement of a disjoint union of connected bipartite graphs, one per
    entry of `sides`: rate 2 with 2 label classes per component, so the
    two-symbol code runs over F_3 (one component) or F_5 (two)."""

    def make(rng: random.Random, fixed: random.Random):
        edges, base = [], 0
        for a, b in sides:
            edges += connected_bipartite(a, b, base, rng)
            base += a + b
        pi = list(range(base))
        rng.shuffle(pi)
        g = fam.complement(relabel(Graph.from_edge_list(base, edges), pi))
        return graph_data(g), {"field": 3 if len(sides) == 1 else 5}, {"scheme": "two-symbol"}

    return make


def minrk_case(n: int):
    def make(rng: random.Random, fixed: random.Random):
        g = random_graph_m(n, rng.randint(8, 13), rng)  # <= 26 free entries
        return graph_data(g), {}, {"scheme": "minrank"}

    return make


# Sorted by cost: 10 ops of up to 0.2 s, the 12 strong-cover codes of C9
# (2^9 states each) and 5 larger ones.  The median and the tail (the 11th
# slowest) both fall among the C9 codes, whose cost does not depend on the
# seed; the random two-symbol and minrank graphs do.
CODES = [
    Template("strong-C5", 1, 0.004, strong_case("cycle", n=5)),
    Template("strong-co-C5", 1, 0.004, strong_case("complement-cycle", n=5)),
    Template("minrk-10", 1, 0.006, minrk_case(10)),
    Template("minrk-11", 1, 0.009, minrk_case(11)),
    Template("minrk-12", 1, 0.015, minrk_case(12)),
    Template("strong-C7", 1, 0.021, strong_case("cycle", n=7)),
    Template("two-symbol-F3-10", 1, 0.026, two_symbol_case([(5, 5)])),
    Template("mds-co-C7", 1, 0.17, mds_case("complement-cycle", n=7)),
    Template("two-symbol-F3-12", 2, 0.23, two_symbol_case([(6, 6)])),
    Template("strong-C9", 12, 0.37, strong_case("cycle", n=9)),
    Template("two-symbol-F5-9", 2, 0.64, two_symbol_case([(2, 2), (2, 3)])),
    Template("strong-co-C7", 2, 2.5, strong_case("complement-cycle", n=7)),
    Template("strong-C11", 1, 8.6, strong_case("cycle", n=11)),
]


def _verify(t, inst, scheme, **kw):
    rep = t.call("codes", "verify_code", ib.verify_code, inst, scheme, **kw)
    t.count("codes.states_checked", rep.trials)
    t.count("codes.verified", int(rep.passed))
    t.count("codes.verify_calls")
    return rep


def run_codes(t, op: Op) -> dict:
    inst, data = t.call("instance", "read_problem", ib.read_problem, op.path)
    kind = op.args["scheme"]
    out: dict = {}
    if kind in ("strong", "mds"):
        cover = t.call("combinatorial", "fractional_cover", ib.fractional_cover,
                       inst, "strong" if kind == "strong" else "weak")
        t.count("combinatorial.cover_calls")
        t.count("combinatorial.cover_sets", len(cover.items))
        build = ib.strong_cover_code if kind == "strong" else ib.mds_weak_cover_code
        scheme = t.call("codes", build.__name__, build, inst, cover)
        out["value"] = cover.total
        if kind == "mds":
            out["report"] = _verify(t, inst, scheme, mode="random",
                                    seed=op.args["verify_seed"])
        else:
            out["report"] = _verify(t, inst, scheme)
    elif kind == "two-symbol":
        cert = t.call("beta2", "decide_beta_eq_2", ib.decide_beta_eq_2, inst)
        t.count("beta2.is_two" if cert.is_two else "beta2.aac")
        if not cert.is_two:
            return {"error": f"decide_beta_eq_2 found no rate-2 labelling ({cert.reason})"}
        scheme = t.call("codes", "two_symbol_code", ib.two_symbol_code,
                        inst, cert.labeling, cert.num_classes)
        out["value"] = Fraction(2)
        out["report"] = _verify(t, inst, scheme)
    else:
        g = t.call("instance", "Graph.from_edge_list", Graph.from_edge_list,
                   data["n"], data["edges"])
        mr = t.call("combinatorial", "minrk2", ib.minrk2, g)
        scheme = t.call("codes", "minrk_code", ib.minrk_code, g, mr)
        out.update(value=Fraction(mr.value), matrix=mr.matrix, field=mr.field)
        out["report"] = _verify(t, inst, scheme)
    out.update(rate=scheme.rate, scheme_field=scheme.field)
    return out


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def independence_number(n: int, edges) -> int:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() > best and all(not adj[v] & mask for v in range(n) if mask >> v & 1):
            best = mask.bit_count()
    return best


def check_codes(op: Op, out: dict) -> list[str]:
    if "error" in out:
        return [out["error"]]
    errs = []
    rep = out["report"]
    if not rep.passed:
        errs.append(f"verify_code found {len(rep.failures)} decoding failures")
    want_mode = "random" if op.args["scheme"] == "mds" else "exhaustive"
    if rep.mode != want_mode:
        errs.append(f"verification ran in {rep.mode} mode, planned {want_mode}")
    if want_mode == "random" and rep.trials != RANDOM_TRIALS:
        errs.append(f"{rep.trials} random trials, planned {RANDOM_TRIALS}")
    if out["rate"] != out["value"]:
        errs.append(f"code rate {out['rate']} differs from the bound {out['value']}")
    if "rate" in op.ref and out["value"] != op.ref["rate"]:
        errs.append(f"cover value {out['value']}, expected {op.ref['rate']}")
    if "field" in op.ref and out["scheme_field"] != op.ref["field"]:
        errs.append(f"two-symbol code over F_{out['scheme_field']}, expected F_{op.ref['field']}")
    if "matrix" in out:
        n, edges = op.ref["n"], op.ref["edges"]
        adjacent = {frozenset(e) for e in edges}
        mat = out["matrix"]
        fits = all(mat[u][u] % 2 == 1 for u in range(n)) and all(
            mat[u][v] % 2 == 0 for u in range(n) for v in range(n)
            if u != v and frozenset((u, v)) not in adjacent)
        rows = [sum((mat[u][v] % 2) << v for v in range(n)) for u in range(n)]
        if not fits:
            errs.append("minrank matrix does not fit the graph")
        elif gf2_rank(rows) != out["value"]:
            errs.append(f"minrank matrix has GF(2) rank {gf2_rank(rows)}, not {out['value']}")
        if out["value"] < independence_number(n, edges):
            errs.append(f"minrank {out['value']} below the independence number")
    return errs


# -- registry and planning ----------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    templates: list[Template]
    run: Callable
    check: Callable
    calibration: str  # the host-speed mix its ops follow (hostspeed.py)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hierarchy-b2",
                 "the report sandwich alpha <= b2 = chibar_f on named families; "
                 "hierarchy build and the exact LP do the work",
                 HIERARCHY, run_hierarchy, check_hierarchy, "python"),
        Workload("approx-sweep",
                 "greedy, tau and the rate-2 decision on seeded dense and random graphs; "
                 "no hierarchy LP, only many tiny cover LPs",
                 APPROX, run_approx, check_approx, "python"),
        Workload("code-verify",
                 "build a strong-cover, two-symbol, minrank or MDS code and verify it; "
                 "the int64 decoding simulation does the work",
                 CODES, run_codes, check_codes, "numpy"),
    )
}


def plan(workload: str, seed: int, seconds: float) -> list[Op]:
    """Generate and serialize the ops of one run (see the module docstring)."""
    w = WORKLOADS[workload]
    ops: list[Op] = []
    budget = 0.0
    rnd = 0
    while budget < seconds:
        rng = random.Random(f"{workload}:{seed}:{rnd}")
        for tpl in w.templates:
            for _ in range(tpl.count):
                if budget >= seconds:
                    break
                fixed = random.Random(f"{workload}:{tpl.kind}:{rnd}")
                data, ref, args = tpl.make(rng, fixed)
                ref.update(n=data["n"], edges=data["edges"])
                ops.append(Op(tpl.kind, tpl.nominal_s, json.dumps(data), ref, args))
                budget += tpl.nominal_s
        rnd += 1
    # Stratified order: the j-th of c ops of a kind lands at a random point of
    # the j-th c-quantile of the run, so every kind samples the whole run and
    # machine-speed drift during the run averages out within each kind.
    rng = random.Random(f"{workload}:{seed}:order")
    by_kind: dict[str, list[Op]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    keyed = [((j + rng.random()) / len(group), op)
             for group in by_kind.values() for j, op in enumerate(group)]
    return [op for _, op in sorted(keyed, key=lambda kv: kv[0])]
