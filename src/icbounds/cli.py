"""Command-line surface: generators, bounds, the LP hierarchy, the
approximation pipeline, the rate-2 decider, code construction (a code's
two arrays, encoder and bcast, printed with the side rows they imply),
combined reports, and the one-shot reproduction suite.  Every command takes
an instance or a graph file; a graph is read as its instance.

Output formats: json (default), csv (flattened key,value rows), table
(aligned, rationals annotated with an approximate 4-place decimal).  All
rationals are printed as "p/q".  Exit codes: 0 success, 2 validation error,
3 resource cap exceeded, memory exhausted or an LP certificate failed.  The
library raises CapExceeded where the resource is spent (minrk2 for
--minrk-cap, verify_code and the code constructions for fields beyond
exact float64 decoding, the cover codes past their fixed encoder size, the
hierarchy LP builder for --max-lp-vars, solve_min for an LP HiGHS cannot
take and a basis past its fixed cap) and lp.Uncertified for an LP no
checked certificate settles; the CLI maps these, and a MemoryError, to 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import partial, reduce

from . import codes, families
from .approx import approximate_beta
from .beta2 import decide_beta_eq_2, undirected_beta2
from .combinatorial import (
    MINRK_FREE_ENTRY_CAP,
    FractionalCover,
    alpha_exact,
    fractional_cover,
    integer_clique_cover,
    minrk2,
    representation_rank,
)
from .hierarchy import MAX_LP_VARS, solve_bk
from .instance import (
    CapExceeded,
    Instance,
    ParseError,
    _graph_from_dict,
    disjoint_union,
    from_graph,
    graph_dict,
    instance_dict,
    read_problem,
    write_json,
)
from .lp import Uncertified, load_binding
from .numeric import format_rational
from .report import build_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAP = 3


# -- output formatting -------------------------------------------------------


def _flatten(obj, prefix="", out=None):
    if out is None:
        out = []
    if isinstance(obj, dict):
        for k in obj:
            _flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}.", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", out)
    else:
        out.append((prefix.rstrip("."), obj))
    return out


def _decimalize(v):
    # tables show "p/q (~x.xxxx approx)" for non-integer rationals
    if isinstance(v, str) and "/" in v:
        try:
            f = Fraction(v)
            return f"{v} (~{float(f):.4f} approx)"
        except ValueError:
            return v
    return v


def emit(obj: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(obj, stream, indent=1, sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        w = csv.writer(stream)
        w.writerow(["key", "value"])
        for k, v in _flatten(obj):
            w.writerow([k, v])
    else:
        rows = [(k, _decimalize(v)) for k, v in _flatten(obj)]
        width = max((len(k) for k, _ in rows), default=0)
        for k, v in rows:
            stream.write(f"{k:<{width}}  {v}\n")


def _rat(x) -> str:
    return format_rational(Fraction(x))


# -- input plumbing ----------------------------------------------------------


def _int(text: str, what: str) -> int:
    """int(text), else ArgumentTypeError naming `what`: argparse prints its
    words (for a ValueError, the type function's name), and so does main."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} {text!r} is not an integer") from None


def _levels(spec: str) -> tuple[int, ...]:
    levels = () if spec == "none" else tuple(_int(x, "level") for x in spec.split(","))
    for k in levels:
        if levels.count(k) > 1:
            raise argparse.ArgumentTypeError(f"level {k} given twice")
    return levels


def _cap(spec: str) -> int:
    """A resource cap: a count, 0 or more (a negative one would read as a
    cap already spent)."""
    cap = _int(spec, "cap")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"cap {cap} is negative")
    return cap


def _sym_arg(spec: str, inst: Instance, data: dict):
    if spec == "auto":
        return data.get("symmetry")  # generators stored by `gen`
    if spec == "none":
        return None
    if spec == "cyclic":
        return [families.shift_perm(inst.n)]
    if spec.startswith("file:"):
        with open(spec[5:]) as fh:
            return json.load(fh)
    raise ParseError(f"unknown symmetry spec {spec!r} (use auto, cyclic, none, file:PATH)")


def _minrk_cap(args, computes_minrk2: bool, where: str) -> int:
    """--minrk-cap, or MINRK_FREE_ENTRY_CAP without it; refused where minrk2
    is not computed, as the flag would be silently ignored there."""
    if args.minrk_cap is None:
        return MINRK_FREE_ENTRY_CAP
    if not computes_minrk2:
        raise ParseError(f"--minrk-cap applies only with {where}, which computes minrk2")
    return args.minrk_cap


# -- subcommands -------------------------------------------------------------


def cmd_gen(args) -> dict:
    params = {}
    for kv in args.params:
        if "=" not in kv:
            raise ParseError(f"family parameter {kv!r} is not key=value")
        k, v = kv.split("=", 1)
        params[k] = _int(v, f"family parameter {k}:")
    out = families.family(args.family, **params)
    data = graph_dict(out.graph) if out.graph is not None else instance_dict(out.instance)
    data["family"] = {"name": out.name, "params": params}
    if out.matrix is not None:
        data["matrix"] = out.matrix
        data["matrix_field"] = out.matrix_field
    if args.with_expected:
        data["expected"] = {k: _rat(v) for k, v in out.expected.items()}
    if out.symmetry:
        data["symmetry"] = out.symmetry
    write_json(data, args.output)
    return {"written": args.output, "n": data["n"], "kind": "graph" if out.graph else "instance"}


def cmd_bounds(args) -> dict:
    minrk_cap = _minrk_cap(args, args.minrk2 == "exact", "--minrk2 exact")
    inst, data = read_problem(args.instance)
    out: dict = {"n": inst.n, "m": inst.m}
    if args.alpha:
        v, seq = alpha_exact(inst)
        out["alpha"] = {"value": _rat(v), "sequence": list(seq.receivers)}
    if args.psif:
        c = fractional_cover(inst, "weak")
        out["psif"] = {
            "value": _rat(c.total),
            "cover": [[sorted(s), _rat(w)] for s, w in c.items],
        }
    if args.chibarf:
        c = fractional_cover(inst, "strong")
        out["chibarf"] = {
            "value": _rat(c.total),
            "cover": [[sorted(s), _rat(w)] for s, w in c.items],
        }
    if args.chibar:
        k, cover = integer_clique_cover(inst)
        out["chibar"] = {"value": str(k), "cover": [sorted(c) for c in cover]}
    if args.minrk2:
        if args.minrk2 == "exact":
            mr = minrk2(inst, cap=minrk_cap)
        else:
            if "matrix" not in data:
                raise ParseError("gram mode needs a 'matrix' entry in the input file")
            mr = representation_rank(inst, data["matrix"], data.get("matrix_field", 2))
        out["minrk2"] = {"value": str(mr.value), "field": mr.field, "exact": mr.exact}
    return out


def cmd_hierarchy(args) -> dict:
    inst, data = read_problem(args.instance)
    load_binding()  # not in runtime_ms
    t0 = time.perf_counter()
    b = solve_bk(inst, args.level, sym=_sym_arg(args.sym, inst, data),
                 max_lp_vars=args.max_lp_vars)
    out = {
        "level": b.level,
        "value": _rat(b.value),
        "variables": b.variables,
        "rows": b.rows,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }
    if args.dump_lp:
        out["constraint_counts"] = b.counts
    return out


def cmd_approx(args) -> dict:
    inst, _ = read_problem(args.instance)
    r = approximate_beta(inst, seed=args.seed)
    cert = r.certificate
    return {
        "lower": _rat(r.lower),
        "sequence": list(r.sequence.receivers),
        "tau": _rat(r.upper),
        "ratio_bound": _rat(r.ratio_bound) if r.ratio_bound is not None else None,
        "mode": cert.mode,
        "seed": cert.seed,
        "k_cap": cert.k_cap,
        "fallback": cert.fallback,
        "classes": [
            {
                "s": c.s,
                "vertices": c.vertices,
                "k": c.k,
                "cover_term": _rat(c.cover_term) if c.cover_term is not None else None,
                "trivial_term": _rat(c.trivial_term),
                "choice": c.choice,
                "term": _rat(c.term),
                "cover_sets": len(c.cover.items) if c.cover is not None else None,
            }
            for c in cert.classes
        ],
    }


def cmd_decide2(args) -> dict:
    inst, data = read_problem(args.instance)
    cert = decide_beta_eq_2(inst)
    out: dict = {"verdict": cert.is_two}
    if cert.is_two:
        scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)
        out["labeling"] = cert.labeling
        out["classes"] = cert.num_classes
        out["scheme"] = {
            "field": scheme.field,
            "broadcast_symbols": scheme.broadcast_symbols,
            "rate": _rat(scheme.rate),
        }
    elif cert.aac is not None:
        out["aac_witness"] = {
            "n": cert.aac.n,
            "vertices": cert.aac.vertices,
            "edges": cert.aac.edges,
        }
        out["bound"] = _rat(cert.bound)
    else:
        out["reason"] = cert.reason
    graph = _graph_from_dict(data) if "receivers" not in data and "edges" in data else None
    # a graph file, as read_problem reads it, with edges and not complete:
    # undirected_beta2 refuses a complete graph (its rate is 1)
    if graph is not None and 0 < len(graph.edges) < graph.n * (graph.n - 1) // 2:
        out["undirected_check"] = undirected_beta2(graph)
    return out


def _scheme_json(inst: Instance, scheme: codes.CodeScheme) -> dict:
    """A code's two arrays as lists, with each decoder's side_coef: the side
    rows its bcast_coef implies, which the code does not store."""
    d = scheme.msg_symbols
    side = codes.side_rows(inst, scheme)
    return {
        "kind": scheme.kind,
        "field": scheme.field,
        "msg_symbols": d,
        "rate": _rat(scheme.rate),
        "encoder": scheme.encoder.tolist(),
        "decoders": [
            {
                "receiver": j,
                "bcast_coef": scheme.bcast[j * d : (j + 1) * d].tolist(),
                "side_coef": side[j * d : (j + 1) * d].tolist(),
            }
            for j in range(len(scheme.bcast) // d)
        ],
    }


def cmd_code(args) -> dict:
    spec = re.fullmatch(r"exhaustive|random(?::([0-9]+)(?::([0-9]+))?)?", args.verify)
    if spec is None:
        raise ParseError(f"bad --verify spec {args.verify!r}")
    mode = args.verify.partition(":")[0]
    trials, seed = int(spec[1] or codes.RANDOM_TRIALS), int(spec[2] or 0)
    inst, data = read_problem(args.instance)
    name = args.scheme
    minrk_cap = _minrk_cap(args, name == "minrk" and "matrix" not in data,
                           "--scheme minrk on a file without a 'matrix' entry")
    if name == "cliquecover":
        k, cover = integer_clique_cover(inst)
        unit = FractionalCover("strong", [(c, Fraction(1)) for c in cover], Fraction(k))
        scheme = codes.strong_cover_code(inst, unit)
    elif name == "strongcover":
        scheme = codes.strong_cover_code(inst, fractional_cover(inst, "strong"))
    elif name == "mds":
        scheme = codes.mds_weak_cover_code(inst, fractional_cover(inst, "weak"))
    elif name == "minrk":
        if "matrix" in data:
            rep = representation_rank(inst, data["matrix"], data.get("matrix_field", 2))
        else:
            rep = minrk2(inst, cap=minrk_cap)
        scheme = codes.minrk_code(inst, rep)
    elif name == "twosymbol":
        cert = decide_beta_eq_2(inst)
        if not cert.is_two:
            raise ParseError("two-symbol scheme needs a rate-2 instance "
                             f"(decider says no: {cert.reason or 'obstruction found'})")
        scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)

    ver = codes.verify_code(inst, scheme, mode=mode, trials=trials, seed=seed)
    return {
        "scheme": _scheme_json(inst, scheme),
        "verification": {
            "mode": ver.mode,
            "trials": ver.trials,
            "seed": ver.seed,
            "passed": ver.passed,
            "failures": [[list(v), j] for v, j in ver.failures],
        },
    }


def cmd_report(args) -> dict:
    minrk_cap = _minrk_cap(args, args.all, "--all")
    inst, data = read_problem(args.instance)
    rep = build_report(
        inst,
        descriptor=args.instance,
        levels=args.level,
        sym=_sym_arg(args.sym, inst, data),
        minrk_cap=minrk_cap if args.all else None,
        with_decide2=args.all or args.decide2,
        max_lp_vars=args.max_lp_vars,
        matrix=data.get("matrix"),
        matrix_field=data.get("matrix_field", 2),
    )
    return rep.as_dict()


# -- reproduction suite ------------------------------------------------------


def _family_claim(*cases: tuple[str, dict]):
    """Run `report` on each (family name, params) case, at the family's
    levels, with its fitting matrix and the rate-2 decision.  A case holds
    when every code in the report passed its check, every expected value
    equals the report's bound of that name, and an expected beta is where
    the largest lower bound meets the smallest upper bound, which an
    exhaustively verified code attains.
    Returns (ok, detail)."""
    ok, details = True, []
    for name, params in cases:
        f = families.family(name, **params)
        label = name + "".join(f" {k}={v}" for k, v in params.items())
        rep = build_report(f.instance, label, f.levels, sym=f.symmetry, with_decide2=True,
                           matrix=f.matrix, matrix_field=f.matrix_field)
        got = {k: e.value for k, e in rep.bounds.items()}
        checks = [e for e in rep.bounds.values() if e.check]
        lower = max((e.value for e in rep.bounds.values() if e.direction == "lower"), default=None)
        upper = min((e.value for e in rep.bounds.values() if e.direction == "upper"), default=None)
        proved = {e.value for e in checks if e.direction == "upper"}
        ok = ok and all(e.check.passed for e in checks) and all(
            lower == upper == v and v in proved if k == "beta" else got.get(k) == v
            for k, v in f.expected.items())
        details.append(f"{label}: " + " ".join(
            f"{k}={_rat(e.value)}" + (f" ({e.witness})" if e.check else "")
            for k, e in rep.bounds.items()) + " [" + "; ".join(rep.verdicts) + "]")
    return ok, "; ".join(details)


def _suite_decide2():
    rng = random.Random(11)
    done = 0
    while done < 10:
        n = rng.randint(3, 8)
        g = families.random_gnp(n, rng.uniform(0.2, 0.8), rng)
        # undirected_beta2 rejects a complete graph (its rate is 1)
        if len(g.edges) == n * (n - 1) // 2 or not undirected_beta2(g):
            continue
        inst = from_graph(g)
        cert = decide_beta_eq_2(inst)
        if not cert.is_two:
            return False, f"decider false on complement-bipartite graph {g.edge_list()}"
        scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)
        if not codes.verify_code(inst, scheme).passed:
            return False, "two-symbol scheme failed verification"
        done += 1
    ok, detail = _family_claim(*(("aac", {"n": k}) for k in (1, 2, 3)))
    return ok, "10 bipartite-complement schemes verified; " + detail


def _suite_union():
    """b2 of 2*C5 on the union's own LP, under the shift of each block, is
    twice b2(C5) = 5/2; alpha(k*C5) = 2k for k = 2, 3."""
    c5 = from_graph(families.cycle(5))
    b2 = solve_bk(disjoint_union(c5, c5), 2, sym=[families.block_shift_perm(10, 5)]).value
    if b2 != 5:
        return False, f"2C5: b2={b2}"
    for k in (2, 3):
        a = alpha_exact(reduce(disjoint_union, [c5] * k))[0]
        if a != 2 * k:
            return False, f"{k}C5: alpha={a}"
    return True, "b2(2C5) = 5 on its own LP; alpha(kC5) = 2k for k=2,3"


QUICK_SUITE = [
    ("beta(C5) = 5/2 with verified scheme", partial(_family_claim, ("cycle", {"n": 5}))),
    ("odd cycles C7, C9", partial(_family_claim, ("cycle", {"n": 7}), ("cycle", {"n": 9}))),
    ("complements of C5, C7",
     partial(_family_claim, ("complement-cycle", {"n": 5}), ("complement-cycle", {"n": 7}))),
    ("tri3: b3 overshoots a rate-2 scheme", partial(_family_claim, ("tri3", {}))),
    ("rate-2 decider with certificates", _suite_decide2),
    ("circulant(7,2) and cayley3(8)",
     partial(_family_claim, ("circulant", {"n": 7, "k": 2}), ("cayley3", {"n": 8}))),
    ("projective-hadamard q=3", partial(_family_claim, ("projective-hadamard", {"q": 3}))),
    ("triangle-free oddtown m=6", partial(_family_claim, ("oddtown", {"m": 6}))),
    ("disjoint-union additivity k*C5", _suite_union),
]
FULL_SUITE = QUICK_SUITE + [
    ("petersen full tier", partial(_family_claim, ("petersen", {}))),
    ("groetzsch full tier", partial(_family_claim, ("groetzsch", {}))),
    ("chvatal full tier", partial(_family_claim, ("chvatal", {}))),
    ("projective-hadamard q=5", partial(_family_claim, ("projective-hadamard", {"q": 5}))),
    ("projective-hadamard q=7", partial(_family_claim, ("projective-hadamard", {"q": 7}))),
]


def _run_suite_item(name, fn):
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as e:  # a crashed claim is a failed claim
        ok, detail = False, f"error: {e}"
    return {
        "claim": name,
        "pass": ok,
        "detail": detail,
        "runtime_ms": int((time.perf_counter() - t0) * 1000),
    }


def cmd_paper_suite(args) -> dict:
    items = FULL_SUITE if args.scale == "full" else QUICK_SUITE
    load_binding()  # not in the first claim's runtime_ms
    results = [_run_suite_item(name, fn) for name, fn in items]
    return {
        "scale": args.scale,
        "passed": sum(r["pass"] for r in results),
        "failed": sum(not r["pass"] for r in results),
        "claims": results,
    }


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="icbounds",
        description="certified bounds, decision procedures, and index codes "
        "for the broadcasting-with-side-information rate",
    )
    ap.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named family to a JSON file")
    p.add_argument("family", choices=families.FAMILY_NAMES)
    p.add_argument("params", nargs="*", help="key=value family parameters")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--with-expected", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bounds", help="combinatorial bounds with witnesses")
    p.add_argument("instance")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--psif", action="store_true")
    p.add_argument("--chibarf", action="store_true")
    p.add_argument("--chibar", action="store_true")
    p.add_argument("--minrk2", choices=["exact", "gram"])
    p.add_argument("--minrk-cap", type=_cap,
                   help=f"with --minrk2 exact (default {MINRK_FREE_ENTRY_CAP})")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("hierarchy", help="solve one LP hierarchy level")
    p.add_argument("instance")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--sym", default="auto",
                   help="auto (the file's generators) | cyclic | none | file:PATH")
    p.add_argument("--dump-lp", action="store_true")
    p.add_argument("--max-lp-vars", type=_cap, default=MAX_LP_VARS)
    p.set_defaults(fn=cmd_hierarchy)

    p = sub.add_parser("approx", help="greedy lower bound and tau certificate")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("decide2", help="decide whether the rate equals 2")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_decide2)

    p = sub.add_parser("code", help="build and verify an index code")
    p.add_argument("instance")
    p.add_argument("--scheme", required=True,
                   choices=["cliquecover", "strongcover", "mds", "minrk", "twosymbol"])
    p.add_argument("--verify", default="exhaustive", help="exhaustive | random[:N[:seed]]")
    p.add_argument("--minrk-cap", type=_cap, help="with --scheme minrk on a file without "
                   f"a 'matrix' entry (default {MINRK_FREE_ENTRY_CAP})")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("report", help="paired lower/upper bound report")
    p.add_argument("instance")
    p.add_argument("--all", action="store_true")
    p.add_argument("--level", type=_levels, default=(2,), help="a level, a comma list (e.g. 2,3) or none")
    p.add_argument("--sym", default="auto")
    p.add_argument("--decide2", action="store_true")
    p.add_argument("--max-lp-vars", type=_cap, default=MAX_LP_VARS)
    p.add_argument("--minrk-cap", type=_cap, help=f"with --all (default {MINRK_FREE_ENTRY_CAP})")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("paper-suite", help="run the reproduction suite")
    p.add_argument("scale", choices=["quick", "full"], nargs="?", default="quick")
    p.set_defaults(fn=cmd_paper_suite)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        out = args.fn(args)
    except (CapExceeded, Uncertified) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, ValueError, OSError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    emit(out, args.format)
    if args.command == "paper-suite" and out["failed"]:
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
