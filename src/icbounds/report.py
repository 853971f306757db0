"""Bound bookkeeping: run the lower/upper-bound machinery on one instance and
pair certificates into verdicts ("beta = ... exact" fires when the largest
lower bound meets the smallest upper bound; a code is an upper bound only
once its exhaustive verification passed)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import codes
from .beta2 import decide_beta_eq_2
from .combinatorial import (
    alpha_exact,
    fractional_cover,
    integer_clique_cover,
    minrk2,
    representation_rank,
)
from .hierarchy import MAX_LP_VARS, solve_bk
from .instance import Instance
from .lp import load_binding
from .numeric import format_rational


@dataclass
class BoundEntry:
    value: Fraction
    direction: str  # "lower" | "upper" | "info"
    witness: str
    runtime_ms: int
    check: codes.VerificationReport | None = None  # a code's verification


@dataclass
class BoundReport:
    descriptor: str
    n: int
    m: int
    bounds: dict[str, BoundEntry] = field(default_factory=dict)
    verdicts: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "instance": self.descriptor,
            "n": self.n,
            "m": self.m,
            "bounds": {
                k: {
                    "value": format_rational(e.value),
                    "direction": e.direction,
                    "witness": e.witness,
                    "runtime_ms": e.runtime_ms,
                }
                for k, e in self.bounds.items()
            },
            "verdicts": self.verdicts,
        }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, int((time.perf_counter() - t0) * 1000)


def _code_entry(rate: Fraction, kind: str, ver: codes.VerificationReport, ms: int) -> BoundEntry:
    """A code's rate is an upper bound once its exhaustive check passed,
    which proves decoding on every message vector at any size; a failed
    code, or one that passed only the random simulation, stays in the
    report as info."""
    tag = "verified" if ver.passed else "FAILED"
    direction = "upper" if ver.passed and ver.mode == "exhaustive" else "info"
    return BoundEntry(rate, direction, f"{kind}, {ver.mode} check {tag}", ms, ver)


def build_report(
    inst: Instance,
    descriptor: str = "instance",
    levels: tuple[int, ...] = (2,),
    sym: list[list[int]] | None = None,
    minrk_cap: int | None = None,
    with_decide2: bool = False,
    max_lp_vars: int = MAX_LP_VARS,
    matrix: list[list[int]] | None = None,
    matrix_field: int = 2,
) -> BoundReport:
    """alpha, the b_k of `levels` and chi_bar_f always; unless `minrk_cap`
    is None, the integer clique cover and the exact GF(2) minrank under
    free-entry cap `minrk_cap`; the verified rank code of `matrix`, a
    fitting matrix over F_`matrix_field`, as `gram`; the rate-2 decision
    with `with_decide2`.  Last, chi_bar_f's verified strong-cover code, the
    `scheme`, on unit rates and only when no upper bound so far is below
    chi_bar_f, the one case where its rate could set the verdict (else a
    verdict says why it was left out).  A cap that would be exceeded
    raises CapExceeded; a matrix that does not fit raises ValueError."""
    rep = BoundReport(descriptor, inst.n, inst.m)
    load_binding()  # not in the first timed bound

    (a, seq), ms = _timed(lambda: alpha_exact(inst))
    rep.bounds["alpha"] = BoundEntry(
        a, "lower", f"expanding sequence {list(seq.receivers)}", ms
    )

    for k in levels:
        b, ms = _timed(lambda k=k: solve_bk(inst, k, sym=sym, max_lp_vars=max_lp_vars))
        direction = "lower" if k <= 2 else "info"
        rep.bounds[f"b{k}"] = BoundEntry(
            b.value, direction, f"level-{k} LP, {b.variables} vars / {b.rows} rows", ms
        )

    strong, ms = _timed(lambda: fractional_cover(inst, "strong"))
    rep.bounds["chibarf"] = BoundEntry(
        strong.total, "upper", f"strong fractional cover, {len(strong.items)} sets", ms
    )

    if minrk_cap is not None:
        (k, cover), ms = _timed(lambda: integer_clique_cover(inst))
        rep.bounds["chibar"] = BoundEntry(
            Fraction(k), "upper", f"clique cover with {k} cliques", ms
        )
        mr, ms = _timed(lambda: minrk2(inst, cap=minrk_cap))
        rep.bounds["minrk2"] = BoundEntry(
            Fraction(mr.value), "upper", "GF(2) representation" + (" (exact)" if mr.exact else ""), ms
        )

    if matrix is not None:
        def run_gram():
            scheme = codes.minrk_code(inst, representation_rank(inst, matrix, matrix_field))
            return scheme, codes.verify_code(inst, scheme)

        (scheme, ver), ms = _timed(run_gram)
        rep.bounds["gram"] = _code_entry(scheme.rate, f"F_{matrix_field} Gram-rank code", ver, ms)

    if with_decide2:
        cert, ms = _timed(lambda: decide_beta_eq_2(inst))
        if cert.is_two:
            scheme = codes.two_symbol_code(inst, cert.labeling, cert.num_classes)
            ver = codes.verify_code(inst, scheme)
            rep.bounds["two-symbol"] = _code_entry(scheme.rate, "two-symbol scheme", ver, ms)
        elif cert.bound is not None:
            rep.bounds["rate2-obstruction"] = BoundEntry(
                cert.bound, "lower", "alternating-cycle witness", ms
            )

    below = min(((e.value, k) for k, e in rep.bounds.items()
                 if e.direction == "upper" and e.value < strong.total), default=None)
    if inst.is_weighted():
        rep.verdicts.append("scheme left out: the strong-cover code needs unit rates")
    elif below is not None:
        rep.verdicts.append(f"scheme left out: {below[1]} = {format_rational(below[0])} "
                            f"is below chibarf = {format_rational(strong.total)}")
    elif inst.m:
        def run_scheme():
            scheme = codes.strong_cover_code(inst, strong)
            return scheme, codes.verify_code(inst, scheme)

        (scheme, ver), ms = _timed(run_scheme)
        rep.bounds["scheme"] = _code_entry(scheme.rate, "strong-cover code", ver, ms)

    lowers = [(k, e.value) for k, e in rep.bounds.items() if e.direction == "lower"]
    uppers = [(k, e.value) for k, e in rep.bounds.items() if e.direction == "upper"]
    if lowers and uppers:
        lo_name, lo = max(lowers, key=lambda t: t[1])
        up_name, up = min(uppers, key=lambda t: t[1])
        if lo == up:
            rep.verdicts.append(
                f"beta = {format_rational(lo)} exact ({lo_name} meets {up_name})"
            )
        else:
            rep.verdicts.append(
                f"{format_rational(lo)} <= beta <= {format_rational(up)}"
            )
        # levels above 2 are not lower bounds on beta; flag when one
        # overshoots a certified achievable rate
        for k in levels:
            if k > 2 and f"b{k}" in rep.bounds and rep.bounds[f"b{k}"].value > up:
                rep.verdicts.append(
                    f"b{k} = {format_rational(rep.bounds[f'b{k}'].value)} exceeds a valid rate"
                )
    return rep
