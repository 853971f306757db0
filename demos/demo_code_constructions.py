"""Every upper bound in the library is backed by an actual linear code.

This script builds the four cover and min-rank constructions on the
Petersen graph and the 5-cycle and runs each through the decodability
checker.  An integer clique cover is the strong cover with weight 1 per
clique, so it shares the strong-cover code.
"""

from fractions import Fraction

from icbounds import (
    FractionalCover,
    fractional_cover,
    from_graph,
    integer_clique_cover,
    mds_weak_cover_code,
    minrk2,
    minrk_code,
    strong_cover_code,
    verify_code,
)
from icbounds.families import cycle, petersen


def check(inst, scheme, label):
    rep = verify_code(inst, scheme, seed=0)
    print(f"{label:28s} rate {str(scheme.rate):>5}  field F_{scheme.field}  "
          f"{rep.mode} ({rep.trials} states) {'ok' if rep.passed else 'FAILED'}")


if __name__ == "__main__":
    for g, name in ((cycle(5), "C5"), (petersen(), "Petersen")):
        inst = from_graph(g)
        print(f"-- {name} --")
        k, cover = integer_clique_cover(g)
        unit = FractionalCover("strong", [(c, Fraction(1)) for c in cover], Fraction(k))
        check(inst, strong_cover_code(inst, unit), f"integer clique cover ({k})")
        sc = fractional_cover(inst, "strong")
        check(inst, strong_cover_code(inst, sc), "fractional strong cover")
        wc = fractional_cover(inst, "weak")
        check(inst, mds_weak_cover_code(inst, wc), "MDS over the weak cover")
        # Petersen's 30 free entries sit past the default search cap
        check(inst, minrk_code(inst, minrk2(inst, cap=30)), "min-rank representation")
        print()
