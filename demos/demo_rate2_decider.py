"""The rate-equals-2 dichotomy, certificates included.

Either a two-class vertex labeling exists that is constant on every
receiver's blind set (giving the two-symbol code: plain sum + class-weighted
sum), or an almost alternating cycle is found, which forces the rate to at
least 2 + 1/n.  Both answers come with checkable evidence.
"""

from icbounds import decide_beta_eq_2, from_graph, two_symbol_code, verify_code
from icbounds.beta2 import validate_aac
from icbounds.families import aac_instance, complement, cycle
from icbounds.instance import Graph


def show(inst, label):
    cert = decide_beta_eq_2(inst)
    if cert.is_two:
        scheme = two_symbol_code(inst, cert.labeling, cert.num_classes)
        ver = verify_code(inst, scheme)
        print(f"{label}: rate 2 achievable; {cert.num_classes}-class labeling "
              f"{cert.labeling}; scheme over F_{scheme.field} "
              f"{'verified' if ver.passed else 'FAILED'}")
    else:
        bad = validate_aac(inst, cert.aac) if cert.aac else ["no witness"]
        print(f"{label}: rate > 2; witness edges {cert.aac.edges if cert.aac else None} "
              f"=> rate >= {cert.bound} (witness check: {bad or 'ok'})")


if __name__ == "__main__":
    # complement of a path: bipartite complement, so two symbols suffice
    path = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    show(from_graph(complement(path)), "complement of P5")

    # C5 is the smallest graph where two symbols fail
    show(from_graph(cycle(5)), "C5")

    # the canonical obstruction family: bounds 3, 5/2, 7/3, ...
    for n in (1, 2, 3):
        show(aac_instance(n), f"alternating-cycle instance n={n}")
