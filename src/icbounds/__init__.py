"""Certified bounds, decision procedures, and linear index codes for the
broadcast rate of broadcasting with side information.

The pieces:

* instances and graphs with JSON round-tripping (`instance`);
* an exact rational LP solver (`lp`) feeding the entropy-style hierarchy
  b_1..b_n (`hierarchy`);
* combinatorial bounds -- expanding sequences, hyperclique covers, clique
  covers, the GF(2) minimum rank of any instance (`combinatorial`);
* the polynomial-time approximation pipeline (`approx`);
* the rate-equals-2 decision procedure with certificates both ways (`beta2`);
* code constructions and a decodability check (`codes`);
* named families with expected values (`families`) and report plumbing
  (`report`, `cli`).
"""

from .approx import (
    TauCertificate,
    alpha_greedy,
    approximate_beta,
    build_cover,
    decide_expanding_or_cover,
    low_degree_cover,
    tau,
)
from .beta2 import AacWitness, Beta2Certificate, decide_beta_eq_2, undirected_beta2
from .codes import (
    CodeScheme,
    VerificationReport,
    mds_weak_cover_code,
    minrk_code,
    strong_cover_code,
    two_symbol_code,
    verify_code,
)
from .combinatorial import (
    ExpandingSequence,
    FractionalCover,
    MinrkResult,
    alpha_exact,
    enumerate_maximal_hypercliques,
    fractional_cover,
    integer_clique_cover,
    is_expanding_sequence,
    is_strong_hyperclique,
    is_weak_hyperclique,
    minrk2,
    representation_rank,
    verify_cover,
)
from .families import FAMILY_NAMES, FamilyOutput, family
from .hierarchy import HierarchyBound, build_hierarchy_lp, solve_bk
from .instance import (
    Graph,
    Instance,
    Receiver,
    disjoint_union,
    from_graph,
    read_graph,
    read_instance,
    read_problem,
    validate,
    write_graph,
    write_instance,
)
from .lp import LpOptimum, LpProblem, solve_min
from .report import BoundReport, build_report

__version__ = "0.1.0"

__all__ = [
    "AacWitness", "Beta2Certificate", "BoundReport", "CodeScheme",
    "ExpandingSequence", "FAMILY_NAMES", "FamilyOutput", "FractionalCover",
    "Graph", "HierarchyBound", "Instance", "LpOptimum", "LpProblem",
    "MinrkResult", "Receiver", "TauCertificate", "VerificationReport",
    "alpha_exact", "alpha_greedy", "approximate_beta", "build_cover",
    "build_hierarchy_lp", "build_report", "decide_beta_eq_2",
    "decide_expanding_or_cover", "disjoint_union",
    "enumerate_maximal_hypercliques", "family", "fractional_cover",
    "from_graph", "integer_clique_cover", "is_expanding_sequence",
    "is_strong_hyperclique", "is_weak_hyperclique", "low_degree_cover",
    "mds_weak_cover_code", "minrk2", "minrk_code", "read_graph",
    "read_instance", "read_problem", "representation_rank", "solve_bk",
    "solve_min", "strong_cover_code", "tau", "two_symbol_code",
    "undirected_beta2", "validate", "verify_code", "verify_cover",
    "write_graph", "write_instance",
]
