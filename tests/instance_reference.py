"""Set-valued references for tests.

The graph-file reader reads the file as a `Graph` (frozenset edges, checked
by validate_graph) and turns it into an instance by per-vertex neighbour
sets, the way `icbounds.instance.read_problem` and `from_graph` built it
before the one-pass parse.  read_problem must give an equal instance, and
refuse the same files with the same message.

The set helpers state the paper's sets as frozensets: S(j), T(j), a
vertex's neighbours and the one-step decode closure.  The library reads the
same sets as bitmasks (`Instance.side_masks`); the other references build
on these."""

from __future__ import annotations

from fractions import Fraction

from icbounds.instance import Graph, Instance, Receiver, read_graph


def side_set(r: Receiver) -> frozenset[int]:
    """S(j) = N(j) | {f(j)}."""
    return r.knows | {r.wants}


def blind_set(r: Receiver, n: int) -> frozenset[int]:
    """T(j) = V \\ S(j)."""
    return frozenset(range(n)) - side_set(r)


def total_rate(inst: Instance) -> Fraction:
    return sum((inst.rate(v) for v in range(inst.n)), Fraction(0))


def closure_step(inst: Instance, a: frozenset[int]) -> frozenset[int]:
    """a plus every message wanted by a receiver whose side information lies in a."""
    extra = {r.wants for r in inst.receivers if r.wants not in a and r.knows <= a}
    return frozenset(a) | extra


def from_mask(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def neighbors(g: Graph, v: int) -> frozenset[int]:
    return frozenset(u for e in g.edges if v in e for u in e if u != v)


def degree(g: Graph, v: int) -> int:
    return len(neighbors(g, v))


def from_graph_reference(g: Graph) -> Instance:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e in g.edges:
        for v in e:
            if 0 <= v < g.n:
                adj[v] |= e - {v}
    return Instance(g.n, tuple(Receiver(v, frozenset(adj[v])) for v in range(g.n)))


def read_graph_problem_reference(path) -> Instance:
    return from_graph_reference(read_graph(path))
