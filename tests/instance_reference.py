"""Reference graph-file reader for tests: the file read as a `Graph`
(frozenset edges, checked by validate_graph) and turned into an instance by
per-vertex neighbour sets, the way `icbounds.instance.read_problem` and
`from_graph` built it before the one-pass parse.  read_problem must give an
equal instance, and refuse the same files with the same message."""

from __future__ import annotations

from icbounds.instance import Graph, Instance, Receiver, read_graph


def from_graph_reference(g: Graph) -> Instance:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e in g.edges:
        for v in e:
            if 0 <= v < g.n:
                adj[v] |= e - {v}
    return Instance(g.n, tuple(Receiver(v, frozenset(adj[v])) for v in range(g.n)))


def read_graph_problem_reference(path) -> Instance:
    return from_graph_reference(read_graph(path))
