"""Data model for broadcasting-with-side-information instances.

An instance has n messages (0..n-1) and a list of receivers; receiver j
wants message f(j) and knows the side-information set N(j).  Undirected
graphs are the special case with one receiver per vertex knowing its
neighbors.  Message rates are exact rationals in (0, 1] (all 1 unless
the instance is weighted).

Sets are the form in which an instance is built, validated and written:
each receiver's N(j) is a frozenset.  Masks are what the algorithms read
(hypercliques, covers, greedy and tau, the rate-2 decision, the
hierarchy's closure): each receiver's S(j) as one integer mask,
`Instance.side_masks`, worked out once per instance.  A graph file's
instance is built in one pass over its validated edge pairs; a `Graph` is
made only to word the faults of a file that is refused.  Each file format
has one dict builder (`instance_dict`, `graph_dict`), which the writers
and `icbounds gen` share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .numeric import format_rational, parse_rational


@dataclass(frozen=True)
class Receiver:
    wants: int
    knows: frozenset[int]


@dataclass(frozen=True)
class Instance:
    n: int
    receivers: tuple[Receiver, ...]
    rates: tuple[Fraction, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.receivers)

    def rate(self, v: int) -> Fraction:
        return Fraction(1) if self.rates is None else self.rates[v]

    def is_weighted(self) -> bool:
        return self.rates is not None and any(r != 1 for r in self.rates)

    @cached_property
    def representative(self) -> tuple[int, ...]:
        """representative[j]: the first receiver with receiver j's (wants,
        knows), which stands for every identical copy of it."""
        first: dict[tuple, int] = {}
        return tuple(
            first.setdefault((r.wants, r.knows), j) for j, r in enumerate(self.receivers)
        )

    @cached_property
    def side_masks(self) -> tuple[int, ...]:
        """side_masks[j]: S(j) = N(j) | {f(j)} as a bitmask over the messages."""
        return tuple(to_mask(r.knows) | 1 << r.wants for r in self.receivers)

    @cached_property
    def _covers(self) -> dict:
        """{"strong": the solved strong fractional cover, "messages": the
        message instance}, kept by `combinatorial` for later calls."""
        return {}

    def distinct_receivers(self) -> tuple[int, ...]:
        """Indices of one representative per distinct (wants, knows) pair."""
        return tuple(j for j, rep in enumerate(self.representative) if rep == j)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[frozenset[int]]

    @staticmethod
    def from_edge_list(n: int, edges) -> "Graph":
        es = frozenset(frozenset((u, v)) for u, v in edges)
        return Graph(n, es)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges


def validate(inst: Instance) -> list[str]:
    """The faults of inst, one message each: none when it is valid."""
    bad = []
    if inst.n < 1:
        bad.append("instance has no messages")
    for j, r in enumerate(inst.receivers):
        if not 0 <= r.wants < inst.n:
            bad.append(f"receiver {j}: wanted message {r.wants} out of range")
        if any(not 0 <= v < inst.n for v in r.knows):
            bad.append(f"receiver {j}: side information out of range")
        if r.wants in r.knows:
            bad.append(f"receiver {j}: receiver knows own message")
    if inst.rates is not None:
        if len(inst.rates) != inst.n:
            bad.append("rate vector length differs from message count")
        for v, rv in enumerate(inst.rates):
            if rv <= 0:
                bad.append(f"message {v}: nonpositive rate")
            elif rv > 1:
                bad.append(f"message {v}: rate above 1 after normalization")
    return bad


def validate_graph(g: Graph) -> list[str]:
    """Every fault of g: validate finds no other in from_graph(g)."""
    bad = []
    if g.n < 1:
        bad.append("graph has no vertices, so the instance has no messages")
    for e in g.edges:
        if len(e) != 2:
            bad.append(f"self-loop or malformed edge {sorted(e)}")
        elif any(not 0 <= v < g.n for v in e):
            bad.append(f"edge {sorted(e)} out of range")
    return bad


def from_graph(g: Graph) -> Instance:
    """One receiver per vertex, knowing exactly its neighbors."""
    return _neighbour_receivers(g.n, (tuple(e) for e in g.edges if len(e) == 2))


def _neighbour_receivers(n: int, pairs) -> Instance:
    """One receiver per vertex, knowing exactly its neighbors, from the
    edge pairs (u, v), u != v, in one pass; an out-of-range end gets no
    receiver and is left for validate() to report."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        if 0 <= u < n:
            adj[u].append(v)
        if 0 <= v < n:
            adj[v].append(u)
    return Instance(n, tuple(Receiver(v, frozenset(a)) for v, a in enumerate(adj)))


def disjoint_union(a: Instance, b: Instance) -> Instance:
    recs = list(a.receivers)
    recs += [Receiver(r.wants + a.n, frozenset(v + a.n for v in r.knows)) for r in b.receivers]
    rates = None
    if a.rates is not None or b.rates is not None:
        rates = tuple(a.rate(v) for v in range(a.n)) + tuple(b.rate(v) for v in range(b.n))
    return Instance(a.n + b.n, tuple(recs), rates)


class ParseError(ValueError):
    pass


class CapExceeded(RuntimeError):
    """A named resource cap would be exceeded; raised instead of degrading."""

    def __init__(self, cap: str, needed, limit):
        super().__init__(f"cap {cap}: needed {needed}, limit {limit}")
        self.cap = cap


def read_json(path) -> dict:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _int(v) -> int:
    """v, a JSON integer; anything else (a float, a string, true) raises
    ValueError rather than being rounded or converted."""
    if type(v) is not int:
        raise ValueError(f"{json.dumps(v)} is not an integer")
    return v


def _instance_from_dict(data: dict) -> Instance:
    try:
        n = _int(data["n"])
        recs = tuple(
            Receiver(_int(r["wants"]), frozenset(map(_int, r["knows"])))
            for r in data["receivers"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed instance file: {exc}") from exc
    rates = None
    if data.get("rates") is not None:
        if not isinstance(data["rates"], list):
            raise ParseError("rates must be a JSON list, one entry per message")
        try:
            raw = [parse_rational(s) for s in data["rates"]]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed rate entry: {exc}") from exc
        if any(r <= 0 for r in raw):
            raise ParseError("rates must be positive")
        # an empty list is left to validate's length check
        scale = max(raw, default=1)
        rates = tuple(r / scale for r in raw)
    return Instance(n, recs, rates)


def _graph_pairs(data: dict) -> tuple[int, list[tuple[int, int]]]:
    """A graph file's n and its edges as integer pairs, in file order."""
    try:
        return _int(data["n"]), [(_int(u), _int(v)) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph file: {exc}") from exc


def _graph_from_dict(data: dict) -> Graph:
    return Graph.from_edge_list(*_graph_pairs(data))


def _graph_instance(data: dict) -> Instance:
    """A graph file's instance, built from its validated edge pairs without
    a Graph; a file validate_graph faults (no vertices, a self-loop, an end
    out of range) is refused with validate_graph's words."""
    n, pairs = _graph_pairs(data)
    if n < 1 or not all(u != v and 0 <= u < n and 0 <= v < n for u, v in pairs):
        _valid(Graph.from_edge_list(n, pairs))
    return _neighbour_receivers(n, pairs)


def _valid(obj):
    """obj, an Instance or a Graph, unless validate or validate_graph
    reports: ParseError."""
    bad = validate_graph(obj) if isinstance(obj, Graph) else validate(obj)
    if bad:
        raise ParseError(f"invalid instance: {bad}")
    return obj


def read_instance(path) -> Instance:
    return _valid(_instance_from_dict(read_json(path)))


def instance_dict(inst: Instance) -> dict:
    """An instance file's contents: n, the receivers and any rates."""
    data: dict = {
        "n": inst.n,
        "receivers": [
            {"wants": r.wants, "knows": sorted(r.knows)} for r in inst.receivers
        ],
    }
    if inst.rates is not None:
        data["rates"] = [format_rational(r) for r in inst.rates]
    return data


def graph_dict(g: Graph) -> dict:
    """A graph file's contents: n and the sorted edge list."""
    return {"n": g.n, "edges": [list(e) for e in g.edge_list()]}


def write_json(data: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


def write_instance(inst: Instance, path) -> None:
    write_json(instance_dict(inst), path)


def read_graph(path) -> Graph:
    return _valid(_graph_from_dict(read_json(path)))


def write_graph(g: Graph, path) -> None:
    write_json(graph_dict(g), path)


def read_problem(path):
    """Read a JSON file holding either an instance or a graph; a graph's
    instance is from_graph's, built straight from its edge pairs.  Returns
    (instance, data_dict); every reader raises ParseError for a file that
    fails validation."""
    data = read_json(path)
    if "receivers" in data:
        return _valid(_instance_from_dict(data)), data
    if "edges" in data:
        return _graph_instance(data), data
    raise ParseError(f"{path}: neither an instance nor a graph file")


# -- bitmask helpers shared by the LP modules -------------------------------

def to_mask(s) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
