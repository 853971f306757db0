import json
import random
from fractions import Fraction

import pytest
from instance_reference import (
    blind_set,
    closure_step,
    from_graph_reference,
    from_mask,
    neighbors,
    read_graph_problem_reference,
    side_set,
)

from icbounds.instance import (
    Graph,
    Instance,
    ParseError,
    Receiver,
    disjoint_union,
    from_graph,
    read_graph,
    read_instance,
    read_problem,
    to_mask,
    validate,
    validate_graph,
    write_graph,
    write_instance,
)


def c5():
    return Graph.from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)])


def test_from_graph_receivers():
    inst = from_graph(c5())
    assert inst.n == 5 and inst.m == 5
    r = inst.receivers[0]
    assert r.wants == 0 and r.knows == frozenset({1, 4})
    assert side_set(r) == frozenset({0, 1, 4})
    assert blind_set(r, 5) == frozenset({2, 3})


def test_from_graph_matches_per_vertex_neighbors():
    # one pass over the edges gives each vertex neighbors(g, v), also on
    # a self-loop and out-of-range ends, which validate() reports later
    rng = random.Random(17)
    graphs = [Graph.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
              for n, p in ((rng.randint(1, 30), rng.random()) for _ in range(60))]
    graphs.append(Graph.from_edge_list(5, [(0, 9), (1, 1), (-1, 2), (3, 4)]))
    for g in graphs:
        assert from_graph(g) == Instance(g.n, tuple(Receiver(v, neighbors(g, v)) for v in range(g.n)))
    assert not validate(from_graph(graphs[-1])).ok


def _graph_file(rng, n):
    """Seeded edges of a graph on n vertices, some listed twice or reversed,
    in shuffled order; vertices with no edge are common at small p."""
    p = rng.random() ** 2
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges += [e[::-1] if rng.random() < 0.5 else list(e) for e in edges if rng.random() < 0.3]
    edges = [e[::-1] if rng.random() < 0.3 else e for e in edges]
    rng.shuffle(edges)
    return {"n": n, "edges": edges}


def test_read_problem_matches_the_graph_path(tmp_path):
    # the one-pass parse gives the instance of the Graph-based path, and
    # from_graph gives it too
    rng = random.Random(23)
    p = tmp_path / "g.json"
    for i in range(120):
        data = _graph_file(rng, rng.randint(1, 45) if i else 160)
        p.write_text(json.dumps(data))
        inst, back = read_problem(p)
        assert back == data
        assert inst == read_graph_problem_reference(p)
        g = read_graph(p)
        assert from_graph(g) == from_graph_reference(g) == inst


def test_read_problem_refuses_what_the_graph_path_refuses(tmp_path):
    # every faulty file, however many faults, gets validate_graph's message
    rng = random.Random(29)
    p = tmp_path / "g.json"
    for _ in range(150):
        n = rng.randint(3, 12)
        data = _graph_file(rng, n)
        faults = [[0, 0], [2, 2], [0, n], [n, 0], [-1, 2], [3, n + 5], [n + 5, 3], [1, -5]]
        for _ in range(rng.randint(1, 4)):
            data["edges"].insert(rng.randrange(len(data["edges"]) + 1), rng.choice(faults))
        data["n"] = rng.choice([n, n, 0, -2])
        p.write_text(json.dumps(data))
        with pytest.raises(ParseError) as want:
            read_graph_problem_reference(p)
        with pytest.raises(ParseError) as got:
            read_problem(p)
        assert str(got.value) == str(want.value)


def test_validate_catches_bad_receivers():
    bad = Instance(3, (Receiver(3, frozenset()),))
    assert not validate(bad).ok
    bad = Instance(3, (Receiver(1, frozenset({1})),))  # knows its own want
    assert not validate(bad).ok
    ok = Instance(3, (Receiver(1, frozenset({0})),))
    assert validate(ok).ok


def test_validate_catches_bad_rates():
    recs = (Receiver(0, frozenset({1})), Receiver(1, frozenset({2})), Receiver(2, frozenset()))
    assert validate(Instance(3, recs, (Fraction(1), Fraction(1, 2), Fraction(1)))).ok
    for rates, faults in [
        ((Fraction(1), Fraction(1, 2)), ["rate vector length differs from message count"]),
        ((Fraction(1), Fraction(0), Fraction(-1, 2)), ["message 1: nonpositive rate", "message 2: nonpositive rate"]),
        ((Fraction(1), Fraction(3, 2), Fraction(1)), ["message 1: rate above 1 after normalization"]),
    ]:
        assert validate(Instance(3, recs, rates)).violations == faults


def test_graph_roundtrip(tmp_path):
    g = c5()
    p = tmp_path / "g.json"
    write_graph(g, p)
    assert read_graph(p).edge_list() == g.edge_list()
    inst2, data = read_problem(p)
    assert "edges" in data
    assert inst2.receivers == from_graph(g).receivers


def test_instance_roundtrip(tmp_path):
    inst = Instance(
        4,
        (Receiver(0, frozenset({1, 2})), Receiver(3, frozenset({0}))),
        rates=(Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1, 3)),
    )
    p = tmp_path / "i.json"
    write_instance(inst, p)
    back = read_instance(p)
    assert back == inst


def test_rate_normalization(tmp_path):
    # on-file rates get scaled so the max is 1
    p = tmp_path / "w.json"
    p.write_text(json.dumps({
        "type": "instance", "n": 2,
        "receivers": [{"wants": 0, "knows": [1]}, {"wants": 1, "knows": [0]}],
        "rates": ["3", "3/2"],
    }))
    inst = read_instance(p)
    assert inst.rate(0) == 1 and inst.rate(1) == Fraction(1, 2)


def test_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        read_instance(p)
    p.write_text(json.dumps({"n": 3, "edges": [[0, 7]]}))
    # the readers validate: an out-of-range endpoint is refused
    with pytest.raises(ParseError, match="edge \\[0, 7\\] out of range"):
        read_graph(p)
    p.write_text(json.dumps({"n": 3}))
    with pytest.raises(ParseError):
        read_problem(p)


def test_read_problem_validates(tmp_path):
    # a wanted message out of range would otherwise read fine (and
    # alpha_exact would answer on it)
    p = tmp_path / "i.json"
    recs = [{"wants": 7, "knows": [0]}, {"wants": 1, "knows": [2]}, {"wants": 2, "knows": []}]
    p.write_text(json.dumps({"n": 3, "receivers": recs}))
    with pytest.raises(ParseError, match="receiver 0: wanted message 7 out of range"):
        read_problem(p)
    recs[0]["wants"] = 1
    p.write_text(json.dumps({"n": 3, "receivers": recs}))
    assert read_problem(p)[0].receivers[0] == Receiver(1, frozenset({0}))


@pytest.mark.parametrize("data, message", [
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": ["1", "0"]},
     "rates must be positive"),
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": ["1", "-1/2"]},
     "rates must be positive"),
    ({"n": 0, "receivers": []}, "instance has no messages"),
    # rates not a list of one entry per message: once read character by
    # character, by a dict's keys, and as max() of nothing
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": "12"},
     "rates must be a JSON list"),
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": {"1": 1, "2": 1}},
     "rates must be a JSON list"),
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": 7},
     "rates must be a JSON list"),
    ({"n": 2, "receivers": [{"wants": 0, "knows": [1]}], "rates": []},
     "rate vector length differs from message count"),
])
def test_read_problem_refuses_bad_rates_and_no_messages(tmp_path, data, message):
    p = tmp_path / "i.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=message):
        read_problem(p)


def test_read_instance_validates(tmp_path):
    p = tmp_path / "i.json"
    p.write_text(json.dumps({"n": 3, "receivers": [{"wants": 0, "knows": [1, 5]}]}))
    with pytest.raises(ParseError, match="receiver 0: side information out of range"):
        read_instance(p)
    p.write_text(json.dumps({"n": 3, "receivers": [{"wants": 1, "knows": [1]}]}))
    with pytest.raises(ParseError, match="receiver 0: receiver knows own message"):
        read_instance(p)


def test_read_graph_validates(tmp_path):
    # an edge [0, 9] on n = 3 would give receiver 0 the side information {9}
    p = tmp_path / "g.json"
    for edges, message in [([[0, 1], [0, 9]], "edge \\[0, 9\\] out of range"),
                           ([[1, 1]], "self-loop or malformed edge \\[1\\]")]:
        p.write_text(json.dumps({"n": 3, "edges": edges}))
        with pytest.raises(ParseError, match=message):
            read_graph(p)
        with pytest.raises(ParseError, match=message):
            read_problem(p)
    p.write_text(json.dumps({"n": 0, "edges": []}))
    with pytest.raises(ParseError, match="no messages"):
        read_graph(p)
    p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [2, 1]]}))
    assert read_graph(p).edge_list() == [(0, 1), (1, 2)]


def test_closure_step():
    inst = from_graph(c5())
    # knowing everything but vertex 0 lets receiver 0's neighbours feed it
    a = frozenset({1, 2, 3, 4})
    assert closure_step(inst, a) == frozenset(range(5))
    # one vertex alone decodes nothing more
    assert closure_step(inst, frozenset({2})) == frozenset({2})


def test_disjoint_union():
    a = from_graph(c5())
    u = disjoint_union(a, a)
    assert u.n == 10 and u.m == 10
    assert u.receivers[5].wants == 5
    assert u.receivers[5].knows == frozenset({6, 9})


def test_masks():
    s = frozenset({0, 2, 5})
    assert to_mask(s) == 0b100101
    assert from_mask(to_mask(s)) == s


def test_validate_graph():
    assert validate_graph(c5()).ok
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(2, 8)
        edges = [(u, v) for u, v in [(rng.randrange(n), rng.randrange(n)) for _ in range(n)] if u != v]
        g = Graph.from_edge_list(n, edges)
        assert validate_graph(g).ok


def test_distinct_receivers_dedup():
    inst = Instance(3, (
        Receiver(0, frozenset({1})),
        Receiver(0, frozenset({1})),
        Receiver(1, frozenset({2})),
        Receiver(0, frozenset({1})),
    ))
    assert inst.representative == (0, 0, 2, 0)
    assert inst.distinct_receivers() == (0, 2)
