"""The cross-file call graph and its reachability queries."""

from __future__ import annotations

from repro.lint.callgraph import CallGraph


DIAMOND = {
    "pkg.a.main": [("pkg.b.left", 3), ("pkg.b.right", 4)],
    "pkg.b.left": [("pkg.c.sink", 7)],
    "pkg.b.right": [("pkg.c.sink", 9)],
    "pkg.c.sink": [],
    "pkg.d.orphan": [("pkg.c.sink", 2)],
}


def diamond() -> CallGraph:
    graph = CallGraph()
    for qual, calls in DIAMOND.items():
        graph.add_function(qual, calls)
    return graph


def test_reach_covers_transitive_callees_only():
    reached = diamond().reach([("exp", "pkg.a.main")])
    assert "pkg.c.sink" in reached
    assert "pkg.b.left" in reached and "pkg.b.right" in reached
    assert "pkg.d.orphan" not in reached


def test_chain_is_a_real_call_path():
    reached = diamond().reach([("exp", "pkg.a.main")])
    chain = reached.chain("pkg.c.sink")
    assert chain[0] == "pkg.a.main"
    assert chain[-1] == "pkg.c.sink"
    # Every hop is an actual edge in the graph.
    for caller, callee in zip(chain, chain[1:]):
        assert callee in {c for c, _line in DIAMOND[caller]}


def test_origin_labels_the_first_root_that_reached():
    graph = diamond()
    reached = graph.reach(
        [("first", "pkg.b.left"), ("second", "pkg.d.orphan")]
    )
    # sink is reached breadth-first from ``first`` before ``second``'s
    # edge is processed; the label records the winner deterministically.
    assert reached.origin["pkg.c.sink"] == "first"
    assert reached.origin["pkg.d.orphan"] == "second"


def test_edges_to_unregistered_names_are_dropped():
    graph = CallGraph()
    graph.add_function("pkg.a.f", [("numpy.random.seed", 2)])
    reached = graph.reach([("exp", "pkg.a.f")])
    assert "numpy.random.seed" not in reached
    assert reached.chain("pkg.a.f") == ["pkg.a.f"]


def test_unknown_roots_are_ignored():
    reached = diamond().reach([("exp", "pkg.nowhere.f")])
    assert list(reached) == []


def test_add_function_accepts_lists_after_json_round_trip():
    # A summary read back from JSON carries its call sites as lists;
    # the graph accepts any two-element sequence.
    graph = CallGraph()
    graph.add_function("pkg.a.f", [["pkg.b.g", 5]])
    graph.add_function("pkg.b.g", ())
    reached = graph.reach([("exp", "pkg.a.f")])
    assert reached.chain("pkg.b.g") == ["pkg.a.f", "pkg.b.g"]


def test_cycles_terminate_and_stay_reachable():
    graph = CallGraph()
    graph.add_function("pkg.a.ping", [("pkg.a.pong", 2)])
    graph.add_function("pkg.a.pong", [("pkg.a.ping", 2)])
    reached = graph.reach([("exp", "pkg.a.ping")])
    assert "pkg.a.pong" in reached
    assert reached.chain("pkg.a.pong") == ["pkg.a.ping", "pkg.a.pong"]
