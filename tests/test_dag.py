import pytest
from hypothesis import given, settings, strategies as st

from peblab import dag
from peblab.errors import DagError


def test_pyramid_zero_is_single_vertex_z():
    g = dag.build_pyramid(0)
    assert g.vertices == ("z",)
    assert g.edges == ()
    assert g.sink == "z"


def test_pyramid_two_matches_figure():
    g = dag.build_pyramid(2)
    assert g.vertices == ("u", "v", "w", "x", "y", "z")
    assert set(g.edges) == {("u", "x"), ("v", "x"), ("v", "y"), ("w", "y"), ("x", "z"), ("y", "z")}
    assert g.sink == "z"
    assert g.max_indegree == 2


@pytest.mark.parametrize("h", range(0, 6))
def test_pyramid_structure(h):
    g = dag.build_pyramid(h)
    assert len(g.vertices) == (h + 1) * (h + 2) // 2
    assert len(g.sources()) == h + 1
    for v in g.vertices:
        assert len(g.predecessors(v)) in (0, 2)
    assert g.max_indegree == (2 if h else 0)


def test_pyramid_three_counts():
    g = dag.build_pyramid(3)
    assert len(g.vertices) == 10
    assert len(g.edges) == 12
    assert g.sink == "z"


def test_large_pyramid_uses_layer_index_names():
    g = dag.build_pyramid(7)  # 36 vertices > 26
    assert "p0_0" in g.vertices
    assert g.sink == "p7_0"


@pytest.mark.parametrize("h,nv,ne,nsrc", [(0, 1, 0, 1), (1, 3, 2, 2), (3, 15, 14, 8)])
def test_binary_tree_counts(h, nv, ne, nsrc):
    g = dag.build_binary_tree(h)
    assert len(g.vertices) == nv
    assert len(g.edges) == ne
    assert len(g.sources()) == nsrc
    assert g.max_indegree == (2 if h else 0)


def test_path():
    g = dag.build_path(3)
    assert set(g.edges) == {("v1", "v2"), ("v2", "v3")}
    assert g.sink == "v3"
    g10 = dag.build_path(10)
    assert len(g10.vertices) == 10
    assert len(g10.edges) == 9
    assert len(g10.sources()) == 1
    assert g10.max_indegree == 1
    assert dag.build_path(1).vertices == ("v1",)


def test_parse_simple():
    g = dag.parse_dag("v a\nv b\ne a b\n")
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert g.sink == "b"


def test_parse_comments_and_blank_lines():
    g = dag.parse_dag("# header\nv a\n\nv b  # trailing\ne a b\n")
    assert g.vertices == ("a", "b")


@pytest.mark.parametrize("text,fragment", [
    ("v a\nv b\ne a b\ne b a\n", "cycle"),
    ("v a\nv a\n", "duplicate vertex"),
    ("v a\nv b\ne a c\n", "unknown vertex"),
    ("v a\nv b\n", "sink"),           # two sinks
    ("v a\ne a a\n", "cycle"),        # self loop
    ("v a\nv b\ne a b\ne a b\n", "duplicate edge"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(DagError, match=fragment):
        dag.parse_dag(text)


def test_parse_error_carries_line_number():
    with pytest.raises(DagError, match="line 3"):
        dag.parse_dag("v a\nv b\ne a c\n")


def test_roundtrip_pyramid():
    g = dag.build_pyramid(2)
    assert dag.parse_dag(dag.serialize_dag(g)) == g


def test_topological_order_deterministic_and_valid():
    g = dag.build_pyramid(3)
    order = g.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g.edges:
        assert pos[a] < pos[b]
    assert order == dag.build_pyramid(3).topological_order()


def test_reachability():
    g = dag.build_pyramid(2)
    assert g.reachable_from("v") == frozenset({"x", "y", "z"})
    assert g.reachable_from("z") == frozenset()


def test_parse_family():
    assert dag.parse_family("path:4").sink == "v4"
    assert dag.parse_family("tree:1").sink == "t1"
    with pytest.raises(ValueError):
        dag.parse_family("grid:3")
    with pytest.raises(ValueError):
        dag.parse_family("pyramid")
    # sizes are ASCII decimal, as `int` alone would read these three
    for spec in ("path:1_0", "path:+3", "pyramid:\u0663"):
        with pytest.raises(ValueError):
            dag.parse_family(spec)


@pytest.mark.parametrize("spec, count", [
    ("tree:30", "has 2147483647 vertices"),
    ("pyramid:1413", "has 1000405 vertices"),
    ("pyramid:3000", "has 4504501 vertices"),
    ("path:1000001", "has more than 1000000 vertices"),
    ("tree:64", "has more than 1000000 vertices"),
    pytest.param("pyramid:" + "9" * 4000, "has more than 1000000 vertices", id="pyramid:9*4000"),
])
def test_parse_family_refuses_a_family_too_large_to_build(monkeypatch, spec, count):
    def refuse(size):
        raise AssertionError(f"built size {size}")

    for kind, (_, vertices) in dag._FAMILIES.items():
        monkeypatch.setitem(dag._FAMILIES, kind, (refuse, vertices))
    with pytest.raises(ValueError, match=f"^graph spec '.*' {count}"):
        dag.parse_family(spec)


def test_parse_family_builds_up_to_the_limit(monkeypatch):
    for kind, (_, vertices) in dag._FAMILIES.items():
        monkeypatch.setitem(dag._FAMILIES, kind, (lambda size, kind=kind: (kind, size), vertices))
    # 998,991, 524,287 and 10^6 vertices
    for spec in ("pyramid:1412", "tree:18", "path:1000000"):
        kind, size = spec.split(":")
        assert dag.parse_family(spec) == (kind, int(size))


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        # every non-initial vertex gets at least one predecessor: unique sink.
        preds = draw(st.sets(st.integers(0, j - 1), min_size=1, max_size=min(j, 3)))
        edges.extend((names[i], names[j]) for i in sorted(preds))
    # collapse other sinks into the last vertex
    has_succ = {a for a, _ in edges}
    for i in range(n - 1):
        if names[i] not in has_succ:
            edges.append((names[i], names[n - 1]))
    return dag.Dag(names, edges)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(g):
    assert dag.parse_dag(dag.serialize_dag(g)) == g


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_topological_sort_respects_edges(g):
    pos = {v: i for i, v in enumerate(g.topological_order())}
    assert all(pos[a] < pos[b] for a, b in g.edges)
