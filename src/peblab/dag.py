"""Single-sink bounded-fan-in DAGs: generators, file format, validation.

The DAG file format is line-oriented UTF-8: `v <name>` declares a
vertex, `e <from> <to>` an edge, `#` starts a comment.  Declaration
order defines the canonical vertex order.  Topological order breaks
ties lexicographically so everything downstream iterates
deterministically.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from .cnf import is_decimal
from .errors import DagError


class Dag:
    """Immutable DAG with a unique sink.

    Invariants checked at construction: vertex names unique, edges
    reference declared vertices, no duplicate edges, graph acyclic,
    exactly one vertex of outdegree 0 (the sink).  Fan-in is arbitrary
    but recorded in max_indegree.
    """

    __slots__ = ("vertices", "edges", "sink", "max_indegree", "_pred", "_succ", "_topo", "_pos")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vs = tuple(vertices)
        es = tuple((str(a), str(b)) for a, b in edges)
        seen = set()
        for v in vs:
            if v in seen:
                raise DagError(f"duplicate vertex {v!r}")
            seen.add(v)
        pred: dict[str, list[str]] = {v: [] for v in vs}
        succ: dict[str, list[str]] = {v: [] for v in vs}
        edge_seen = set()
        for a, b in es:
            if a not in pred:
                raise DagError(f"unknown vertex {a!r} in edge {a} -> {b}")
            if b not in pred:
                raise DagError(f"unknown vertex {b!r} in edge {a} -> {b}")
            if (a, b) in edge_seen:
                raise DagError(f"duplicate edge {a} -> {b}")
            edge_seen.add((a, b))
            pred[b].append(a)
            succ[a].append(b)

        self.vertices = vs
        self.edges = es
        self._pred = {v: tuple(sorted(us)) for v, us in pred.items()}
        self._succ = {v: tuple(sorted(us)) for v, us in succ.items()}
        self._topo = self._topological_sort()
        self._pos = {v: i for i, v in enumerate(self._topo)}

        sinks = [v for v in vs if not self._succ[v]]
        if len(sinks) != 1:
            raise DagError(f"expected exactly one sink, found {len(sinks)}: {sorted(sinks)}")
        self.sink = sinks[0]
        self.max_indegree = max((len(self._pred[v]) for v in vs), default=0)

    def _topological_sort(self) -> tuple[str, ...]:
        indeg = {v: len(self._pred[v]) for v in self.vertices}
        ready = [v for v in self.vertices if indeg[v] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(ready, w)
        if len(order) != len(self.vertices):
            stuck = sorted(v for v, d in indeg.items() if d > 0)
            raise DagError(f"cycle detected through {stuck}")
        return tuple(order)

    # -- queries --------------------------------------------------------

    def predecessors(self, v: str) -> tuple[str, ...]:
        return self._pred[v]

    def sources(self) -> tuple[str, ...]:
        return tuple(v for v in self.topological_order() if not self._pred[v])

    def topological_order(self) -> tuple[str, ...]:
        return self._topo

    def topo_position(self, v: str) -> int:
        return self._pos[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._pred

    def reachable_from(self, v: str) -> frozenset[str]:
        """All vertices reachable from v by directed paths of length >= 1."""
        out: set[str] = set()
        stack = list(self._succ[v])
        while stack:
            w = stack.pop()
            if w not in out:
                out.add(w)
                stack.extend(self._succ[w])
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dag) and self.vertices == other.vertices and set(self.edges) == set(other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.edges)))

    def __repr__(self) -> str:
        return f"Dag({len(self.vertices)} vertices, {len(self.edges)} edges, sink={self.sink!r})"


# -- generators ---------------------------------------------------------


def build_pyramid(height: int) -> Dag:
    """Pyramid of the given height: layer k from the sink has k+1 vertices,
    every non-source has exactly the two adjacent vertices below it as
    predecessors.

    Small pyramids (<= 26 vertices) use consecutive letters ending at z,
    so height 2 is the classic u,v,w,x,y,z pyramid; larger ones use
    layer-index names p<layer>_<i> with layer 0 at the sources.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    n = (height + 1) * (height + 2) // 2
    if n <= 26:
        names = iter("abcdefghijklmnopqrstuvwxyz"[26 - n:])

        def name(layer, i):
            return next(names)
    else:
        def name(layer, i):
            return f"p{layer}_{i}"

    layers = []
    for layer in range(height + 1):
        width = height + 1 - layer
        layers.append([name(layer, i) for i in range(width)])
    vertices = [v for layer in layers for v in layer]
    edges = []
    for layer in range(1, height + 1):
        below = layers[layer - 1]
        for i, v in enumerate(layers[layer]):
            edges.append((below[i], v))
            edges.append((below[i + 1], v))
    return Dag(vertices, edges)


def build_binary_tree(height: int) -> Dag:
    """Complete binary tree with edges directed toward the root (the sink).

    Heap-indexed names t1..t(2^(h+1)-1), t1 the root; vertices are
    declared leaves-first so declaration order is topological.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    n = 2 ** (height + 1) - 1
    vertices = [f"t{i}" for i in range(n, 0, -1)]
    edges = []
    for i in range(n, 1, -1):
        edges.append((f"t{i}", f"t{i // 2}"))
    return Dag(vertices, edges)


def build_path(n: int) -> Dag:
    """Line graph v1 -> v2 -> ... -> vn with sink vn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(1, n)]
    return Dag(vertices, edges)


# -- file format --------------------------------------------------------


def parse_dag(text: str) -> Dag:
    """Parse the DAG file format; structural errors carry the offending line."""
    vertices: list[str] = []
    edges: list[tuple[str, str, int]] = []
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v":
            if len(fields) != 2:
                raise DagError(f"expected 'v <name>', got {raw!r}", line=lineno)
            if fields[1] in declared:
                raise DagError(f"duplicate vertex {fields[1]!r}", line=lineno)
            declared.add(fields[1])
            vertices.append(fields[1])
        elif fields[0] == "e":
            if len(fields) != 3:
                raise DagError(f"expected 'e <from> <to>', got {raw!r}", line=lineno)
            edges.append((fields[1], fields[2], lineno))
        else:
            raise DagError(f"unknown directive {fields[0]!r}", line=lineno)

    for a, b, lineno in edges:
        if a not in declared:
            raise DagError(f"unknown vertex {a!r} in edge", line=lineno)
        if b not in declared:
            raise DagError(f"unknown vertex {b!r} in edge", line=lineno)
    # Dag() re-checks duplicates/cycles/sink; location information for those
    # is whole-file, which its messages already convey.
    return Dag(vertices, [(a, b) for a, b, _ in edges])


def serialize_dag(g: Dag) -> str:
    lines = [f"v {v}" for v in g.vertices]
    lines.extend(f"e {a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


MAX_FAMILY_VERTICES = 10**6
_FAMILIES = {  # kind -> (builder, vertex count at a size)
    "pyramid": (build_pyramid, lambda h: (h + 1) * (h + 2) // 2),
    "tree": (build_binary_tree, lambda h: 2 ** (h + 1) - 1),
    "path": (build_path, lambda n: n),
}


def parse_family(spec: str) -> Dag:
    """Graph family literal for the CLI: pyramid:<h>, tree:<h>, path:<n>.

    The vertex count comes from the literal, and a family of more than
    MAX_FAMILY_VERTICES vertices raises ValueError before anything is
    built.  Every family has at least `size` vertices and a tree above
    height 63 more than 2^64, so those sizes are refused before their
    counts, which can be too large to compute or print, are formed.
    """
    kind, _, arg = spec.partition(":")
    if not is_decimal(arg):
        raise ValueError(f"graph spec {spec!r} needs a decimal size, e.g. pyramid:2")
    size = int(arg)
    if kind not in _FAMILIES:
        raise ValueError(f"unknown graph family {kind!r}")
    build, count = _FAMILIES[kind]
    if size > MAX_FAMILY_VERTICES or kind == "tree" and size > 63:
        raise ValueError(f"graph spec {spec!r} has more than {MAX_FAMILY_VERTICES} vertices")
    if count(size) > MAX_FAMILY_VERTICES:
        raise ValueError(f"graph spec {spec!r} has {count(size)} vertices, "
                         f"more than {MAX_FAMILY_VERTICES}")
    return build(size)
