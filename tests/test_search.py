"""`search.space_bounded_search` on hand-built integer state graphs."""

from collections import deque

from hypothesis import given, settings, strategies as st

from peblab.search import space_bounded_search

# 0 (size 0) grows to 1, 2, 3 (size 1); each k of those grows to 10 + k (size 2)
SIZE = {0: 0, 1: 1, 2: 1, 3: 1, 11: 2, 12: 2, 13: 2}
GROWS = {0: (3, 2, 1), 1: (11,), 2: (12,), 3: (13,)}


def search(goal, grown):
    def grow(state):
        grown.append(state)
        return GROWS.get(state, ())

    return space_bounded_search(0, lambda state: (), grow, SIZE.__getitem__,
                                lambda state: state == goal, None, "test search")


def test_a_goal_behind_the_first_waiting_state_leaves_the_rest_unexpanded():
    # the stack pops 1, 2, 3 in that order, so 1 waits first at the rise to 2
    grown = []
    assert search(11, grown) == ([0, 1, 11], 2)
    assert grown == [0, 1]


def test_a_goal_behind_the_last_waiting_state_is_found_at_that_bound():
    grown = []
    assert search(13, grown) == ([0, 3, 13], 2)
    assert grown == [0, 1, 2, 3]


def test_a_goal_below_the_least_bound_is_not_returned():
    # 4 (size 1) is a goal, but only through 5 (size 3); 12 (size 2) is reached within 2
    size = {**SIZE, 4: 1, 5: 3}
    grows = {**GROWS, 0: (5, 3, 2, 1)}
    path, s = space_bounded_search(
        0, lambda state: (4,) if state == 5 else (), lambda state: grows.get(state, ()),
        size.__getitem__, lambda state: state in (4, 12), None, "test search")
    assert (path, s) == ([0, 2, 12], 2)


def least_bound(edges, size, goals):
    """The least s such that a goal is reachable from 0 through states of size
    at most s, by breadth-first search per bound; None if no goal is reachable."""
    for s in sorted(set(size)):
        seen, queue = {0}, deque([0])
        while queue:
            u = queue.popleft()
            if u in goals:
                return s
            for v in edges[u]:
                if size[v] <= s and v not in seen:
                    seen.add(v)
                    queue.append(v)
    return None


@st.composite
def state_graphs(draw):
    n = draw(st.integers(2, 9))
    size = [0] + draw(st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1))
    edges = [sorted({v for v in draw(st.sets(st.integers(0, n - 1), max_size=4))
                     if size[v] != size[u]}) for u in range(n)]
    goals = draw(st.sets(st.integers(0, n - 1), max_size=3))
    return edges, size, goals


@given(state_graphs())
@settings(max_examples=300, deadline=None)
def test_the_bound_is_the_least_and_the_path_stays_within_it(graph):
    edges, size, goals = graph
    path, s = space_bounded_search(
        0, lambda u: (v for v in edges[u] if size[v] < size[u]),
        lambda u: (v for v in edges[u] if size[v] > size[u]),
        size.__getitem__, lambda u: u in goals, None, "test search")
    expected = least_bound(edges, size, goals)
    if expected is None:
        assert path is None
        return
    assert s == expected
    assert path[0] == 0 and path[-1] in goals
    assert all(v in edges[u] for u, v in zip(path, path[1:]))
    assert max(size[u] for u in path) == s
