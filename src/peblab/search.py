"""The exact space-bounded search of both space games: the pebbling price
search of `pebbling` and the clause-space search of
`saturation.min_clause_space`.  It has a module of its own so that a
process running one of them compiles only this loop, not both callers.
"""

from __future__ import annotations

from collections import deque

from .errors import BudgetExceeded, search_budget


def space_bounded_search(start, shrink, grow, size, is_goal, budget, what, cap=None):
    """(path, s): the least space bound s <= `cap` within which a goal is
    reachable from `start`, and a path of states to it; (None, s) if none.

    `shrink` and `grow` yield a state's successors that lower and raise
    `size`; a grow may add several units.  The search is depth-first.  At
    bound s a popped state below s gets its shrinks and its grows of size at
    most s, one at s only its shrinks; a state with a grow left above s waits
    in `blocked`.  When s rises, `blocked` becomes `waiting`, and each time
    the stack runs dry the oldest waiting state gets its grows that now fit
    (back to `blocked` if one is still above s), so a goal near the first
    of them is reached before the rest are expanded.  s rises only when the
    stack and `waiting` are both empty, so every state within the old bound
    has been popped first.  One `parents` dict serves all bounds, so no
    state is popped twice; each pop costs one unit of `budget`, and the path
    is the stack's.
    """
    limit = search_budget(budget)
    parents = {start: None}
    stack, blocked, waiting, visited, s = [start], [], deque(), 0, 0

    def push(moves, state):
        for new in moves:
            if new not in parents:
                parents[new] = state
                stack.append(new)

    def push_grows(state):  # True if a grow is left above s
        over = False
        for new in grow(state):
            if size(new) > s:
                over = True
            elif new not in parents:
                parents[new] = state
                stack.append(new)
        return over

    while True:
        while not stack:
            if waiting:
                state = waiting.popleft()
                if push_grows(state):
                    blocked.append(state)
                continue
            if not blocked or cap is not None and s >= cap:
                return None, s
            s += 1
            waiting, blocked = deque(blocked), []
        state = stack.pop()
        visited += 1
        if visited > limit:
            raise BudgetExceeded(visited, limit, what)
        if is_goal(state):
            break
        push(shrink(state), state)
        if size(state) >= s or push_grows(state):
            blocked.append(state)
    path = []
    while state is not None:
        path.append(state)
        state = parents[state]
    return path[::-1], s
