"""The black-white pebble game over DAGs: its one replay, the greedy
black strategy and the exact price searches.

A black-white pebbling is its moves, (op, v) pairs as the trace format
writes them, played from the empty configuration, and `validate_bw` is
the one replay that applies them.  The pebbling trace format lives here,
with the bw moves; the labelled and blob games and their moves live in
`subconf`, which only a labelled or blob trace loads, so `pebble-price`
and a bw trace compile none of it (see `cli`).

Validators are pure functions over immutable traces.  Optimal prices come
from `search.space_bounded_search`, the one search of both space games (it
also runs `saturation.min_clause_space`), which only the price search loads,
with the moves in canonical vertex order (removals before placements), so
repeated runs give identical witnesses.
The price search makes no dominated move: a white pebble goes only on an
inner vertex, and a black-game source only in one grow with the vertex it
serves, and it leaves in the shrink right after, with the rest of that
batch's sources.  So a grow may add several pebbles and a shrink remove
several; the witness plays each one pebble at a time.  The black-white game
places and removes sources singly, since its `W-` needs the predecessors
pebbled (see `_optimal_pebbling`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cnf import Value, records
from .errors import IllegalMove, TraceError, WhitePebbleInBlackOnly, WrongEndpoints
from .lazy import lazy_names

if TYPE_CHECKING:
    from .dag import Dag
    from .subconf import BlobPebbling


# `perfbench/` reads these names here; the table goes once it imports them from their homes
_LAZY = {"subconf": ("validate_labelled", "validate_blob")}
__getattr__ = lazy_names(globals(), _LAZY)


# -- black-white game -----------------------------------------------------

_BW_OPS = ("B+", "B-", "W+", "W-")


class BwPebbling(Value):
    """A black-white pebbling as its moves: (op, v) pairs, op one of B+,
    B-, W+, W-, played from the empty configuration; `validate_bw`
    replays them."""

    __slots__ = _fields = ("host", "moves")

    def __init__(self, host: Dag, moves: tuple[tuple[str, str], ...]):
        self.host = host
        self.moves = moves

    @property
    def time(self) -> int:
        return len(self.moves)


class PebblingCost(Value):
    __slots__ = _fields = ("time", "space")

    def __init__(self, time: int, space: int):
        self.time = time
        self.space = space


def validate_bw(pebbling: BwPebbling, black_only: bool = False) -> PebblingCost:
    """Replay the moves from the empty configuration, checking each against
    rules 1-4, and check that the last configuration holds exactly a black
    pebble on the sink.  The one place a black-white move is applied.

    Rule 1: a black pebble may be placed on an empty vertex whose
    predecessors are all pebbled.  Rule 2: a black pebble may be removed
    at any time.  Rule 3: a white pebble may be placed on any empty
    vertex.  Rule 4: a white pebble may be removed if the vertex's
    predecessors are all pebbled.  The first bad move raises.
    """
    g = pebbling.host
    black: set[str] = set()
    white: set[str] = set()
    space = 0
    for t, (op, v) in enumerate(pebbling.moves, start=1):
        if op not in _BW_OPS:
            raise IllegalMove(t, f"unknown move {op!r}")
        if not g.has_vertex(v):
            raise IllegalMove(t, f"unknown vertex {v!r}")
        if black_only and op[0] == "W":
            raise WhitePebbleInBlackOnly(t)
        pebbles = black if op[0] == "B" else white
        if op[1] == "+":
            if v in black or v in white:
                raise IllegalMove(t, f"vertex {v} already pebbled")
            pebbles.add(v)
        elif v in pebbles:
            pebbles.remove(v)
        else:
            raise IllegalMove(t, f"no such pebble to remove on {v}")
        if op in ("B+", "W-"):  # rules 1 and 4; rules 2 and 3 always hold
            missing = [u for u in g.predecessors(v) if u not in black and u not in white]
            if missing:
                rule = 1 if op == "B+" else 4
                raise IllegalMove(t, f"rule {rule}: predecessors {missing} of {v} unpebbled")
        space = max(space, len(black) + len(white))
    if black != {g.sink} or white:
        got = f"(B:{','.join(sorted(black)) or '-'} W:{','.join(sorted(white)) or '-'})"
        raise WrongEndpoints(f"pebbling must end at ({{{g.sink}}}, {{}}), got {got}")
    return PebblingCost(time=pebbling.time, space=space)


def greedy_black_strategy(g: Dag) -> BwPebbling:
    """Pebble the unpebbled predecessors in canonical order, each the same
    way, then the vertex, then remove the predecessors pebbled for it.

    Valid complete black pebbling for any DAG; not space-optimal.  An
    explicit stack of (vertex, remaining predecessors, predecessors
    pebbled for it) frames runs the depth-first order, so deep graphs do
    not hit the recursion limit.
    """
    cur: set[str] = set()
    moves = []
    stack = [(g.sink, iter(g.predecessors(g.sink)), [])]
    while stack:
        v, preds, placed = stack[-1]
        for u in preds:
            if u not in cur:
                placed.append(u)
                stack.append((u, iter(g.predecessors(u)), []))
                break
        else:
            stack.pop()
            cur.add(v)
            moves.append(("B+", v))
            for u in placed:
                cur.remove(u)
                moves.append(("B-", u))
    return BwPebbling(host=g, moves=tuple(moves))


# -- optimal prices by exhaustive search ----------------------------------


def _optimal_pebbling(g: Dag, black_only: bool, budget) -> BwPebbling:
    """A minimum-space complete pebbling, by `space_bounded_search` over
    ints `black | white << n`, bit i the i-th vertex in topological order.
    Removals shrink a state and placements grow it, each lowest vertex
    first, so the highest placement is popped first; after a rise of the
    bound, the states that waited for it are expanded oldest first.  Three
    dominated move families are left out, which changes no price.  White
    pebbles go only on inner vertices: one on a source may as well be
    black, and the sink is no vertex's predecessor.  In the black game a
    source other than the sink is placed only in a grow that adds a vertex v
    with its missing sources, once v's other predecessors are pebbled:
    delaying each source placement to its first use only removes pebbles.
    And a state holding such sources, a batch peak, has one move: the
    shrink that removes them all.  Take a pebbling in that normal form,
    remove each source right after the batch that placed it, and place it
    again in each later batch that needs it: at a batch the source is
    there in both pebblings, every other configuration loses it, so no
    configuration grows.  The black-white game keeps its single source
    moves: `W-` needs its predecessors pebbled, so a source batch for it
    would be a shrink that first grows, which no move here is.  The
    witness plays each batch, then its strip, and the final strip to
    {sink}, one pebble per move, lowest vertex first."""
    from .search import space_bounded_search  # only the price search loads it
    order = g.topological_order()
    n, full = len(order), (1 << len(order)) - 1
    bit = {v: 1 << i for i, v in enumerate(order)}
    pred_mask = {bit[v]: sum(bit[u] for u in g.predecessors(v)) for v in order}
    sink_bit = bit[g.sink]
    sources = sum(b for b, preds in pred_mask.items() if not preds)
    whiteable = 0 if black_only else full & ~sources & ~sink_bit
    batched = sources & ~sink_bit if black_only else 0

    def removals(state):
        if state & batched:  # a batch peak: its sources leave together
            yield state & ~batched
            return
        black = state & full
        rest = both = black | state >> n
        while rest:
            b = rest & -rest
            rest ^= b
            if black & b:
                yield state & ~b
            elif not pred_mask[b] & ~both:
                yield state & ~(b << n)

    def placements(state):
        if state & batched:
            return
        both = (state | state >> n) & full
        empty = full & ~both & ~batched
        while empty:
            b = empty & -empty
            empty ^= b
            missing = pred_mask[b] & ~both
            if not missing & ~batched:
                yield state | missing | b
            if b & whiteable:
                yield state | b << n

    path, _ = space_bounded_search(
        0, removals, placements, int.bit_count,
        lambda state: state & sink_bit and not state >> n, budget,
        "black pebbling price search" if black_only else "black-white pebbling price search")
    moves = []
    states = [*path, sink_bit]  # then strip extra pebbles to end at exactly {sink}
    for prev, st in zip(states, states[1:]):  # one pebble per move, lowest first
        changed = prev ^ st
        while changed:
            b = changed & -changed
            changed ^= b
            i = b.bit_length() - 1
            moves.append(("BW"[i // n] + ("+" if st & b else "-"), order[i % n]))
    return BwPebbling(host=g, moves=tuple(moves))


def optimal_black_pebbling(g: Dag, budget=None) -> BwPebbling:
    """A minimum-space complete black pebbling, by a one-pass space-bounded search."""
    return _optimal_pebbling(g, black_only=True, budget=budget)


def optimal_black_price(g: Dag, budget=None) -> int:
    """Peb(G): minimum space over all complete black pebblings; exact."""
    return validate_bw(optimal_black_pebbling(g, budget), black_only=True).space


def optimal_bw_pebbling(g: Dag, budget=None) -> BwPebbling:
    """A minimum-space complete black-white pebbling, by a one-pass space-bounded search."""
    return _optimal_pebbling(g, black_only=False, budget=budget)


def optimal_bw_price(g: Dag, budget=None) -> int:
    """BW-Peb(G): minimum space over all complete black-white pebblings; exact."""
    return validate_bw(optimal_bw_pebbling(g, budget)).space


# -- trace format ----------------------------------------------------------
#
# Line-oriented, whole-line `#` comments.  Header: `game bw` | `game
# labelled` | `game blob`.  BW moves: `B+ v`, `B- v`, `W+ v`, `W- v`.
# Labelled/blob moves reference subconfigurations by creation index
# (1-based): `I v` introduce, `M i j` merge (blob may need `M i j v` to fix
# the pivot), `E i` erase, and for blob games `X i : b1 b2 / w1 w2`
# inflates subconfiguration i to the given blob and support.


def serialize_pebbling(p: BwPebbling | BlobPebbling) -> str:
    if isinstance(p, BwPebbling):
        game, moves = "bw", p.moves
    else:
        from .subconf import _serialize_moves
        game, moves = _serialize_moves(p)
    return "\n".join([f"game {game}", *(" ".join(map(str, move)) for move in moves)]) + "\n"


def parse_pebbling_trace(text: str, host: Dag) -> BwPebbling | BlobPebbling:
    """Parse a trace into the pebbling its header names, checking syntax only."""
    rows = records(text)
    lineno, _, fields = next(rows, (None, None, None))  # the header is the first record
    if fields is None:
        raise TraceError("empty trace: missing 'game' header")
    if fields[0] != "game" or len(fields) != 2:
        raise TraceError("first directive must be 'game <variant>'", line=lineno)
    game = fields[1]
    if game in ("labelled", "blob"):
        from .subconf import _parse_moves
        return _parse_moves(rows, game, host)
    if game != "bw":
        raise TraceError(f"unknown game variant {game!r}", line=lineno)
    moves = []
    for lineno, _, fields in rows:
        if len(fields) != 2 or fields[0] not in _BW_OPS:
            raise TraceError(f"bad bw move {' '.join(fields)!r}", line=lineno)
        moves.append((fields[0], fields[1]))
    return BwPebbling(host=host, moves=tuple(moves))
