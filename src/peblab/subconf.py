"""The subconfiguration games, labelled (L-) and blob pebblings, and the
pebbling trace format of all three games.

A pebbling of each game is its moves, as the trace format writes them,
played from the empty configuration.  The labelled and blob games name
subconfigurations by creation index, and `_replay` is the one replay of
their moves; the trace parser checks only syntax.  A labelled
subconfiguration `Subconf` <v, W> is the one-vertex `BlobSubconf`
[{v}, W] that may not inflate, and `LabelledPebbling` subclasses
`BlobPebbling`, so one replay checks both games.

Only `pebble-validate` and a compile from a trace run this code, so it
has a module of its own (see `cli`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cnf import Value, is_decimal
from .errors import BudgetExceeded, IllegalMove, TraceError, WrongEndpoints, search_budget
from .pebbling import _BW_OPS, BwPebbling, PebblingCost, validate_bw

if TYPE_CHECKING:
    from .dag import Dag


# -- subconfiguration games: blob and labelled (L-) pebblings ---------------


class BlobSubconf(Value):
    """Blob subconfiguration [B, W]: black blob on vertex set B, whites W."""

    __slots__ = _fields = ("blob", "support")

    def __init__(self, blob: frozenset[str], support: frozenset[str] = frozenset()):
        if not blob:
            raise ValueError("blob must be nonempty")
        if blob & support:
            raise ValueError(f"blob and support overlap: {sorted(blob & support)}")
        self.blob = blob
        self.support = support

    def __str__(self) -> str:
        return f"[{{{','.join(sorted(self.blob))}}},{{{','.join(sorted(self.support))}}}]"


class Subconf(BlobSubconf):
    """Pebble subconfiguration <v, W>: the single-vertex blob [{v}, W],
    which may not inflate."""

    __slots__ = ()

    def __init__(self, vertex: str, support: frozenset[str] = frozenset()):
        super().__init__(frozenset({vertex}), support)

    @property
    def vertex(self) -> str:
        (v,) = self.blob
        return v

    def __str__(self) -> str:
        return f"<{self.vertex},{{{','.join(sorted(self.support))}}}>"


class BlobPebbling(Value):
    """A blob pebbling as its trace moves, played from the empty
    configuration: ("I", v), ("E", i), ("M", i, j) or ("M", i, j, v), and
    ("X", i, blob, support), where i and j are 1-based creation indices of
    subconfigurations; `_replay` applies them."""

    __slots__ = _fields = ("host", "moves")

    def __init__(self, host: Dag, moves: tuple[tuple, ...]):
        self.host = host
        self.moves = moves

    @property
    def time(self) -> int:
        return len(self.moves)


class LabelledPebbling(BlobPebbling):
    """A pebbling of `Subconf`s, replayed by the labelled rules: no inflation."""

    __slots__ = ()


class LabelledCost(PebblingCost):
    __slots__ = ("bound",)
    _fields = ("time", "space", "bound")

    def __init__(self, time: int, space: int, bound: tuple[int, int]):
        super().__init__(time, space)
        self.bound = bound  # tightest (b, w)


def _replay(p: BlobPebbling):
    """Apply each move of a labelled or blob pebbling to the present
    subconfigurations, checking it by the game's rules, and check that the
    last configuration holds the sink's [{sink}, {}] alone.  The one place a
    subconfiguration move is applied; the first bad move raises.  Yields
    each move, a merger with its pivot resolved, and the configuration it
    reaches as a frozenset of subconfigurations.

    Introduction adds [{v}, pred(v)].  Merger of present [B1, W1] and
    [B2, W2] on a pivot v in W1 and B2 adds [B1 | B2 - {v}, W1 - {v} | W2].
    Inflation, a blob move only, adds any [B, W] that extends a present
    [B1, W1]: B1 <= B and W1 <= W.  Erasure removes a present
    subconfiguration.  A move may not add one that is present already.
    """
    g = p.host
    labelled = isinstance(p, LabelledPebbling)
    game = "L-pebbling" if labelled else "blob pebbling"
    created: list[BlobSubconf] = []  # by creation index, from 1
    present: set[BlobSubconf] = set()

    def fetch(t, i):
        if not 1 <= i <= len(created):
            raise IllegalMove(t, f"no subconfiguration {i}")
        sc = created[i - 1]
        if sc not in present:
            raise IllegalMove(t, f"subconfiguration {sc} not present")
        return sc

    def subconf(t, blob, support):
        try:
            return Subconf(*blob, support) if labelled else BlobSubconf(blob, support)
        except ValueError as e:
            raise IllegalMove(t, str(e)) from None

    for t, move in enumerate(p.moves, start=1):
        op = move[0]
        if op == "E":
            present.remove(fetch(t, move[1]))
            yield move, frozenset(present)
            continue
        if op == "I":
            v = move[1]
            if not g.has_vertex(v):
                raise IllegalMove(t, f"unknown vertex {v!r}")
            sc = subconf(t, frozenset({v}), frozenset(g.predecessors(v)))
        elif op == "M":
            first, second = fetch(t, move[1]), fetch(t, move[2])
            pivots = sorted(first.support & second.blob)
            if not pivots:
                raise IllegalMove(t, f"no merger pivot: {second} has no vertex in the support of {first}")
            if len(move) == 4:
                if move[3] not in pivots:
                    raise IllegalMove(t, f"{move[3]!r} is not a merger pivot for this pair")
                pivots = [move[3]]
            if len(pivots) != 1:
                raise IllegalMove(t, f"merger pivot ambiguous ({pivots}); use 'M i j v'")
            v = pivots[0]
            sc = subconf(t, first.blob | (second.blob - {v}), (first.support - {v}) | second.support)
            move = (*move[:3], v)
        elif op == "X" and not labelled:
            src, sc = fetch(t, move[1]), subconf(t, move[2], move[3])
            if not (src.blob <= sc.blob and src.support <= sc.support):
                raise IllegalMove(t, f"inflation must extend {src}")
            unknown = sorted(u for u in sc.blob | sc.support if not g.has_vertex(u))
            if unknown:
                raise IllegalMove(t, f"unknown vertex {unknown[0]!r}")
        else:
            raise IllegalMove(t, f"{op!r} is no {game} move")
        if sc in present:
            raise IllegalMove(t, f"{sc} is present already")
        created.append(sc)
        present.add(sc)
        yield move, frozenset(present)
    end = Subconf(g.sink) if labelled else BlobSubconf(frozenset({g.sink}))
    if present != {end}:
        raise WrongEndpoints(f"{game} must end at {{{end}}}")


def validate_labelled(p: LabelledPebbling) -> LabelledCost:
    """Accept iff every move is a legal Introduction, Merger, or Erasure;
    reports time, space (the vertices pebbled, black or white), and the
    tightest (b, w) boundedness parameters."""
    space = b = w = 0
    for _, conf in _replay(p):
        space = max(space, len(frozenset().union(*(sc.blob | sc.support for sc in conf))))
        b = max(b, len(conf))
        for sc in conf:
            w = max(w, len(sc.support))
    return LabelledCost(time=p.time, space=space, bound=(b, w))


def black_to_labelled(p: BwPebbling) -> LabelledPebbling:
    """Render a black-only pebbling as an L-pebbling.

    Each placement becomes an introduction followed by interleaved
    merger/erasure pairs that strip the white support, keeping at most
    one extra subconfiguration alive; a pebbling of space s and fan-in
    l becomes (s+1, l)-bounded.
    """
    g = p.host
    validate_bw(p, black_only=True)
    moves: list[tuple] = []
    black: dict[str, int] = {}  # vertex -> creation index of its <v, {}>
    created = 0
    for op, v in p.moves:
        if op == "B+":
            moves.append(("I", v))
            created += 1
            for u in g.predecessors(v):  # merge on u, then erase the premise
                moves += [("M", created, black[u]), ("E", created)]
                created += 1
            black[v] = created
        else:
            moves.append(("E", black.pop(v)))
    return LabelledPebbling(host=g, moves=tuple(moves))


def blob_config_space(g: Dag, conf: frozenset[BlobSubconf], budget=None) -> int:
    """Chargeable cost of one blob configuration, a frozenset of subconfigurations.

    Black cost: the largest m such that some ordering of m distinct
    blobs has strictly expanding unions (exhaustive search over subsets,
    memoized).  White cost: number of distinct supporting whites lying
    below every vertex of their blob.
    """
    limit = search_budget(budget)
    blobs = sorted({sc.blob for sc in conf}, key=lambda b: (len(b), sorted(b)))
    best = 0
    visited = 0
    seen = {frozenset()}
    frontier = [(frozenset(), frozenset())]  # (chosen indices, union)
    while frontier:
        chosen, union = frontier.pop()
        best = max(best, len(chosen))
        for i, blob in enumerate(blobs):
            if i in chosen or blob <= union:
                continue
            nxt = frozenset(chosen | {i})
            if nxt in seen:
                continue
            seen.add(nxt)
            visited += 1
            if visited > limit:
                raise BudgetExceeded(visited, limit, "blob black-cost search")
            frontier.append((nxt, union | blob))

    chargeable: set[str] = set()
    below: dict[str, frozenset[str]] = {}
    for sc in conf:
        for wv in sc.support:
            if wv not in below:
                below[wv] = g.reachable_from(wv)
            if all(b in below[wv] for b in sc.blob):
                chargeable.add(wv)
    return best + len(chargeable)


def validate_blob(p: BlobPebbling, budget=None) -> PebblingCost:
    """Accept iff every move is a legal Introduction, Merger, Inflation, or
    Erasure; space per the chargeable-cost measure."""
    space = 0
    for _, conf in _replay(p):
        space = max(space, blob_config_space(p.host, conf, budget))
    return PebblingCost(time=p.time, space=space)


# -- trace format ----------------------------------------------------------
#
# Line-oriented, `#` comments.  Header: `game bw` | `game labelled` |
# `game blob`.  BW moves: `B+ v`, `B- v`, `W+ v`, `W- v`.  Labelled/blob
# moves reference subconfigurations by creation index (1-based):
# `I v` introduce, `M i j` merge (blob may need `M i j v` to fix the
# pivot), `E i` erase, and for blob games `X i : b1 b2 / w1 w2` inflates
# subconfiguration i to the given blob and support.


def serialize_pebbling(p: BwPebbling | BlobPebbling) -> str:
    if isinstance(p, BwPebbling):
        return "\n".join(["game bw", *(f"{op} {v}" for op, v in p.moves)]) + "\n"

    if not isinstance(p, BlobPebbling):
        raise TypeError(f"not a pebbling: {p!r}")
    if isinstance(p, LabelledPebbling):
        lines, moves = ["game labelled"], p.moves
    else:  # a blob merger is written with the pivot its replay resolves
        lines, moves = ["game blob"], [move for move, _ in _replay(p)]
    for move in moves:
        if move[0] == "X":
            _, i, blob, support = move
            lines.append(f"X {i} : {' '.join(sorted(blob))} / {' '.join(sorted(support))}")
        else:
            lines.append(" ".join(map(str, move)))
    return "\n".join(lines) + "\n"


def parse_pebbling_trace(text: str, host: Dag):
    """Parse a trace into the pebbling its header names, checking syntax only."""
    body: list[tuple[int, list[str]]] = []
    game = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # whole-line comments only: vertex names are opaque and may contain '#'
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if game is None:
            if fields[0] != "game" or len(fields) != 2:
                raise TraceError("first directive must be 'game <variant>'", line=lineno)
            game = fields[1]
            if game not in ("bw", "labelled", "blob"):
                raise TraceError(f"unknown game variant {game!r}", line=lineno)
            continue
        body.append((lineno, fields))
    if game is None:
        raise TraceError("empty trace: missing 'game' header")

    if game == "bw":
        for lineno, fields in body:
            if len(fields) != 2 or fields[0] not in _BW_OPS:
                raise TraceError(f"bad bw move {' '.join(fields)!r}", line=lineno)
        return BwPebbling(host=host, moves=tuple((op, v) for _, (op, v) in body))

    labelled = game == "labelled"

    def index(tok, lineno):
        if not (is_decimal(tok) and int(tok) >= 1):
            raise TraceError(f"bad subconfiguration index {tok!r}", line=lineno)
        return int(tok)

    moves = []
    for lineno, fields in body:
        if fields[0] == "I" and len(fields) == 2:
            moves.append(("I", fields[1]))
        elif fields[0] == "E" and len(fields) == 2:
            moves.append(("E", index(fields[1], lineno)))
        elif fields[0] == "M" and (len(fields) == 3 or not labelled and len(fields) == 4):
            moves.append(("M", index(fields[1], lineno), index(fields[2], lineno), *fields[3:]))
        elif not labelled and fields[0] == "X" and ":" in fields and "/" in fields:
            colon = fields.index(":")
            slash = fields.index("/")
            if colon != 2 or slash < colon:
                raise TraceError(f"bad inflation {' '.join(fields)!r}", line=lineno)
            moves.append(("X", index(fields[1], lineno),
                          frozenset(fields[colon + 1:slash]), frozenset(fields[slash + 1:])))
        else:
            raise TraceError(f"bad {game} move {' '.join(fields)!r}", line=lineno)
    return (LabelledPebbling if labelled else BlobPebbling)(host=host, moves=tuple(moves))
