import sys
import time
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from peblab import dag, pebbling, subconf
from peblab.errors import (
    BudgetExceeded, IllegalMove, TraceError, WhitePebbleInBlackOnly, WrongEndpoints,
)
from peblab.pebbling import BwPebbling
from peblab.subconf import BlobPebbling, BlobSubconf, LabelledPebbling
from test_dag import random_dags


def diff_moves(confs):
    """The moves that play the (black, white) vertex sets `confs` in turn
    from the empty configuration: per step its removals, then its
    placements, each in name order."""
    moves = []
    black, white = frozenset(), frozenset()
    for b, w in confs:
        for op, vs in (("B-", black - b), ("W-", white - w), ("B+", b - black), ("W+", w - white)):
            moves.extend((op, v) for v in sorted(vs))
        black, white = b, w
    return tuple(moves)


def bw(host, *steps):
    return BwPebbling(host=host, moves=diff_moves(
        (frozenset(b.split()), frozenset(w.split())) for b, w in steps))


def black_seq(host, *blacks):
    return bw(host, *((b, "") for b in blacks))


@pytest.fixture
def pyr2():
    return dag.build_pyramid(2)


class TestValidateBw:
    def test_single_vertex(self):
        g = dag.build_path(1)
        cost = pebbling.validate_bw(black_seq(g, "v1"))
        assert cost == pebbling.PebblingCost(time=1, space=1)

    def test_classic_pyramid_schedule(self, pyr2):
        p = black_seq(
            pyr2,
            "u", "u v", "u v x", "v x", "v w x", "v w x y", "w x y", "x y",
            "x y z", "y z", "z",
        )
        cost = pebbling.validate_bw(p, black_only=True)
        assert cost.space == 4
        assert cost.time == 11

    def test_rule1_requires_predecessors(self, pyr2):
        with pytest.raises(IllegalMove, match="rule 1"):
            pebbling.validate_bw(black_seq(pyr2, "u", "u x"))

    def test_white_rules(self, pyr2):
        # white placement anywhere; removal only with covered predecessors
        p = bw(pyr2, ("", "x"), ("", "x y"), ("z", "x y"), ("z", "y"))
        with pytest.raises(IllegalMove, match="rule 4"):
            pebbling.validate_bw(p)

    def test_white_removal_ok_when_covered(self, pyr2):
        p = bw(
            pyr2,
            ("", "x"), ("", "x y"), ("z", "x y"),
            ("z u", "x y"), ("z u v", "x y"), ("z u v", "y"),  # remove white x
        )
        with pytest.raises(WrongEndpoints):
            pebbling.validate_bw(p)  # legal moves but incomplete

    def test_black_only_flag(self, pyr2):
        p = bw(pyr2, ("", "z"))
        with pytest.raises(WhitePebbleInBlackOnly):
            pebbling.validate_bw(p, black_only=True)

    def test_endpoints(self, pyr2):
        with pytest.raises(WrongEndpoints):
            pebbling.validate_bw(BwPebbling(host=pyr2, moves=()))
        with pytest.raises(WrongEndpoints):
            pebbling.validate_bw(black_seq(pyr2, "u"))

    def test_unknown_vertex(self, pyr2):
        with pytest.raises(IllegalMove, match="unknown"):
            pebbling.validate_bw(black_seq(pyr2, "nope"))


CORPUS = (
    [dag.build_path(n) for n in range(1, 9)]
    + [dag.build_binary_tree(h) for h in range(0, 4)]
    + [dag.build_pyramid(h) for h in range(0, 4)]
)


class TestGreedy:
    @pytest.mark.parametrize("g", CORPUS, ids=lambda g: f"{len(g.vertices)}v")
    def test_greedy_is_valid_black_pebbling(self, g):
        cost = pebbling.validate_bw(pebbling.greedy_black_strategy(g), black_only=True)
        assert cost.space <= len(g.vertices)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_greedy_path_costs(self, n):
        cost = pebbling.validate_bw(pebbling.greedy_black_strategy(dag.build_path(n)), black_only=True)
        assert cost.time == 2 * n - 1
        assert cost.space == min(n, 2)

    def test_greedy_handles_cross_edges(self):
        g = dag.Dag(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        pebbling.validate_bw(pebbling.greedy_black_strategy(g), black_only=True)

    @pytest.mark.parametrize("g", CORPUS + [dag.build_pyramid(8)], ids=lambda g: f"{len(g.vertices)}v")
    def test_greedy_matches_the_recursive_reference(self, g):
        assert pebbling.greedy_black_strategy(g).moves == recursive_greedy(g)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_the_recursive_reference_on_random_dags(self, g):
        assert pebbling.greedy_black_strategy(g).moves == recursive_greedy(g)

    def test_greedy_pyramid8_move_count(self):
        assert pebbling.greedy_black_strategy(dag.build_pyramid(8)).time == 1021

    def test_greedy_runs_past_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 200
        cost = pebbling.validate_bw(pebbling.greedy_black_strategy(dag.build_path(n)), black_only=True)
        assert (cost.time, cost.space) == (2 * n - 1, 2)


def recursive_greedy(g):
    """The recursive form of the greedy strategy, the reference for the
    moves of `greedy_black_strategy`: pebble each unpebbled predecessor
    in canonical order, then the vertex, then remove those predecessors."""
    cur = set()
    steps = []

    def visit(v):
        placed_here = []
        for u in g.predecessors(v):
            if u not in cur:
                visit(u)
                placed_here.append(u)
        cur.add(v)
        steps.append((frozenset(cur), frozenset()))
        for u in placed_here:
            cur.remove(u)
            steps.append((frozenset(cur), frozenset()))

    visit(g.sink)
    return diff_moves(steps)


class TestPrices:
    def test_single_vertex(self):
        g = dag.build_path(1)
        assert pebbling.optimal_black_price(g) == 1
        assert pebbling.optimal_bw_price(g) == 1

    def test_path3(self):
        assert pebbling.optimal_black_price(dag.build_path(3)) == 2
        assert pebbling.optimal_bw_price(dag.build_path(3)) == 2

    def test_pyramid2(self, pyr2):
        assert pebbling.optimal_black_price(pyr2) == 4
        assert pebbling.optimal_bw_price(pyr2) <= 4

    def test_bw_never_worse(self):
        for g in CORPUS:
            if len(g.vertices) > 10:
                continue
            assert pebbling.optimal_bw_price(g) <= pebbling.optimal_black_price(g)

    def test_witnesses_validate_and_are_deterministic(self, pyr2):
        w1 = pebbling.optimal_black_pebbling(pyr2)
        w2 = pebbling.optimal_black_pebbling(pyr2)
        assert w1 == w2
        assert pebbling.validate_bw(w1, black_only=True).space == 4
        bw1 = pebbling.optimal_bw_pebbling(pyr2)
        assert pebbling.validate_bw(bw1).space == pebbling.optimal_bw_price(pyr2)

    def test_budget(self, pyr2):
        with pytest.raises(BudgetExceeded):
            pebbling.optimal_black_price(pyr2, budget=5)

    @staticmethod
    def _reference_price(g, black_only):
        """Independent oracle: depth-bounded DP over move sequences.

        f(state, depth) = minimal peak configuration size over all legal
        continuations of at most `depth` moves that end at ({sink}, {}).
        An optimal strategy never needs to revisit a configuration, so a
        depth of 3^n covers every optimal play.
        """
        import functools

        vertices = g.topological_order()
        sink = g.sink
        depth_cap = min(3 ** len(vertices) + 1, 200)

        @functools.lru_cache(maxsize=None)
        def f(black, white, depth):
            size = len(black) + len(white)
            best = size if (set(black) == {sink} and not white) else None
            if depth == 0:
                return best
            pebbled = set(black) | set(white)
            moves = []
            for v in vertices:
                if v in black:
                    moves.append((tuple(sorted(set(black) - {v})), white))
                elif v in white and all(u in pebbled for u in g.predecessors(v)):
                    moves.append((black, tuple(sorted(set(white) - {v}))))
                elif v not in pebbled:
                    if all(u in pebbled for u in g.predecessors(v)):
                        moves.append((tuple(sorted(set(black) | {v})), white))
                    if not black_only:
                        moves.append((black, tuple(sorted(set(white) | {v}))))
            for nb, nw in moves:
                sub = f(nb, nw, depth - 1)
                if sub is not None:
                    peak = max(size, sub)
                    if best is None or peak < best:
                        best = peak
            return best

        return f((), (), depth_cap)

    @pytest.mark.parametrize("g", [
        dag.build_path(2), dag.build_path(3), dag.build_pyramid(1),
        dag.parse_dag("v a\nv b\nv c\ne a c\ne b c\n"),
    ], ids=["path2", "path3", "pyr1", "cherry"])
    def test_prices_match_independent_reference(self, g):
        assert pebbling.optimal_black_price(g) == self._reference_price(g, True)
        assert pebbling.optimal_bw_price(g) == self._reference_price(g, False)


def reference_pebbling(g, black_only):
    """A shortest minimum-space complete pebbling, by iterative deepening:
    a breadth-first search from the empty configuration, restarted at
    each space bound s = 1, 2, ..., with removals before placements in
    topological order.  States are `black | white << n` as in the
    library's search."""
    order = g.topological_order()
    n = len(order)
    bit = {v: i for i, v in enumerate(order)}
    pred_masks = [sum(1 << bit[u] for u in g.predecessors(v)) for v in order]
    sink_bit = 1 << bit[g.sink]
    for s in range(1, n + 1):
        parents = {0: None}
        queue = deque([0])
        goal = None
        while queue:
            state = queue.popleft()
            black, white = state & (1 << n) - 1, state >> n
            if black & sink_bit and not white:
                goal = state
                break
            both = black | white
            nxt = []
            for i, pm in enumerate(pred_masks):  # removals first
                b = 1 << i
                if black & b:
                    nxt.append(state & ~b)
                elif white & b and both & pm == pm:
                    nxt.append(state & ~(b << n))
            if bin(both).count("1") < s:
                for i, pm in enumerate(pred_masks):
                    b = 1 << i
                    if both & b:
                        continue
                    if both & pm == pm:
                        nxt.append(state | b)
                    if not black_only:
                        nxt.append(state | b << n)
            for new in nxt:
                if new not in parents:
                    parents[new] = state
                    queue.append(new)
        if goal is None:
            continue
        path = []
        state = goal
        while state is not None:
            path.append(state)
            state = parents[state]
        path.reverse()
        for i in range(n):  # strip extra pebbles to end at exactly {sink}
            if goal >> i & 1 and 1 << i != sink_bit:
                goal &= ~(1 << i)
                path.append(goal)
        return BwPebbling(host=g, moves=diff_moves(
            (frozenset(v for i, v in enumerate(order) if st >> i & 1),
             frozenset(v for i, v in enumerate(order) if st >> (n + i) & 1))
            for st in path
        ))
    raise AssertionError("every DAG admits a complete pebbling")


@given(random_dags())
@example(dag.build_path(2))
@example(dag.parse_dag("v a\nv b\nv c\ne a c\ne b c\n"))  # cherry
@example(dag.build_pyramid(1))
@example(dag.build_path(1))  # the sink is a source
@example(dag.parse_dag("v a\nv b\nv c\nv z\ne a z\ne b z\ne c z\n"))  # star of three sources
@example(dag.parse_dag("v s\nv a\nv b\nv c\nv z\ne s a\ne s b\ne s c\ne a z\ne b z\ne c z\n"))
@example(dag.parse_dag("v a\nv b\nv c\nv z\ne a b\ne a c\ne b c\ne c z\n"))  # c: a source, an inner
@settings(max_examples=100, deadline=None)
def test_prices_match_reference_search(g):
    for black_only, optimal, price in (
        (True, pebbling.optimal_black_pebbling, pebbling.optimal_black_price),
        (False, pebbling.optimal_bw_pebbling, pebbling.optimal_bw_price),
    ):
        expected = pebbling.validate_bw(reference_pebbling(g, black_only), black_only).space
        assert price(g) == expected
        witness = optimal(g)
        assert pebbling.validate_bw(witness, black_only).space == expected
        assert optimal(g) == witness


@given(random_dags())
@settings(max_examples=50, deadline=None)
def test_optimal_witnesses_round_trip_through_the_trace_format(g):
    black = pebbling.optimal_black_pebbling(g)
    labelled = subconf.black_to_labelled(black)
    # retagged `game blob`, each merger is written with the pivot its replay
    # resolves, so the blob witness is the retagged trace parsed once more
    retagged = subconf.serialize_pebbling(labelled).replace("game labelled", "game blob", 1)
    blob = subconf.parse_pebbling_trace(
        subconf.serialize_pebbling(subconf.parse_pebbling_trace(retagged, g)), g)
    assert [m[:3] for m in blob.moves] == [m[:3] for m in labelled.moves]
    for witness in (black, pebbling.optimal_bw_pebbling(g), labelled, blob):
        assert subconf.parse_pebbling_trace(subconf.serialize_pebbling(witness), g) == witness


@given(random_dags())
@settings(max_examples=100, deadline=None)
def test_witnesses_make_no_dominated_moves(g):
    # bw: white pebbles only on inner vertices; black: a source placement is
    # followed by more sources and then by the vertex that needs them all,
    # and that batch's sources are all removed before the next placement
    inner = {v for v in g.vertices if g.predecessors(v) and v != g.sink}
    assert all(v in inner for op, v in pebbling.optimal_bw_pebbling(g).moves if op[0] == "W")
    batch, leaving = [], set()
    for op, v in pebbling.optimal_black_pebbling(g).moves:
        if op == "B-":
            assert not batch
            leaving.discard(v)
            continue
        assert not leaving
        if not g.predecessors(v) and v != g.sink:
            batch.append(v)
            continue
        assert set(batch) <= set(g.predecessors(v))
        batch, leaving = [], set(batch)
    assert not batch and not leaving


@pytest.mark.parametrize("spec", [f"pyramid:{h}" for h in range(1, 7)] + [f"tree:{h}" for h in range(1, 5)])
def test_black_price_is_height_plus_two(spec):
    # Cook (1974); the time bound catches a search that keeps a batch's
    # sources pebbled after its vertex, which takes about 3 s on pyramid:6
    # (0.3 s with them removed), and so also one that places sources singly
    # or restarts at each space bound
    height = int(spec.split(":")[1])
    start = time.process_time()
    assert pebbling.optimal_black_price(dag.parse_family(spec)) == height + 2
    assert time.process_time() - start < 1


def test_tree5_black_price_within_5_s():
    # a search that keeps a batch's sources pebbled after its vertex took
    # over 2 minutes and 700 MB here
    g = dag.parse_family("tree:5")
    start = time.process_time()
    assert pebbling.validate_bw(pebbling.optimal_black_pebbling(g), black_only=True).space == 7
    assert time.process_time() - start < 5


@pytest.mark.parametrize("spec, price, work", [
    ("pyramid:5", pebbling.optimal_black_price, 4_013),
    ("tree:4", pebbling.optimal_black_price, 2_143),
    ("pyramid:4", pebbling.optimal_bw_price, 13_058),
], ids=["pyramid:5-black", "tree:4-black", "pyramid:4-bw"])
def test_price_search_work_pin(spec, price, work):
    # the configurations the search pops; a change in the shared search's work shows here
    g = dag.parse_family(spec)
    price(g, budget=work)
    with pytest.raises(BudgetExceeded, match=rf" {work} nodes visited \(budget {work - 1}\)$"):
        price(g, budget=work - 1)


class TestLabelled:
    def test_two_vertex_example(self):
        # <z,{a}>, <a,{}>, their merger <z,{}>, then the premises erased
        g = dag.parse_dag("v a\nv z\ne a z\n")
        p = LabelledPebbling(host=g, moves=(("I", "z"), ("I", "a"), ("M", 1, 2), ("E", 1), ("E", 2)))
        cost = subconf.validate_labelled(p)
        assert cost.space == 2
        assert cost.time == 5

    def test_merger_requires_support_membership(self):
        g = dag.parse_dag("v a\nv b\nv z\ne a z\ne b z\n")
        for moves, message in [
            # <z,{a,b}> and <a,{}> merge on a alone: b is not in the second blob
            ((("I", "z"), ("I", "a"), ("M", 1, 2, "b")), "step 3: 'b' is not a merger pivot for this pair"),
            # a merger on b needs <b,{}> present
            ((("I", "z"), ("I", "b"), ("E", 2), ("M", 1, 2)), "step 4: subconfiguration <b,{}> not present"),
        ]:
            with pytest.raises(IllegalMove) as info:
                subconf.validate_labelled(LabelledPebbling(host=g, moves=moves))
            assert str(info.value) == message

    def test_no_inflation(self):
        # <a,{}> -> <a,{z}> is a blob inflation but no labelled move
        g = dag.parse_dag("v a\nv z\ne a z\n")
        p = LabelledPebbling(host=g, moves=(("I", "a"), ("X", 1, frozenset({"a"}), frozenset({"z"}))))
        with pytest.raises(IllegalMove) as info:
            subconf.validate_labelled(p)
        assert str(info.value) == "step 2: 'X' is no L-pebbling move"

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_black_to_labelled_path_bound(self, n):
        bp = pebbling.greedy_black_strategy(dag.build_path(n))
        s = pebbling.validate_bw(bp, black_only=True).space
        cost = subconf.validate_labelled(subconf.black_to_labelled(bp))
        assert cost.bound == (s + 1, 1 if n > 1 else 0)

    def test_black_to_labelled_pyramid(self, pyr2):
        bp = pebbling.greedy_black_strategy(pyr2)
        s = pebbling.validate_bw(bp, black_only=True).space
        cost = subconf.validate_labelled(subconf.black_to_labelled(bp))
        assert cost.bound[0] <= s + 1
        assert cost.bound[1] == 2

    def test_bounded_space_consequence(self, pyr2):
        for g in (dag.build_path(3), pyr2):
            lp = subconf.black_to_labelled(pebbling.greedy_black_strategy(g))
            cost = subconf.validate_labelled(lp)
            b, w = cost.bound
            assert pebbling.optimal_bw_price(g) <= cost.space <= b * (w + 1)

    def test_no_op_step_rejected(self):
        # a move may not add a subconfiguration that is present already
        p = LabelledPebbling(host=dag.build_path(1), moves=(("I", "v1"), ("I", "v1")))
        with pytest.raises(IllegalMove) as info:
            subconf.validate_labelled(p)
        assert str(info.value) == "step 2: <v1,{}> is present already"


@pytest.mark.parametrize("p,error,message", [
    (BwPebbling(host=dag.build_pyramid(1), moves=()), WrongEndpoints,
     "pebbling must end at ({z}, {}), got (B:- W:-)"),
    (LabelledPebbling(host=dag.build_pyramid(1), moves=()), WrongEndpoints,
     "L-pebbling must end at {<z,{}>}"),
    (BlobPebbling(host=dag.build_pyramid(1), moves=()), WrongEndpoints,
     "blob pebbling must end at {[{z},{}]}"),
    (LabelledPebbling(host=dag.build_pyramid(1), moves=(("I", "w"),)),
     IllegalMove, "step 1: unknown vertex 'w'"),
    (BlobPebbling(host=dag.build_pyramid(1), moves=(("I", "w"),)),
     IllegalMove, "step 1: unknown vertex 'w'"),
    # the sink's subconfiguration is reached, but x's stays
    (LabelledPebbling(host=dag.build_pyramid(1), moves=(
        ("I", "x"), ("I", "y"), ("I", "z"), ("M", 3, 1), ("E", 3), ("M", 4, 2), ("E", 4), ("E", 2))),
     WrongEndpoints, "L-pebbling must end at {<z,{}>}"),
    (BlobPebbling(host=dag.build_pyramid(1), moves=(
        ("I", "x"), ("I", "y"), ("I", "z"), ("M", 3, 1), ("E", 3), ("M", 4, 2), ("E", 4), ("E", 2))),
     WrongEndpoints, "blob pebbling must end at {[{z},{}]}"),
    (BwPebbling(host=dag.build_pyramid(1), moves=(("B+", "x"), ("B", "x"))), IllegalMove,
     "step 2: unknown move 'B'"),
], ids=["bw-no-moves", "labelled-no-moves", "blob-no-moves", "labelled-unknown-vertex",
        "blob-unknown-vertex", "labelled-leftover", "blob-leftover", "bw-unknown-move"])
def test_validators_reject_bad_endpoints_and_vertices(p, error, message):
    validate = {BwPebbling: pebbling.validate_bw, LabelledPebbling: subconf.validate_labelled,
                BlobPebbling: subconf.validate_blob}[type(p)]
    with pytest.raises(error) as info:
        validate(p)
    assert str(info.value) == message


@pytest.mark.parametrize("game, validate, shown", [
    (LabelledPebbling, subconf.validate_labelled, "<z,{x,y}>"),
    (BlobPebbling, subconf.validate_blob, "[{z},{x,y}]"),
], ids=["labelled", "blob"])
def test_subconfiguration_replay_reports_the_first_bad_step(game, validate, shown):
    # step 3's unknown vertex comes after step 2's illegal move
    p = game(host=dag.build_pyramid(1), moves=(("I", "z"), ("I", "z"), ("I", "q")))
    with pytest.raises(IllegalMove) as info:
        validate(p)
    assert str(info.value) == f"step 2: {shown} is present already"


class TestBlob:
    def test_final_configuration_space_one(self, pyr2):
        conf = frozenset({BlobSubconf(frozenset({"z"}))})
        assert subconf.blob_config_space(pyr2, conf) == 1

    def test_chargeable_whites(self, pyr2):
        conf = frozenset({
            BlobSubconf(frozenset({"y", "z"}), frozenset({"v", "w"}))
        })
        assert subconf.blob_config_space(pyr2, conf) == 3

    def test_uncovered_white_not_charged(self, pyr2):
        # u reaches x and z but not y: not below every blob vertex
        conf = frozenset({
            BlobSubconf(frozenset({"y", "z"}), frozenset({"u"}))
        })
        assert subconf.blob_config_space(pyr2, conf) == 1

    def test_expanding_black_cost(self, pyr2):
        conf = frozenset({
            BlobSubconf(frozenset({"x"})), BlobSubconf(frozenset({"x", "y"})),
        })
        assert subconf.blob_config_space(pyr2, conf) == 2

    def test_order_invariance(self, pyr2):
        subconfs = [
            BlobSubconf(frozenset({"x"})),
            BlobSubconf(frozenset({"x", "y"}), frozenset({"u"})),
            BlobSubconf(frozenset({"z"}), frozenset({"x", "y"})),
        ]
        space = None
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            conf = frozenset(subconfs[i] for i in perm)
            value = subconf.blob_config_space(pyr2, conf)
            assert space is None or value == space
            space = value

    def test_full_blob_pebbling_two_vertices(self):
        g = dag.parse_dag("v a\nv z\ne a z\n")
        p = BlobPebbling(host=g, moves=(("I", "z"), ("I", "a"), ("M", 1, 2), ("E", 1), ("E", 2)))
        cost = subconf.validate_blob(p)
        assert cost.time == 5

    def test_inflation(self):
        g = dag.parse_dag("v a\nv z\ne a z\n")
        # intro on the source, then inflate the blob; moves legal, endpoints wrong
        p = BlobPebbling(host=g, moves=(("I", "a"), ("X", 1, frozenset({"a", "z"}), frozenset())))
        with pytest.raises(WrongEndpoints):
            subconf.validate_blob(p)

    def test_illegal_blob_move(self, pyr2):
        # [{z},{u}] is no move's result: u is not pred(z), and [{z},{x,y}] does not inflate to it
        p = BlobPebbling(host=pyr2, moves=(("I", "z"), ("X", 1, frozenset({"z"}), frozenset({"u"}))))
        with pytest.raises(IllegalMove) as info:
            subconf.validate_blob(p)
        assert str(info.value) == "step 2: inflation must extend [{z},{x,y}]"


class TestTraces:
    def test_bw_roundtrip(self, pyr2):
        p = pebbling.greedy_black_strategy(pyr2)
        text = subconf.serialize_pebbling(p)
        assert subconf.parse_pebbling_trace(text, pyr2) == p

    def test_bw_trace_format(self):
        g = dag.build_path(2)
        text = "game bw\n# place source then slide\nB+ v1\nB+ v2\nB- v1\n"
        p = subconf.parse_pebbling_trace(text, g)
        assert pebbling.validate_bw(p).space == 2

    def test_labelled_roundtrip(self):
        lp = subconf.black_to_labelled(pebbling.greedy_black_strategy(dag.build_pyramid(2)))
        text = subconf.serialize_pebbling(lp)
        assert subconf.parse_pebbling_trace(text, dag.build_pyramid(2)) == lp

    def test_blob_roundtrip(self):
        g = dag.parse_dag("v a\nv z\ne a z\n")
        p = BlobPebbling(host=g, moves=(("I", "z"), ("I", "a"), ("M", 1, 2, "a"), ("E", 1), ("E", 2)))
        text = subconf.serialize_pebbling(p)
        assert "M 1 2 a" in text
        assert subconf.parse_pebbling_trace(text, g) == p
        # a merger stored without its pivot is written with the one its replay resolves
        unpinned = BlobPebbling(host=g, moves=p.moves[:2] + (("M", 1, 2),) + p.moves[3:])
        assert subconf.serialize_pebbling(unpinned) == text

    @pytest.mark.parametrize("spec", ["path:1", "path:4", "pyramid:1", "pyramid:3", "tree:2", "tree:3"])
    def test_labelled_trace_retagged_as_blob(self, spec):
        # a labelled subconfiguration is a single-vertex blob: the same moves
        # replay in the blob game, and only a merger gains its pivot
        g = dag.parse_family(spec)
        lp = subconf.black_to_labelled(pebbling.greedy_black_strategy(g))
        text = subconf.serialize_pebbling(lp)
        bp = subconf.parse_pebbling_trace(text.replace("game labelled", "game blob", 1), g)
        assert subconf.validate_blob(bp).time == subconf.validate_labelled(lp).time
        moves = subconf.serialize_pebbling(bp).splitlines()
        assert moves[0] == "game blob"
        assert all(len(m.split()) == (4 if m[0] == "M" else 2) for m in moves[1:])
        assert [" ".join(m.split()[:3]) for m in moves[1:]] == text.splitlines()[1:]

    def test_blob_inflation_roundtrip(self):
        g = dag.parse_dag("v a\nv z\ne a z\n")
        p = BlobPebbling(host=g, moves=(
            ("I", "z"), ("I", "a"), ("M", 1, 2, "a"),
            ("X", 2, frozenset({"a", "z"}), frozenset()),  # inflate [a] to [a z]
            ("E", 4), ("E", 1), ("E", 2),
        ))
        cost = subconf.validate_blob(p)
        assert cost.space >= 2  # [a] and [a z] expand
        text = subconf.serialize_pebbling(p)
        assert "X 2 : a z /" in text
        assert subconf.parse_pebbling_trace(text, g) == p

    def test_trace_errors(self):
        g = dag.build_path(2)
        with pytest.raises(TraceError, match="game"):
            subconf.parse_pebbling_trace("B+ v1\n", g)
        for text, message in [("game bw\nB+ v1\nB+ v1\n", "step 2: vertex v1 already pebbled"),
                              ("game bw\nB- v1\n", "step 1: no such pebble to remove on v1")]:
            with pytest.raises(IllegalMove) as info:
                pebbling.validate_bw(subconf.parse_pebbling_trace(text, g))
            assert str(info.value) == message
        for text, message in [
            ("game labelled\nI bogus\n", "step 1: unknown vertex 'bogus'"),
            # v1's support is empty, so no `M 1 2 v` can merge
            ("game labelled\nI v1\nI v2\nM 1 2\n",
             "step 3: no merger pivot: <v2,{v1}> has no vertex in the support of <v1,{}>"),
            ("game blob\nI v1\nI v2\nM 1 2\n",
             "step 3: no merger pivot: [{v2},{v1}] has no vertex in the support of [{v1},{}]"),
        ]:
            p = subconf.parse_pebbling_trace(text, g)
            validate = subconf.validate_labelled if isinstance(p, LabelledPebbling) else subconf.validate_blob
            with pytest.raises(IllegalMove) as info:
                validate(p)
            assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("", "empty trace: missing 'game' header"),
        ("# only a comment\n", "empty trace: missing 'game' header"),
        ("game blob\nI x\nX 1 / x : y\n", "line 3: bad inflation 'X 1 / x : y'"),
    ], ids=["empty", "comment-only", "inflation-fields-swapped"])
    def test_blob_trace_rejections(self, text, message):
        with pytest.raises(TraceError) as info:
            subconf.parse_pebbling_trace(text, dag.build_pyramid(1))
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("game blob\nI z\nI x\nM 1 2 y\n", "step 3: 'y' is not a merger pivot for this pair"),
        ("game blob\nI z\nI x\nX 2 : x y /\nM 1 3\n",
         "step 4: merger pivot ambiguous (['x', 'y']); use 'M i j v'"),
        # merging on x leaves the other pivot y in both the blob and the support
        ("game blob\nI z\nI x\nX 2 : x y /\nM 1 3 x\n", "step 4: blob and support overlap: ['y']"),
        ("game blob\nI x\nX 1 : x / x\n", "step 2: blob and support overlap: ['x']"),
        ("game blob\nI x\nX 1 : / y\n", "step 2: blob must be nonempty"),
        ("game blob\nI x\nX 1 : y /\n", "step 2: inflation must extend [{x},{}]"),
        ("game blob\nI x\nX 1 : w x /\n", "step 2: unknown vertex 'w'"),
        ("game blob\nI x\nE 2\n", "step 2: no subconfiguration 2"),
        ("game blob\nI x\nE 1\nM 1 1\n", "step 3: subconfiguration [{x},{}] not present"),
    ])
    def test_blob_replay_rejections(self, text, message):
        # the parser checks syntax; the replay rejects the first bad move
        p = subconf.parse_pebbling_trace(text, dag.build_pyramid(1))
        with pytest.raises(IllegalMove) as info:
            subconf.validate_blob(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("game", ["labelled", "blob"])
    @pytest.mark.parametrize("move", ["E 0", "E -1", "E +1", "E \u00b2", "M 0 1"])
    def test_subconfiguration_index_must_be_decimal_from_one(self, game, move):
        # an index is ASCII decimal and at least 1; `int` would read all
        # but the superscript, and created[-1] is a real subconfiguration
        text = f"game {game}\nI v1\nI v2\n{move}\n"
        with pytest.raises(TraceError, match="bad subconfiguration index") as info:
            subconf.parse_pebbling_trace(text, dag.build_path(2))
        assert info.value.line == 4


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_dropping_any_step_invalidates(data):
    g = data.draw(st.sampled_from([dag.build_path(3), dag.build_path(5), dag.build_pyramid(2)]))
    p = pebbling.greedy_black_strategy(g)
    k = data.draw(st.integers(min_value=0, max_value=len(p.moves) - 1))
    mutated = BwPebbling(host=g, moves=p.moves[:k] + p.moves[k + 1:])
    with pytest.raises((IllegalMove, WrongEndpoints)):
        pebbling.validate_bw(mutated, black_only=True)
