"""Serialized traces pinned by SHA-256.

Traces are deterministic: they follow the given-clause loop's clause
order and the price search's move order.  A change to either order, or
to the trace format, changes a digest here.
"""

import hashlib

from peblab import boolfunc, dag, pebbling, resolution

XOR2 = boolfunc.xor_fn(2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_compiled_greedy_refutation_pyramid3_xor2():
    g = dag.build_pyramid(3)
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "2d516e8c497cf382b29c806e334137aad38d5703c5d849f3bbdf4f20339319c9"
    )


def test_lifted_constant_space_refutation_pyramid3_xor2():
    r = resolution.lift_refutation(resolution.constant_space_refutation(dag.build_pyramid(3)), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "b7963c1307ddf7fb9f4153d1c306435348984b5d426133640839011ece53da32"
    )


def test_optimal_pebbling_witnesses_pyramid3():
    g = dag.build_pyramid(3)
    assert sha256(pebbling.serialize_pebbling(pebbling.optimal_black_pebbling(g))) == (
        "1e82d438752daaf40e8430ab74e2596d794c9def3d5d17f20dcf76b2ab179ee3"
    )
    assert sha256(pebbling.serialize_pebbling(pebbling.optimal_bw_pebbling(g))) == (
        "3121315c4b7b92a36e1f95c763b63088861df465dc08684d4bef84a7f6cc2e1f"
    )
