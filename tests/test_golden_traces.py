"""Serialized traces pinned by SHA-256.

Traces are deterministic: compile and lift follow the pebbling's moves
and the sorted substitution images through one fixed template per
function, the price search follows its move order, and extraction
follows the sorted projected clause sets.  A change to any of these
orders, to the template, to a projection, or to the trace format,
changes a digest here.
"""

import hashlib

import pytest

from peblab import boolfunc, dag, formulas, pebbling, projections, resolution

XOR2 = boolfunc.xor_fn(2)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_compiled_greedy_refutation_pyramid3_xor2():
    g = dag.build_pyramid(3)
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "b37fb425ad0d10feb1b10861513e563f01f5921c01c8faeea2256388936edba7"
    )


def test_lifted_constant_space_refutation_pyramid3_xor2():
    r = resolution.lift_refutation(resolution.constant_space_refutation(dag.build_pyramid(3)), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "37ade186647c8c0ea3414746d1d0662c1ebb56722bbe5c79a947cac4b9c248fe"
    )


def test_compiled_greedy_refutation_pyramid8_xor2():
    g = dag.build_pyramid(8)
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "686f0353fb1700331241c7d3b8fe980bf7071660d557fbf56101aa6357f207b8"
    )


def test_lifted_constant_space_refutation_pyramid4_xor2():
    r = resolution.lift_refutation(resolution.constant_space_refutation(dag.build_pyramid(4)), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "f1982fd9b944e33ff456b9e57cf12cb3cc6fe3191aa5807bbfe228fcb33150dc"
    )


@pytest.mark.parametrize("g,f,width", [
    (dag.build_binary_tree(2), boolfunc.majority_fn(3), 6),
    (dag.build_pyramid(3), XOR2, 6),
    (dag.build_pyramid(4), XOR2, 6),
], ids=["tree2-maj3", "pyramid3-xor2", "pyramid4-xor2"])
def test_min_width_answers(g, f, width):
    target = formulas.substitute(formulas.pebbling_contradiction(g), f)
    assert resolution.min_width(target, 8) == width


def test_labelled_greedy_pebbling_pyramid3():
    g = dag.build_pyramid(3)
    text = pebbling.serialize_pebbling(
        pebbling.black_to_labelled(pebbling.greedy_black_strategy(g))
    )
    assert sha256(text) == (
        "2b845007f4ce8f96882b5b1e36280e67823656129919279e82c42ca67d1e7902"
    )
    blob = pebbling.parse_pebbling_trace(text.replace("game labelled", "game blob", 1), g)
    assert sha256(pebbling.serialize_pebbling(blob)) == (
        "0ff6f169950d5dbd4483cc26fe1468584acb4e18bc43ba96156052acaccdec37"
    )


def test_optimal_pebbling_witnesses_pyramid3():
    g = dag.build_pyramid(3)
    assert sha256(pebbling.serialize_pebbling(pebbling.optimal_black_pebbling(g))) == (
        "1e82d438752daaf40e8430ab74e2596d794c9def3d5d17f20dcf76b2ab179ee3"
    )
    assert sha256(pebbling.serialize_pebbling(pebbling.optimal_bw_pebbling(g))) == (
        "3121315c4b7b92a36e1f95c763b63088861df465dc08684d4bef84a7f6cc2e1f"
    )


@pytest.mark.parametrize("g,f,use_local,digest", [
    (dag.build_path(6), XOR2, False,
     "ed29c9dc58a7db27deae52c23f697bbb63f2f971792f4664140292ddea22282b"),
    (dag.build_pyramid(2), XOR2, False,
     "dff89e9bd22737213fd596c775f210c37278164d80734b8287965dc207c6c63e"),
    (dag.build_path(2), boolfunc.majority_fn(3), False,
     "1c43a7e19a3c19878995cacdc224d6f620d424ec67c902129baac94a68c7be3f"),
    (dag.build_path(4), XOR2, True,
     "d329d536a029d9931c28b30a195306bfa7c233b294d306048bb63f4dd96ae238"),
], ids=["path6-xor2", "pyramid2-xor2", "path2-maj3", "path4-xor2-local"])
def test_extracted_refutation(g, f, use_local, digest):
    lifted = resolution.lift_refutation(resolution.constant_space_refutation(g), f)
    r = projections.extract_refutation(lifted, f, use_local=use_local)
    assert sha256(resolution.serialize_refutation(r)) == digest
