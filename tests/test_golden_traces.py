"""Serialized traces pinned by SHA-256.

Traces are deterministic: compile and lift follow the pebbling's moves
and the sorted substitution images through one fixed template per
function, the price search follows its move order, and extraction
follows the sorted projected clause sets.  A change to any of these
orders, to the template, to a projection, or to the trace format,
changes a digest here.  SAT models are the first in canonical order,
whatever search finds them.
"""

import hashlib
import json
import random
import time

import pytest

from peblab import boolfunc, dag, formulas, lift, pebbling, projections, resolution, sat, saturation, subconf
from peblab.cnf import Clause, CnfFormula

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
    r = lift.lift_refutation(resolution.constant_space_refutation(dag.build_pyramid(3)), XOR2)
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
    r = lift.lift_refutation(resolution.constant_space_refutation(dag.build_pyramid(4)), XOR2)
    assert sha256(resolution.serialize_refutation(r)) == (
        "f1982fd9b944e33ff456b9e57cf12cb3cc6fe3191aa5807bbfe228fcb33150dc"
    )


@pytest.mark.parametrize("g,f,digest", [
    (dag.build_binary_tree(3), boolfunc.or_fn(2),
     "fea9eba866ec4c2a1b5fae7b7d06d0a5bfc59287a6ae3df28073fb169c4adb20"),
    (dag.build_binary_tree(3), boolfunc.majority_fn(3),
     "5cfba44106a172a4b2d8e40a89fea934c2b538c3aff575f8706e1a4b7b52888f"),
    (dag.build_pyramid(5), boolfunc.or_fn(2),
     "7da90c72df83e74202a54eace5d5d19828c1bd0590b87529b3c920d29032253a"),
    (dag.build_pyramid(5), boolfunc.majority_fn(3),
     "7c36a15789cfbc7496db19d90ed624a9434fde755d1f2ad6b6d6cb0a0a8b9898"),
], ids=["tree3-or2", "tree3-maj3", "pyramid5-or2", "pyramid5-maj3"])
def test_compiled_greedy_refutation_beyond_xor2(g, f, digest):
    r = resolution.pebbling_to_refutation(g, pebbling.greedy_black_strategy(g), f)
    assert sha256(resolution.serialize_refutation(r)) == digest


@pytest.mark.parametrize("g,f,width", [
    (dag.build_binary_tree(2), boolfunc.majority_fn(3), 6),
    (dag.build_pyramid(3), XOR2, 6),
    (dag.build_pyramid(4), XOR2, 6),
], ids=["tree2-maj3", "pyramid3-xor2", "pyramid4-xor2"])
def test_min_width_answers(g, f, width):
    target = formulas.substitute(formulas.pebbling_contradiction(g), f)
    assert saturation.min_width(target, 8) == width


@pytest.mark.parametrize("g", [dag.build_pyramid(4), dag.build_binary_tree(3)], ids=["pyramid4-maj3", "tree3-maj3"])
def test_min_width_answers_at_cap_9(g):
    # the time bound catches a loop that scans each new resolvent against
    # every clause for subsumption, which takes about 3 s on pyramid:4
    target = formulas.substitute(formulas.pebbling_contradiction(g), boolfunc.majority_fn(3))
    start = time.process_time()
    assert saturation.min_width(target, 9) == 6
    assert time.process_time() - start < 1


def test_labelled_greedy_pebbling_pyramid3():
    g = dag.build_pyramid(3)
    text = subconf.serialize_pebbling(
        subconf.black_to_labelled(pebbling.greedy_black_strategy(g))
    )
    assert sha256(text) == (
        "2b845007f4ce8f96882b5b1e36280e67823656129919279e82c42ca67d1e7902"
    )
    blob = subconf.parse_pebbling_trace(text.replace("game labelled", "game blob", 1), g)
    assert sha256(subconf.serialize_pebbling(blob)) == (
        "0ff6f169950d5dbd4483cc26fe1468584acb4e18bc43ba96156052acaccdec37"
    )


def test_optimal_pebbling_witnesses_pyramid3():
    # the depth-first witnesses, the waiting states re-expanded oldest first:
    # 23 black moves, each batch's sources removed right after its vertex,
    # and 33 black-white moves
    g = dag.build_pyramid(3)
    black, bw = pebbling.optimal_black_pebbling(g), pebbling.optimal_bw_pebbling(g)
    assert (black.time, bw.time) == (23, 33)
    assert sha256(subconf.serialize_pebbling(black)) == (
        "58dbfe03c9849d6f9b728a07161da3b9a0a293894a43eb26f8b66488a8f1620b"
    )
    assert sha256(subconf.serialize_pebbling(bw)) == (
        "0f3467fb8d76cc214365dbdde04c125f7f5990855ca9cf2c3894aa0640e51783"
    )


def test_price_digest():
    # black and bw prices of the small families, four larger black and bw
    # prices, and 300 seeded random single-sink DAGs, one line each
    lines = []
    for spec in ([f"path:{i}" for i in range(1, 9)] + [f"tree:{i}" for i in range(4)]
                 + [f"pyramid:{i}" for i in range(4)]):
        g = dag.parse_family(spec)
        bw = pebbling.optimal_bw_price(g) if len(g.vertices) <= 10 else "-"
        lines.append(f"{spec} {pebbling.optimal_black_price(g)} {bw}")
    for spec, game in (("pyramid:4", "black"), ("pyramid:5", "black"), ("tree:4", "black"),
                       ("pyramid:4", "bw")):
        price = pebbling.optimal_black_price if game == "black" else pebbling.optimal_bw_price
        lines.append(f"{spec} {game} {price(dag.parse_family(spec))}")
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        names = [f"n{i}" for i in range(n)]
        edges = []
        for j in range(1, n):
            edges += [(names[i], names[j]) for i in rng.sample(range(j), rng.randint(1, min(j, 3)))]
        has_succ = {a for a, _ in edges}
        edges += [(names[i], names[n - 1]) for i in range(n - 1) if names[i] not in has_succ]
        g = dag.Dag(names, edges)
        lines.append(f"random{seed} {pebbling.optimal_black_price(g)} {pebbling.optimal_bw_price(g)}")
    assert sha256("\n".join(lines) + "\n") == (
        "70b65222cadabcaf7228dfc380f5e7a0de9b76e8405115aa1e79e1f6885e1ba3"
    )


@pytest.mark.parametrize("spec, price", [
    ("pyramid:1", 3), ("pyramid:2", 4), ("pyramid:3", 4), ("pyramid:4", 5), ("pyramid:5", 5),
    ("tree:0", 1), ("tree:1", 3), ("tree:2", 4), ("tree:3", 4),
])
def test_optimal_bw_price_golden(spec, price):
    g = dag.parse_family(spec)
    assert pebbling.optimal_bw_price(g) == price
    assert pebbling.validate_bw(pebbling.optimal_bw_pebbling(g)).space == price


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
    lifted = lift.lift_refutation(resolution.constant_space_refutation(g), f)
    r = projections.extract_refutation(lifted, f, use_local=use_local)
    assert sha256(resolution.serialize_refutation(r)) == digest


# SHA-256 of json.dumps(model, sort_keys=True) after deleting the sink
# block from each of criterion 9's targets; every full target is UNSAT,
# so its model dumps to "null".
SINK_DELETED_MODELS = {
    ("path:1", "none"): "e9aaa82b197991ec7c9709db5644beaa5004910752cdf1641b377a2845efd5f8",
    ("path:1", "or:2"): "c29d70a14d2bc7eddb29cef6bd215248f07d3e85e8ef37df4ccccd38b1b24188",
    ("path:1", "xor:2"): "c29d70a14d2bc7eddb29cef6bd215248f07d3e85e8ef37df4ccccd38b1b24188",
    ("path:2", "none"): "2db7fe7d7a5f124b298a36bb657616e0b02276eeeebc5d749684e3fa4b783f78",
    ("path:2", "or:2"): "a36a6a5c6f2cffad42a11e7440c0779353b0fb132d797c4e7ef2215d46165851",
    ("path:2", "xor:2"): "a36a6a5c6f2cffad42a11e7440c0779353b0fb132d797c4e7ef2215d46165851",
    ("path:3", "none"): "ddc27dda99640e3c1b9aabd2324d7f42455767023005440d553afeac0abe9b85",
    ("path:3", "or:2"): "349989e77c9da412eaf4322c2e9d42e03ee5cf4995a8816306dbe828dc71fb78",
    ("path:3", "xor:2"): "349989e77c9da412eaf4322c2e9d42e03ee5cf4995a8816306dbe828dc71fb78",
    ("path:4", "none"): "ab6e37958e67e9e8515898d046683d4286b57fa98b965566eb7699a96303b573",
    ("path:4", "or:2"): "bbf46b00b1940e36a2c3fba36a40df5048b1799f72bfbd1a1e71171d6ac44ae9",
    ("path:4", "xor:2"): "bbf46b00b1940e36a2c3fba36a40df5048b1799f72bfbd1a1e71171d6ac44ae9",
    ("path:5", "none"): "073e6664705b25ce90ccfb3e986fd071003fd220b934793595acaeedcae16f33",
    ("path:5", "or:2"): "708ae02046643b17b797aaada65980800a6d16fb2324db23c93b1931e443d9ff",
    ("path:5", "xor:2"): "708ae02046643b17b797aaada65980800a6d16fb2324db23c93b1931e443d9ff",
    ("path:6", "none"): "5ec4a08d8f053cdcd1fe1c879a0ea8f8ca951a6fb0566f1bb42ac92e0781343c",
    ("path:6", "or:2"): "bb97e3b8c6008f7aef08101f25aedf54d8fc53bf25c62c699a67ba16718cf34a",
    ("path:6", "xor:2"): "bb97e3b8c6008f7aef08101f25aedf54d8fc53bf25c62c699a67ba16718cf34a",
    ("path:7", "none"): "8de50a8204be369a99fabe5bf2be575e582ca9a686571e141ad88bff03799c16",
    ("path:7", "or:2"): "9a780c6b644cddbf6d4b48d40365f75056290f5a4bf2fbbd25f181221993f8ba",
    ("path:7", "xor:2"): "9a780c6b644cddbf6d4b48d40365f75056290f5a4bf2fbbd25f181221993f8ba",
    ("path:8", "none"): "6d0e7f90edf6ee2acef379c61c3be14f3fadfb59040b58addf8856f0663104d4",
    ("path:8", "or:2"): "5537f75bc162ecd240503b9e796c848f3007fd8bf9a0611d135fd8d0a061cdce",
    ("path:8", "xor:2"): "5537f75bc162ecd240503b9e796c848f3007fd8bf9a0611d135fd8d0a061cdce",
    ("tree:0", "none"): "ac56e1efacc601d85c32922113cee6fac9baad2cb4e7fee39ad09cdb34752568",
    ("tree:0", "or:2"): "035b000c5099207f94f9b6563f9d2ee9475a3ba37898031348490acaf651904c",
    ("tree:0", "xor:2"): "035b000c5099207f94f9b6563f9d2ee9475a3ba37898031348490acaf651904c",
    ("tree:1", "none"): "40fe59780a3ae904bf2d5523f3f07b8b7527be9675acd2721c2e9c8cc7334393",
    ("tree:1", "or:2"): "c0879463d9de4f657b2bc19af41d31bc5ad8039451f760be2d39c1dc81dbed4d",
    ("tree:1", "xor:2"): "c0879463d9de4f657b2bc19af41d31bc5ad8039451f760be2d39c1dc81dbed4d",
    ("tree:2", "none"): "4d5ea4495c71f377222d226aa7250b764d263febec5feb3e91885e2300658334",
    ("tree:2", "or:2"): "f510d4a060f25861f2b8472784321ede897bb94ac0d921cb4b2311215190531e",
    ("tree:2", "xor:2"): "f510d4a060f25861f2b8472784321ede897bb94ac0d921cb4b2311215190531e",
    ("tree:3", "none"): "71e37972d0a824d196975750d11ddf6561f620e9cc22d9a3d2c360412f540c0d",
    ("tree:3", "or:2"): "075e26b916c6dce46c367ff3b69ae97cefacd0f8a7c0ad41b08973da86ce5c06",
    ("tree:3", "xor:2"): "075e26b916c6dce46c367ff3b69ae97cefacd0f8a7c0ad41b08973da86ce5c06",
    ("pyramid:1", "none"): "0950ecb1758315ca87ddb4f753a0137e84d6bde9a4db7628f2cc6d87f0fb0701",
    ("pyramid:1", "or:2"): "203535157d9476d9e174d3ff88ca97df49fe3f355e68f39ed09b58660e5b121e",
    ("pyramid:1", "xor:2"): "203535157d9476d9e174d3ff88ca97df49fe3f355e68f39ed09b58660e5b121e",
    ("pyramid:2", "none"): "4341cb365805f0b26fe555f7df5b95722f42b0ab82c37d51312169586d28eb5e",
    ("pyramid:2", "or:2"): "3aa03da1a7b935beacd177e828bdd4703b9d91feb3a7f9896b92a51b0b74720d",
    ("pyramid:2", "xor:2"): "3aa03da1a7b935beacd177e828bdd4703b9d91feb3a7f9896b92a51b0b74720d",
    ("pyramid:3", "none"): "35aa248a38abfec2ba207d1ea0e97e85555c6ab0dc62bd75fe006a0960db5913",
    ("pyramid:3", "or:2"): "df6ff210096fd38e9e773700886c4be649db77e047e5b8c26d9d3190dbb92dff",
    ("pyramid:3", "xor:2"): "df6ff210096fd38e9e773700886c4be649db77e047e5b8c26d9d3190dbb92dff",
}


@pytest.mark.parametrize("family,fn", list(SINK_DELETED_MODELS),
                         ids=[f"{family}-{fn}" for family, fn in SINK_DELETED_MODELS])
def test_sat_models_criterion_9(family, fn):
    g, f = dag.parse_family(family), boolfunc.parse_function_literal(fn)
    peb = formulas.pebbling_contradiction(g)
    sink_axiom = Clause(frozenset({(g.sink, False)}))
    if f is None:
        target, sink_block = peb, frozenset({sink_axiom})
    else:
        target = formulas.substitute(peb, f)
        sink_block = formulas.substitution_images(peb, f)[sink_axiom]
    assert sha256(json.dumps(sat.brute_force_sat(target), sort_keys=True)) == sha256("null")
    model = sat.brute_force_sat(CnfFormula(target.clauses - sink_block))
    assert sha256(json.dumps(model, sort_keys=True)) == SINK_DELETED_MODELS[family, fn]


def test_sat_verdicts_tree3_or2_through_dimacs():
    """The `sat.json` the oracles benchmark writes for tree:3 or:2."""
    g, f = dag.build_binary_tree(3), boolfunc.or_fn(2)
    peb = formulas.pebbling_contradiction(g)
    target = formulas.from_dimacs(formulas.to_dimacs(formulas.substitute(peb, f)))
    sink_block = formulas.substitution_images(peb, f)[Clause(frozenset({(g.sink, False)}))]
    verdicts = {
        "full": sat.brute_force_sat(target),
        "without_sink_block": sat.brute_force_sat(CnfFormula(target.clauses - sink_block)),
    }
    assert sha256(json.dumps(verdicts, sort_keys=True) + "\n") == (
        "1ad2ced894d92fec4e65c92ea237a18d1b5e548c527500e829de44d16c50439c"
    )
