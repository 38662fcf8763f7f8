"""Every text parser is total: any input gives a value or a PeblabError.

The inputs are valid pyramid:2 texts (a DAG file, DIMACS, pebbling
traces of the three games and two proof traces) with a few spans replaced
by tokens of the formats, by other spans of the same text, or by nothing.
A pebbling trace that parses is also replayed by its game's validator,
which gives a cost or a PeblabError too, and so is the compiled proof
by the checker.  That proof downloads two axioms twice, and a mutant
that copies a span of it can repeat an inference, so the reader and the
checker meet lines and inferences they have seen before.
"""

import argparse

import pytest
from hypothesis import given, settings, strategies as st

from peblab import boolfunc, cli, dag, errors, formulas, pebbling, resolution, subconf
from peblab.errors import PeblabError

G = dag.build_pyramid(2)
PEB = formulas.pebbling_contradiction(G)
XOR2 = boolfunc.parse_function_literal("xor:2")
SUBST = formulas.substitute(PEB, XOR2)
LABELLED = pebbling.serialize_pebbling(subconf.black_to_labelled(pebbling.greedy_black_strategy(G)))
VALIDATORS = {pebbling.BwPebbling: pebbling.validate_bw, subconf.LabelledPebbling: subconf.validate_labelled,
              subconf.BlobPebbling: subconf.validate_blob}


def parse_and_replay(text):
    p = pebbling.parse_pebbling_trace(text, G)
    return VALIDATORS[type(p)](p)


def parse_and_check(text):
    return resolution.check_refutation(resolution.parse_refutation_trace(text, SUBST))


PARSERS = {
    "dag": (dag.serialize_dag(G), dag.parse_dag),
    "dimacs": (formulas.to_dimacs(SUBST), formulas.from_dimacs),
    "bw": (pebbling.serialize_pebbling(pebbling.greedy_black_strategy(G)), parse_and_replay),
    "labelled": (LABELLED, parse_and_replay),
    # ends with an inflation of the sink's [{z},{}] and its erasure
    "blob": (LABELLED.replace("game labelled", "game blob") + "X 13 : x z / u\nE 14\n", parse_and_replay),
    "proof": (resolution.serialize_refutation(resolution.constant_space_refutation(G)),
              lambda text: resolution.parse_refutation_trace(text, PEB)),
    "compiled": (resolution.serialize_refutation(
        resolution.pebbling_to_refutation(G, pebbling.greedy_black_strategy(G), XOR2)), parse_and_check),
}

# more digits than `int` reads (`sys.get_int_max_str_digits()`, 4,300 by default)
HUGE = "9" * 5000

TOKENS = st.sampled_from([
    " ", "\n", "\t", "\r", "#", "-", "~", "0", "1", "7", "-1", "00", "99999999999999999999", HUGE, "_",
    "١", "²", "\x00", " ", "+", ":", "/", "(", ")", "&", "()", "(x&)", "<-", "v", "e", "p",
    "c", "cnf", "var", "game", "bw", "labelled", "blob", "B+", "B-", "W+", "W-", "I", "E", "M",
    "X", "system", "res", "kdnf", "d", "r", "w", "pivot", "cut", "andi", "ande", "x1", "z", "u",
])


@st.composite
def mutated(draw, text):
    """`text` with one to four spans of up to 12 characters replaced."""
    original = text
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(original)))
            piece = original[k:draw(st.integers(k, len(original)))]
        else:
            piece = "".join(draw(st.lists(TOKENS, max_size=3)))
        text = text[:i] + piece + text[j:]
    return text


@pytest.mark.parametrize("name", sorted(PARSERS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_parsers_are_total(name, data):
    text, parse = PARSERS[name]
    try:
        parse(data.draw(mutated(text)))
    except PeblabError:
        pass


@pytest.mark.parametrize("parse, text, message", [
    (formulas.from_dimacs, f"p cnf {HUGE} 0\n", "bad problem line"),
    (formulas.from_dimacs, f"p cnf 1 1\n{HUGE} 0\n", "bad literal"),
    (formulas.from_dimacs, f"c var {HUGE} a\np cnf 1 1\n1 0\n", "bad variable index"),
    (lambda text: pebbling.parse_pebbling_trace(text, G), f"game labelled\nE {HUGE}\n",
     "bad subconfiguration index"),
    (dag.parse_family, f"path:{HUGE}", "needs a decimal size"),
    (lambda text: resolution.parse_refutation_trace(text, PEB), f"system kdnf {HUGE}\n",
     "bad system line"),
    (formulas.split_substituted, f"x#{HUGE}", "is not a substituted variable name"),
], ids=["p-cnf", "literal", "c-var", "subconf-index", "family", "kdnf-header", "substituted-name"])
def test_a_number_longer_than_int_reads_is_the_parsers_own_error(parse, text, message):
    # not Python's "Exceeds the limit (4300 digits) for integer string conversion"
    with pytest.raises((PeblabError, ValueError), match=message):
        parse(text)


def test_a_budget_longer_than_int_reads_is_refused(monkeypatch):
    with pytest.raises(argparse.ArgumentTypeError, match="not a decimal integer"):
        cli._natural(HUGE)
    monkeypatch.setenv("PEBLAB_BUDGET", HUGE)
    with pytest.raises(PeblabError, match="PEBLAB_BUDGET must be a decimal integer"):
        errors.search_budget()
