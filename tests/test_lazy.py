"""A name listed in a module's `_LAZY` table resolves on that module to the
object of the sibling module that defines it, loaded on first use
(`peblab.lazy`).  The tables hold only the moved names that the benchmark
harness under `perfbench/` still looks up on the old modules; every other
moved name is read from its home alone."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from peblab import formulas, pebbling, resolution
from test_tracer_bindings import load_tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
LAZY = [(old.__name__, f"peblab.{home}", name)
        for old in (formulas, pebbling, resolution)
        for home, names in old._LAZY.items() for name in names]
# every name moved out of formulas, pebbling and resolution: (old module, home, name)
MOVED = [("peblab.formulas", "peblab.sat", name) for name in ("brute_force_sat", "is_minimally_unsat")]
MOVED += [("peblab.resolution", "peblab.lift", name) for name in ("_template", "lift_refutation")]
MOVED += [("peblab.resolution", "peblab.saturation", name)
          for name in ("_Codec", "saturate", "min_width", "min_clause_space")]
MOVED += [("peblab.pebbling", "peblab.subconf", name)
          for name in ("BlobSubconf", "Subconf", "BlobPebbling", "LabelledPebbling", "LabelledCost",
                       "validate_labelled", "black_to_labelled", "blob_config_space", "validate_blob")]


def test_the_tables_hold_exactly_the_moved_names_the_harness_reads():
    # the tracer's wrapped functions, and the SAT stage's `formulas.<name>` calls
    tracer = load_tracer()
    reads = {(module, name) for module, names in tracer.TIMED.values() for name in names}
    reads |= set(tracer.COUNTED)
    reads |= {("formulas", name)
              for name in re.findall(r"\bformulas\.(\w+)", (ROOT / "perfbench" / "stage.py").read_text())}
    moved = {(old, name) for old, _, name in MOVED} & {(f"peblab.{module}", name) for module, name in reads}
    assert {(old, name) for old, _, name in LAZY} == moved


@pytest.mark.parametrize("old, home, name", MOVED)
def test_a_lazy_name_is_its_home_modules_object(old, home, name):
    value = getattr(importlib.import_module(home), name)
    if (old, home, name) not in LAZY:  # read from its home alone
        assert not hasattr(sys.modules[old], name)
        return
    assert getattr(sys.modules[old], name) is value
    namespace = {}
    exec(f"from {old} import {name}", namespace)
    assert namespace[name] is value


# in a fresh process, so that no earlier test has loaded a home module
FRESH = """
import sys
from peblab import formulas, pebbling, resolution
assert not {"peblab.lift", "peblab.sat", "peblab.saturation", "peblab.subconf"} & sys.modules.keys()
for old, home, name in LAZY:
    module = sys.modules[old]
    assert name not in vars(module), name
    value = getattr(module, name)
    assert vars(module)[name] is value is getattr(sys.modules[home], name), name
"""


def test_a_home_module_loads_on_first_use_and_leaves_the_name_behind():
    proc = subprocess.run([sys.executable, "-c", f"LAZY = {LAZY!r}\n{FRESH}"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("old", [formulas, pebbling, resolution])
def test_an_unknown_name_is_still_an_attribute_error(old):
    with pytest.raises(AttributeError, match="no_such_name"):
        old.no_such_name
    assert not hasattr(old, "_no_such_private_name")
