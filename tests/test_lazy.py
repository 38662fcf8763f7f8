"""A name listed in a module's `_LAZY` table resolves on that module to the
object of the sibling module that defines it, loaded on first use
(`peblab.lazy`)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from peblab import formulas, pebbling, resolution

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAZY = [(old.__name__, f"peblab.{home}", name)
        for old in (formulas, pebbling, resolution)
        for home, names in old._LAZY.items() for name in names]


@pytest.mark.parametrize("old, home, name", LAZY)
def test_a_lazy_name_is_its_home_modules_object(old, home, name):
    value = getattr(importlib.import_module(home), name)
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
