"""Every name `perfbench/tracer.py` wraps must exist in its `peblab` module.

The tracer looks its functions up by name when a traced benchmark run
(`perfbench/run.py --trace 1`) starts, so deleting or renaming one of
them breaks traced runs without failing any other test.  The tracer file
is loaded, not imported as a package, and its `install` is not called.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_existing_functions():
    tracer = load_tracer()
    bound = {(module, name) for module, names in tracer.TIMED.values() for name in names}
    bound |= set(tracer.COUNTED) | {("resolution", "resolve")}
    missing = sorted(
        f"peblab.{module}.{name}" for module, name in bound
        if not callable(getattr(importlib.import_module(f"peblab.{module}"), name, None))
    )
    assert not missing
    assert ("resolution", "saturate") in bound
