"""Per-module spans and counts for one traced stage child.

The tracer wraps public functions of the `peblab` modules from outside:
it replaces every module-level binding of each function (including
`from .x import f` copies in other modules) with a wrapper, so calls
made inside the package are traced too.  Nothing under `src/` changes.

A wrapped call opens a span.  A group's `busy_s` is self time: the
span's duration minus the spans of wrapped calls made inside it.

Not instrumented: `boolfunc` (cached clause sets, microsecond calls),
`cnf` (value methods run millions of times, so timing them from outside
would measure the tracer) and `errors` (no work).
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "dag", "formulas", "pebbling", "resolution", "projections", "boolfunc", "cnf")


def _text_bytes(text: str) -> int:
    return len(text.encode())


def _steps(refutation) -> int:
    return len(refutation.steps)


# group -> (module, function names); every function in a group adds its
# self time to `<group>.busy_s`.
TIMED = {
    "dag": ("dag", ["build_pyramid", "build_binary_tree", "build_path",
                    "parse_dag", "serialize_dag", "parse_family"]),
    "formulas.substitute": ("formulas", ["pebbling_contradiction", "substitute",
                                         "substitution_images", "base_of_substituted"]),
    "formulas.dimacs": ("formulas", ["to_dimacs", "from_dimacs"]),
    "formulas.sat": ("formulas", ["brute_force_sat"]),
    "pebbling.greedy": ("pebbling", ["greedy_black_strategy"]),
    "pebbling.validate": ("pebbling", ["validate_bw", "validate_labelled", "validate_blob"]),
    "pebbling.price": ("pebbling", ["optimal_black_price", "optimal_bw_price",
                                    "optimal_black_pebbling", "optimal_bw_pebbling"]),
    "resolution.saturate": ("resolution", ["saturate"]),
    "resolution.compile": ("resolution", ["pebbling_to_refutation", "constant_space_refutation"]),
    "resolution.lift": ("resolution", ["lift_refutation"]),
    "resolution.check": ("resolution", ["check_refutation"]),
    "resolution.trace_io": ("resolution", ["serialize_refutation", "parse_refutation_trace"]),
    "resolution.min_width": ("resolution", ["min_width"]),
    "resolution.min_space": ("resolution", ["min_clause_space"]),
    "projections.project": ("projections", ["projected_sequence", "project", "local_project",
                                            "local_projection_variables", "precisely_implies"]),
    "projections.extract": ("projections", ["extract_refutation"]),
}

# (module, function) -> (counter, f(args, result) -> amount to add)
COUNTED = {
    ("formulas", "to_dimacs"): ("formulas.dimacs.bytes", lambda a, r: _text_bytes(r)),
    ("formulas", "from_dimacs"): ("formulas.dimacs.bytes", lambda a, r: _text_bytes(a[0])),
    ("formulas", "brute_force_sat"): ("formulas.sat.calls", lambda a, r: 1),
    ("pebbling", "greedy_black_strategy"): ("pebbling.greedy.moves", lambda a, r: r.time),
    ("resolution", "saturate"): ("resolution.saturate.calls", lambda a, r: 1),
    ("resolution", "check_refutation"): ("resolution.check.steps", lambda a, r: _steps(a[0])),
    ("resolution", "serialize_refutation"): ("resolution.trace_io.bytes", lambda a, r: _text_bytes(r)),
    ("resolution", "parse_refutation_trace"): ("resolution.trace_io.bytes", lambda a, r: _text_bytes(a[0])),
    ("resolution", "pebbling_to_refutation"): ("resolution.steps_built", lambda a, r: _steps(r)),
    ("resolution", "constant_space_refutation"): ("resolution.steps_built", lambda a, r: _steps(r)),
    ("resolution", "lift_refutation"): ("resolution.steps_built", lambda a, r: _steps(r)),
    ("projections", "extract_refutation"): ("resolution.steps_built", lambda a, r: _steps(r)),
}


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_time = [0.0]  # per open span: time covered by its child spans
        self._modules = {name: importlib.import_module(f"peblab.{name}") for name in MODULES}

    def _timed(self, group, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self.busy[group] += span - self._child_time.pop()
                self._child_time[-1] += span
            if counter:
                name, amount = counter
                self.counts[name] += amount(args, result)
            return result
        return wrapper

    def _counted_resolve(self, fn):
        # Counted, not timed: `resolve` runs tens of thousands of times per
        # stage and a span per call would cost more than the call.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["resolution.resolve.calls"] += 1
            result = fn(*args, **kwargs)  # a tautology raises TrivialResolvent
            self.counts["resolution.resolve.useful"] += 1
            return result
        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for module in self._modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)

    def install(self) -> None:
        """Wrap every binding of every traced function in the package."""
        for group, (module_name, names) in TIMED.items():
            for name in names:
                original = getattr(self._modules[module_name], name)
                counter = COUNTED.get((module_name, name))
                self._rebind(original, self._timed(group, original, counter))
        resolve = self._modules["resolution"].resolve
        self._rebind(resolve, self._counted_resolve(resolve))

    def totals(self) -> dict:
        out = {f"{group}.busy_s": self.busy.get(group, 0.0) for group in TIMED}
        out.update(self.counts)
        return out
