"""Run one `runpoly` CLI command with spans recorded around every layer call.

Usage: python tracer.py SPAN_FILE COMMAND_ID -- <runpoly cli arguments>

The program itself is not changed.  Before the command runs, this script
replaces the public functions and methods of each runpoly module with
wrappers that record a span (name, parent, start, end) per call.  It also
rebinds every name that another module imported with `from .x import y`,
since those bindings would otherwise bypass the wrapper.  Module imports are
spans too, so a layer's self time includes running its module body.

Spans are kept in memory and written to SPAN_FILE when the command ends: one
JSON header line, then the arrays `name` (uint32), `parent` (int32, -1 for
a root), `start` and `end` (float64 seconds).  Every span in the file belongs
to the command COMMAND_ID.  The header also carries work counters computed
from operand sizes, `cache_info()` of every lru_cache, and the import time.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time
from array import array
from fractions import Fraction
from math import factorial

LAYERS = (
    "poly",
    "bruteforce",
    "triangle",
    "closedform",
    "recurrences",
    "genfun",
    "serialize",
    "verification",
    "cli",
)
# Dunder methods that do layer work; other dunders are left unwrapped.
WRAPPED_DUNDERS = frozenset(
    "__init__ __add__ __radd__ __sub__ __rsub__ __neg__ __mul__ __rmul__ __pow__ __eq__".split()
)

clock = time.perf_counter


class SpanRecorder:
    """In-memory span store plus the work counters taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"poly.coeff_products": 0, "bruteforce.perms": 0, "triangle.cells": 0}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args) adds to a work counter."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, amount = count(args)
                self.counters[key] += amount
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def write(self, path: str, header: dict) -> None:
        header = dict(header, names=self.names, counters=self.counters, spans=len(self.name))
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


def _scalar(value) -> bool:
    return isinstance(value, (int, Fraction))


def _poly_mul_products(args):
    a, b = args
    if _scalar(b):
        return "poly.coeff_products", len(a.coeffs)
    if hasattr(b, "coeffs"):
        return "poly.coeff_products", len(a.coeffs) * len(b.coeffs)
    return "poly.coeff_products", 0


def _series_mul_products(args):
    a, b = args
    if _scalar(b):
        return "poly.coeff_products", len(a.coeffs)
    m = min(a.order, getattr(b, "order", a.order))
    # the loop forms a_i * b_j for every i + j <= m
    return "poly.coeff_products", (m + 1) * (m + 2) // 2


def _reciprocal_products(args):
    p, order = args
    terms = len(p.coeffs) - 1
    return "poly.coeff_products", sum(min(m, terms) for m in range(1, order + 1))


def _brute_perms(args):
    (n_max,) = args
    return "bruteforce.perms", sum(factorial(n) for n in range(2, n_max + 1))


def _triangle_cells(args):
    (n_max,) = args
    return "triangle.cells", n_max * (n_max - 1) // 2


COUNTERS = {
    "poly.Polynomial.mul": _poly_mul_products,
    "poly.TruncatedSeries.mul": _series_mul_products,
    "poly.series_reciprocal": _reciprocal_products,
    "bruteforce.brute_triangle": _brute_perms,
    "triangle.build_triangle": _triangle_cells,
}


class _TracingLoader:
    """Delegating loader that records module execution as an `<layer>.import` span."""

    def __init__(self, loader, recorder: SpanRecorder, layer: str):
        self._loader = loader
        self.exec_module = recorder.wrap(f"{layer}.import", loader.exec_module)

    def __getattr__(self, attr):
        return getattr(self._loader, attr)


class _TracingFinder:
    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "runpoly" and not fullname.startswith("runpoly."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None and spec.loader is not None:
            layer = fullname.partition(".")[2] or "runpoly"
            spec.loader = _TracingLoader(spec.loader, self.recorder, layer)
        return spec


def _span_name(layer: str, owner: str | None, fn) -> str:
    base = fn.__name__.strip("_")
    return f"{layer}.{owner}.{base}" if owner else f"{layer}.{base}"


def install(recorder: SpanRecorder) -> dict[str, object]:
    """Wrap each layer's public callables; return the lru_caches by span name."""
    replaced: dict[int, object] = {}
    caches: dict[str, object] = {}

    def wrap(layer, owner, fn):
        if id(fn) not in replaced:
            name = _span_name(layer, owner, fn)
            replaced[id(fn)] = recorder.wrap(name, fn, COUNTERS.get(name))
            if hasattr(fn, "cache_info"):
                caches[name] = fn
        return replaced[id(fn)]

    for layer in LAYERS:
        module = sys.modules[f"runpoly.{layer}"]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                for meth, member in list(vars(value).items()):
                    if meth.startswith("_") and meth not in WRAPPED_DUNDERS:
                        continue
                    if isinstance(member, classmethod):
                        setattr(value, meth, classmethod(wrap(layer, value.__name__, member.__func__)))
                    elif callable(member) and not isinstance(member, type):
                        setattr(value, meth, wrap(layer, value.__name__, member))
            elif callable(value):
                setattr(module, attr, wrap(layer, None, value))

    # names bound by `from .x import y` still point at the originals
    for modname, module in list(sys.modules.items()):
        if modname == "runpoly" or modname.startswith("runpoly."):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and not isinstance(value, type):
                    setattr(module, attr, replaced[id(value)])
    return caches


def main(argv: list[str]) -> int:
    span_file, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPAN_FILE COMMAND_ID -- <cli arguments>")
    recorder = SpanRecorder()
    sys.meta_path.insert(0, _TracingFinder(recorder))
    t0 = clock()
    import runpoly.cli

    import_s = clock() - t0
    caches = install(recorder)
    code = runpoly.cli.main(cli_args)
    sys.stdout.flush()
    cache_info = {name: list(fn.cache_info()[:2]) for name, fn in caches.items()}
    recorder.write(
        span_file,
        {"command_id": int(command_id), "import_s": import_s, "cache_info": cache_info},
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
