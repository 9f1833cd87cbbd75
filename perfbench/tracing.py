"""In-memory spans around the library's layer functions.

``Tracer.install`` wraps the functions named in ``TARGETS`` and rebinds
every name in the ``covariant_kit`` modules that refers to one of them,
not only the defining module's: ``cli`` imports its layers with
``from ... import``, and closures in ``generators`` and
``representations`` look up ``lorentz_exp`` and ``rep_matrix`` through
their own module globals.  Spans are plain lists kept in memory:
``[name, start, end, parent index, count]``.
"""

from __future__ import annotations

import functools
import os
import sys
import time

PACKAGE = "covariant_kit"
# (module, function, span name).  Span names are the metric prefixes.
TARGETS = (
    ("geometry", "lorentz_exp", "geometry.lorentz_exp"),
    ("representations", "rep_matrix", "representations.rep_matrix"),
    ("representations", "sigma_tensor", "representations.sigma_tensor"),
    ("fields", "pairing", "fields.pairing"),
    ("fields", "dump_field_csv", "fields.dump_field_csv"),
    ("generators", "rep_generators", "generators.rep_generators"),
    ("generators", "flow_fields", "generators.flow_fields"),
    ("generators", "volume_rates", "generators.volume_rates"),
    ("generators", "extract_all", "generators.extract_all"),
    ("heisenberg", "verify_local_relation", "heisenberg.verify_local_relation"),
    ("heisenberg", "verify_bundle_relation", "heisenberg.verify_bundle_relation"),
    ("heisenberg", "toy_commutator_check", "heisenberg.toy_commutator_check"),
    ("cli", "validate", "cli.validate"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "main", "cli.main"),
)

NAME, START, END, PARENT, COUNT = range(5)


def _points(args) -> int:
    shape = getattr(args[0], "shape", None)
    if shape is None:
        return 1
    size = 1
    for d in shape[:-1]:
        size *= int(d)
    return size


def _pairing_count(args, kwargs, result) -> int:
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return grid.npoints


def _csv_count(args, kwargs, result) -> int:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return grid.npoints


def _relation_units(args, kwargs, result) -> int:
    family = kwargs.get("family", args[1] if len(args) > 1 else None)
    steps = kwargs.get("convergence_steps", args[5] if len(args) > 5 else ())
    return family.s * (1 + len(steps))


COUNTERS = {
    "fields.pairing": _pairing_count,
    "fields.dump_field_csv": _csv_count,
    "heisenberg.verify_local_relation": _relation_units,
}


class Tracer:
    """Records nested spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans: list = []
        self.extra: dict = {"fields.dump_field_csv.bytes": 0}
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result

        return traced

    def _wrap_packet(self, fn):
        """Wrap ``wave_packet`` so points are counted at the innermost packet.

        Transforms nest the packet's closures inside their own; only the
        packet's ``evaluate``/``gradient`` carry spans, so each point is
        counted once however deep the tower of transforms.
        """
        count = lambda args, kwargs, result: _points(args)

        @functools.wraps(fn)
        def packet(*args, **kwargs):
            ff = fn(*args, **kwargs)
            return type(ff)(
                ff.n,
                self.wrap("fields.evaluate", ff.evaluate, count),
                self.wrap("fields.gradient", ff.gradient, count),
            )

        return packet

    def _wrap_csv(self, fn):
        traced = self.wrap("fields.dump_field_csv", fn, COUNTERS["fields.dump_field_csv"])

        @functools.wraps(fn)
        def dump(field, grid, path):
            traced(field, grid, path)
            self.extra["fields.dump_field_csv.bytes"] += os.path.getsize(path)

        return dump

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        plan = [(f"{PACKAGE}.{mod}", fn, name) for mod, fn, name in TARGETS]
        plan.append((f"{PACKAGE}.fields", "wave_packet", None))
        for modname, fn_name, span_name in plan:
            original = getattr(sys.modules[modname], fn_name)
            if span_name is None:
                wrapper = self._wrap_packet(original)
            elif span_name == "fields.dump_field_csv":
                wrapper = self._wrap_csv(original)
            else:
                wrapper = self.wrap(span_name, original, COUNTERS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def self_times(spans) -> list:
    """Span duration minus the part of it covered by its child spans.

    Child intervals are clipped to the parent and merged, so the result
    is exact also for children that overlap or outlive their parent.
    """
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][START]):
            lo, hi = max(spans[c][START], cursor), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
