"""Spans around the calls into each qautk layer, installed from outside.

`Tracer.install` replaces the public functions of every qautk module (and
the methods listed in METHODS) with wrappers, both where they are defined
and wherever another module re-binds them by import.  A span is
(id, name, start, end, parent id, op id); spans live in memory until the
run writes them out.

The Cyclotomic arithmetic wrappers fire 10^5..10^6 times per order-48 op.
They never call another traced function, so instead of one span per call
they are rolled up per parent span into a (count, total) record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = (
    "cli", "dims", "exact_linalg", "ktheory", "resolution", "magic",
    "findim", "torsion", "cyclotomic", "repring",
)

# class -> {attribute: span name}; "init" covers construction and its
# validation, "build" both LatticeBasis constructors.
METHODS = {
    ("exact_linalg", "LatticeBasis"): {"__init__": "build", "from_rows": "build", "contains": "contains"},
    ("findim", "AlgState"): {"__init__": "init"},
    ("torsion", "FiniteGroup"): {"__post_init__": "init"},
    ("torsion", "Cocycle"): {"__post_init__": "init"},
    ("torsion", "GradedAlgebra"): {"__post_init__": "init", "from_dict": "from_dict", "to_dict": "to_dict"},
    ("cyclotomic", "Cyclotomic"): {"__mul__": "mul", "__add__": "add", "__sub__": "add", "inverse": "inverse"},
}

ROLLED_UP = frozenset({"cyclotomic.mul", "cyclotomic.add", "cyclotomic.inverse"})

# Functions too small and frequent to be a layer boundary.
SKIP = frozenset({"cyclotomic.cyclotomic_polynomial", "findim.qc"})

# Spans whose arguments or result `Tracer._observe` measures.
PROBED = frozenset({
    "exact_linalg.invariant_factors", "exact_linalg.kernel_basis", "exact_linalg.LatticeBasis.contains",
    "magic.evaluation_matrix", "findim.is_delta_form",
})


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.rollups: dict[tuple[int, str], list] = {}  # (parent, name) -> [count, total]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack = [0]
        self._next = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Size and outcome counters taken at the layer boundary."""
        c, m = self.counters, self.maxima
        if name == "exact_linalg.invariant_factors":
            a = args[0]
            c[name + ".in_cells"] += a.rows * a.cols
            m[name + ".in_bits_max"] = max(m[name + ".in_bits_max"], _max_bits(a.to_lists()))
        elif name == "exact_linalg.kernel_basis":
            m[name + ".out_bits_max"] = max(m[name + ".out_bits_max"], _max_bits(result))
        elif name == "exact_linalg.LatticeBasis.contains":
            c[name + ".hits"] += bool(result)
        elif name == "magic.evaluation_matrix":
            c[name + ".rows"] += result.rows
        elif name == "findim.is_delta_form":
            c[name + ".accepts"] += bool(result.is_delta_form)
        elif name == "cyclotomic.mul":
            m["cyclotomic.degree_max"] = max(m["cyclotomic.degree_max"], len(args[0].coeffs))

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        if name in ROLLED_UP:
            rollups = self.rollups
            stack = self._stack
            observe = self._observe if name == "cyclotomic.mul" else None

            @functools.wraps(fn)
            def rolled(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                if observe is not None:
                    # inside the timed interval, so the probe is charged to
                    # this wrapper rather than to the calling layer
                    observe(name, args, None)
                elapsed = clock() - start
                rec = rollups.get((stack[-1], name))
                if rec is None:
                    rollups[(stack[-1], name)] = [1, elapsed]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                return result

            return rolled

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((span, name, start, end, parent, self.op))
            if name in PROBED:
                # probing sizes is benchmark work; record it so it is not
                # charged to the parent layer's self time
                probe = clock()
                self._observe(name, args, result)
                self.spans.append((self._next, "trace.probe", probe, clock(), parent, self.op))
                self._next += 1
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"qautk.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for mod in mods.values():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rsplit(".", 1)[-1]
                name = f"{home}.{fn.__name__}"
                if home not in mods or name in SKIP:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn)
                self._patch(mod, attr, wrapped[id(fn)])
        for (short, cls_name), attrs in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr, label in attrs.items():
                raw = cls.__dict__[attr]
                name = f"{short}.{cls_name}.{label}" if short != "cyclotomic" else f"cyclotomic.{label}"
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "self_s"}; self time is a span's duration minus
        the time its children (spans and roll-ups) cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        for (parent, _), (_, total) in self.rollups.items():
            child_time[parent] += total
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, name, start, end, _, _ in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[span]
        for (_, name), (count, total) in self.rollups.items():
            out[name]["calls"] += count
            out[name]["self_s"] += total
        return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds a rolled-up wrapper adds per call, measured on a no-op."""
    tracer = Tracer()

    def noop(x):
        return x

    wrapped = tracer._wrap("cyclotomic.add", noop)
    timings = []
    for fn in (noop, wrapped, noop, wrapped):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        timings.append(time.perf_counter() - start)
    return max(0.0, (timings[1] + timings[3] - timings[0] - timings[2]) / (2 * calls))
