"""Per-layer tracing of quivertilt from outside the program.

A `Tracer` wraps every public module-level function of the `quivertilt`
package at every name it is bound to (a `from .quiver import mutate_matrix`
in `cluster` is a second binding of the same function), plus a fixed set of
methods patched on their classes.  Each wrapper records one span per call:
calls, inclusive seconds (outermost frame only, so recursion is not counted
twice) and self seconds (duration minus the spans of its direct children).
Spans are keyed by the instance the harness is running.  A few wrappers
also derive waste and reuse counters from arguments and return values.
`remove()` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

PACKAGE = "quivertilt"

# (module, class, method) -> span name; methods are patched on the class.
METHODS = {
    ("linalg", "Matrix", "__init__"): "linalg.matrix_new",
    ("linalg", "Matrix", "rref"): "linalg.rref",
    ("linalg", "Matrix", "__matmul__"): "linalg.matmul",
    ("linalg", "Matrix", "solve"): "linalg.solve",
    ("linalg", "Matrix", "kernel_basis"): "linalg.kernel_basis",
    ("fpoly", "IntPoly", "__mul__"): "fpoly.mul",
    ("fpoly", "IntPoly", "__pow__"): "fpoly.pow",
    ("fpoly", "IntPoly", "exact_div"): "fpoly.exact_div",
    ("algebra", "BoundAlgebra", "__init__"): "algebra.build",
    ("algebra", "BoundAlgebra", "compose"): "algebra.compose",
    ("family", "FamilyInstance", "module_M"): "family.module_M",
    ("reps", "Morphism", "is_isomorphism"): "reps.iso.candidate",
}


class _Span:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


def _module_key(m) -> tuple:
    """Content key of a representation: equal modules over one algebra."""
    maps = tuple(sorted((a.label, b.label, mat.rows) for (a, b), mat in m.maps.items()))
    dims = tuple(sorted((v.label, d) for v, d in m.dims.items() if d))
    return (id(m.algebra), dims, maps)


class Tracer:
    """Span recorder; `instance` names the spans' owner and is set by the caller."""

    def __init__(self):
        self.instance = "-"
        self.spans: dict[str, dict[str, _Span]] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._seen: dict[tuple, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str) -> _Span:
        per = self.spans.setdefault(self.instance, {})
        span = per.get(name)
        if span is None:
            span = per[name] = _Span()
        return span

    def add(self, name: str, value: float) -> None:
        per = self.counters.setdefault(self.instance, {})
        per[name] = per.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        per = self.counters.setdefault(self.instance, {})
        per[name] = max(per.get(name, 0), value)

    def repeat(self, name: str, key) -> None:
        """Count a call and whether `key` was seen before in this instance."""
        seen = self._seen.setdefault((self.instance, name), set())
        self.add(name + ".keyed", 1)
        if key in seen:
            self.add(name + ".repeats", 1)
        else:
            seen.add(key)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                depth[name] -= 1
                span = tracer._span(name)
                span.calls += 1
                span.self_s += dur - frame[0]
                if depth[name] == 0:
                    span.s += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        targets: dict[int, tuple[Callable, str]] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig))

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-instance spans and counters, as plain JSON data."""
        out = {}
        for inst in sorted(set(self.spans) | set(self.counters)):
            spans = {
                name: {"calls": sp.calls, "s": sp.s, "self_s": sp.self_s}
                for name, sp in sorted(self.spans.get(inst, {}).items())
            }
            out[inst] = {"spans": spans, "counters": dict(sorted(self.counters.get(inst, {}).items()))}
        return out


def package_modules() -> list:
    """The imported modules of the package, the package namespace included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


# -- counters derived from arguments and return values ---------------------


def _rref(tr: Tracer, args, _result) -> None:
    cells = args[0].nrows * args[0].ncols
    tr.add("linalg.rref.cells_sum", cells)
    tr.peak("linalg.rref.cells_max", cells)


def _hom_basis(tr: Tracer, args, _result) -> None:
    m, n = args[0], args[1]
    tr.peak("reps.hom_basis.unknowns_max", sum(d * n.dims.get(v, 0) for v, d in m.dims.items()))


def _projective(tr: Tracer, args, _result) -> None:
    tr.repeat("reps.projective", (id(args[0]), args[1]))


def _projective_cover(tr: Tracer, args, _result) -> None:
    tr.repeat("reps.projective_cover", _module_key(args[0]))


def _find_iso(tr: Tracer, _args, result) -> None:
    tr.add("reps.iso.hits", result is not None)


def _submodules(tr: Tracer, args, result) -> None:
    tr.add("reps.submodules_thin.masks", 1 << len(args[0].support()))
    tr.add("reps.submodules_thin.found", result.count)


def _mul(tr: Tracer, args, result) -> None:
    tr.add("fpoly.mul.term_pairs", len(args[0].terms) * len(args[1].terms))
    tr.peak("fpoly.terms_max", len(result.terms))


def _poly_result(tr: Tracer, _args, result) -> None:
    tr.peak("fpoly.terms_max", len(result.terms))


HOOKS: dict[str, Callable] = {
    "linalg.rref": _rref,
    "reps.hom_basis": _hom_basis,
    "reps.projective": _projective,
    "reps.projective_cover": _projective_cover,
    "reps.find_isomorphism_reps": _find_iso,
    "reps.submodules_thin": _submodules,
    "fpoly.mul": _mul,
    "fpoly.pow": _poly_result,
    "fpoly.exact_div": _poly_result,
}


# -- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_stat(name: str, stat: str):
    return lambda spans, _counters: spans.get(name, {}).get(stat, 0)


def _counter(name: str):
    return lambda _spans, counters: counters.get(name, 0)


def _repeat_ratio(name: str):
    return lambda _s, c: _ratio(c.get(name + ".repeats", 0), c.get(name + ".keyed", 0))


_SPAN_STATS = {
    "linalg.rref": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s"),
    "linalg.matrix_new": ("calls",),
    "linalg.solve": ("calls",),
    "linalg.kernel_basis": ("calls",),
    "reps.hom_basis": ("calls", "self_s"),
    "reps.projective": ("calls",),
    "reps.projective_cover": ("calls", "s"),
    "reps.kernel": ("calls",),
    "reps.cokernel": ("calls",),
    "reps.minimal_projective_presentation": ("calls", "s"),
    "reps.tau": ("calls", "s"),
    "reps.ext1_dim": ("calls", "s"),
    "reps.find_isomorphism_reps": ("calls", "s"),
    "reps.submodules_thin": ("calls", "s"),
    "fpoly.mul": ("calls", "self_s"),
    "fpoly.pow": ("calls",),
    "fpoly.exact_div": ("calls", "self_s"),
    "cluster.mutate_seed": ("calls", "s", "self_s"),
    "cluster.f_polynomial": ("calls", "s"),
    "cluster.cc_exponent": ("calls", "s"),
    "quiver.mutate_matrix": ("calls", "self_s"),
    "algebra.build": ("s",),
    "algebra.compose": ("calls",),
    "family.module_M": ("calls", "s"),
    "quiver.find_isomorphism": ("calls", "s"),
    "tilting.verify_tilting": ("s", "self_s"),
    "tilting.end_quiver": ("s", "self_s"),
    "properties.run_property_suite": ("s",),
}

# name -> (unit, derivation from spans and counters summed over instances;
# `_max` counters take the maximum instead of the sum)
LAYER_METRICS: dict[str, tuple[str, Callable]] = {}
for _name, _stats in _SPAN_STATS.items():
    for _stat in _stats:
        LAYER_METRICS[f"{_name}.{_stat}"] = ("count" if _stat == "calls" else "s", _span_stat(_name, _stat))
LAYER_METRICS.update(
    {
        "linalg.rref.cells_max": ("cells", _counter("linalg.rref.cells_max")),
        "linalg.rref.cells_sum": ("cells", _counter("linalg.rref.cells_sum")),
        "reps.hom_basis.unknowns_max": ("count", _counter("reps.hom_basis.unknowns_max")),
        "reps.projective.repeat_ratio": ("ratio", _repeat_ratio("reps.projective")),
        "reps.projective_cover.repeat_ratio": ("ratio", _repeat_ratio("reps.projective_cover")),
        "reps.iso.candidates": ("count", _span_stat("reps.iso.candidate", "calls")),
        "reps.iso.hit_ratio": (
            "ratio",
            lambda s, c: _ratio(c.get("reps.iso.hits", 0), s.get("reps.find_isomorphism_reps", {}).get("calls", 0)),
        ),
        "reps.submodules_thin.masks": ("count", _counter("reps.submodules_thin.masks")),
        "reps.submodules_thin.found": ("count", _counter("reps.submodules_thin.found")),
        "reps.submodules_thin.useful_ratio": (
            "ratio",
            lambda _s, c: _ratio(c.get("reps.submodules_thin.found", 0), c.get("reps.submodules_thin.masks", 0)),
        ),
        "fpoly.mul.term_pairs": ("count", _counter("fpoly.mul.term_pairs")),
        "fpoly.terms_max": ("count", _counter("fpoly.terms_max")),
    }
)


def combine(snapshot: dict) -> tuple[dict, dict]:
    """Sum spans and counters over instances (maxima for `_max` counters)."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for data in snapshot.values():
        for name, sp in data["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat, value in sp.items():
                acc[stat] += value
        for name, value in data["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans, counters


def layer_metrics(snapshot: dict) -> dict[str, float]:
    spans, counters = combine(snapshot)
    return {name: derive(spans, counters) for name, (_unit, derive) in LAYER_METRICS.items()}
