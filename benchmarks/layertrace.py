"""Per-layer tracing of skeinalg from outside the library.

``install(tracer)`` replaces the public functions and methods of each
skeinalg module with wrappers that count calls and time them.  A function
is replaced in every module namespace that binds it (``positivity`` binds
``structure_constants``, ``skein_torus`` binds ``expansion_coeffs``, and so
on), and ``__radd__``/``__rmul__`` are wrapped as attributes of their own.

Spans are aggregated, never stored one per call: label hashes and Laurent
operators run millions of times per workload.  A layer's self time is the
time inside its wrappers minus the time inside nested wrappers of any
layer.  Calls the wrappers do not cover (``Laurent(...)`` construction,
``Laurent.coerce``) are charged to the layer of the enclosing wrapper.
"""

from __future__ import annotations

import sys
import time

LAYERS = (
    "laurent", "curves", "polyseq", "elements", "skein_torus",
    "skein_ptorus", "skein_s04", "positivity", "reports", "cli",
)

_LAURENT_RING_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__",
)
_LABEL_METHODS = ("sort_key", "text", "json_obj")


def _result_terms(args, result) -> int:
    return len(result._terms)


def _self_terms(args, result) -> int:
    return len(args[0]._terms)


class Tracer:
    """Counters, maxima and per-layer self time for one traced process."""

    def __init__(self):
        self._stack = [0.0]
        self._self = {layer: [0.0] for layer in LAYERS}
        self._counts: dict[str, list[int]] = {}
        self._maxima: dict[str, list[int]] = {}
        self.originals: list = []

    def counter(self, name: str) -> list[int]:
        return self._counts.setdefault(name, [0])

    def maximum(self, name: str) -> list[int]:
        return self._maxima.setdefault(name, [0])

    def wrap(self, fn, layer: str, count: str | None = None, size: tuple | None = None):
        """Wrap ``fn`` as a span of ``layer``; ``count`` names a call counter,
        ``size`` is ``(metric name, measure(args, result))`` for a maximum."""
        stack = self._stack
        self_cell = self._self[layer]
        count_cell = self.counter(count) if count else None
        size_cell, measure = (self.maximum(size[0]), size[1]) if size else (None, None)
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if count_cell is not None:
                count_cell[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_cell[0] += dt - stack.pop()
                stack[-1] += dt
            if size_cell is not None:
                n = measure(args, result)
                if n > size_cell[0]:
                    size_cell[0] = n
            return result

        return wrapped

    def results(self) -> dict:
        out = {f"{layer}.self_s": cell[0] for layer, cell in self._self.items()}
        out.update({name: cell[0] for name, cell in self._counts.items()})
        out.update({name: cell[0] for name, cell in self._maxima.items()})
        return out


def _skeinalg_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "skeinalg"]


def _patch_function(tracer: Tracer, module, name: str, layer: str, count=None) -> None:
    original = getattr(module, name)
    wrapper = tracer.wrap(original, layer, count)
    tracer.originals.append(original)
    for mod in _skeinalg_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(tracer: Tracer, cls, name: str, layer: str, count=None, size=None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, staticmethod):
        replacement = staticmethod(tracer.wrap(raw.__func__, layer, count, size))
    elif isinstance(raw, classmethod):
        replacement = classmethod(tracer.wrap(raw.__func__, layer, count, size))
    elif isinstance(raw, property):
        replacement = property(tracer.wrap(raw.fget, layer, count, size))
    else:
        replacement = tracer.wrap(raw, layer, count, size)
    tracer.originals.append(raw)
    setattr(cls, name, replacement)


def _public_functions(module) -> list[str]:
    return [
        name for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    ]


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every skeinalg layer."""
    from skeinalg import (
        cli, curves, elements, laurent, polyseq, positivity, reports,
        skein_ptorus, skein_s04, skein_torus,
    )

    L = laurent.Laurent
    for op in _LAURENT_RING_OPS:
        _patch_method(tracer, L, op, "laurent", "laurent.ops", ("laurent.max_terms", _result_terms))
    for name in ("__eq__", "__hash__", "is_positive", "q_degree_range",
                 "specialize_q1", "invert_q", "to_json_obj"):
        _patch_method(tracer, L, name, "laurent")

    _patch_method(tracer, curves.CurveClass, "__init__", "curves", "curves.built")
    _patch_method(tracer, curves.CurveClass, "__hash__", "curves", "curves.hashes")
    for name in ("__eq__", "d", "is_primitive", "primitive", "scaled", "sort_key", "text"):
        _patch_method(tracer, curves.CurveClass, name, "curves")
    _patch_method(tracer, curves.MappingClass, "apply", "curves")

    E = elements.SkeinElement
    _patch_method(tracer, E, "__init__", "elements", "elements.built", ("elements.max_terms", _self_terms))
    for name in ("__add__", "__sub__", "__neg__", "scaled", "__rmul__", "map_labels",
                 "with_flavor", "labels", "coeff", "__eq__", "__hash__", "text", "to_json_obj"):
        _patch_method(tracer, E, name, "elements")
    # Labels live in the surface modules but are hashed and compared by the
    # element dicts, so their hashing is charged to the element layer.
    for label_cls, layer in ((skein_torus.TorusLabel, "skein_torus"),
                             (skein_ptorus.PTorusLabel, "skein_ptorus"),
                             (skein_s04.S04Label, "skein_s04")):
        _patch_method(tracer, label_cls, "__hash__", "elements", "elements.label_hashes")
        _patch_method(tracer, label_cls, "__eq__", "elements")
        for name in _LABEL_METHODS:
            _patch_method(tracer, label_cls, name, layer)

    P1 = polyseq.Poly1
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "scaled", "compose",
                 "__eq__", "__hash__", "const", "monomial"):
        _patch_method(tracer, P1, name, "polyseq")
    _patch_method(tracer, polyseq.PolySeq, "__init__", "polyseq", "polyseq.seqs_built")
    _patch_method(tracer, polyseq.PolySeq, "poly", "polyseq")
    _patch_method(tracer, polyseq.PolySeq, "from_polys", "polyseq")

    _patch_method(tracer, reports.Witness, "__init__", "reports", "reports.witnesses")
    for cls in (reports.Witness, reports.PositivityReport):
        _patch_method(tracer, cls, "to_json_obj", "reports")

    counted = {
        polyseq: {"expand_in": "polyseq.expand_calls"},
        skein_torus: {name: f"skein_torus.{name}" for name in ("fg_mul", "mul", "convert")},
        skein_ptorus: {
            name: f"skein_ptorus.{name}"
            for name in ("mul_once", "mul_t10_tn2", "mul_tn1_t01", "mul_by_t10",
                         "g_closed", "g_recursive")
        },
        skein_s04: {
            name: f"skein_s04.{name}"
            for name in ("mul_a_bn", "mul_tna_b", "mul_by_a", "mul_by_s10",
                         "mul_sn1_s01", "g_s04_closed")
        },
        positivity: {"perturbed_that": "positivity.perturbations"},
    }
    for module in (laurent, curves, elements, polyseq, skein_torus, skein_ptorus,
                   skein_s04, positivity):
        layer = module.__name__.rsplit(".", 1)[1]
        for name in _public_functions(module):
            _patch_function(tracer, module, name, layer, counted.get(module, {}).get(name))
    _patch_function(tracer, cli, "main", "cli")
    check_installed(tracer)


def check_installed(tracer: Tracer) -> None:
    """Fail if any skeinalg namespace still binds an unwrapped original."""
    originals = {id(fn) for fn in tracer.originals}
    for mod in _skeinalg_modules():
        for key, value in vars(mod).items():
            if id(value) in originals:
                raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")
