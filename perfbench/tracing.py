"""Per-layer tracing from outside the program.

`install` wraps every public function of each endolab module, the public
methods and arithmetic operators of the classes defined there, and every name
another module bound with ``from .x import name``.  A wrapper records one span
per call; spans are aggregated in memory per name as a call count and a self
time (the span's duration minus the time its child spans cover).  A few spans
also add an exact work count (term products, quotient terms, group elements).

`per_layer` turns the aggregates into the per-layer metrics that BENCHMARK.json
names.  Layers a workload never calls read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = (
    "exactnum",
    "laurent",
    "rootdata",
    "archcmp",
    "quadspace",
    "hecke",
    "dsconst",
    "signs",
    "endoscopy",
    "cli",
)

ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)

GAUSSIAN_OPS = tuple(f"exactnum.GaussianRational.{m}" for m in ARITHMETIC + ("inverse",))
LAURENT_MUL = ("laurent.Laurent.__mul__", "laurent.Laurent.__rmul__")


def _term_products(counter: str, cls_name: str):
    def count(counts, args, result):
        a, b = args[0], args[1]
        if type(b).__name__ == cls_name:
            counts[counter] = counts.get(counter, 0) + len(a.terms) * len(b.terms)

    return count


def _result_size(counter: str, size):
    def count(counts, args, result):
        counts[counter] = counts.get(counter, 0) + size(result)

    return count


COUNTERS = {
    "laurent.Laurent.__mul__": _term_products("laurent.mul.term_products", "Laurent"),
    "laurent.Laurent.__rmul__": _term_products("laurent.mul.term_products", "Laurent"),
    "laurent.Laurent.divide_exact": _result_size(
        "laurent.divide_exact.quotient_terms", lambda r: len(r.terms)
    ),
    "hecke.RelativeWeylGroup.elements": _result_size("hecke.group_elements.enumerated", len),
    "hecke.QLaurent.__mul__": _term_products("hecke.qlaurent_mul.term_products", "QLaurent"),
    "hecke.QLaurent.__rmul__": _term_products("hecke.qlaurent_mul.term_products", "QLaurent"),
}


class Tracer:
    """Aggregated spans: calls and self time per name, plus work counts."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self._open: list[float] = []  # child time covered so far, per open span

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._open
        counts = self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every endolab module in place."""
    modules = {name: importlib.import_module(f"endolab.{name}") for name in MODULES}
    wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for label, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                w = tracer.wrap(f"{label}.{attr}", obj)
                wrapped[id(obj)] = (obj, w)
                setattr(mod, attr, w)
            elif inspect.isclass(obj):
                _wrap_class(tracer, f"{label}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ARITHMETIC:
            continue
        name = f"{prefix}.{attr}"
        if inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(name, obj))
        elif isinstance(obj, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, obj.__func__)))


# --- per-layer metrics ------------------------------------------------------------

def _calls(stats, *names) -> int:
    return sum(stats[n][0] for n in names if n in stats)


def _self(stats, *names) -> float:
    return sum(stats[n][1] for n in names if n in stats)


def _module_self(stats, module: str) -> float:
    return sum(v[1] for k, v in stats.items() if k.split(".", 1)[0] == module)


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "exactnum.hilbert_symbol.calls": ("count", "lower"),
    "exactnum.hilbert_symbol.self_s": ("s", "lower"),
    "exactnum.gaussian.ops": ("count", "lower"),
    "exactnum.gaussian.self_s": ("s", "lower"),
    "exactnum.self_s": ("s", "lower"),
    "laurent.mul.calls": ("count", "lower"),
    "laurent.mul.term_products": ("count", "lower"),
    "laurent.mul.self_s": ("s", "lower"),
    "laurent.divide_exact.calls": ("count", "lower"),
    "laurent.divide_exact.quotient_terms": ("count", "lower"),
    "laurent.divide_exact.self_s": ("s", "lower"),
    "laurent.self_s": ("s", "lower"),
    "rootdata.kostant_euler_identity.self_s": ("s", "lower"),
    "rootdata.formal_character.calls": ("count", "lower"),
    "rootdata.formal_character.self_s": ("s", "lower"),
    "rootdata.levi_formal_character.self_s": ("s", "lower"),
    "rootdata.weyl_character.calls": ("count", "lower"),
    "rootdata.weyl_character.self_s": ("s", "lower"),
    "rootdata.weyl_element_mul.calls": ("count", "lower"),
    "rootdata.self_s": ("s", "lower"),
    "archcmp.L_M_normalized.calls": ("count", "lower"),
    "archcmp.L_M_normalized.self_s": ("s", "lower"),
    "archcmp.Phi_normalized.self_s": ("s", "lower"),
    "archcmp.Phi_endos_normalized.self_s": ("s", "lower"),
    "archcmp.sample_in_range.calls": ("count", "lower"),
    "archcmp.sample_in_range.self_s": ("s", "lower"),
    "archcmp.self_s": ("s", "lower"),
    "quadspace.hasse_invariant.calls": ("count", "lower"),
    "quadspace.hasse_invariant.self_s": ("s", "lower"),
    "quadspace.is_quasi_split_local.self_s": ("s", "lower"),
    "quadspace.is_quasi_split_oracle.self_s": ("s", "lower"),
    "quadspace.self_s": ("s", "lower"),
    "hecke.compute_fH_at_p.calls": ("count", "lower"),
    "hecke.compute_fH_at_p.self_s": ("s", "lower"),
    "hecke.constant_term.self_s": ("s", "lower"),
    "hecke.group_elements.calls": ("count", "lower"),
    "hecke.group_elements.enumerated": ("count", "lower"),
    "hecke.twisted_transfer.self_s": ("s", "lower"),
    "hecke.qlaurent_mul.term_products": ("count", "lower"),
    "hecke.self_s": ("s", "lower"),
    "dsconst.vanishing_quantities.self_s": ("s", "lower"),
    "dsconst.self_s": ("s", "lower"),
    "signs.self_s": ("s", "lower"),
    "endoscopy.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer(snapshot: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (without the trace.* and the
    cli.import_s / cli.process_s entries, which are measured around it)."""
    s, c = snapshot["stats"], snapshot["counts"]
    out = {
        "exactnum.hilbert_symbol.calls": _calls(s, "exactnum.hilbert_symbol"),
        "exactnum.hilbert_symbol.self_s": _self(s, "exactnum.hilbert_symbol"),
        "exactnum.gaussian.ops": _calls(s, *GAUSSIAN_OPS),
        "exactnum.gaussian.self_s": _self(s, *GAUSSIAN_OPS),
        "laurent.mul.calls": _calls(s, *LAURENT_MUL),
        "laurent.mul.term_products": c.get("laurent.mul.term_products", 0),
        "laurent.mul.self_s": _self(s, *LAURENT_MUL),
        "laurent.divide_exact.calls": _calls(s, "laurent.Laurent.divide_exact"),
        "laurent.divide_exact.quotient_terms": c.get("laurent.divide_exact.quotient_terms", 0),
        "laurent.divide_exact.self_s": _self(s, "laurent.Laurent.divide_exact"),
        "rootdata.kostant_euler_identity.self_s": _self(s, "rootdata.kostant_euler_identity"),
        "rootdata.formal_character.calls": _calls(s, "rootdata.formal_character"),
        "rootdata.formal_character.self_s": _self(s, "rootdata.formal_character"),
        "rootdata.levi_formal_character.self_s": _self(s, "rootdata.levi_formal_character"),
        "rootdata.weyl_character.calls": _calls(s, "rootdata.weyl_character"),
        "rootdata.weyl_character.self_s": _self(s, "rootdata.weyl_character"),
        "rootdata.weyl_element_mul.calls": _calls(s, "rootdata.WeylElement.__mul__"),
        "archcmp.L_M_normalized.calls": _calls(s, "archcmp.L_M_normalized"),
        "archcmp.L_M_normalized.self_s": _self(s, "archcmp.L_M_normalized"),
        "archcmp.Phi_normalized.self_s": _self(s, "archcmp.Phi_normalized"),
        "archcmp.Phi_endos_normalized.self_s": _self(s, "archcmp.Phi_endos_normalized"),
        "archcmp.sample_in_range.calls": _calls(s, "archcmp.sample_in_range"),
        "archcmp.sample_in_range.self_s": _self(s, "archcmp.sample_in_range"),
        "quadspace.hasse_invariant.calls": _calls(s, "quadspace.hasse_invariant"),
        "quadspace.hasse_invariant.self_s": _self(s, "quadspace.hasse_invariant"),
        "quadspace.is_quasi_split_local.self_s": _self(s, "quadspace.is_quasi_split_local"),
        "quadspace.is_quasi_split_oracle.self_s": _self(s, "quadspace.is_quasi_split_oracle"),
        "hecke.compute_fH_at_p.calls": _calls(s, "hecke.compute_fH_at_p"),
        "hecke.compute_fH_at_p.self_s": _self(s, "hecke.compute_fH_at_p"),
        "hecke.constant_term.self_s": _self(s, "hecke.constant_term"),
        "hecke.group_elements.calls": _calls(s, "hecke.RelativeWeylGroup.elements"),
        "hecke.group_elements.enumerated": c.get("hecke.group_elements.enumerated", 0),
        "hecke.twisted_transfer.self_s": _self(s, "hecke.twisted_transfer"),
        "hecke.qlaurent_mul.term_products": c.get("hecke.qlaurent_mul.term_products", 0),
        "dsconst.vanishing_quantities.self_s": _self(s, "dsconst.vanishing_quantities"),
        "cli.main.self_s": _self(s, "cli.main"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = _module_self(s, module)
    return out
