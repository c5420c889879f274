"""Per-layer tracing of qcycle from outside the package.

`Tracer.install()` wraps the public functions and dunders of each layer and
rebinds every qcycle module attribute (and class attribute alias) that held
the original, so from-imported names are traced too.  Hot arithmetic is
aggregated into call counts and self time (time minus the time of traced
callees); coarse boundaries also record spans in memory with a parent span
and a per-op trace id.  Nothing under src/ is modified.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

CLI_TRACE_ENV = "QBENCH_CLI_TRACE"      # the CLI runner writes its record here
CLI_PROFILE_ENV = "QBENCH_CLI_PROFILE"  # the CLI runner also checks with cProfile

MODULES = ("cyclotomic", "laurent", "wedge", "action", "cycles", "orbit",
           "characters", "fermion", "serialize", "sampling", "cli")

# layer -> [(module, qualified attribute)]; a class attribute is "Class.attr"
LAYERS = {
    "cyclotomic.mul": [("cyclotomic", "CycScalar.__mul__")],
    "cyclotomic.add": [("cyclotomic", "CycScalar.__add__"),
                       ("cyclotomic", "CycScalar.__sub__"),
                       ("cyclotomic", "CycScalar.__rsub__"),
                       ("cyclotomic", "CycScalar.__neg__")],
    "laurent.mul": [("laurent", "LaurentPoly.__mul__")],
    "laurent.exact_div": [("laurent", "exact_div")],
    "laurent.ratfn_arith": [("laurent", "RationalFn.%s" % m) for m in (
        "__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
        "__rtruediv__", "__pow__", "reciprocal")],
    "laurent.ratfn_eq": [("laurent", "RationalFn.__eq__")],
    "laurent.series_expand": [("laurent", "series_expand"),
                              ("laurent", "series_expand_coeffs")],
    "laurent.substitute": [("laurent", "substitute"),
                           ("laurent", "substitute_ratfn"),
                           ("laurent", "subs_poly")],
    "wedge.scaled": [("wedge", "WedgeElem.scaled")],
    "wedge.specialize_slot": [("wedge", "WedgeElem.specialize_slot")],
    "wedge.wedge": [("wedge", "WedgeElem.wedge")],
    "wedge.kernel": [("wedge", "kernel_F"), ("wedge", "kernel_F2")],
    "wedge.proportionality_scalar": [("wedge", "proportionality_scalar")],
    "action.act_series": [("action", "act_series")],
    "cycles.act_on_cycle": [("cycles", "act_on_cycle")],
    "cycles.link_residual": [("cycles", "link_residual")],
    "cycles.minimality": [("cycles", "is_minimal"), ("cycles", "is_weakly_minimal")],
    "fermion.cross_check": [("fermion", "cross_check")],
    "fermion.iso_to_wedge": [("fermion", "iso_to_wedge")],
    "fermion.iso_from_wedge": [("fermion", "iso_from_wedge")],
    "fermion.apply_series": [("fermion", "FermionOp.apply_series")],
    "fermion.halfcurrent": [("fermion", "halfcurrent")],
    "orbit.generate_W": [("orbit", "generate_W")],
    "orbit.member_mod_null": [("orbit", "member_mod_null")],
    "orbit.null_generators": [("orbit", "null_generators")],
    "orbit.rref_insert": [("orbit", "SparseRref.insert")],
    "characters.report": [("characters", name) for name in (
        "char_match_report", "char_product_report", "sum_identity_report",
        "stabilization_report", "level1_char", "demazure_char", "minimal_char",
        "measured_char")],
    "serialize.from_json": [("serialize", name) for name in (
        "poly_from_json", "ratfn_from_json", "wedge_from_json", "tower_from_json")],
    "serialize.to_json": [("serialize", name) for name in (
        "poly_to_json", "ratfn_to_json", "wedge_to_json", "tower_to_json",
        "infcycle_to_json", "dumps")],
    "cli.main": [("cli", "main")],
}

# coarse boundaries: these layers also record spans
SPAN_LAYERS = {"fermion.cross_check", "action.act_series", "cycles.act_on_cycle",
               "cycles.link_residual", "orbit.generate_W", "orbit.member_mod_null",
               "orbit.null_generators", "characters.report", "cli.main"}

CACHES = {"_DET_CACHE": "wedge", "_KERNEL_CACHE": "wedge", "_LOWER_CACHE": "action",
          "_BASIS_SERIES_CACHE": "action", "_G_WEDGE_CACHE": "fermion",
          "_ISO_INV_CACHE": "fermion", "_DIAG_OP_CACHE": "fermion"}


def import_qcycle() -> float:
    """Import every qcycle layer; returns the seconds it took."""
    t0 = time.perf_counter()
    for name in MODULES:
        importlib.import_module("qcycle." + name)
    return time.perf_counter() - t0


def cache_entries() -> dict:
    """Entry counts of the module caches, None for a cache that is gone."""
    out = {}
    for name, mod in CACHES.items():
        module = sys.modules.get("qcycle." + mod)
        cache = getattr(module, name, None)
        out[name] = len(cache) if isinstance(cache, dict) else None
    return out


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Owns the wrapper state: per-layer stats, the call stack and the spans."""

    def __init__(self):
        self.stats = {}
        self.stack = [[0.0]]  # one child-time accumulator per active call
        self.spans = []
        self.span_stack = []
        self.trace_id = None
        self.originals = {}   # layer -> list of original functions
        self.missing = {}
        self.on = [True]      # wrappers record only while on[0] is true

    # -- installation ---------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("qcycle." + name) for name in MODULES}
        for layer, targets in LAYERS.items():
            for modname, qual in targets:
                owner = mods[modname]
                *cls_path, attr = qual.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if not callable(orig):
                    self.missing[layer] = "%s.%s not found" % (modname, qual)
                    continue
                wrapper = self._wrap(layer, orig)
                self.originals.setdefault(layer, []).append(orig)
                if cls_path:
                    # rebind the method and every alias of it on the class
                    for key, val in list(vars(owner).items()):
                        if val is orig:
                            setattr(owner, key, wrapper)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, layer, fn):
        stack = self.stack
        clock = time.perf_counter
        st = self._stat(layer)
        if layer == "laurent.mul":
            # term pairs of the product; a scalar operand counts as one term
            def count(args, kwargs, result):
                a, b = args[0], args[1]
                st.extra += len(a.terms) * len(getattr(b, "terms", (0,)))
        elif layer == "orbit.rref_insert":
            def count(args, kwargs, result):
                st.extra += bool(result)
        else:
            count = None
        spans = layer in SPAN_LAYERS
        series = layer == "action.act_series"
        nondiv = (importlib.import_module("qcycle.laurent").NonDivisibleError
                  if layer == "laurent.exact_div" else ())

        on = self.on

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            span = self._open_span(layer) if spans else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except nondiv:
                st.extra += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                child = frame[0]
                stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt - child
                if series:  # also reported per family
                    fam = self._stat("action.act_series." + str(args[0]))
                    fam.calls += 1
                    fam.self_s += dt - child
                if span is not None:
                    self._close_span(span, t0, t0 + dt)
            if count is not None and result is not NotImplemented:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, name):
        span = {"id": len(self.spans), "name": name, "trace": self.trace_id,
                "parent": self.span_stack[-1]["id"] if self.span_stack else None}
        self.spans.append(span)
        self.span_stack.append(span)
        return span

    def _close_span(self, span, start, end):
        self.span_stack.pop()
        span["start"] = start
        span["end"] = end

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run unrecorded."""
        self.on[0] = False
        try:
            yield
        finally:
            self.on[0] = True

    def reset(self):
        """Forget everything recorded so far (set-up work is not traced)."""
        for st in self.stats.values():
            st.calls, st.self_s, st.extra = 0, 0.0, 0
        self.stack[:] = [[0.0]]
        self.spans = []
        self.span_stack = []

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {k: (s.calls, s.self_s, s.extra) for k, s in self.stats.items()}

    def accounted_s(self) -> float:
        """Time spent inside traced layers, over all top-level traced calls."""
        return self.stack[0][0]

    def profile_check(self, op) -> dict:
        """Run `op` under cProfile and compare call counts layer by layer.

        The wrappers and cProfile see the same calls, so a layer whose
        original functions were reached without its wrapper (an unpatched
        binding) shows a higher cProfile count.  Returns the mismatches.
        """
        import cProfile

        before = {k: s.calls for k, s in self.stats.items()}
        prof = cProfile.Profile()
        prof.enable()
        try:
            op()
        finally:
            prof.disable()
        by_code = {}
        for entry in prof.getstats():
            by_code[entry.code] = by_code.get(entry.code, 0) + entry.callcount
        mismatches = {}
        for layer, fns in self.originals.items():
            profiled = sum(by_code.get(fn.__code__, 0) for fn in fns)
            ours = self.stats[layer].calls - before.get(layer, 0)
            if profiled != ours:
                mismatches[layer] = {"wrapper_calls": ours, "cprofile_calls": profiled}
        return mismatches
